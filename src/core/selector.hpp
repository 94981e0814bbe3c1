#ifndef TAC_CORE_SELECTOR_HPP
#define TAC_CORE_SELECTOR_HPP

/// \file selector.hpp
/// \brief Per-level adaptive backend selection — the `auto` pseudo-backend.
///
/// BENCH_tab02.json shows no single method wins every (dataset, error
/// bound) cell: TAC's density-adaptive 3D encode wins dense fields while
/// the 1D baseline wins sparse, near-constant ones. The selector exploits
/// that per level: it trial-compresses a small deterministic sample of
/// each level's occupied unit blocks with every level-capable registered
/// backend (CompressorBackend::supports_level_payloads), and encodes the
/// level with the backend whose trial came out smallest. The chosen
/// method is recorded in the v4 payload index's selector byte, so
/// decoding needs no side channel: each payload dispatches to the backend
/// its entry names.
///
/// Determinism: block sampling is a pure function of (occupancy, level,
/// seed), and the verdict compares trial byte counts — which are
/// byte-stable across thread counts and SIMD tiers — with ties going to
/// the lowest method tag, so the same input and config produce the same
/// per-level choices and a byte-identical container anywhere.

#include <vector>

#include "core/backend.hpp"

namespace tac::core {

/// One candidate's trial on the sampled stand-in level.
struct CandidateTrial {
  Method method = Method::kTac;
  std::size_t trial_bytes = 0;  ///< sampled-payload size; smallest wins
};

/// The verdict for one level: the winning backend plus every trial that
/// competed (diagnostics for `tac_file_tool info`-style tooling). The
/// selection's time is the `selector.select_level` span's.
struct SelectionDecision {
  Method winner = Method::kTac;
  std::size_t occupied_blocks = 0;  ///< occupied unit blocks in the level
  std::size_t sampled_blocks = 0;   ///< blocks trial-compressed
  std::vector<CandidateTrial> trials;  ///< candidate-tag ascending
};

/// The effective candidate set: `cfg.candidates` (or, when empty, every
/// registered backend) filtered to backends that support per-level
/// payloads, ascending by tag. Throws std::invalid_argument when the
/// filter leaves nothing to choose from.
[[nodiscard]] std::vector<Method> selector_candidates(
    const SelectorConfig& cfg);

/// Picks the backend for `lv` (level index `level` of its dataset) by
/// trial-compressing a sampled stand-in level with each candidate under
/// `cfg`'s error bound. Empty levels skip the trials and deterministically
/// pick the lowest-tag candidate.
[[nodiscard]] SelectionDecision select_for_level(const amr::AmrLevel& lv,
                                                 std::size_t level,
                                                 const TacConfig& cfg);

}  // namespace tac::core

#endif  // TAC_CORE_SELECTOR_HPP
