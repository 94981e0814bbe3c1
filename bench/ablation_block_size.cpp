/// \file ablation_block_size.cpp
/// \brief Ablation: effect of the unit-block size on TAC's rate,
/// distortion and pre-processing time (DESIGN.md design-choice study).
///
/// Small blocks remove empty space precisely but multiply boundary
/// surface (more poorly-predicted cells, more metadata); large blocks do
/// the opposite. The paper fixes ~16^3 on 512^3 grids; this sweep shows
/// the tradeoff explicitly at our scale.

#include <cstdio>

#include "bench_util.hpp"
#include "common/telemetry.hpp"

int main() {
  using namespace tac;
  bench::print_header(
      "Ablation: unit block size vs rate/distortion/pre-process time\n"
      "(z10-like dataset, fixed abs eb)");

  simnyx::GeneratorConfig gc;
  gc.finest_dims = {128, 128, 128};
  gc.level_densities = {0.23, 0.77};
  const auto ds = simnyx::generate_baryon_density(gc);
  const auto uniform = amr::compose_uniform(ds);

  // Pre-processing time comes from the stage totals: the extraction,
  // group gathering and GSP/ZF padding spans of each level encode.
  telemetry::set_mode(telemetry::Mode::kCounters);
  std::printf("%-10s %10s %10s %9s %14s\n", "block", "bitrate", "PSNR(dB)",
              "CR", "preproc(ms)");
  for (const std::size_t block : {2u, 4u, 8u, 16u, 32u}) {
    core::TacConfig cfg;
    cfg.sz.mode = sz::ErrorBoundMode::kAbsolute;
    cfg.sz.error_bound = 1e8;
    cfg.block_size = block;
    telemetry::reset_stages();
    const auto compressed = core::tac_compress(ds, cfg);
    double preproc_ns = 0;
    for (const auto& s : telemetry::collect_stages())
      if (s.name == "tac.extract" || s.name == "tac.gather_groups" ||
          s.name == "tac.pad")
        preproc_ns += static_cast<double>(s.ns);
    const auto recon = core::decompress_any(compressed.bytes);
    const auto uniform_recon = amr::compose_uniform(recon);
    const auto stats =
        analysis::distortion(uniform.span(), uniform_recon.span());
    std::printf("%-10zu %10.3f %10.2f %9.1f %14.2f\n", block,
                analysis::bit_rate(ds.total_valid(),
                                   compressed.bytes.size()),
                stats.psnr,
                analysis::compression_ratio(ds.original_bytes(),
                                            compressed.bytes.size()),
                preproc_ns * 1e-6);
  }
  return 0;
}
