/// \file tac_file_tool.cpp
/// \brief Command-line compressor for AMR snapshot files — the tool a
/// downstream user would wire into an I/O pipeline.
///
///   tac_file_tool gen <out.amr> [n=64]        generate a demo snapshot
///   tac_file_tool compress <in.amr> <out.tac> [rel_eb=1e-4]
///                 [--method=m | m]
///   tac_file_tool decompress <in.tac> <out.amr>
///   tac_file_tool extract <in.tac> <out.amr> --level=k [--field=f]
///   tac_file_tool info <file> [--timing]      inspect any format
///   tac_file_tool stats <file>                decode + telemetry report
///
/// method: tac (default, adaptive), 1d, zmesh, 3d, auto (per-level
/// trial selection over the backend registry: the smallest trial wins)
///
/// `extract` uses the v2 payload index for random access: --level=k decodes
/// only level k's payload (TAC/1D containers), and --field=f picks one
/// field out of a compressed snapshot without touching the others. `info`
/// prints the payload index and verifies every checksum.
///
/// Any command also takes the global flag `--trace=<out.json>`: the run
/// executes under telemetry spans mode (see docs/TELEMETRY.md) and a
/// Chrome-tracing/Perfetto JSON trace is written on exit, rooted at a
/// `cli.<command>` span.
///
/// Exit codes: 0 success, 1 unexpected error, 2 usage error, 3 file I/O
/// error, 4 corrupt/undecodable container.
///
/// Run with no arguments for a self-contained demo in the current
/// directory.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "amr/amr_io.hpp"
#include "amr/snapshot.hpp"
#include "analysis/metrics.hpp"
#include "common/telemetry.hpp"
#include "core/adaptive.hpp"
#include "core/backend.hpp"
#include "simnyx/generator.hpp"

namespace {

using namespace tac;

constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kExitCorrupt = 4;

/// File-level failures (open/read/write) — mapped to kExitIo, distinct
/// from corrupt-container errors raised by the decoders.
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Undecodable input bytes — mapped to kExitCorrupt.
struct CorruptError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs one decode step over already-read file bytes. Inside a decode,
/// ANY library exception means the bytes are bad — the lossless layer
/// throws invalid_argument for impossible Huffman tables, sz throws
/// runtime_error — so everything maps to CorruptError (exit 4), never to
/// the usage exit reserved for bad command lines.
template <class F>
auto decode_step(F&& f) -> decltype(f()) {
  try {
    return f();
  } catch (const tac::core::ChecksumError&) {
    throw;
  } catch (const std::exception& e) {
    throw CorruptError(e.what());
  }
}

/// Streamed in fixed chunks instead of one slurp: bounded syscall sizes,
/// and short reads/writes surface as IoError instead of silently handing
/// a half-filled buffer to the decoders.
constexpr std::size_t kIoChunk = std::size_t{1} << 20;  // 1 MiB

std::vector<std::uint8_t> read_file(const std::string& path) {
  TAC_SPAN_NAMED(span, "cli.load");
  std::ifstream f(path, std::ios::binary);
  if (!f) throw IoError("cannot open " + path);
  // Sized once from the file: one allocation and no regrowth per chunk.
  // file_size also refuses a directory, which opens as a stream.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw IoError("cannot size " + path + ": " + ec.message());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  for (std::size_t pos = 0; pos < bytes.size(); pos += kIoChunk) {
    const std::size_t n = std::min(kIoChunk, bytes.size() - pos);
    f.read(reinterpret_cast<char*>(bytes.data() + pos),
           static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(f.gcount()) != n)
      throw IoError("read failed: " + path);
  }
  span.set_bytes(bytes.size());
  return bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  TAC_SPAN_BYTES("cli.write", bytes.size());
  std::ofstream f(path, std::ios::binary);
  if (!f) throw IoError("cannot open " + path);
  for (std::size_t pos = 0; pos < bytes.size(); pos += kIoChunk) {
    const std::size_t n = std::min(kIoChunk, bytes.size() - pos);
    f.write(reinterpret_cast<const char*>(bytes.data() + pos),
            static_cast<std::streamsize>(n));
    if (!f) throw IoError("write failed: " + path);
  }
  f.flush();
  if (!f) throw IoError("write failed: " + path);
}

int cmd_gen(const std::string& out, std::size_t n) {
  simnyx::GeneratorConfig gen;
  gen.finest_dims = {n, n, n};
  gen.level_densities = {0.23, 0.77};
  gen.region_size = 8;
  const auto ds = [&] {
    TAC_SPAN("cli.generate");
    return simnyx::generate_baryon_density(gen);
  }();
  {
    TAC_SPAN("cli.write");
    amr::save_dataset(out, ds);
  }
  std::printf("wrote %s: %zu levels, %zu values\n", out.c_str(),
              ds.num_levels(), ds.total_valid());
  return 0;
}

int cmd_compress(const std::string& in, const std::string& out,
                 double rel_eb, const std::string& method) {
  auto ds = [&] {
    TAC_SPAN("cli.load");
    return amr::load_dataset(in);
  }();
  core::TacConfig cfg;
  cfg.sz.mode = sz::ErrorBoundMode::kRelative;
  cfg.sz.error_bound = rel_eb;

  core::CompressedAmr compressed;
  if (method == "tac") {
    compressed = core::adaptive_compress(ds, cfg);
  } else if (method == "1d") {
    compressed = core::backend_for(core::Method::kOneD).compress(ds, cfg);
  } else if (method == "zmesh") {
    compressed = core::backend_for(core::Method::kZMesh).compress(ds, cfg);
  } else if (method == "3d") {
    compressed =
        core::backend_for(core::Method::kUpsample3D).compress(ds, cfg);
  } else if (method == "auto") {
    compressed = core::backend_for(core::Method::kAuto).compress(ds, cfg);
  } else {
    std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
    return kExitUsage;
  }
  write_file(out, compressed.bytes);
  std::printf("%s -> %s: %s, CR %.1f\n", in.c_str(), out.c_str(),
              core::to_string(compressed.report.method),
              analysis::compression_ratio(compressed.report.original_bytes,
                                          compressed.bytes.size()));
  if (compressed.report.method == core::Method::kAuto) {
    std::printf("  per-level winners:");
    for (std::size_t l = 0; l < compressed.report.levels.size(); ++l)
      std::printf(" %zu:%s", l,
                  core::to_string(compressed.report.levels[l].method));
    std::printf("\n");
  }
  {
    // Free the input and the container inside a child span: their
    // teardown is part of the command's time, not a gap after cli.write.
    TAC_SPAN("cli.release");
    const auto released_input = std::move(ds);
    const auto released_output = std::move(compressed);
  }
  return 0;
}

int cmd_decompress(const std::string& in, const std::string& out) {
  const auto bytes = read_file(in);
  const auto ds = decode_step([&] { return core::decompress_any(bytes); });
  {
    TAC_SPAN("cli.write");
    amr::save_dataset(out, ds);
  }
  std::printf("%s -> %s: field '%s', %zu levels\n", in.c_str(), out.c_str(),
              ds.field_name().c_str(), ds.num_levels());
  return 0;
}

int cmd_extract(const std::string& in, const std::string& out, long level,
                const std::string& field) {
  const auto bytes = read_file(in);

  std::span<const std::uint8_t> container(bytes);
  if (!field.empty()) {
    if (!core::is_compressed_snapshot(bytes)) {
      std::fprintf(stderr,
                   "--field requires a compressed snapshot input "
                   "(%s is a single-field container)\n",
                   in.c_str());
      return kExitUsage;
    }
    // One parse serves both the misspelled-field usage message and the
    // slice lookup.
    const auto fields =
        decode_step([&] { return core::snapshot_fields(bytes); });
    const auto it =
        std::find_if(fields.begin(), fields.end(),
                     [&](const auto& f) { return f.name == field; });
    if (it == fields.end()) {
      std::fprintf(stderr, "no field '%s' in %s (fields:", field.c_str(),
                   in.c_str());
      for (const auto& f : fields)
        std::fprintf(stderr, " %s", f.name.c_str());
      std::fprintf(stderr, ")\n");
      return kExitUsage;
    }
    if (!it->checksum_ok)
      throw core::ChecksumError("snapshot container: field \"" + field +
                                "\" checksum mismatch");
    container = it->bytes;
  } else if (core::is_compressed_snapshot(bytes)) {
    std::fprintf(stderr,
                 "%s is a multi-field snapshot; pick one with --field=<name> "
                 "(fields:",
                 in.c_str());
    for (const auto& f :
         decode_step([&] { return core::snapshot_fields(bytes); }))
      std::fprintf(stderr, " %s", f.name.c_str());
    std::fprintf(stderr, ")\n");
    return kExitUsage;
  }

  if (level < 0) {
    // Field-only extraction: decode the whole selected container.
    const auto ds =
        decode_step([&] { return core::decompress_any(container); });
    {
      TAC_SPAN("cli.write");
      amr::save_dataset(out, ds);
    }
    std::printf("%s -> %s: field '%s', %zu levels\n", in.c_str(), out.c_str(),
                ds.field_name().c_str(), ds.num_levels());
    return 0;
  }

  // Level extraction: the payload index makes this O(level), not
  // O(dataset), for TAC/1D containers. Parse the header once — it is
  // structure only, so the level count check below allocates no level —
  // and hand it to the backend directly.
  const core::CommonHeader h = decode_step([&] {
    ByteReader header_reader(container);
    return core::read_common_header(header_reader);
  });
  if (static_cast<std::size_t>(level) >= h.num_levels()) {
    std::fprintf(stderr, "no level %ld in %s (container has %zu levels)\n",
                 level, in.c_str(), h.num_levels());
    return kExitUsage;
  }
  amr::AmrLevel lv = decode_step([&] {
    return core::backend_for(h.method).decompress_level(
        container, h, static_cast<std::size_t>(level));
  });
  const auto dims = lv.dims();
  const std::size_t valid = lv.valid_count();
  amr::AmrDataset single(h.field_name, {std::move(lv)}, h.refinement_ratio);
  {
    TAC_SPAN("cli.write");
    amr::save_dataset(out, single);
  }
  std::printf("%s -> %s: field '%s' level %ld of %zu, %zux%zux%zu, "
              "%zu valid cells\n",
              in.c_str(), out.c_str(), single.field_name().c_str(), level,
              h.num_levels(), dims.nx, dims.ny, dims.nz, valid);
  return 0;
}

/// --timing: decode each payload through the v2 index and report where
/// decompression time goes. One payload maps to one level for TAC/1D
/// containers, so this is the per-level random-access cost a reader pays;
/// single-payload methods (zmesh/3D) time the full decode. Timing comes
/// from the telemetry stage spans the library already carries: the
/// decodes run under spans mode and the merged stage tree is printed, so
/// the breakdown matches `--trace` / `stats` instead of a parallel set of
/// ad-hoc timers.
void print_payload_timing(const std::vector<std::uint8_t>& bytes,
                          const core::CommonHeader& h) {
  const telemetry::Mode saved = telemetry::set_mode(telemetry::Mode::kSpans);
  telemetry::reset_spans();
  telemetry::reset_stages();
  const std::span<const std::uint8_t> container(bytes);
  {
    TAC_SPAN_NAMED(root, "info.timing");
    root.set_bytes(bytes.size());
    if (h.index.entries.size() == h.num_levels()) {
      for (std::size_t l = 0; l < h.num_levels(); ++l) {
        TAC_SPAN("info.payload_decode");
        (void)decode_step([&] {
          return core::backend_for(h.method).decompress_level(container, h, l);
        });
      }
    } else {
      TAC_SPAN("info.full_decode");
      (void)decode_step([&] { return core::decompress_any(container); });
    }
  }
  telemetry::print_stage_tree(std::cout);
  telemetry::set_mode(saved);
}

int print_container_info(const std::string& path,
                         const std::vector<std::uint8_t>& bytes,
                         bool timing) {
  const core::CommonHeader h = decode_step([&] {
    ByteReader r(bytes);
    return core::read_common_header(r);
  });
  std::printf("%s: compressed container v%u, method %s, field '%s', "
              "%zu levels, %zu bytes\n",
              path.c_str(), h.version, core::to_string(h.method),
              h.field_name.c_str(), h.num_levels(),
              bytes.size());
  if (h.index.entries.empty()) {
    std::printf("  no payload index (v1 container; no random access, "
                "no checksums)\n");
    return 0;
  }
  bool all_ok = true;
  for (std::size_t i = 0; i < h.index.entries.size(); ++i) {
    const auto& e = h.index.entries[i];
    const char* status = "OK";
    try {
      core::verify_payload(bytes, h.index, i);
    } catch (const std::exception&) {
      status = "FAIL";
      all_ok = false;
    }
    // Pre-v3 containers carry no per-payload profile byte and pre-v4
    // containers no selector byte; show "-" so the columns stay aligned
    // across format versions.
    const auto profile = core::payload_profile(h, i);
    const auto method = core::payload_method(h, i);
    std::printf("  payload %zu: offset %llu, length %llu, crc32 %08x, "
                "profile %s, method %s  %s\n",
                i, static_cast<unsigned long long>(e.offset),
                static_cast<unsigned long long>(e.length), e.crc32,
                profile ? lossless::to_string(*profile) : "-",
                method ? core::to_string(*method) : "-", status);
  }
  const std::size_t index_bytes = h.payload_offset - h.index_offset;
  std::printf("  index: %zu bytes (%.3f%% of container), checksums %s\n",
              index_bytes,
              100.0 * static_cast<double>(index_bytes) /
                  static_cast<double>(bytes.size()),
              all_ok ? "all OK" : "FAILED");
  if (all_ok && timing) print_payload_timing(bytes, h);
  return all_ok ? 0 : kExitCorrupt;
}

int print_snapshot_info(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  const auto fields = decode_step([&] { return core::snapshot_fields(bytes); });
  std::printf("%s: compressed snapshot, %zu fields, %zu bytes\n",
              path.c_str(), fields.size(), bytes.size());
  bool all_ok = true;
  for (const auto& f : fields) {
    if (f.checksum_ok) {
      const char* method = "?";
      try {
        method = core::to_string(core::peek_method(f.bytes));
      } catch (const std::exception&) {
        // A passing checksum with an unreadable header can only mean the
        // snapshot was written with a newer method set; still listable.
      }
      std::printf("  field '%s': %zu bytes, method %s, checksum OK\n",
                  f.name.c_str(), f.bytes.size(), method);
    } else {
      std::printf("  field '%s': %zu bytes, checksum FAIL\n", f.name.c_str(),
                  f.bytes.size());
      all_ok = false;
    }
  }
  return all_ok ? 0 : kExitCorrupt;
}

int cmd_info(const std::string& path, bool timing) {
  const auto bytes = read_file(path);
  if (core::is_compressed_snapshot(bytes)) {
    if (timing)
      std::fprintf(stderr,
                   "--timing applies to single-field containers; extract a "
                   "field first\n");
    return print_snapshot_info(path, bytes);
  }
  // Only the magic decides the route: once it matches, any parse error
  // (truncation, bad version, bad tag) must surface as this container's
  // error, not a misleading AMR-format one.
  if (core::is_container(bytes))
    return print_container_info(path, bytes, timing);
  if (timing) {
    std::fprintf(stderr, "--timing requires a compressed container\n");
    return kExitUsage;
  }
  const auto ds = decode_step([&] { return amr::dataset_from_bytes(bytes); });
  std::printf("%s: AMR snapshot, field '%s', ratio %d, %zu levels\n",
              path.c_str(), ds.field_name().c_str(), ds.refinement_ratio(),
              ds.num_levels());
  for (std::size_t l = 0; l < ds.num_levels(); ++l)
    std::printf("  level %zu: %zux%zux%zu, density %.2f%%\n", l,
                ds.level(l).dims().nx, ds.level(l).dims().ny,
                ds.level(l).dims().nz, 100.0 * ds.level(l).density());
  return 0;
}

/// stats: decode the file once with telemetry enabled and print the
/// per-stage time tree plus the counter registry — the same data the
/// Chrome-trace exporter emits, rendered for a terminal. Accepts a
/// compressed container or a compressed snapshot.
int cmd_stats(const std::string& path) {
  const auto bytes = read_file(path);
  if (!core::is_container(bytes) && !core::is_compressed_snapshot(bytes)) {
    std::fprintf(stderr,
                 "%s is not a compressed container or snapshot "
                 "(stats decodes TAC output files)\n",
                 path.c_str());
    return kExitUsage;
  }
  const telemetry::Mode saved = telemetry::set_mode(telemetry::Mode::kSpans);
  telemetry::reset_all();
  std::size_t fields = 1;
  {
    TAC_SPAN_NAMED(root, "stats.decode");
    root.set_bytes(bytes.size());
    if (core::is_compressed_snapshot(bytes)) {
      const auto s =
          decode_step([&] { return core::decompress_snapshot(bytes); });
      fields = s.fields.size();
    } else {
      (void)decode_step([&] { return core::decompress_any(bytes); });
    }
  }
  std::printf("%s: %zu bytes, %zu field%s decoded\n", path.c_str(),
              bytes.size(), fields, fields == 1 ? "" : "s");
  telemetry::print_stage_tree(std::cout);
  telemetry::print_counters(std::cout);
  telemetry::set_mode(saved);
  return 0;
}

int demo() {
  std::printf("no arguments: running the self-contained demo\n");
  if (const int rc = cmd_gen("demo.amr", 64)) return rc;
  if (const int rc = cmd_compress("demo.amr", "demo.tac", 1e-4, "tac"))
    return rc;
  if (const int rc = cmd_info("demo.tac", /*timing=*/false)) return rc;
  if (const int rc = cmd_decompress("demo.tac", "demo_out.amr")) return rc;
  if (const int rc = cmd_extract("demo.tac", "demo_l0.amr", 0, "")) return rc;
  // Verify the round trip respects the bound.
  const auto orig = amr::load_dataset("demo.amr");
  const auto back = amr::load_dataset("demo_out.amr");
  const auto stats = analysis::distortion_amr(orig, back);
  std::printf("round trip PSNR: %.1f dB, max error %.3e\n", stats.psnr,
              stats.max_abs_error);
  std::remove("demo.amr");
  std::remove("demo.tac");
  std::remove("demo_out.amr");
  std::remove("demo_l0.amr");
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s gen <out.amr> [n] | compress <in> <out> "
               "[rel_eb] [--method=tac|1d|zmesh|3d|auto] | "
               "decompress <in> <out> | "
               "extract <in.tac> <out.amr> --level=k [--field=f] | "
               "info <file> [--timing] | "
               "stats <file>\n"
               "global flags: --trace=<out.json> (Chrome-tracing span "
               "export; see docs/TELEMETRY.md)\n",
               argv0);
  return kExitUsage;
}

/// Numeric CLI arguments parse before any command runs, so a malformed
/// number is a usage error while library-thrown invalid_argument /
/// out_of_range (bad grid extent, level past the container, ...) keep
/// their descriptive messages.
bool parse_num(const char* s, std::size_t& out) {
  // Digits only: stoul would silently wrap "-2" to a huge value.
  if (*s == '\0') return false;
  for (const char* p = s; *p; ++p)
    if (*p < '0' || *p > '9') return false;
  try {
    std::size_t idx = 0;
    out = std::stoul(s, &idx);
    return idx == std::strlen(s);
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_num(const char* s, double& out) {
  try {
    std::size_t idx = 0;
    out = std::stod(s, &idx);
    return idx == std::strlen(s);
  } catch (const std::exception&) {
    return false;
  }
}

/// Command dispatch over the argv left after global flags are stripped.
/// Factored out of main() so the --trace root span can bracket exactly
/// one command run.
int dispatch(int argc, char** argv) {
  if (argc < 2) return demo();
  const std::string cmd = argv[1];
  if (cmd == "gen" && argc >= 3) {
    std::size_t n = 64;
    if (argc >= 4 && !parse_num(argv[3], n)) return usage(argv[0]);
    return cmd_gen(argv[2], n);
  }
  if (cmd == "compress" && argc >= 4) {
    double rel_eb = 1e-4;
    std::string method = "tac";
    bool saw_eb = false, saw_method = false;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--method=", 0) == 0) {
        method = arg.substr(9);
      } else if (!saw_eb && parse_num(argv[i], rel_eb)) {
        saw_eb = true;  // positional [rel_eb]
      } else if (!saw_method) {
        method = arg;  // positional [method]
        saw_method = true;
      } else {
        return usage(argv[0]);
      }
    }
    return cmd_compress(argv[2], argv[3], rel_eb, method);
  }
  if (cmd == "decompress" && argc >= 4)
    return cmd_decompress(argv[2], argv[3]);
  if (cmd == "extract" && argc >= 4) {
    long level = -1;
    std::string field;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--level=", 0) == 0) {
        std::size_t k = 0;
        if (!parse_num(arg.c_str() + 8, k)) return usage(argv[0]);
        level = static_cast<long>(k);
      } else if (arg.rfind("--field=", 0) == 0) {
        field = arg.substr(8);
      } else {
        return usage(argv[0]);
      }
    }
    if (level < 0 && field.empty()) return usage(argv[0]);
    return cmd_extract(argv[2], argv[3], level, field);
  }
  if (cmd == "info" && argc >= 3) {
    bool timing = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--timing") == 0)
        timing = true;
      else
        return usage(argv[0]);
    }
    return cmd_info(argv[2], timing);
  }
  if (cmd == "stats" && argc == 3) return cmd_stats(argv[2]);
  return usage(argv[0]);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global --trace flag before command dispatch so every
  // subcommand accepts it in any position.
  std::string trace_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0)
      trace_path = argv[i] + 8;
    else if (std::strcmp(argv[i], "--trace") == 0)
      trace_path.clear();  // missing =path: caught below
    else
      args.push_back(argv[i]);
  }
  if (argc > static_cast<int>(args.size()) && trace_path.empty()) {
    std::fprintf(stderr, "--trace needs a path: --trace=<out.json>\n");
    return kExitUsage;
  }
  // The root span name must outlive the export below (the ring stores
  // the pointer), so it lives in main's scope, not the block's.
  const std::string root_name =
      std::string("cli.") + (args.size() > 1 ? args[1] : "demo");
  try {
    if (!trace_path.empty())
      tac::telemetry::set_mode(tac::telemetry::Mode::kSpans);
    int rc;
    {
      TAC_SPAN_NAMED(root, root_name.c_str());
      rc = dispatch(static_cast<int>(args.size()), args.data());
    }
    if (!trace_path.empty()) {
      if (!tac::telemetry::write_chrome_trace_file(trace_path)) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     trace_path.c_str());
        return kExitIo;
      }
      std::fprintf(stderr, "trace written to %s\n", trace_path.c_str());
    }
    return rc;
  } catch (const IoError& e) {
    std::fprintf(stderr, "I/O error: %s\n", e.what());
    return kExitIo;
  } catch (const tac::core::ChecksumError& e) {
    std::fprintf(stderr, "corrupt container: %s\n", e.what());
    return kExitCorrupt;
  } catch (const CorruptError& e) {
    std::fprintf(stderr, "corrupt container: %s\n", e.what());
    return kExitCorrupt;
  } catch (const std::invalid_argument& e) {
    // Library-rejected user input (bad grid extent, empty dataset, ...):
    // keep the descriptive message, classify as a usage error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::out_of_range& e) {
    // e.g. --level past the container's level count.
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "corrupt container: %s\n", e.what());
    return kExitCorrupt;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitError;
  }
}
