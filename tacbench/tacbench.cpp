/// \file tacbench.cpp
/// \brief Worker process of the tacbench benchmark (driven by run.py).
///
///   tacbench gen <preset> <scale_shift> <seed> <out.amr>
///       Generates one Table-1 preset from a seed and saves it. Runs in a
///       process of its own: the generator's FFTs peak far above any
///       workload's memory, and must not show in a workload's peak RSS.
///
///   tacbench run --op compress|decompress|extract|cli --input <in.amr>...
///                --workdir <dir> [--method tac|auto] [--threads n]
///                [--seconds s | --iterations n] [--rng r] [--trace]
///                [--setup-only] [--inject] [--tool <tac_file_tool>]
///       Loads the input (the file workload takes several files) and runs
///       one operation back to back (closed loop, one client) for the
///       given time, checking every output. Prints one JSON object on
///       stdout: set-up time, per-operation times, correctness counts
///       and, under --trace, the Chrome traces of the traced operations
///       (written into --workdir).
///
/// The worker only ever sees generated inputs, never the workload seed;
/// `--rng` seeds the extract workload's level order and nothing else.

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "amr/amr_io.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/telemetry.hpp"
#include "core/backend.hpp"
#include "lossless/codec.hpp"
#include "simnyx/generator.hpp"

#ifndef TACBENCH_BUILD_TYPE
#define TACBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace tac;
using Clock = std::chrono::steady_clock;

/// Absolute bound of the in-process workloads: the middle of the paper's
/// 1e8..1e10 range for a baryon density of mean 1e9.
constexpr double kAbsErrorBound = 1e9;
/// Relative bound the file workload passes to `tac_file_tool compress`.
constexpr double kCliRelErrorBound = 1e-4;
/// Level the file workload extracts (Run1_Z10 has levels 0 and 1).
constexpr int kCliExtractLevel = 1;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of every thread of this process.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double rusage_cpu_seconds(const rusage& ru) {
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Resets this process's peak-RSS mark so the next reading covers only
/// what runs after the call. Returns false where the kernel refuses.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM of this process in MB (1e6 bytes).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024.0 / 1e6;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ------------------------------------------------------------ checking

/// Order-sensitive 64-bit hash; four independent lanes keep it near
/// memory speed on the 100+ MB levels the checks cover.
std::uint64_t hash_bytes(const void* data, std::size_t n,
                         std::uint64_t seed = 0x9E3779B97F4A7C15ULL) {
  constexpr std::uint64_t kMul = 0xFF51AFD7ED558CCDULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h[4] = {seed, seed ^ 1, seed ^ 2, seed ^ 3};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t w;
      std::memcpy(&w, p + i + 8 * k, 8);
      h[k] = (h[k] ^ w) * kMul;
    }
  }
  std::uint64_t out = n;
  for (int k = 0; k < 4; ++k) out = (out ^ h[k] ^ (h[k] >> 29)) * kMul;
  for (; i < n; ++i) out = (out ^ p[i]) * kMul;
  return out ^ (out >> 32);
}

std::uint64_t hash_level(const amr::AmrLevel& lv) {
  const Dims3& d = lv.dims();
  std::uint64_t h = hash_bytes(lv.data.data(), lv.data.size() * sizeof(double),
                               d.nx * 73856093u ^ d.ny * 19349663u ^ d.nz);
  return hash_bytes(lv.mask.data(), lv.mask.size(), h);
}

std::vector<std::uint64_t> hash_levels(const amr::AmrDataset& ds) {
  std::vector<std::uint64_t> out;
  for (const auto& lv : ds.levels()) out.push_back(hash_level(lv));
  return out;
}

/// Decode errors in units of their bound, squared and summed over cells.
struct ErrorSum {
  double sum_sq = 0;
  std::size_t cells = 0;
  [[nodiscard]] double rms() const {
    return cells ? std::sqrt(sum_sq / static_cast<double>(cells)) : 0.0;
  }
};

/// Verifies a decode against its original: same level structure and
/// masks, and |x - x'| <= eb[level] on every valid cell, whose errors are
/// added to `sum`. Throws std::runtime_error naming the first violation.
void verify_bound(const amr::AmrDataset& orig, const amr::AmrDataset& dec,
                  const std::vector<double>& eb, ErrorSum& sum) {
  if (orig.num_levels() != dec.num_levels())
    throw std::runtime_error("decode has " + std::to_string(dec.num_levels()) +
                             " levels, original " +
                             std::to_string(orig.num_levels()));
  for (std::size_t l = 0; l < orig.num_levels(); ++l) {
    const amr::AmrLevel& a = orig.level(l);
    const amr::AmrLevel& b = dec.level(l);
    if (a.dims() != b.dims() ||
        std::memcmp(a.mask.data(), b.mask.data(), a.mask.size()) != 0)
      throw std::runtime_error("level " + std::to_string(l) +
                               ": decoded structure or mask differs");
    for (std::size_t i = 0; i < a.mask.size(); ++i) {
      if (!a.mask[i]) continue;
      const double err = std::fabs(a.data[i] - b.data[i]);
      if (!(err <= eb[l]))
        throw std::runtime_error("level " + std::to_string(l) + " cell " +
                                 std::to_string(i) + ": error " +
                                 std::to_string(err) + " exceeds bound " +
                                 std::to_string(eb[l]));
      const double e = err / eb[l];
      sum.sum_sq += e * e;
      ++sum.cells;
    }
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// ------------------------------------------------------------ child processes

struct ChildRun {
  int status = -1;  ///< raw wait status
  double wall_s = 0;
  double cpu_s = 0;
  double maxrss_mb = 0;
};

/// Runs `argv` as a fresh child (posix_spawn + wait4): stdout discarded,
/// stderr to `err_path`, environment `envp`.
ChildRun spawn_and_wait(const std::vector<std::string>& argv,
                        const std::vector<std::string>& envp,
                        const std::string& err_path) {
  std::vector<char*> args, env;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  for (const auto& e : envp) env.push_back(const_cast<char*>(e.c_str()));
  env.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null", O_WRONLY,
                                   0);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildRun out;
  const auto t0 = Clock::now();
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, args[0], &fa, nullptr, args.data(), env.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0)
    throw std::runtime_error("posix_spawn " + argv[0] + ": " +
                             std::strerror(rc));
  rusage ru{};
  pid_t got;
  do {
    got = wait4(pid, &out.status, 0, &ru);
  } while (got < 0 && errno == EINTR);
  out.wall_s = seconds_since(t0);
  if (got != pid) throw std::runtime_error("wait4 failed");
  out.cpu_s = rusage_cpu_seconds(ru);
  out.maxrss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
  return out;
}

// ------------------------------------------------------------ workloads

struct OpTime {
  double wall_s = 0;
  double cpu_s = 0;
};

/// One Chrome trace covering (part of) a traced operation.
struct TraceFile {
  std::string cmd;  ///< "op" in process, else the file-tool command
  std::string path;
  double wall_ms = 0;  ///< wall time of what the trace covers
};

struct Options {
  std::string op;
  std::string method = "tac";
  std::vector<std::string> inputs;  ///< one per file; in process, exactly one
  std::string workdir;
  std::string tool;
  unsigned threads = 2;
  double seconds = 10;
  long iterations = -1;  ///< fixed timed iterations per phase (overrides seconds)
  std::uint64_t rng = 1;
  bool trace = false;
  bool setup_only = false;
  bool inject = false;
};

/// One operation kind, run back to back by run_main(). prepare() and
/// run(0) form the timed set-up; check() runs outside every timed region
/// and throws on any incorrect output.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual void prepare() = 0;
  virtual OpTime run(std::size_t iter) = 0;
  virtual void check(std::size_t iter) = 0;
  /// Traces of the operation just run under spans mode.
  virtual std::vector<TraceFile> traces(std::size_t iter, double wall_s) {
    const std::string path = opts_.workdir + "/op" + std::to_string(iter) + ".json";
    if (!telemetry::write_chrome_trace_file(path))
      throw std::runtime_error("cannot write " + path);
    return {{"op", path, wall_s * 1e3}};
  }
  /// Starts the peak-RSS window of the timed operations; false when only
  /// the whole process's peak can be read.
  virtual bool reset_peak() { return reset_peak_rss(); }
  virtual double peak_mb() { return peak_rss_mb(); }
  /// The file workload switches its children to --trace.
  virtual void set_traced(bool) {}

  double load_s = 0;              ///< input load time within set-up
  double bytes_per_op = 0;        ///< original bytes one operation covers
  double compression_ratio = 0;   ///< of the container the workload makes or reads
  double rms_error_eb = 0;        ///< RMS decode error in units of the bound

 protected:
  explicit Workload(Options o) : opts_(std::move(o)) {}

  /// Loads input file `i`, adding to load_s.
  amr::AmrDataset load_input(std::size_t i = 0) {
    const auto t0 = Clock::now();
    amr::AmrDataset ds = amr::load_dataset(opts_.inputs.at(i));
    load_s += seconds_since(t0);
    bytes_per_op = static_cast<double>(ds.original_bytes());
    return ds;
  }

  core::TacConfig abs_config() const {
    core::TacConfig cfg;
    cfg.sz = {.mode = sz::ErrorBoundMode::kAbsolute,
              .error_bound = kAbsErrorBound};
    return cfg;
  }

  core::Method method() const {
    if (opts_.method == "tac") return core::Method::kTac;
    if (opts_.method == "auto") return core::Method::kAuto;
    throw std::invalid_argument("unknown --method " + opts_.method);
  }

  void set_ratio(const amr::AmrDataset& ds, std::size_t container_bytes) {
    compression_ratio = static_cast<double>(ds.original_bytes()) /
                        static_cast<double>(container_bytes);
  }

  /// Bound-checks a decode made under abs_config().
  void verify_abs(const amr::AmrDataset& orig, const amr::AmrDataset& dec) {
    ErrorSum sum;
    verify_bound(orig, dec, std::vector<double>(orig.num_levels(), kAbsErrorBound),
                 sum);
    rms_error_eb = sum.rms();
  }

  /// Times `f` as one in-process operation under a bench-side root span,
  /// so a trace attributes all of it to the library calls below.
  template <class F>
  static OpTime timed(F&& f) {
    telemetry::ScopedSpan span("bench.op");
    const double c0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    f();
    return {seconds_since(t0), process_cpu_seconds() - c0};
  }

  Options opts_;
};

/// backend_for(method).compress over the loaded dataset; every container
/// must equal the first, which is decoded and bound-checked once.
class CompressWorkload final : public Workload {
 public:
  explicit CompressWorkload(Options o) : Workload(std::move(o)) {}

  void prepare() override { ds_ = load_input(); }

  OpTime run(std::size_t) override {
    out_ = {};
    const auto& backend = core::backend_for(method());
    const core::TacConfig cfg = abs_config();
    return timed([&] { out_ = backend.compress(ds_, cfg); });
  }

  void check(std::size_t iter) override {
    const std::vector<std::uint8_t> bytes = std::move(out_.bytes);
    out_ = {};
    if (iter == 0) {
      const amr::AmrDataset dec = core::decompress_any(bytes);
      verify_abs(ds_, dec);
      set_ratio(ds_, bytes.size());
      reference_ = bytes;
    } else if (bytes != reference_) {
      throw std::runtime_error("container differs from the first one");
    }
  }

 private:
  amr::AmrDataset ds_;
  core::CompressedAmr out_;
  std::vector<std::uint8_t> reference_;
};

/// decompress_any over one container made during set-up; the first decode
/// is bound-checked against the original, later ones must equal it.
class DecompressWorkload final : public Workload {
 public:
  explicit DecompressWorkload(Options o) : Workload(std::move(o)) {}

  void prepare() override {
    ds_ = load_input();
    container_ = core::backend_for(method()).compress(ds_, abs_config()).bytes;
    set_ratio(ds_, container_.size());
    if (opts_.inject) {
      // A flipped byte in the last payload: the CRC check must reject it.
      flipped_ = container_;
      flipped_.back() ^= 0x5A;
    }
  }

  OpTime run(std::size_t iter) override {
    out_ = {};
    const bool flip = opts_.inject && iter == 1;
    const std::vector<std::uint8_t>& in = flip ? flipped_ : container_;
    const OpTime t = timed([&] { out_ = core::decompress_any(in); });
    if (opts_.inject && iter == 2) {
      // An out-of-bound decode: the check must count it as failed.
      amr::AmrLevel& lv = out_.level(0);
      for (std::size_t i = 0; i < lv.mask.size(); ++i)
        if (lv.mask[i]) {
          lv.data[i] += 2 * kAbsErrorBound;
          break;
        }
    }
    return t;
  }

  void check(std::size_t iter) override {
    const amr::AmrDataset dec = std::move(out_);
    out_ = {};
    if (iter == 0) {
      verify_abs(ds_, dec);
      reference_ = hash_levels(dec);
      ds_ = {};  // only the container stays resident during the operations
    } else if (hash_levels(dec) != reference_) {
      throw std::runtime_error("decode differs from the bound-checked first one");
    }
  }

 private:
  amr::AmrDataset ds_;
  amr::AmrDataset out_;
  std::vector<std::uint8_t> container_, flipped_;
  std::vector<std::uint64_t> reference_;
};

/// core::decompress_level over one TAC container made during set-up. One
/// operation reads every level once, each with its own call, in an order
/// drawn from --rng: mixing levels inside one sample keeps the sample
/// median off the gap between the fast and the slow level.
class ExtractWorkload final : public Workload {
 public:
  explicit ExtractWorkload(Options o) : Workload(std::move(o)) {}

  void prepare() override {
    ds_ = load_input();
    container_ = core::backend_for(method()).compress(ds_, abs_config()).bytes;
    set_ratio(ds_, container_.size());
    levels_.resize(ds_.num_levels());
    rng_ = opts_.rng;
  }

  OpTime run(std::size_t) override {
    std::vector<std::size_t> order(levels_.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    for (std::size_t k = order.size(); k > 1; --k)
      std::swap(order[k - 1], order[next_random() % k]);
    for (auto& lv : levels_) lv = {};
    return timed([&] {
      for (const std::size_t k : order)
        levels_[k] = core::decompress_level(container_, k);
    });
  }

  void check(std::size_t iter) override {
    if (iter == 0) {
      const amr::AmrDataset full = core::decompress_any(container_);
      verify_abs(ds_, full);
      reference_ = hash_levels(full);
      ds_ = {};
    }
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      if (hash_level(levels_[k]) != reference_[k])
        throw std::runtime_error("extracted level " + std::to_string(k) +
                                 " differs from the full decode");
      levels_[k] = {};
    }
  }

 private:
  std::uint64_t next_random() {  // splitmix64
    std::uint64_t z = (rng_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  amr::AmrDataset ds_;
  std::vector<std::uint8_t> container_;
  std::vector<amr::AmrLevel> levels_;
  std::vector<std::uint64_t> reference_;
  std::uint64_t rng_ = 0;
};

/// The file tool on a series of snapshot files, one file per round in
/// turn, each command a fresh child process: compress in.amr -> info ->
/// extract --level=1 -> decompress. Cycling several seeded files keeps
/// the relative-bound compression ratio, which follows each file's value
/// range, from swinging with one file's extremes.
class CliWorkload final : public Workload {
 public:
  explicit CliWorkload(Options o) : Workload(std::move(o)) {
    if (opts_.tool.empty())
      throw std::invalid_argument("--op cli needs --tool <tac_file_tool>");
    for (char** e = environ; *e; ++e) {
      const std::string kv = *e;
      if (kv.rfind("TAC_TRACE=", 0) == 0 || kv.rfind("OMP_NUM_THREADS=", 0) == 0 ||
          kv.rfind("OMP_THREAD_LIMIT=", 0) == 0)
        continue;
      env_.push_back(kv);
    }
    // The tool sizes its loops from the hardware count; the thread limit
    // holds its OpenMP teams to the same count as the in-process runs.
    env_.push_back("OMP_NUM_THREADS=" + std::to_string(opts_.threads));
    env_.push_back("OMP_THREAD_LIMIT=" + std::to_string(opts_.threads));
  }

  /// The tool reads the input files itself; set-up is the warm-up round.
  void prepare() override { files_.resize(opts_.inputs.size()); }

  OpTime run(std::size_t iter) override {
    const std::string w = opts_.workdir + "/";
    const std::string tac = w + "round.tac";
    const std::string level = w + "level.amr";
    const std::string out = w + "round_out.amr";
    std::remove(tac.c_str());
    std::remove(level.c_str());
    std::remove(out.c_str());
    char eb[32];
    std::snprintf(eb, sizeof eb, "%g", kCliRelErrorBound);
    const std::string& input = opts_.inputs[iter % opts_.inputs.size()];
    const std::vector<std::pair<std::string, std::vector<std::string>>> cmds = {
        {"compress", {opts_.tool, "compress", input, tac, eb}},
        {"info", {opts_.tool, "info", tac}},
        {"extract",
         {opts_.tool, "extract", tac, level,
          "--level=" + std::to_string(kCliExtractLevel)}},
        {"decompress", {opts_.tool, "decompress", tac, out}},
    };
    OpTime t;
    runs_.clear();
    for (const auto& [name, argv] : cmds) {
      std::vector<std::string> args = argv;
      if (traced_)
        args.push_back("--trace=" + w + "r" + std::to_string(iter) + "_" +
                       name + ".json");
      const ChildRun r = spawn_and_wait(args, env_, w + name + ".err");
      runs_.push_back({name, r});
      t.wall_s += r.wall_s;
      t.cpu_s += r.cpu_s;
      peak_mb_ = std::max(peak_mb_, r.maxrss_mb);
      if (r.status != 0) break;  // later commands need this one's output
    }
    return t;
  }

  void check(std::size_t iter) override {
    const std::string w = opts_.workdir + "/";
    for (const auto& [name, r] : runs_) {
      if (WIFEXITED(r.status) && WEXITSTATUS(r.status) == 0) continue;
      std::string err;
      try {
        const auto bytes = read_file(w + name + ".err");
        err.assign(bytes.begin(), bytes.end());
      } catch (const std::exception&) {
      }
      throw std::runtime_error("tac_file_tool " + name + " failed (status " +
                               std::to_string(r.status) + "): " + err);
    }
    const std::size_t i = iter % files_.size();
    File& f = files_[i];
    {
      std::vector<std::uint8_t> tac = read_file(w + "round.tac");
      const amr::AmrDataset dec = amr::load_dataset(w + "round_out.amr");
      if (f.container.empty()) {
        // This file's first round: bound-check the decode against the
        // original; later rounds must reproduce both files exactly.
        const amr::AmrDataset ds = load_input(i);
        std::vector<double> eb;
        for (const auto& lv : ds.levels()) {
          const auto [lo, hi] = lv.valid_range();
          eb.push_back(kCliRelErrorBound * (hi - lo));
        }
        verify_bound(ds, dec, eb, error_);
        original_ += static_cast<double>(ds.original_bytes());
        packed_ += static_cast<double>(tac.size());
        compression_ratio = original_ / packed_;
        rms_error_eb = error_.rms();
        f.container = std::move(tac);
        f.hashes = hash_levels(dec);
      } else if (tac != f.container) {
        throw std::runtime_error("container differs from this file's first round");
      } else if (hash_levels(dec) != f.hashes) {
        throw std::runtime_error(
            "decompressed file differs from this file's first round");
      }
      const amr::AmrDataset lvl = amr::load_dataset(w + "level.amr");
      if (lvl.num_levels() != 1 ||
          hash_level(lvl.level(0)) != f.hashes.at(kCliExtractLevel))
        throw std::runtime_error("extracted level differs from the full decode");
    }
    // Hand the checks' memory back before the next child inherits this
    // process's footprint (see reset_peak()).
    malloc_trim(0);
  }

  std::vector<TraceFile> traces(std::size_t iter, double) override {
    std::vector<TraceFile> out;
    for (const auto& [name, r] : runs_)
      out.push_back({name,
                     opts_.workdir + "/r" + std::to_string(iter) + "_" + name +
                         ".json",
                     r.wall_s * 1e3});
    return out;
  }

  /// The largest child's peak, from the timed rounds on. A spawned
  /// child's ru_maxrss starts from this process's peak (exec reports the
  /// pre-exec image), so this process's peak is reset too.
  bool reset_peak() override {
    peak_mb_ = 0;
    return reset_peak_rss();
  }
  double peak_mb() override { return peak_mb_; }
  void set_traced(bool on) override { traced_ = on; }

 private:
  struct File {
    std::vector<std::uint8_t> container;
    std::vector<std::uint64_t> hashes;
  };

  std::vector<File> files_;
  std::vector<std::string> env_;
  std::vector<std::pair<std::string, ChildRun>> runs_;
  ErrorSum error_;
  double original_ = 0, packed_ = 0;  ///< over each file's first round
  double peak_mb_ = 0;
  bool traced_ = false;
};

// ------------------------------------------------------------ JSON output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + json_number(v[i]);
  return out + "]";
}

struct Result {
  double setup_s = 0;
  std::vector<double> op_ms, cpu_util, traced_op_ms;
  std::vector<std::vector<TraceFile>> traces;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  double peak_rss_mb = 0;
  bool peak_rss_ops_only = false;
};

void print_result(const Options& o, const Workload& w, const Result& r) {
  std::string s = "{";
  s += "\"setup_s\": " + json_number(r.setup_s);
  s += ", \"load_s\": " + json_number(w.load_s);
  s += ", \"op_ms\": " + json_array(r.op_ms);
  s += ", \"cpu_util\": " + json_array(r.cpu_util);
  s += ", \"traced_op_ms\": " + json_array(r.traced_op_ms);
  s += ", \"traces\": [";
  for (std::size_t i = 0; i < r.traces.size(); ++i) {
    s += i ? ", [" : "[";
    for (std::size_t j = 0; j < r.traces[i].size(); ++j) {
      const TraceFile& t = r.traces[i][j];
      s += (j ? ", " : "") + std::string("{\"cmd\": ") + json_string(t.cmd) +
           ", \"path\": " + json_string(t.path) +
           ", \"wall_ms\": " + json_number(t.wall_ms) + "}";
    }
    s += "]";
  }
  s += "]";
  s += ", \"bytes_per_op\": " + json_number(w.bytes_per_op);
  s += ", \"compression_ratio\": " + json_number(w.compression_ratio);
  s += ", \"rms_error_eb\": " + json_number(w.rms_error_eb);
  s += ", \"peak_rss_mb\": " + json_number(r.peak_rss_mb);
  s += ", \"peak_rss_ops_only\": " + std::string(r.peak_rss_ops_only ? "true" : "false");
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    s += (i ? ", " : "") + json_string(r.errors[i]);
  s += "]";
#if defined(_OPENMP)
  const char* parallel = "openmp";
#else
  const char* parallel = "pool";
#endif
  s += ", \"fingerprint\": {\"simd\": " +
       json_string(simd::level_name(simd::active_level())) +
       ", \"threads\": " + std::to_string(o.threads) +
       ", \"parallel\": " + json_string(parallel) +
       ", \"build_type\": " + json_string(TACBENCH_BUILD_TYPE) +
       ", \"codec_profile\": " +
       json_string(lossless::to_string(lossless::default_profile())) +
       ", \"telemetry\": " + json_string(o.trace ? "spans" : "off") +
       ", \"compiler\": " + json_string(kCompiler) +
       "}";
  s += "}\n";
  std::fputs(s.c_str(), stdout);
}

// ------------------------------------------------------------ operation loop

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.op == "compress") return std::make_unique<CompressWorkload>(o);
  if (o.op == "decompress") return std::make_unique<DecompressWorkload>(o);
  if (o.op == "extract") return std::make_unique<ExtractWorkload>(o);
  if (o.op == "cli") return std::make_unique<CliWorkload>(o);
  throw std::invalid_argument("unknown --op " + o.op);
}

/// Runs one operation and its check; a throw from either counts the
/// operation as failed (and keeps the first few messages).
bool attempt(Result& r, const std::function<void()>& f) {
  ++r.attempted;
  try {
    f();
    return true;
  } catch (const std::exception& e) {
    ++r.failed;
    if (r.errors.size() < 8) r.errors.push_back(e.what());
    return false;
  }
}

int run_main(const Options& o) {
  set_parallelism(o.threads);
  telemetry::set_mode(telemetry::Mode::kOff);
  std::unique_ptr<Workload> w = make_workload(o);
  Result r;

  // Set-up: load the input, make what the operation reads, and one
  // warm-up operation (thread team, arenas, first-touch faults). Its
  // check, which also bound-checks the reference output, is not timed;
  // set-up-only runs, which time set-up alone, skip it.
  const bool warm_ok = attempt(r, [&] {
    const auto t0 = Clock::now();
    w->prepare();
    (void)w->run(0);
    r.setup_s = seconds_since(t0);
    if (!o.setup_only) w->check(0);
  });
  if (!warm_ok || o.setup_only) {
    print_result(o, *w, r);
    return 0;
  }

  r.peak_rss_ops_only = w->reset_peak();

  // Timed phase(s): closed loop, one operation at a time. The untraced
  // phase gives the end-to-end numbers; under --trace a second, traced
  // phase follows and splits the run time with it.
  std::size_t iter = 1;
  const auto phase = [&](bool traced, double budget_s) {
    if (traced) {
      telemetry::set_mode(telemetry::Mode::kSpans);
      w->set_traced(true);
    }
    const auto start = Clock::now();
    for (long n = 0;; ++n, ++iter) {
      if (o.iterations >= 0 ? n >= o.iterations
                            : n > 0 && seconds_since(start) >= budget_s)
        break;
      if (traced) telemetry::reset_all();
      OpTime t;
      std::vector<TraceFile> files;
      const bool ok = attempt(r, [&] {
        t = w->run(iter);
        if (traced) files = w->traces(iter, t.wall_s);
        w->check(iter);
      });
      if (!ok) continue;
      if (traced) {
        r.traced_op_ms.push_back(t.wall_s * 1e3);
        r.traces.push_back(std::move(files));
      } else {
        r.op_ms.push_back(t.wall_s * 1e3);
        r.cpu_util.push_back(t.cpu_s / (t.wall_s * o.threads));
      }
    }
    if (traced) {
      telemetry::set_mode(telemetry::Mode::kOff);
      w->set_traced(false);
    }
  };
  phase(false, o.trace ? o.seconds / 2 : o.seconds);
  if (o.trace) phase(true, o.seconds / 2);
  r.peak_rss_mb = w->peak_mb();
  print_result(o, *w, r);
  return 0;
}

int gen_main(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr, "usage: tacbench gen <preset> <scale_shift> <seed> <out.amr>\n");
    return 2;
  }
  const std::string name = argv[2];
  const auto shift = static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10));
  const std::uint64_t seed = std::strtoull(argv[4], nullptr, 10);
  for (const auto& p : simnyx::table1_presets(shift)) {
    if (p.name != name) continue;
    amr::save_dataset(argv[5], simnyx::generate_preset(p, seed));
    return 0;
  }
  std::fprintf(stderr, "tacbench gen: unknown preset %s\n", name.c_str());
  return 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: tacbench gen <preset> <scale_shift> <seed> <out.amr>\n"
               "       tacbench run --op compress|decompress|extract|cli "
               "--input <in.amr>... --workdir <dir> [--method tac|auto] "
               "[--threads n] [--seconds s | --iterations n] [--rng r] "
               "[--trace] [--setup-only] [--inject] [--tool <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const std::string cmd = argv[1];
    if (cmd == "gen") return gen_main(argc, argv);
    if (cmd != "run") return usage();
    Options o;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--op") o.op = value();
      else if (a == "--method") o.method = value();
      else if (a == "--input") o.inputs.push_back(value());
      else if (a == "--workdir") o.workdir = value();
      else if (a == "--tool") o.tool = value();
      else if (a == "--threads") o.threads = static_cast<unsigned>(std::stoul(value()));
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--iterations") o.iterations = std::stol(value());
      else if (a == "--rng") o.rng = std::stoull(value());
      else if (a == "--trace") o.trace = true;
      else if (a == "--setup-only") o.setup_only = true;
      else if (a == "--inject") o.inject = true;
      else return usage();
    }
    if (o.op.empty() || o.inputs.empty() || o.workdir.empty() || o.threads == 0 ||
        (o.op != "cli" && o.inputs.size() != 1))
      return usage();
    return run_main(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tacbench: %s\n", e.what());
    return 1;
  }
}
