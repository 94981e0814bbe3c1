#!/usr/bin/env python3
"""tacbench: the benchmark of the TAC compressor, one command.

    python3 tacbench/run.py --workload dense_z10_compress --seed 1 \
        --seconds 10 --trace 0
    python3 tacbench/run.py --seed 1 --out runs.jsonl   # every workload
    python3 tacbench/run.py --smoke                     # ~10 s self-check

Builds the library, the file tool and the worker (tacbench.cpp) from the
checkout into .bench_build/, generates the workload's input from --seed
in a process of its own, then runs the workload in fresh worker
processes that only load that input: a few that stop after set-up (for
setup_s) and one that runs the operation back to back for --seconds.

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when the benchmark cannot run (for example without the sources
it builds); a failed correctness check is reported as "correct": false.
See tacbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".bench_build"
INPUT_DIR = STATE_DIR / "tacbench-inputs"
WORK_DIR = STATE_DIR / "tacbench-work"

# Library threads, in process and in the file tool's children. At four
# threads Run1_Z10's finest level splits into three or four sub-block
# groups depending on the seed, and compress time jumps ~35% between the
# two; at two, time follows the total work.
THREADS = min(os.cpu_count() or 1, 2)
SETUP_RUNS = 3          # set-ups per run (processes) behind setup_s
INPUTS_KEPT = 24        # generated input files cached in .bench_build


class Spec(NamedTuple):
    op: str        # worker operation
    method: str    # backend
    preset: str    # Table-1 preset of the input
    shift: int     # its scale shift (1: 512^3 -> 256^3)
    files: int = 1  # input files, each from its own seed


WORKLOADS = {
    "dense_z10_compress": Spec("compress", "tac", "Run1_Z10", 1),
    "dense_z10_decompress": Spec("decompress", "tac", "Run1_Z10", 1),
    "sparse_t4_auto_compress": Spec("compress", "auto", "Run2_T4", 2),
    "sparse_t4_auto_decompress": Spec("decompress", "auto", "Run2_T4", 2),
    "extract_level": Spec("extract", "tac", "Run1_Z10", 1),
    "cli_files": Spec("cli", "tac", "Run1_Z10", 2, files=8),
}
SMOKE_SHIFT = 3

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "throughput_mbps": "MB/s",
    "compression_ratio": "ratio",
    "rms_error_eb": "ratio",
    "peak_rss_mb": "MB",
}

# Library spans whose self time is a per-layer metric (docs/TELEMETRY.md).
SELF_SPANS = [
    "container.header_read", "container.header_write",
    "container.crc_verify", "core.decompress_any",
    "tac.compress", "tac.level_compress", "tac.extract",
    "tac.gather_groups", "tac.level_decode",
    "auto.compress", "selector.select_level", "selector.trial",
    "oned.level_encode", "oned.level_decode",
    "sz.compress", "sz.scan_range", "sz.quantize", "sz.outlier_gather",
    "sz.decompress", "sz.reconstruct",
    "huffman.compress", "huffman.build", "huffman.encode", "huffman.decode",
    "lzss.compress", "lzss.decompress",
]
LAYER_UNITS = {f"{s}.self_ms": "ms" for s in SELF_SPANS}
LAYER_UNITS.update({
    "amr_io.load_ms": "ms",
    "amr_io.save_ms": "ms",
    "cli.startup_ms": "ms",
    "selector.trial_waste_frac": "fraction",
    "sz.outlier_frac": "fraction",
    "lzss.gain": "ratio",
    "parallel.cpu_util": "fraction",
    "arena.block_allocs_per_op": "count",
    "trace.overhead_frac": "fraction",
    "trace.closure_frac": "fraction",
})


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout, env=None, merge_stderr=False):
    """Runs cmd in a process group of its own, so a timeout stops its
    children too; always waits for it to end."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=(subprocess.STDOUT if merge_stderr
                                  else subprocess.PIPE),
                          text=True, env=env, preexec_fn=os.setpgrp) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            raise BenchError(f"{cmd[0]} {cmd[1]}: timed out after {timeout} s")
    return p.returncode, out, err


# ------------------------------------------------------------------ build

def build(build_dir):
    for needed in ("CMakeLists.txt", "src", "examples/tac_file_tool.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{ROOT / needed} not found: tacbench builds "
                             "the library from the repository around it")
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(os.cpu_count() or 1), "--target", "tacbench",
                  "tac_file_tool"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = STATE_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        rc, out, _ = run(cmd, 840, env=env, merge_stderr=True)
        if rc != 0:
            raise BenchError("build failed:\n" + out[-4000:])
    return build_dir / "tacbench", build_dir / "tac" / "tac_file_tool"


# ------------------------------------------------------------------ inputs

def ensure_inputs(worker, spec, shift, seed):
    """The workload's seeded input files, each generated in a process of
    its own; file j comes from generator seed seed + 1000000 * j."""
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    paths = []
    for j in range(spec.files):
        gen_seed = seed + 1000000 * j
        path = INPUT_DIR / f"{spec.preset}-shift{shift}-seed{gen_seed}.amr"
        paths.append(path)
        if path.exists():
            path.touch()  # recently used: keep it cached
            continue
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        rc, _, err = run([str(worker), "gen", spec.preset, str(shift),
                          str(gen_seed), str(tmp)], 170)
        if rc != 0:
            tmp.unlink(missing_ok=True)
            raise BenchError(f"input generation failed: {err.strip()}")
        os.replace(tmp, path)
    cached = sorted(INPUT_DIR.glob("*.amr"), key=lambda f: f.stat().st_mtime)
    for old in cached[:-max(INPUTS_KEPT, spec.files)]:
        old.unlink(missing_ok=True)
    return paths


# ------------------------------------------------------------------ worker

def run_worker(binaries, spec, inputs, workdir, *, seed, seconds=None,
               iterations=None, trace=False, setup_only=False, inject=False):
    worker, tool = binaries
    cmd = [str(worker), "run", "--op", spec.op, "--method", spec.method,
           "--workdir", str(workdir), "--threads", str(THREADS),
           "--rng", str(seed), "--tool", str(tool)]
    for path in inputs:
        cmd += ["--input", str(path)]
    if iterations is not None:
        cmd += ["--iterations", str(iterations)]
    else:
        cmd += ["--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if inject:
        cmd.append("--inject")
    env = {k: v for k, v in os.environ.items() if k != "TAC_TRACE"}
    rc, out, err = run(cmd, (seconds or 0) + 150, env=env)
    if rc != 0:
        raise BenchError(f"worker exited {rc}: {err.strip()}")
    return json.loads(out)


# ------------------------------------------------------------------ statistics

def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(ops):
    """The highest whole percentile with at least ten samples beyond it,
    and its value; printed next to the median but not gated, since on a
    shared machine it swings more than any useful bound."""
    pct = max(50, int(100 * (1 - 10 / len(ops))))
    return pct, percentile(ops, pct)


def e2e_metrics(main, setups):
    ops = main["op_ms"]
    p50 = statistics.median(ops)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_p50_ms": p50,
        "throughput_mbps": main["bytes_per_op"] / 1e6 / (p50 / 1e3),
        "compression_ratio": main["compression_ratio"],
        "rms_error_eb": main["rms_error_eb"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def trace_file_stats(path):
    """Per-span-name self time (ms, summed over threads), the counters,
    and the root span's duration and the part its direct children cover."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    events = sorted(((e["tid"], e["ts"], e["args"]["depth"], e["dur"],
                      e["name"]) for e in data["traceEvents"]))
    nodes, stack, tid_now = [], [], None
    for tid, _, depth, dur, name in events:
        if tid != tid_now:
            stack, tid_now = [], tid
        while stack and stack[-1]["depth"] >= depth:
            stack.pop()
        node = {"name": name, "depth": depth, "dur": dur, "kids": 0.0}
        if stack:
            stack[-1]["kids"] += dur
        stack.append(node)
        nodes.append(node)
    self_ms = defaultdict(float)
    root_us = covered_us = 0.0
    for n in nodes:
        self_ms[n["name"]] += (n["dur"] - n["kids"]) / 1e3
        if n["depth"] == 0 and (n["name"] == "bench.op" or
                                n["name"].startswith("cli.")):
            root_us += n["dur"]
            covered_us += n["kids"]
    return self_ms, data["otherData"]["counters"], root_us, covered_us


def layer_metrics(main, errors):
    """Per-layer metrics: per traced operation, then the median."""
    per_op = defaultdict(list)
    for files in main["traces"]:
        self_ms, counters = defaultdict(float), defaultdict(int)
        root_us = covered_us = startup_ms = load_ms = save_ms = 0.0
        for tf in files:
            s, c, r, cov = trace_file_stats(tf["path"])
            for k, v in s.items():
                self_ms[k] += v
            for k, v in c.items():
                counters[k] += v
            root_us += r
            covered_us += cov
            if tf["cmd"] != "op":  # a file-tool child: time outside main()
                startup_ms += tf["wall_ms"] - r / 1e3
                if tf["cmd"] == "compress":
                    load_ms += s.get("cli.load", 0.0)
                elif tf["cmd"] in ("decompress", "extract"):
                    save_ms += s.get("cli.write", 0.0)
        dropped = counters["telemetry.spans_dropped"]
        if dropped:
            errors.append(f"trace dropped {dropped} span events")
        for span in SELF_SPANS:
            per_op[f"{span}.self_ms"].append(self_ms.get(span, 0.0))
        cli = files[0]["cmd"] != "op"
        per_op["amr_io.load_ms"].append(
            load_ms if cli else main["load_s"] * 1e3)
        per_op["amr_io.save_ms"].append(save_ms)
        per_op["cli.startup_ms"].append(startup_ms)
        trials = counters["selector.trials"]
        per_op["selector.trial_waste_frac"].append(
            counters["selector.trials_lost"] / trials if trials else 0.0)
        values_in = counters["sz.bytes_in"] / 8
        per_op["sz.outlier_frac"].append(
            counters["sz.outliers"] / values_in if values_in else 0.0)
        raw = counters["lzss.compress_bytes_in"] + counters["lzss.bytes_out"]
        packed = counters["lzss.compress_bytes_out"] + counters["lzss.bytes_in"]
        per_op["lzss.gain"].append(raw / packed if packed else 0.0)
        per_op["arena.block_allocs_per_op"].append(
            counters["arena.block_allocs"])
        per_op["trace.closure_frac"].append(
            covered_us / root_us if root_us else 0.0)
    values = {k: statistics.median(v) for k, v in per_op.items()}
    values["parallel.cpu_util"] = statistics.median(main["cpu_util"])
    values["trace.overhead_frac"] = (statistics.median(main["traced_op_ms"]) /
                                     statistics.median(main["op_ms"]) - 1)
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}


# ------------------------------------------------------------------ one run

def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        _, out, _ = run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30)
    except OSError:  # no git on this machine
        return "unknown"
    return out.strip() or "unknown"


def run_workload(binaries, name, seed, seconds, trace, *, shift=None,
                 iterations=None, inject=False):
    spec = WORKLOADS[name]
    inputs = ensure_inputs(binaries[0], spec,
                           spec.shift if shift is None else shift, seed)
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        kw = dict(seed=seed, seconds=seconds, iterations=iterations)
        setups = [run_worker(binaries, spec, inputs, workdir,
                             setup_only=True, **kw)
                  for _ in range(SETUP_RUNS - 1)]
        main = run_worker(binaries, spec, inputs, workdir, trace=trace,
                          inject=inject, **kw)
        runs = setups + [main]
        errors = [e for r in runs for e in r["errors"]]
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        if main["op_ms"] and (main["traces"] or not trace):
            metrics = (layer_metrics(main, errors) if trace
                       else e2e_metrics(main, runs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": failed == 0 and not errors,
        "attempted": sum(r["attempted"] for r in runs), "failed": failed,
        "errors": errors, "samples": len(main["op_ms"]),
        "tail_ms": tail(main["op_ms"]) if main["op_ms"] else None,
        "traced_samples": len(main["traced_op_ms"]), "metrics": metrics,
        "fingerprint": dict(main["fingerprint"], seed=seed, git_rev=git_rev(),
                            peak_rss_ops_only=main["peak_rss_ops_only"]),
    }


def print_record(rec):
    fp = rec["fingerprint"]
    print(f"{rec['workload']}: seed {rec['seed']}, {rec['seconds']} s, "
          f"{fp['threads']} threads ({fp['parallel']}), {fp['simd']}, "
          f"{rec['samples']} timed ops"
          + (f", {rec['traced_samples']} traced" if rec["trace"] else "")
          + f", {rec['failed']}/{rec['attempted']} failed")
    for name, m in rec["metrics"].items():
        basis = (f"median of {SETUP_RUNS} set-ups" if name == "setup_s"
                 else f"n={rec['traced_samples'] if rec['trace'] else rec['samples']}")
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:9s} {basis}")
    if rec["tail_ms"] and not rec["trace"]:
        pct, value = rec["tail_ms"]
        print(f"  {f'op_p{pct}_ms (not gated)':32s} {value:14.6g} ms        "
              f"n={rec['samples']}")
    for e in rec["errors"]:
        print(f"  error: {e}")


# ------------------------------------------------------------------ smoke

def smoke(binaries):
    """Small inputs, three operations each: every metric of
    BENCHMARK.json present with its unit, and injected failures (a
    flipped container byte, an out-of-bound decode) counted, not fatal."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for name in WORKLOADS:
        for trace in (0, 1):
            rec = run_workload(binaries, name, 1, None, trace,
                               shift=SMOKE_SHIFT, iterations=3)
            got = {k: m["unit"] for k, m in rec["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)}"
                                f" != BENCHMARK.json {sorted(expect[trace])}")
            bad = [k for k, m in rec["metrics"].items()
                   if not math.isfinite(m["value"])]
            if not rec["correct"] or bad:
                problems.append(f"{name} trace={trace}: correct="
                                f"{rec['correct']} non-finite={bad} "
                                f"errors={rec['errors']}")
            print(f"smoke {name} trace={trace}: {rec['samples']} ops, "
                  f"{len(got)} metrics")
    rec = run_workload(binaries, "dense_z10_decompress", 1, None, 0,
                       shift=SMOKE_SHIFT, iterations=3, inject=True)
    if rec["failed"] != 2 or rec["correct"]:
        problems.append(f"injected failures: expected 2 failed, got "
                        f"{rec['failed']} ({rec['errors']})")
    print(f"smoke injected: {rec['failed']}/{rec['attempted']} failed")
    for p in problems:
        print(f"smoke FAIL: {p}")
    print("smoke: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path,
                    help="append one JSON line per workload run")
    ap.add_argument("--build-dir", type=Path,
                    default=STATE_DIR / "tacbench")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        binaries = build(args.build_dir.resolve())
        if args.smoke:
            return smoke(binaries)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            rec = run_workload(binaries, name, args.seed, args.seconds,
                               bool(args.trace))
            print_record(rec)
            records.append(rec)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as f:
                    f.write(json.dumps(rec) + "\n")
    except (BenchError, OSError, ValueError) as e:
        log(f"tacbench: {e}")
        return 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": (records[0]["metrics"] if len(records) == 1 else
                    {r["workload"]: r["metrics"] for r in records}),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
