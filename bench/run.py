"""Benchmark of phctrl: four closed-loop workloads, one caller each.

    python3 bench/run.py --workload {mc,probe,certify,distance} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; phctrl is imported from its src/.
Human-readable lines (environment, every metric with its unit) come
first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 measures the
end-to-end metrics with no tracing installed.  --trace 1 runs a fixed
number of cycles untraced, then the same cycles with span wrappers, and
reports per-layer metrics; spans go to bench/out/spans-<workload>.jsonl.gz.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pinned before numpy is first imported (in setup); children inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The CLI layers PHGEN_SEED under its flags; clear it so the config the
# probe echoes is the benchmark's own.
os.environ.pop("PHGEN_SEED", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("mc", "probe", "certify", "distance")
# setup_s is the median over the measuring process and these fresh ones.
SETUP_CHILDREN = 2
# A traced run spends about this share of --seconds on each of its passes.
TRACE_SHARE = 0.3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="phctrl benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this process, print it and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(args):
    """Import phctrl, generate the inputs and make one untimed warm-up
    call (the first call of cycle 0); returns (seconds, workload)."""
    t0 = time.perf_counter()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    wl.call(wl.cycle(0)[0])
    return time.perf_counter() - t0, wl


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(load_at_start) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
    }


class Pass:
    """Calls made over whole cycles, with their latencies and checks."""

    def __init__(self):
        self.latencies: list[float] = []
        self.records: list = []
        self.units = 0
        self.failed = 0
        self.disagreements = 0
        self.wall = 0.0

    def run(self, wl, *, seconds=None, cycles=None, tracer=None) -> "Pass":
        perf = time.perf_counter
        t_start = perf()

        def more(c):
            if cycles is not None:
                return c < cycles
            return c == 0 or perf() - t_start < seconds

        c = 0
        while more(c):
            for item in wl.cycle(c):
                self._one(wl, item, tracer)
            c += 1
            if c == 1 and hasattr(wl, "digest_failures"):
                self.failed += wl.digest_failures(list(self.records))
        self.wall = perf() - t_start
        return self

    def _one(self, wl, item, tracer) -> None:
        units = wl.units(item)
        self.units += units
        t = time.perf_counter()
        try:
            if tracer is None:
                result = wl.call(item)
            else:
                with tracer.unit():
                    result = wl.call(item)
        except Exception:
            self.latencies.append(time.perf_counter() - t)
            traceback.print_exc(file=sys.stderr)
            self.failed += units
            self.records.append(None)
            return
        self.latencies.append(time.perf_counter() - t)
        outcome = wl.check(item, result)
        self.failed += outcome.failed
        self.disagreements += outcome.disagreements
        self.records.append(outcome.record)

    @property
    def call_time(self) -> float:
        return sum(self.latencies)


def end_to_end(args, wl, first_setup: float) -> tuple[int, int, dict]:
    setups = [first_setup] + [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
    run = Pass().run(wl, seconds=args.seconds)
    lat_ms = [x * 1e3 for x in run.latencies]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_per_s": (run.units / run.call_time, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kib * 1024 / 1e6, "MB"),
    }
    print(f"calls: {len(lat_ms)} ({wl.unit}s per call: {run.units / len(lat_ms):g}); "
          f"setup samples: {[round(s, 4) for s in setups]}")
    return run.units, run.failed, metrics


def traced(args, wl) -> tuple[int, int, dict]:
    import spans

    cycles = max(1, round(args.seconds * TRACE_SHARE / wl.trace_cycle_s))
    plain = Pass().run(wl, cycles=cycles)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with_spans = Pass().run(wl, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    same = plain.records == with_spans.records
    metrics = tracer.metrics(with_spans.wall)
    metrics["ctrb.rank_svd.disagreements"] = (with_spans.disagreements, "count")
    metrics["bench.screened_bases"] = (getattr(wl, "screened", 0), "count")
    metrics["tracing.overhead_ratio"] = (with_spans.call_time / plain.call_time, "ratio")
    tracer.write_jsonl(OUT_DIR / f"spans-{wl.name}.jsonl.gz")
    print(f"traced {cycles} cycles twice: {len(with_spans.latencies)} calls, "
          f"{len(tracer.start)} spans; outputs equal to the untraced pass: {same}")
    # A traced output that differs from the untraced one fails its units.
    failed = plain.failed + with_spans.failed + (0 if same else with_spans.units)
    return plain.units + with_spans.units, failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phctrl" / "__init__.py").is_file():
        print(f"error: no phctrl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = os.getloadavg()
    first_setup, wl = setup(args)
    if args.setup_only:
        print(repr(first_setup))
        return 0
    import phctrl

    if Path(phctrl.__file__).resolve().parent != (SRC / "phctrl").resolve():
        print(f"error: phctrl imported from {phctrl.__file__}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(load_at_start)))
    print(f"workload {args.workload}, seed {args.seed}, unit of work: {wl.unit}")
    if args.trace:
        attempted, failed, metrics = traced(args, wl)
    else:
        attempted, failed, metrics = end_to_end(args, wl, first_setup)
    print(f"error_ratio: {failed / attempted:.6g} ({failed} of {attempted} {wl.unit}s failed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
