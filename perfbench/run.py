"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload lm_blobs1500 --seed 0 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same tree.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` installs span wrappers around the package's
public functions and reports the per-layer metrics instead.  ``--smoke``
shrinks every workload to a few seconds for the benchmark's own tests.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it record the environment and the sample counts.  Spans of a
traced run, scratch files and the work counts kept for cross-run comparison
live under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".bench_build" / "perfbench"
# metric names, units and workloads are defined once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, same code paths")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    args.seed %= 2**32  # the generators take a nonnegative seed
    return args


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "anisodiff").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(nproc: int) -> dict:
    import importlib.util

    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": nproc,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def release_free_heap() -> None:
    """Return freed heap memory to the OS between set-up repetitions.

    Without it, whether a repetition reuses the previous one's freed blocks
    depends on heap layout, which varies from process to process, and
    ``peak_rss_mb`` jumps by ~10 MB at random instead of reflecting one
    set-up as a user would run it.  A no-op where libc has no malloc_trim.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)  # the process's own symbols include libc's
    except (OSError, AttributeError):
        pass


def check_counts_across_runs(key: str, counts: dict) -> list[str]:
    """Counts of the same source, workload and seed must match earlier runs."""
    path = STATE_DIR / "counts" / f"{key}.json"
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    diff = {k: (earlier[k], v) for k, v in counts.items() if k in earlier and earlier[k] != v}
    if diff:
        return [f"work counts differ from an earlier run (earlier, now): {diff}"]
    if not counts.keys() <= earlier.keys():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**earlier, **counts}, sort_keys=True))
        os.replace(tmp, path)
    return []


class Tally:
    """Attempted and failed solve iterations, and every problem found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Setups:
    """Timed set-ups on fresh objects: times, root spans and work counts.

    The first set-up's graphs are the ones every solve uses; later set-ups
    are measured and dropped, so no solve starts on cold lazy structures.
    """

    def __init__(self, wl, tracer, tally: Tally):
        self.wl, self.tracer, self.tally = wl, tracer, tally
        self.times: list[float] = []
        self.roots: list = []
        self.structure = None

    def run_one(self) -> float:
        wl, tracer = self.wl, self.tracer
        kept, wl.graphs = wl.graphs, []
        release_free_heap()
        if tracer:
            tracer.install()
            self.roots.append(tracer.open("setup"))
        t0 = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(self.roots[-1])
            tracer.uninstall()
        self.times.append(elapsed)
        counts = wl.structure()
        if self.structure is None:
            self.structure = counts
        elif counts != self.structure:
            self.tally.problems.append(
                f"structure counts changed between set-ups: {self.structure} -> {counts}"
            )
        if kept:
            wl.graphs = kept
        return time.perf_counter() - t0


def timed_call(wl, tracer, tally: Tally, warm_up: bool = False):
    """One solve iteration, traced when a tracer is given, then its checks
    (the costlier once-per-run checks too on the warm-up)."""
    root = None
    if tracer:
        tracer.install()
        root = tracer.open("solve")
    t0 = time.perf_counter()
    try:
        out, problems = wl.solve(), []
    except Exception as exc:  # an iteration that raises is a failed operation
        out, problems = None, [f"solve raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
        tracer.uninstall()
    if not problems:
        problems = wl.check(out) + (wl.check_once(out) if warm_up else [])
    tally.record(problems)
    return elapsed, out, root


def run(args, env) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    workdir = STATE_DIR / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    tally = Tally()
    try:
        reps = 2 if args.smoke else wl.setup_reps
        setups = Setups(wl, tracer, tally)
        setups.run_one()

        _, first_out, _ = timed_call(wl, None, tally, warm_up=True)  # untimed

        # a traced run alternates traced and untraced iterations; the other
        # set-ups are spread over the window, which does not count their time
        times, traced_times, solve_roots = [], [], []
        start = time.perf_counter()
        while len(times) + len(traced_times) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
            traced = bool(tracer) and len(traced_times) <= len(times)
            elapsed, _, root = timed_call(wl, tracer if traced else None, tally)
            if traced:
                traced_times.append(elapsed)
                solve_roots.append(root)
            else:
                times.append(elapsed)
            due = 1 + int((reps - 1) * min(1.0, (time.perf_counter() - start) / args.seconds))
            while len(setups.times) < min(due, reps - 1):
                start += setups.run_one()
        while len(setups.times) < reps:
            setups.run_one()
        structure = setups.structure

        if tracer:
            tree = tracing.SpanTree(tracer.spans)
            per_iter = [tracing.iteration_counts(tree, r) for r in solve_roots]
            if any(c != per_iter[0] for c in per_iter):
                tally.problems.append(f"work counts differ between iterations: {per_iter}")
            counts = {**structure, **per_iter[0]}
            metrics = tracing.per_layer_metrics(tree, setups.roots, solve_roots, times, counts)
            spans_path = STATE_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps({"env": env, "spans": tracer.to_json()}))
        else:
            metrics = {
                "setup_s": statistics.median(setups.times),
                "solve_s": statistics.median(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "test_accuracy_pct": wl.accuracy(first_out) if first_out is not None else 0.0,
            }
            counts = structure
        key = f"{args.workload}-seed{args.seed}-{'smoke' if args.smoke else 'full'}-{env['src_sha256']}"
        tally.problems.extend(check_counts_across_runs(key, counts))
        print(
            f"# samples: setup_s={len(setups.times)} solve_s={len(times)}"
            + (f" traced_solve={len(traced_times)}" if tracer else "")
            + f" solve_min={min(times):.4f} solve_max={max(times):.4f}"
        )
    finally:
        wl.close()
    for p in tally.problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in SPEC["per_layer" if args.trace else "end_to_end"]
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (SRC / "anisodiff" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'anisodiff'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import anisodiff

    if Path(anisodiff.__file__).resolve().parent != (SRC / "anisodiff").resolve():
        print(f"perfbench: imported anisodiff from {anisodiff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # the blobs graph is deliberately one component per class
    warnings.filterwarnings("ignore", message=".*connected components.*")
    env = environment(nproc)
    print("# env " + json.dumps(env, sort_keys=True))
    result = run(args, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
