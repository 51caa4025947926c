"""Run every workload traced and untraced and print all metrics as tables.

    python3 perfbench/report.py --seed 0

Each run is its own ``run.py`` process, for the ``run_seconds`` of
``BENCHMARK.json``.  The output is Markdown: the
environment, the end-to-end metrics with unit, direction and bound, every
per-layer metric, each layer's share of ``setup_s`` and ``solve_s``, and the
tracing overhead, one column per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = {}
    for line in lines[:-1]:
        if line.startswith("# "):
            key, _, rest = line[2:].partition(" ")
            result["notes"][key.rstrip(":")] = rest
    return result


def fmt(value: float) -> str:
    return f"{value:.4g}"


def table(header, rows) -> str:
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]

    results = {}
    for name in names:
        for trace in (0, 1):
            print(f"running {name} --trace {trace} ...", file=sys.stderr, flush=True)
            results[name, trace] = run_once(name, args.seed, seconds, trace)

    print(f"seed {args.seed}, {seconds:g} s per run\n")
    print("environment: " + results[names[0], 0]["notes"].get("env", "?") + "\n")
    print(table(
        ["workload", "trace", "correct", "attempted", "failed", "samples"],
        [[n, str(t), str(r["correct"]), str(r["attempted"]), str(r["failed"]),
          r["notes"].get("samples", "")] for (n, t), r in results.items()],
    ))

    print("\n## End-to-end (untraced)\n")
    print(table(
        ["metric", "unit", "better", "bound", *names],
        [[m["name"], m["unit"], m["better"], fmt(m["bound"]),
          *(fmt(results[n, 0]["metrics"][m["name"]]["value"]) for n in names)]
         for m in SPEC["end_to_end"]],
    ))

    layer = [m for m in SPEC["per_layer"] if not m["name"].startswith(("share.", "trace."))]
    print("\n## Per layer (traced)\n")
    print(table(
        ["metric", "unit", "better", *names],
        [[m["name"], m["unit"], m["better"],
          *(fmt(results[n, 1]["metrics"][m["name"]]["value"]) for n in names)] for m in layer],
    ))

    for phase, e2e in (("setup", "setup_s"), ("solve", "solve_s")):
        print(f"\n## Layer shares of {e2e} (%, self time, traced)\n")
        shares = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith(f"share.{phase}.")]
        print(table(
            ["layer", *names],
            [[s.split(".", 2)[2], *(fmt(results[n, 1]["metrics"][s]["value"]) for n in names)]
             for s in shares],
        ))

    print("\n## Tracing overhead (traced minus untraced solve_s, same process)\n")
    trace_metrics = [m for m in SPEC["per_layer"] if m["name"].startswith("trace.")]
    print(table(
        ["metric", "unit", *names],
        [[m["name"], m["unit"], *(fmt(results[n, 1]["metrics"][m["name"]]["value"]) for n in names)]
         for m in trace_metrics],
    ))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
