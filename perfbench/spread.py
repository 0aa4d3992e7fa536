"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload simulate --seeds 1-10 [--seconds 20] [--trace 0]

For every metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the interquartile range as a share of the median, next to the
metric's bound from BENCHMARK.json.  With ``--json`` the summary is also
printed as one JSON line.  Runs are sequential; each is its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values, walls, failed = {}, [], 0
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        walls.append(time.perf_counter() - start)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {walls[-1]:.1f} s wall, {result['attempted']} targets, "
              f"{result['failed']} failed; {shown}", file=sys.stderr)

    summary = {name: summarize(v) for name, v in values.items()}
    print(f"{'metric':42s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name, s in summary.items():
        bound = bounds.get(name)
        print(f"{name:42s} {s['median']:12.6g} {s['iqr_share']:10.4f} {bound if bound is not None else '':>6}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
          f"failed or incorrect: {failed}")
    if args.json:
        print(json.dumps({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                          "seeds": _seeds(args.seeds), "wall_s": walls, "metrics": summary}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
