"""Compare the benchmark's end-to-end metrics of two git revisions in
alternating fresh processes.

    python3 tools/ab.py BASE CHANGE --workload compile_wide [--pairs 10] [--seconds S]

Both revisions are exported with ``git archive`` into one temporary directory,
which is removed afterwards; nothing else is written.  Pair i runs
``perfbench/run.py --trace 0 --seed SEED+i`` once in each export, BASE first
in even pairs and CHANGE first in odd ones, each in a fresh interpreter with
``PYTHONDONTWRITEBYTECODE=1`` and ``MALLOC_MMAP_THRESHOLD_=131072`` (without
a fixed threshold, glibc's adaptive one makes some workloads bimodal).  A run
lasts ``--seconds``, by default CHANGE's BENCHMARK.json ``run_seconds``.

For every end-to-end metric of BENCHMARK.json (read from CHANGE) it prints each
side's median and quartiles (``perfbench/spread.py``'s), the number of pairs in which CHANGE is better
(by the metric's ``better`` direction), the median change in per cent, and
whether the medians differ by more than BASE's interquartile range.  Runs that
are not ``correct`` are counted and named.  ``--quick`` runs the benchmark's
tiny workloads, for a smoke test of the tool itself.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {"PYTHONDONTWRITEBYTECODE": "1", "MALLOC_MMAP_THRESHOLD_": "131072"}
sys.path.insert(0, str(ROOT / "perfbench"))

from spread import summarize  # noqa: E402


def export(revision: str, into: Path) -> Path:
    """The tree of ``revision`` of this repository, extracted under ``into``."""
    tree = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        capture_output=True, check=True,
    ).stdout
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(tree)) as archive:
        # filter= exists from Python 3.10.12 and 3.11.4 on
        archive.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def run(tree: Path, args, seed: int) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` process in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=tree, env={**os.environ, **ENV}, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree.name} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare(spec: dict, results: dict) -> list:
    """One summary per end-to-end metric: name, unit, both sides' quartiles,
    CHANGE's wins, the median change and whether it exceeds BASE's IQR."""
    rows = []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        b, c = summarize(base), summarize(change)
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "base": (b["q1"], b["median"], b["q3"]),
            "change": (c["q1"], c["median"], c["q3"]),
            "wins": wins,
            "pairs": len(base),
            "delta_pct": 100.0 * (c["median"] / b["median"] - 1.0) if b["median"] else 0.0,
            "significant": abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=("onemode", "compile_wide", "simulate"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="a run's length (default: CHANGE's run_seconds)")
    parser.add_argument("--seed", type=int, default=1000, help="seed of pair 0; pair i uses SEED + i")
    parser.add_argument("--quick", action="store_true", help="the benchmark's tiny workloads")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base"),
                 "change": export(args.change, Path(tmp) / "change")}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        results = {"base": [], "change": []}
        for i in range(args.pairs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                results[side].append(run(trees[side], args, args.seed + i))

    print(f"{args.workload}: {args.base} (base) vs {args.change} (change), {args.pairs} pairs, "
          f"{args.seconds:g} s a run{' (quick)' if args.quick else ''}")
    for side, rev in (("base", args.base), ("change", args.change)):
        bad = [i for i, r in enumerate(results[side]) if not r["correct"] or r["failed"]]
        if bad:
            print(f"{side} {rev}: runs {bad} were not correct")
    print(f"{'metric':<20} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36} {'wins':>6} {'change':>8}")
    for row in compare(spec, results):
        cells = [f"{row['metric']:<20}"]
        for side in ("base", "change"):
            q1, med, q3 = row[side]
            cells.append(f"{med:>14.6g} [{q1:.6g}, {q3:.6g}]".rjust(36))
        flag = " *" if row["significant"] else ""
        cells.append(f"{row['wins']:>3}/{row['pairs']:<2}")
        cells.append(f"{row['delta_pct']:+7.2f}%{flag}")
        print(" ".join(cells))
    print("* the medians differ by more than the base's interquartile range")
    return 0


if __name__ == "__main__":
    sys.exit(main())
