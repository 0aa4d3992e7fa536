"""Structural report: what the compiler emits for n in {1, 2, 4, 6, 8}.

    python3 perfbench/structure.py --seed 7

Compile-only and untimed.  For each n it compiles TARGETS_PER_N seeded
Euler-type targets (the benchmark's own generator) and prints, as JSON, the
means of ancillas, pad ancillas and their share, columns, noise proxy and
the executor's exact excess trace at 10 and 15 dB, plus the worst replay
residual.  Every target must pass the compile and replay gates.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (1, 2, 4, 6, 8)
TARGETS_PER_N = 3


def report(seed: int) -> dict:
    import numpy as np

    import workloads
    from cvcluster.symplectic import SymplecticMap

    rows = []
    for n in SIZES:
        outs = []
        for index in range(TARGETS_PER_N):
            rng = np.random.default_rng([seed, n, index])
            target = SymplecticMap(n, workloads.euler_target(n, rng))
            chk, out = workloads.Check(index), workloads.Outcome(index)
            program = workloads.compile_target(chk, out, target)
            workloads.verify_replay(chk, out, program, target)
            if chk.failures:
                raise RuntimeError(f"n={n}: " + "; ".join(chk.failures))
            outs.append(out)

        def mean(key):
            return statistics.fmean(getattr(o, key) for o in outs)

        rows.append({
            "n": n,
            "ancillas": mean("ancillas"),
            "pad_ancillas": mean("pad_ancillas"),
            "pad_share": mean("pad_ancillas") / mean("ancillas"),
            "columns": mean("columns"),
            "noise_proxy": mean("noise_proxy"),
            "excess_trace_10db": mean("excess_10db"),
            "excess_trace_15db": mean("excess_15db"),
            "replay_residual_max": max(o.replay_residual for o in outs),
        })
    return {"seed": seed, "targets_per_n": TARGETS_PER_N, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(report(args.seed), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
