"""The compiler's output cost on the benchmark's fixed reference sets, rebuilt
through ``perfbench/workloads.py`` (read, never edited): the ancilla count
may not change and the excess noise may not rise.  Also on criterion 7's
targets with n >= 2."""

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

from cvcluster import compile, db_to_r, random_symplectic

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

#: Per workload: ancillas_mean, excess_trace_10db and excess_trace_15db, as
#: each four-step gate's kappa1 minimizes its exact excess tr(W K K^T) and
#: each gate of the triangle, with its wires' L^-1 at their first gate and D
#: at their last, is one two-mode gate of four connection gates,
#: line-minimized in every Fourier variant of its least-forced group, and
#: the gates' variants are chosen together.
EXPECTED = {
    "onemode": (4.0, 0.13074723449143713, 0.04134590587610681),
    "simulate": (36.0, 1.347481403067223, 0.42611103384118204),
    "compile_wide": (336.0, 11.735592149605033, 3.7111200883543387),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_reference_set_output_cost_does_not_regress(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    outcomes = workloads.run_reference(workload, float("inf"), workloads.Context(tmp_path))
    assert [outcome.failures for outcome in outcomes if outcome.failures] == []
    assert len(outcomes) == workload.reference_targets
    assert max(outcome.replay_residual for outcome in outcomes) < 1e-12
    cost = workloads.output_cost(outcomes)
    ancillas, excess_10db, excess_15db = EXPECTED[name]
    assert cost["ancillas_mean"] == ancillas
    assert cost["excess_trace_10db"] <= excess_10db * (1.0 + 1e-9)
    assert cost["excess_trace_15db"] <= excess_15db * (1.0 + 1e-9)


def test_criterion_7_targets_with_two_or_more_modes():
    # The 150 targets random_symplectic(n, 7000 + s) of criterion 7 with
    # n in {2, 3, 4}: their mean 10-dB excess trace and worst replay residual.
    # A two-mode chain is accepted only if it reproduces its gate to
    # round-off, which keeps the residual below 1e-13.
    excess, residuals = [], []
    for seed in range(7050, 7200):
        program, report = compile(random_symplectic(2 + (seed - 7050) // 50, seed))
        excess.append(float(np.trace(program.replay.excess_covariance(db_to_r(10.0)))))
        residuals.append(report.replay_residual)
    assert statistics.fmean(excess) <= 1.60
    assert max(residuals) < 1e-13
