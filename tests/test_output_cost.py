"""The compiler's output cost on the benchmark's fixed reference sets, rebuilt
through ``perfbench/workloads.py`` (read, never edited): the ancilla count
may not change and the excess noise may not rise."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

#: Per workload: ancillas_mean, excess_trace_10db and excess_trace_15db, as
#: each four-step gate's kappa1 minimizes its exact excess tr(W K K^T) and
#: each splitter, with its wires' one-mode gates before it and, at a wire's
#: last splitter, after it, is one two-mode gate of four connection gates.
EXPECTED = {
    "onemode": (4.0, 0.13074723449143713, 0.04134590587610681),
    "simulate": (72.0, 5.6052060538556665, 1.7725217884748323),
    "compile_wide": (672.0, 38.299497923443475, 12.111364667897048),
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
