"""The benchmark's hooks into the package: every name its tracer patches and
every report field its workloads read must exist, or ``--trace 1`` breaks."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _holders() -> dict:
    """(owner, attribute) -> the original and every module that holds it."""
    modules = [m for k, m in sys.modules.items() if k == "cvcluster" or k.startswith("cvcluster.")]
    out = {}
    for owner, attr, _ in tracing.TRACED:
        original = getattr(owner, attr)
        holders = [owner] if isinstance(owner, type) else [
            m for m in modules if getattr(m, attr, None) is original
        ]
        out[(owner, attr)] = (original, holders)
    return out


def _traced_target(tmp_path, name: str):
    """Push one quick target of a workload through the installed tracer;
    return its outcome and the tracer, after checking that every alias the
    tracer patched holds its original again."""
    before = _holders()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = workloads.QUICK_WORKLOADS[name]
        target, rng = workloads.make_target(workload, [1], 0)
        ctx = workloads.Context(tmp_path, tracer)
        outcome = workloads.run_target(workload.pipeline, 0, target, rng, ctx)
    finally:
        tracer.uninstall()
    for (owner, attr), (original, holders) in before.items():
        for holder in holders:
            assert getattr(holder, attr) is original, (holder, attr)
    return outcome, tracer


def test_tracer_sees_a_compile_wide_target_and_restores_every_alias(tmp_path):
    outcome, tracer = _traced_target(tmp_path, "compile_wide")
    assert outcome.failures == []
    assert outcome.ancillas > 0 and outcome.columns > 0
    totals = tracer.totals()
    for name in ("multimode.compile", "executor.exact_replay", "serialize.load_program"):
        assert totals[name]["calls"] >= 1, name
    # A generic target is the triangle of two-mode gates, without
    # Bloch-Messiah or a mesh, and no one-mode synthesis: its gates absorb
    # every one-mode op.
    for name in ("multimode.bloch_messiah", "multimode.reck_decompose"):
        assert tracer.child_calls(name, "multimode.compile") == 0, name
    assert totals["single_mode.decompose_four_step"]["calls"] == 0
    assert tracer.count("single_mode.noise_proxy") == 0


def test_tracer_sees_a_simulate_target_and_restores_every_alias(tmp_path):
    outcome, tracer = _traced_target(tmp_path, "simulate")
    assert outcome.failures == []
    totals = tracer.totals()
    for name in ("simulator.run_program", "simulator.extract_effective_map"):
        assert totals[name]["calls"] >= 1, name


def test_a_simulate_target_replays_its_program_once(replay_passes, tmp_path):
    # compile replays the program, and the gate reads that kept replay.
    outcome, tracer = _traced_target(tmp_path, "simulate")
    assert outcome.failures == []
    assert tracer.totals()["executor.exact_replay"]["calls"] == 2
    assert len(replay_passes) == 1


def test_a_compile_wide_target_replays_compiled_and_reloaded_programs(replay_passes, tmp_path):
    # The gate verifies the program reloaded from its file, which runs its own pass.
    outcome, tracer = _traced_target(tmp_path, "compile_wide")
    assert outcome.failures == []
    assert tracer.totals()["executor.exact_replay"]["calls"] == 2
    assert len(replay_passes) == 2 and replay_passes[0] is not replay_passes[1]


def _quick_targets(tmp_path, name: str, count: int) -> list:
    """Push the first ``count`` quick targets of a workload through it,
    untraced; return their outcomes."""
    workload = workloads.QUICK_WORKLOADS[name]
    ctx = workloads.Context(tmp_path)
    outcomes = []
    for index in range(count):
        target, rng = workloads.make_target(workload, [1], index)
        outcomes.append(workloads.run_target(workload.pipeline, index, target, rng, ctx))
    return outcomes


def test_two_simulate_targets_walk_their_frontier_once(scripts, tmp_path):
    # Both targets compile to one cluster structure: every replay and tape
    # after the first compile's runs that one script.
    outcomes = _quick_targets(tmp_path, "simulate", 2)
    assert [outcome.failures for outcome in outcomes] == [[], []]
    assert scripts.cache_info().misses == 1


def test_a_reloaded_compile_wide_program_walks_no_frontier(scripts, replay_passes, tmp_path):
    [outcome] = _quick_targets(tmp_path, "compile_wide", 1)
    assert outcome.failures == []
    assert len(replay_passes) == 2  # the reloaded program runs its own pass,
    assert scripts.cache_info().misses == 1  # on compile's script
