"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from cvcluster import executor, multimode, simulator, single_mode, teleport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_declared_metric_with_its_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = _run(tmp_path, "--workload", "onemode", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_targets_depend_only_on_seed_and_index():
    wl = workloads.WORKLOADS["onemode"]

    def target(seed, index):
        return workloads.make_target(wl, [seed], index)[0].matrix

    assert np.array_equal(target(4, 3), target(4, 3))
    assert not np.array_equal(target(4, 3), target(5, 3))
    assert np.array_equal(target(4, 0), np.eye(2))
    family = target(4, workloads.FAMILY_PERIOD // 2)
    assert family[1, 1] == 0.0 and family[0, 1] != 1.0


def test_calibrated_seconds_scale_each_target_by_its_own_kernel_time():
    ref = workloads.calibration.REFERENCE_S
    outcomes = [workloads.Outcome(k, seconds=t) for k, t in enumerate([1.0, 3.0])]
    outcomes[0].kernel_s = ref
    outcomes[1].kernel_s = 2.0 * ref  # host at half speed
    assert workloads.calibrated_seconds(outcomes) == pytest.approx([1.0, 1.5])
    outcomes[1].kernel_s = None
    with pytest.raises(ValueError):
        workloads.calibrated_seconds(outcomes)


def test_calibrating_loop_times_a_kernel_after_every_target(tmp_path):
    wl = workloads.QUICK_WORKLOADS["onemode"]
    outcomes = workloads.run_workload(wl, 1, 0.3, float("inf"), workloads.Context(tmp_path), calibrate=True)
    assert len(outcomes) >= 2 and all(o.kernel_s > 0 for o in outcomes)
    assert len(workloads.calibrated_seconds(outcomes)) == len(outcomes)


def test_corrupted_schedule_angle_fails_the_replay_gate(monkeypatch, tmp_path):
    real_compile = multimode.compile

    def corrupting_compile(target):
        program, report = real_compile(target)
        first = program.schedule[0]
        schedule = (replace(first, angle=first.angle + 0.1),) + program.schedule[1:]
        return replace(program, schedule=schedule), report

    monkeypatch.setattr(multimode, "compile", corrupting_compile)
    wl = workloads.QUICK_WORKLOADS["compile_wide"]
    target, rng = workloads.make_target(wl, [1], 0)
    outcome = workloads.run_target(wl.pipeline, 0, target, rng, workloads.Context(tmp_path))
    assert any("target 0: gate exact_replay_vs_target" in f for f in outcome.failures)


def test_exception_is_counted_and_named_with_target_and_gate(monkeypatch, tmp_path):
    def broken(target):
        raise ArithmeticError("injected")

    monkeypatch.setattr(teleport, "decompose_telep_plus_two", broken)
    wl = workloads.QUICK_WORKLOADS["onemode"]
    outcomes = workloads.run_workload(wl, 1, 0.2, float("inf"), workloads.Context(tmp_path))
    assert len(outcomes) > 1
    for outcome in outcomes:
        assert outcome.failures == [
            f"target {outcome.target_id}: gate teleport_plus_two: ArithmeticError: injected"
        ]


def test_tracer_counts_calls_and_restores_every_alias(tmp_path):
    originals = (multimode.exact_replay, executor.exact_replay, single_mode.noise_proxy,
                 simulator.run_program)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert multimode.exact_replay is executor.exact_replay is not originals[0]
        wl = workloads.QUICK_WORKLOADS["simulate"]
        target, rng = workloads.make_target(wl, [1], 0)
        outcome = workloads.run_target(wl.pipeline, 0, target, rng, workloads.Context(tmp_path, tracer))
    finally:
        tracer.uninstall()
    assert (multimode.exact_replay, executor.exact_replay, single_mode.noise_proxy,
            simulator.run_program) == originals
    assert outcome.failures == []
    totals = tracer.totals()
    assert totals["executor.exact_replay"]["calls"] == 2  # inside compile, then the gate
    assert totals["simulator.run_program"]["calls"] == workloads.SAMPLED_SHOTS + 1 + 2 * wl.n + 1
    assert tracer.count("single_mode.noise_proxy", "single_mode.select_free_kappa1") > 0
    root = totals[tracing.ROOT_SPAN]
    assert root["calls"] == 1 and 0.0 <= root["self_s"] < root["s"]
