"""Seeded targets, per-target pipelines and correctness gates of the benchmark.

Every call into cvcluster goes through a module attribute (``multimode.compile``,
``executor.exact_replay``, ...) looked up at call time, so the tracer in
``tracing.py`` sees each call by patching those attributes.

Targets come from this file's own generator, not from
``cvcluster.random_symplectic``, so a change to ``symplectic.py`` cannot shift
the workload.  Timed target ``i`` depends only on (seed, workload, i), and the
timed loop never repeats a target, so a cache in the program gains nothing it
would not gain on fresh user input.  The output-cost metrics average over a
fixed reference set that no seed changes (see ``run_reference``).
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import calibration
from cvcluster import executor, multimode, serialize, simulator, teleport
from cvcluster.symplectic import SymplecticMap

#: Gate thresholds (the acceptance thresholds of the paper's checks).
REPLAY_TOL = 1e-9
MAP_ERROR_TOL = 1e-4
#: A generated target must satisfy M^T J M = J to this before use.
TARGET_SYMPLECTIC_TOL = 1e-10
#: Squeezing levels: excess noise, simulation shots, map verification.
EXCESS_DB = (10.0, 15.0)
SHOT_DB = 13.0
VERIFY_DB = 130.0
SAMPLED_SHOTS = 3
#: Largest |r| of a generated squeezer.
MAX_SQUEEZE = 1.2
#: Every FAMILY_PERIOD-th one-mode target is drawn from {d = 0, b != 1}.
FAMILY_PERIOD = 10


def _rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _embed(n: int, block: np.ndarray, modes: list) -> np.ndarray:
    """2k-by-2k block in (x..., p...) ordering acting on ``modes`` of n."""
    idx = list(modes) + [n + m for m in modes]
    out = np.eye(2 * n)
    out[np.ix_(idx, idx)] = block
    return out


def symplectic_residual(m: np.ndarray) -> float:
    """Max-abs violation of M^T J M = J (kept here, independent of cvcluster)."""
    n = m.shape[0] // 2
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return float(np.max(np.abs(m.T @ j @ m - j)))


def euler_target(n: int, rng: np.random.Generator) -> np.ndarray:
    """Two layers of per-mode rotation * squeeze * rotation (|r| <= 1.2),
    each followed by nearest-neighbour beam splitters."""
    m = np.eye(2 * n)
    for _ in range(2):
        for k in range(n):
            r = rng.uniform(-MAX_SQUEEZE, MAX_SQUEEZE)
            layer = (
                _rotation(rng.uniform(-math.pi, math.pi))
                @ np.diag([math.exp(r), math.exp(-r)])
                @ _rotation(rng.uniform(-math.pi, math.pi))
            )
            m = _embed(n, layer, [k]) @ m
        for k in range(n - 1):
            t = math.sqrt(rng.uniform(0.0, 1.0))
            u = math.sqrt(1.0 - t * t)
            mix = np.array([[t, u], [-u, t]])
            block = np.block([[mix, np.zeros((2, 2))], [np.zeros((2, 2)), mix]])
            m = _embed(n, block, [k, k + 1]) @ m
    return m


def three_step_unreachable_target(rng: np.random.Generator) -> np.ndarray:
    """((a, b), (-1/b, 0)) with b != 1: det 1 and d = 0."""
    b = rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0])
    if abs(b - 1.0) < 0.05:
        b += 0.2
    return np.array([[rng.uniform(-2.0, 2.0), b], [-1.0 / b, 0.0]])


@dataclass
class Outcome:
    """What one target produced: its wall time, failed gates and output cost."""

    target_id: int | str  # timed targets count from 0; others are labelled
    seconds: float = 0.0
    failures: list = field(default_factory=list)
    ancillas: int = 0
    columns: int = 0
    pad_ancillas: int = 0
    noise_proxy: float = 0.0
    replay_residual: float = 0.0
    excess_10db: float = 0.0
    excess_15db: float = 0.0
    program_mb: float = 0.0
    #: time of one calibration kernel unit run right after the target, when
    #: the loop calibrates
    kernel_s: float | None = None


class Check:
    """Per-target gate bookkeeping; ``stage`` names the step that is running,
    so an exception is reported with the gate it interrupted."""

    def __init__(self, target_id: int | str):
        self.target_id = target_id
        self.stage = "start"
        self.failures = []

    def below(self, gate: str, value: float, limit: float) -> None:
        if not value < limit:  # also rejects NaN
            self.failures.append(
                f"target {self.target_id}: gate {gate}: {value:.3e} is not below {limit:.0e}"
            )

    def exception(self, exc: Exception) -> None:
        self.failures.append(
            f"target {self.target_id}: gate {self.stage}: {type(exc).__name__}: {exc}"
        )


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _feedforward_matrix(program, replay) -> np.ndarray:
    """The program's feedforward rules as a 2n-by-m gain matrix."""
    n = program.n
    column = {node: k for k, node in enumerate(replay.measured_ids)}
    port = {node.id: node.port for node in program.graph.output_ports()}
    gains = np.zeros_like(replay.outcome_response)
    for rule in program.feedforward:
        k, w = column[rule.source_id], port[rule.target_id]
        gains[w, k] += rule.gain_x
        gains[n + w, k] += rule.gain_p
    return gains


def compile_target(chk: Check, out: Outcome, target: SymplecticMap):
    chk.stage = "compile"
    program, report = multimode.compile(target)
    chk.below("compile_replay_residual", report.replay_residual, REPLAY_TOL)
    out.ancillas = report.ancilla_count
    out.columns = 1 + max(rec.column for rec in report.step_params)
    out.pad_ancillas = sum(
        len(rec.params["kappas"]) for rec in report.step_params if rec.kind == "pad"
    )
    out.noise_proxy = report.noise_proxy
    out.replay_residual = report.replay_residual
    return program


def verify_replay(chk: Check, out: Outcome, program, target: SymplecticMap) -> None:
    chk.stage = "exact_replay"
    replay = executor.exact_replay(program)
    chk.below("exact_replay_vs_target", _max_abs(replay.matrix - target.matrix), REPLAY_TOL)
    chk.below(
        "feedforward_vs_outcome_response",
        _max_abs(_feedforward_matrix(program, replay) + replay.outcome_response),
        REPLAY_TOL,
    )
    out.excess_10db, out.excess_15db = (
        float(np.trace(replay.excess_covariance(simulator.db_to_r(db)))) for db in EXCESS_DB
    )


def _verify_map(chk: Check, program, target: SymplecticMap) -> None:
    chk.stage = "extract_effective_map"
    effective, _ = simulator.extract_effective_map(program, simulator.db_to_r(VERIFY_DB))
    chk.below("map_error_130db", _max_abs(effective.matrix - target.matrix), MAP_ERROR_TOL)


def onemode_pipeline(chk, out, target, rng, ctx) -> None:
    program = compile_target(chk, out, target)
    verify_replay(chk, out, program, target)
    chk.stage = "teleport_plus_two"
    params = teleport.decompose_telep_plus_two(target)
    chk.below(
        "teleport_plus_two_reconstruction",
        _max_abs(params.reconstruct().matrix - target.matrix),
        REPLAY_TOL,
    )
    _verify_map(chk, program, target)


def compile_wide_pipeline(chk, out, target, rng, ctx) -> None:
    program = compile_target(chk, out, target)
    path = ctx.workdir / f"program-{chk.target_id}.json"
    chk.stage = "save_program"
    serialize.save_program(program, str(path))
    out.program_mb = path.stat().st_size / 1e6
    chk.stage = "load_program"
    loaded = serialize.load_program(str(path))
    path.unlink()
    verify_replay(chk, out, loaded, target)


def simulate_pipeline(chk, out, target, rng, ctx) -> None:
    program = compile_target(chk, out, target)
    verify_replay(chk, out, program, target)
    state_in = simulator.coherent(target.n, rng.uniform(-1.0, 1.0, 2 * target.n))
    shot_seeds = rng.integers(0, 2**31, SAMPLED_SHOTS)
    policies = [simulator.sampled(int(s)) for s in shot_seeds] + [simulator.PINNED_ZERO]
    for policy in policies:
        chk.stage = "run_program"
        state_out, _ = simulator.run_program(
            program, state_in, simulator.db_to_r(SHOT_DB), policy
        )
        chk.stage = "validate_state"
        simulator.validate_state(state_out)
    _verify_map(chk, program, target)


@dataclass(frozen=True)
class Workload:
    """One named workload: target size, pipeline, reference set and cap."""

    name: str
    n: int
    pipeline: Callable
    #: size of the fixed reference set the output-cost metrics average over
    reference_targets: int
    #: seconds a run may take beyond its measured ``--seconds``; past this no
    #: further target starts and the run is recorded as over cap
    cap_s: float
    #: calibration kernel units (about 3 ms each) run after each timed target:
    #: a few per cent of a target's time, and at least one
    kernel_units: int


#: Sizes the benchmark measures.  Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "onemode": Workload("onemode", 1, onemode_pipeline, 300, 30.0, 1),
    "compile_wide": Workload("compile_wide", 8, compile_wide_pipeline, 3, 60.0, 50),
    "simulate": Workload("simulate", 3, simulate_pipeline, 30, 40.0, 10),
}
#: Tiny sizes for the benchmark's own tests; same pipelines.
QUICK_WORKLOADS = {
    "onemode": Workload("onemode", 1, onemode_pipeline, 12, 30.0, 1),
    "compile_wide": Workload("compile_wide", 2, compile_wide_pipeline, 2, 30.0, 1),
    "simulate": Workload("simulate", 2, simulate_pipeline, 2, 30.0, 1),
}


def make_target(workload: Workload, entropy: list, index: int):
    """Target ``index`` of the workload and the generator that drew it: the
    identity first, then Euler-type targets, with every tenth one-mode target
    from the d = 0 family.  ``entropy`` selects the stream."""
    rng = np.random.default_rng([*entropy, zlib.crc32(workload.name.encode()), index])
    if index == 0 and workload.n == 1:
        matrix = np.eye(2)
    elif workload.n == 1 and index % FAMILY_PERIOD == FAMILY_PERIOD // 2:
        matrix = three_step_unreachable_target(rng)
    else:
        matrix = euler_target(workload.n, rng)
    residual = symplectic_residual(matrix)
    if residual > TARGET_SYMPLECTIC_TOL:
        raise ValueError(
            f"{workload.name} target {index}: symplectic residual {residual:.2e}"
            f" exceeds {TARGET_SYMPLECTIC_TOL:.0e}"
        )
    return SymplecticMap(workload.n, matrix), rng


def reference_pipeline(chk, out, target, rng, ctx) -> None:
    """Compile and exact replay only: what the output-cost metrics need."""
    program = compile_target(chk, out, target)
    verify_replay(chk, out, program, target)


@dataclass
class Context:
    """Run-wide state a pipeline needs: where it may write files, and the
    tracer (or None), which marks each target as a root span."""

    workdir: Path
    tracer: object = None


def run_target(pipeline: Callable, target_id, target, rng, ctx: Context) -> Outcome:
    """Push one target through a pipeline and time it.

    Every exception is caught here, at the per-target boundary, and counted as
    a failure named with the target and the gate that was running."""
    out = Outcome(target_id)
    chk = Check(target_id)
    scope = ctx.tracer.root(target_id) if ctx.tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            pipeline(chk, out, target, rng, ctx)
    except Exception as exc:  # noqa: BLE001 - counted and reported, never skipped
        chk.exception(exc)
    out.seconds = time.perf_counter() - start
    out.failures = chk.failures
    return out


def run_reference(workload: Workload, deadline: float, ctx: Context) -> list:
    """The fixed reference set, compile and replay only, untimed.

    Its targets do not depend on the run's seed, so the output-cost metrics
    compare two versions of the program on identical inputs and do not move
    from seed to seed.  No target starts after ``deadline``."""
    outcomes = []
    for index in range(workload.reference_targets):
        if time.perf_counter() > deadline:
            break
        target, rng = make_target(workload, [], index)
        outcomes.append(run_target(reference_pipeline, f"ref-{index}", target, rng, ctx))
    return outcomes


def run_workload(
    workload: Workload, seed: int, seconds: float, deadline: float, ctx: Context,
    calibrate: bool = False,
) -> list:
    """Closed loop, one target at a time: keep starting fresh targets drawn
    from ``seed`` until ``seconds`` have passed (at least one target; none
    starts after ``deadline``).

    With ``calibrate``, the calibration kernel runs, untimed, right after each
    target, and its time is stored on the target."""
    outcomes = []
    start = time.perf_counter()
    index = 0
    while not outcomes or (
        time.perf_counter() - start < seconds and time.perf_counter() < deadline
    ):
        target, rng = make_target(workload, [seed], index)
        outcomes.append(run_target(workload.pipeline, index, target, rng, ctx))
        index += 1
        if calibrate:
            outcomes[-1].kernel_s = calibration.kernel_seconds(workload.kernel_units)
    return outcomes


def setup(workload: Workload, seed: int, workdir: Path) -> None:
    """What a run needs before it measures: the reference targets generated
    and checked, and one small warm-up target (at most two modes) through
    the pipeline."""
    for index in range(workload.reference_targets):
        make_target(workload, [], index)
    small = replace(workload, n=min(workload.n, 2))
    target, rng = make_target(small, [seed, 1], 1)
    warm = run_target(small.pipeline, "warm-up", target, rng, Context(workdir))
    if warm.failures:
        raise RuntimeError("warm-up target failed: " + "; ".join(warm.failures))


def calibrated_seconds(outcomes: list) -> list:
    """Each target's time at the reference host speed, scaled by the kernel
    time measured right after it."""
    if any(o.kernel_s is None for o in outcomes):
        raise ValueError("a target has no calibration kernel time")
    return [calibration.scale(o.seconds, o.kernel_s) for o in outcomes]


def tail(times: list) -> dict | None:
    """The highest percentile with at least ten samples beyond it, or None
    when fewer than 20 samples leave no percentile at or above the median."""
    if len(times) < 20:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return {
        "percentile": 100.0 * (k + 1) / len(ordered),
        "value_s": ordered[k],
        "samples": len(ordered),
        "beyond": 10,
    }


def output_cost(reference: list) -> dict:
    """Output-cost means over the reference set."""
    return {
        "ancillas_mean": statistics.fmean(o.ancillas for o in reference),
        "excess_trace_10db": statistics.fmean(o.excess_10db for o in reference),
        "excess_trace_15db": statistics.fmean(o.excess_15db for o in reference),
    }
