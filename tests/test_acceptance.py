"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import dataclasses
import time

import numpy as np
from scipy import stats

from cvcluster import (
    PINNED_ZERO,
    SymplecticMap,
    beam_splitter_matrix,
    beam_splitter_program,
    compile,
    connection_gate,
    decompose_four_step,
    decompose_telep_plus_two,
    exact_replay,
    extract_effective_map,
    fourier,
    identity,
    db_to_r,
    mtel,
    random_symplectic,
    rotation,
    run_program,
    sampled,
    squeeze,
    three_step_reachable,
    vacuum,
)
from cvcluster.ir import ClusterGraph, Node, ROLE_ANCILLA
from cvcluster.simulator import build_cluster

from oracles import four_step_product, three_step_grid_minimum


def report(index: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {index:2d} {status}: {detail}")


def test_criterion_01_four_step_universality():
    start = time.monotonic()
    worst = 0.0
    for seed in range(1000):
        target = random_symplectic(1, seed)
        params = decompose_four_step(target)
        residual = np.max(np.abs(four_step_product(params.kappas) - target.matrix))
        worst = max(worst, float(residual))
    elapsed = time.monotonic() - start
    passed = worst < 1e-9 and elapsed < 5.0
    report(1, passed, f"1000 random one-mode targets, worst four-step residual "
                      f"{worst:.2e} (< 1e-9), {elapsed:.1f} s (< 5 s)")
    assert passed


def test_criterion_02_three_step_gap():
    start = time.monotonic()
    targets = []
    for b in (-1.0, -1.5, -2.0, -2.5, -3.0):
        for a in (0.0, 0.7, -1.2, 2.0):
            targets.append(SymplecticMap(1, np.array([[a, b], [-1.0 / b, 0.0]])))
    worst_grid = np.inf
    worst_four = 0.0
    all_unreachable = True
    for target in targets:
        all_unreachable &= not three_step_reachable(target)
        worst_grid = min(worst_grid, three_step_grid_minimum(target))
        params = decompose_four_step(target)
        worst_four = max(
            worst_four,
            float(np.max(np.abs(four_step_product(params.kappas) - target.matrix))),
        )
    elapsed = time.monotonic() - start
    passed = all_unreachable and worst_grid >= 0.1 and worst_four < 1e-9 and elapsed < 120.0
    report(2, passed, f"20 targets with d=0, b!=1: classified unreachable, grid "
                      f"minimum {worst_grid:.3f} (never < 0.1), four-step residual "
                      f"{worst_four:.2e} (< 1e-9), {elapsed:.0f} s (< 2 min)")
    assert passed


def test_criterion_03_identity_calibration():
    params = decompose_four_step(identity(1))
    passed = params.kappas == (0.0, 0.0, 0.0, 0.0)
    report(3, passed, f"identity target yields kappas {params.kappas} (exact zeros)")
    assert passed


def test_criterion_04_teleportation_algebra():
    exact_identity = np.array_equal(mtel(0.0, 0.0).matrix, np.eye(2))
    rng = np.random.default_rng(4)
    worst_rot = max(
        float(np.max(np.abs(mtel(tp, 0.0).matrix - rotation(-tp).matrix)))
        for tp in rng.uniform(-np.pi, np.pi, size=100)
    )
    worst_sq = 0.0
    for tm in rng.uniform(-1.4, 1.4, size=100):
        r = np.arctanh(np.sin(tm))
        expected = np.array([[np.cosh(r), np.sinh(r)], [np.sinh(r), np.cosh(r)]])
        worst_sq = max(worst_sq, float(np.max(np.abs(mtel(0.0, tm).matrix - expected))))
    worst_sandwich = 0.0
    for _ in range(100):
        tp = rng.uniform(-np.pi, np.pi)
        tm = rng.uniform(-1.4, 1.4)
        split = (
            mtel(tp / 2, 0.0).matrix @ mtel(0.0, tm).matrix @ mtel(tp / 2, 0.0).matrix
        )
        worst_sandwich = max(
            worst_sandwich, float(np.max(np.abs(mtel(tp, tm).matrix - split)))
        )
    passed = (
        exact_identity
        and worst_rot < 1e-12
        and worst_sq < 1e-12
        and worst_sandwich < 1e-12
    )
    report(4, passed, f"m_tel algebra: identity exact, rotation dev {worst_rot:.1e}, "
                      f"45-degree squeeze dev {worst_sq:.1e}, sandwich dev "
                      f"{worst_sandwich:.1e} (all < 1e-12)")
    assert passed


def test_criterion_05_teleport_plus_two_universality():
    worst = 0.0
    for seed in range(1000):
        target = random_symplectic(1, seed)
        params = decompose_telep_plus_two(target)
        worst = max(
            worst,
            float(np.max(np.abs(params.reconstruct().matrix - target.matrix))),
        )
    passed = worst < 1e-9
    report(5, passed, f"1000 random targets via teleport+two steps, worst residual "
                      f"{worst:.2e} (< 1e-9) with automatically chosen theta0")
    assert passed


def test_criterion_06_connection_gate_beam_splitter():
    worst = 0.0
    for reflectivity in np.linspace(0.0, 1.0, 101):
        cube = np.eye(4)
        for params in beam_splitter_program(reflectivity):
            cube = connection_gate(params).matrix @ cube
        worst = max(
            worst,
            float(np.max(np.abs(cube - beam_splitter_matrix(reflectivity).matrix))),
        )
    passed = worst < 1e-12
    report(6, passed, f"M_I^3 equals M_R (+) M_R for 101 reflectivities, worst "
                      f"deviation {worst:.2e} (< 1e-12)")
    assert passed


def test_criterion_07_multimode_compile_replay():
    worst = 0.0
    ratios = {}
    seed = 0
    for n in (1, 2, 3, 4):
        for _ in range(50):
            target = random_symplectic(n, 7000 + seed)
            seed += 1
            program, rep = compile(target)
            worst = max(worst, rep.replay_residual)
            ratios.setdefault(n, []).append(rep.ancilla_count / n**2)
    c = max(max(v) for v in ratios.values())
    per_n = {n: int(max(v) * n**2) for n, v in ratios.items()}
    passed = worst < 1e-9
    report(7, passed, f"200 compiled targets (n=1..4), worst replay residual "
                      f"{worst:.2e} (< 1e-9); ancilla count <= c*n^2 with "
                      f"c = {c:.1f} (max counts per n: {per_n})")
    assert passed


def test_criterion_08_simulator_convergence():
    start = time.monotonic()
    programs = {
        "identity": compile(identity(1))[0],
        "fourier": compile(fourier())[0],
        "squeeze(ln 2)": compile(squeeze(np.log(2)))[0],
        "random n=2": compile(random_symplectic(2, 8))[0],
    }
    details = []
    all_converged = True
    all_monotone = True
    for name, program in programs.items():
        effective, _ = extract_effective_map(program, db_to_r(130.0))
        error = float(np.max(np.abs(effective.matrix - program.target.matrix)))
        converged = error < 1e-4
        traces = []
        for db in (5.0, 10.0, 15.0, 20.0, 25.0):
            _, excess = extract_effective_map(program, db_to_r(db))
            traces.append(float(np.trace(excess)))
        monotone = all(a > b for a, b in zip(traces, traces[1:]))
        all_converged &= converged
        all_monotone &= monotone
        details.append(
            f"{name}: err@130dB={error:.1e}{'' if converged else ' (>=1e-4!)'}"
            f", excess trace {'strictly decreasing' if monotone else 'NOT decreasing'}"
            f" {[f'{t:.3g}' for t in traces]}"
        )
    elapsed = time.monotonic() - start
    passed = all_converged and all_monotone and elapsed < 30.0
    report(8, passed, f"simulator convergence ({elapsed:.0f} s < 30 s); "
                      + "; ".join(details))
    # NOTE: the excess is that of the feedforward-corrected channel,
    # averaged over outcomes, which equals the executor's N N^T e^{-2r}/4
    # and so falls strictly with squeezing whenever N != 0.  The map error
    # is that of the pinned-zero input response.
    assert passed


def test_criterion_09_cluster_nullifiers():
    nodes = tuple(Node(i, ROLE_ANCILLA) for i in range(4))
    graph = ClusterGraph(nodes=nodes, edges=((0, 1), (1, 2), (2, 3)))
    worst = 0.0
    for r in (1.0, 2.0, 3.0):
        state = build_cluster(graph, r)
        for node in graph.nodes:
            v = np.zeros(8)
            v[4 + node.id] = 1.0
            for neighbour in graph.neighbours(node.id):
                v[neighbour] -= 1.0
            variance = float(v @ state.cov @ v)
            worst = max(worst, abs(variance - np.exp(-2 * r) / 4))
    passed = worst < 1e-12
    report(9, passed, f"4-node chain nullifier variances equal e^(-2r)/4 at "
                      f"r=1,2,3; worst deviation {worst:.2e} (< 1e-12)")
    assert passed


def test_criterion_10_gaussian_parallelism():
    program, _ = compile(random_symplectic(2, 10))
    base, _ = run_program(program, vacuum(2), 1.5, PINNED_ZERO)
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10):
        schedule = list(program.schedule)
        rng.shuffle(schedule)
        permuted = dataclasses.replace(program, schedule=tuple(schedule))
        out, _ = run_program(permuted, vacuum(2), 1.5, PINNED_ZERO)
        worst = max(
            worst,
            float(np.max(np.abs(out.mean - base.mean))),
            float(np.max(np.abs(out.cov - base.cov))),
        )
    passed = worst < 1e-10
    report(10, passed, f"10 schedule permutations leave the pinned final state "
                       f"unchanged; worst deviation {worst:.2e} (< 1e-10)")
    assert passed


def test_criterion_11_feedforward_scatter():
    # With the probed gains installed, the corrected output means of sampled
    # runs scatter only through the finite-squeezing excess channel.  Null
    # model: m ~ N(0, S0) with S0 = M (I/4) M^T + N D N^T - V_c, where the
    # first two terms are the exact unconditional output covariance and V_c
    # is the (outcome-independent) conditional covariance; then
    # sum m^T S0^-1 m ~ chi-square(2 * shots).
    program, _ = compile(identity(1))
    r = db_to_r(10.0)
    replay = exact_replay(program)
    base, _ = run_program(program, vacuum(1), r, PINNED_ZERO)
    unconditional = (
        replay.matrix @ (np.eye(2) / 4) @ replay.matrix.T
        + replay.excess_covariance(r)
    )
    scatter_cov = unconditional - base.cov
    inv = np.linalg.inv(scatter_cov)
    shots = 1000
    statistic = 0.0
    for shot in range(shots):
        out, _ = run_program(program, vacuum(1), r, sampled(110000 + shot))
        statistic += float(out.mean @ inv @ out.mean)
    dof = 2 * shots
    lo, hi = stats.chi2.ppf([0.005, 0.995], dof)
    passed = lo <= statistic <= hi
    report(11, passed, f"10^3 sampled shots of the identity chain: scatter "
                       f"statistic {statistic:.0f} within chi-square({dof}) "
                       f"1% band [{lo:.0f}, {hi:.0f}]")
    assert passed
