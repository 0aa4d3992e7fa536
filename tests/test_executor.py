"""Exact linear replay: agreement with step products, gains, noise response."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcluster import (
    DegenerateMeasurementError,
    ProgramError,
    coherent,
    compile,
    db_to_r,
    exact_replay,
    extract_effective_map,
    identity,
    random_symplectic,
    run_program,
)
from cvcluster.ir import (
    COUPLING_QND,
    COUPLING_TELEPORT,
    ClusterGraph,
    MeasurementProgram,
    Node,
    ROLE_ANCILLA,
    ROLE_INPUT,
    ROLE_OUTPUT,
    ScheduleEntry,
)

from oracles import dense_exact_replay


def test_replay_matches_compile_targets():
    for seed, n in [(0, 1), (1, 2), (2, 3)]:
        target = random_symplectic(n, seed)
        program, report = compile(target)
        replay = exact_replay(program)
        assert np.max(np.abs(replay.matrix - target.matrix)) < 1e-9
        # every outcome appears, every ancilla noise is tracked
        assert replay.outcome_response.shape == (2 * n, len(program.schedule))
        assert replay.noise_response.shape == (
            2 * n,
            len(program.graph.ancilla_nodes()),
        )


def test_gains_cancel_outcome_response():
    program, _ = compile(random_symplectic(2, 12))
    replay = exact_replay(program)
    gains = {(r.source_id, r.target_id): (r.gain_x, r.gain_p) for r in program.feedforward}
    ports = {p.port: p.id for p in program.graph.output_ports()}
    n = program.n
    for k, src in enumerate(replay.measured_ids):
        for port in range(n):
            gx, gp = gains.get((src, ports[port]), (0.0, 0.0))
            assert replay.outcome_response[port, k] + gx == pytest.approx(0.0, abs=1e-12)
            assert replay.outcome_response[n + port, k] + gp == pytest.approx(0.0, abs=1e-12)


def test_predicted_excess_tracks_simulator():
    # channel excess from the noise response agrees with the Monte-Carlo
    # ensemble: unconditional cov = conditional cov + scatter of means
    program, _ = compile(identity(1))
    r = 1.0
    from cvcluster import PINNED_ZERO, run_program, sampled, vacuum

    base, _ = run_program(program, vacuum(1), r, PINNED_ZERO)
    means = []
    for shot in range(4000):
        out, _ = run_program(program, vacuum(1), r, sampled(shot))
        means.append(out.mean)
    ensemble = np.cov(np.array(means).T) + base.cov
    expected = np.eye(2) / 4 + exact_replay(program).excess_covariance(r)
    assert np.max(np.abs(ensemble - expected)) < 0.02


def teleport_program(theta0: float, theta1: float) -> MeasurementProgram:
    """Bell measurement on a teleport input and the end of a two-node chain
    (the Bell partner also has a QND edge); stored angles pi/2 - theta."""
    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_TELEPORT, port=0),
        Node(1, ROLE_ANCILLA),
        Node(2, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1), (1, 2)))
    return MeasurementProgram(
        graph=graph,
        schedule=(
            ScheduleEntry(0, np.pi / 2 - theta0),
            ScheduleEntry(1, np.pi / 2 - theta1),
        ),
        feedforward=(),
        target=identity(1),
    )


def degenerate_teleport_program() -> MeasurementProgram:
    # theta0 = pi/2, theta1 = 0: theta_minus degenerate; the second Bell
    # homodyne re-measures the input quadrature.
    return teleport_program(np.pi / 2, 0.0)


def under_measured_program() -> MeasurementProgram:
    # two unmeasured cluster nodes feeding one output: the antisqueezed
    # noise of the unmeasured neighbour survives to the output
    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_QND, port=0),
        Node(1, ROLE_ANCILLA),
        Node(2, ROLE_ANCILLA),
        Node(3, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1), (1, 2), (2, 3)))
    return MeasurementProgram(
        graph=graph,
        schedule=(
            ScheduleEntry(0, 0.0),
            ScheduleEntry(1, np.pi / 2),  # x measurement resolves nothing new
            ScheduleEntry(2, 0.0),
        ),
        feedforward=(),
        target=identity(1),
    )


def test_degenerate_teleport_angles_detected():
    with pytest.raises(DegenerateMeasurementError):
        exact_replay(degenerate_teleport_program())


def test_under_measured_program_rejected():
    with pytest.raises((ProgramError, DegenerateMeasurementError)):
        exact_replay(under_measured_program())


def test_probe_feedforward_standalone():
    program, _ = compile(identity(1))
    stripped = dataclasses.replace(program, feedforward=())
    assert exact_replay(stripped).feedforward_rules() == program.feedforward


def test_effective_map_close_to_exact_replay_at_high_squeezing():
    program, _ = compile(random_symplectic(2, 77))
    replay = exact_replay(program)
    effective, _ = extract_effective_map(program, 15.0)
    assert np.max(np.abs(effective.matrix - replay.matrix)) < 1e-8


def shuffled_schedule_program() -> MeasurementProgram:
    program, _ = compile(random_symplectic(2, 21))
    schedule = list(program.schedule)
    np.random.default_rng(3).shuffle(schedule)
    return dataclasses.replace(program, schedule=tuple(schedule))


def output_edge_program() -> MeasurementProgram:
    # one-node p teleportation per wire, then an edge between the two
    # outputs, which only their read-out applies
    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_QND, port=0),
        Node(1, ROLE_INPUT, coupling=COUPLING_QND, port=1),
        Node(2, ROLE_OUTPUT, port=0),
        Node(3, ROLE_OUTPUT, port=1),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 2), (1, 3), (2, 3)))
    return MeasurementProgram(
        graph=graph,
        schedule=(ScheduleEntry(0, 0.0), ScheduleEntry(1, 0.0)),
        feedforward=(),
        target=identity(2),
    )


@pytest.mark.parametrize(
    "make_program",
    [
        lambda: compile(random_symplectic(1, 11))[0],
        lambda: compile(random_symplectic(2, 8))[0],
        lambda: compile(random_symplectic(3, 5))[0],
        lambda: compile(random_symplectic(4, 2))[0],
        lambda: teleport_program(0.0, 0.0),
        shuffled_schedule_program,
        output_edge_program,
    ],
    ids=[
        "random-n1",
        "random-n2",
        "random-n3",
        "random-n4",
        "teleport-identity",
        "shuffled-n2",
        "output-edge",
    ],
)
def test_replay_matches_dense_oracle(make_program):
    program = make_program()
    replay = exact_replay(program)
    matrix, outcome, noise = dense_exact_replay(program)
    assert np.max(np.abs(replay.matrix - matrix)) < 1e-12
    assert np.max(np.abs(replay.outcome_response - outcome)) < 1e-12
    assert np.max(np.abs(replay.noise_response - noise)) < 1e-12


@pytest.mark.parametrize("make_program", [degenerate_teleport_program, under_measured_program])
def test_replay_fails_like_dense_oracle(make_program):
    program = make_program()
    with pytest.raises((ProgramError, DegenerateMeasurementError)) as oracle_error:
        dense_exact_replay(program)
    with pytest.raises(oracle_error.type):
        exact_replay(program)


def test_replay_memory_follows_the_live_frontier():
    # A dense row per node over the whole basis takes ~100 MB here; rows for
    # the live frontier alone take a few MB.
    program, _ = compile(random_symplectic(6, 7))
    tracemalloc.start()
    try:
        exact_replay(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@functools.cache
def edge_order_programs() -> tuple:
    return (
        compile(random_symplectic(2, 8))[0],
        compile(random_symplectic(3, 5))[0],
        teleport_program(0.3, -0.4),
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_replay_does_not_depend_on_edge_order(data):
    program = data.draw(st.sampled_from(edge_order_programs()))
    edges = data.draw(st.permutations(program.graph.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = tuple((v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips))
    graph = dataclasses.replace(program.graph, edges=edges)
    moved_program = dataclasses.replace(program, graph=graph)
    base = exact_replay(program)
    moved = exact_replay(moved_program)
    assert np.max(np.abs(moved.matrix - base.matrix)) < 1e-12
    assert np.max(np.abs(moved.outcome_response - base.outcome_response)) < 1e-12
    assert np.max(np.abs(moved.noise_response - base.noise_response)) < 1e-12
    # The simulator defers edges through the same scheduler.
    r = db_to_r(13.0)
    state_in = coherent(program.n, np.linspace(-1.0, 1.0, 2 * program.n))
    base_out, _ = run_program(program, state_in, r)
    moved_out, _ = run_program(moved_program, state_in, r)
    assert np.max(np.abs(moved_out.mean - base_out.mean)) < 1e-12
    assert np.max(np.abs(moved_out.cov - base_out.cov)) < 1e-12
    base_map, base_excess = extract_effective_map(program, r)
    moved_map, moved_excess = extract_effective_map(moved_program, r)
    assert np.max(np.abs(moved_map.matrix - base_map.matrix)) < 1e-12
    assert np.max(np.abs(moved_excess - base_excess)) < 1e-12
