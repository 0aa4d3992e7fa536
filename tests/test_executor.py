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
    build_cluster,
    coherent,
    compile,
    db_to_r,
    exact_replay,
    extract_effective_map,
    identity,
    random_symplectic,
    run_program,
)
from cvcluster import executor, serialize
from cvcluster.executor import FEEDFORWARD_TOL
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
    # node 0's p measurement resolves w1, the x noise of node 1, and node 1's
    # x measurement then re-measures it: the replay stops at node 1, so no
    # antisqueezed noise is left unresolved to reach the output
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
    message = "measurement on node 1 resolves no ancilla noise"
    with pytest.raises(DegenerateMeasurementError, match=message):
        exact_replay(under_measured_program())


def test_probe_feedforward_standalone():
    program, _ = compile(identity(1))
    stripped = dataclasses.replace(program, feedforward=())
    assert exact_replay(stripped).feedforward_rules() == program.feedforward


def test_feedforward_rules_are_the_outcome_loop_in_schedule_then_port_order():
    for program in (compile(random_symplectic(3, 5))[0], teleport_program(0.3, -0.4)):
        replay = exact_replay(program)
        n = program.n
        expected = []
        for k, src in enumerate(replay.measured_ids):
            for port, target in enumerate(replay.output_ids):
                gx = -replay.outcome_response[port, k]
                gp = -replay.outcome_response[n + port, k]
                if abs(gx) > FEEDFORWARD_TOL or abs(gp) > FEEDFORWARD_TOL:
                    expected.append((src, target, float(gx).hex(), float(gp).hex()))
        rules = replay.feedforward_rules()
        assert len(expected) > 0
        assert [(r.source_id, r.target_id, r.gain_x.hex(), r.gain_p.hex()) for r in rules] == expected
        assert all(list(map(type, rule)) == [int, int, float, float] for rule in rules)


def test_effective_map_close_to_exact_replay_at_high_squeezing():
    program, _ = compile(random_symplectic(2, 77))
    replay = exact_replay(program)
    effective, _ = extract_effective_map(program, 15.0)
    assert np.max(np.abs(effective.matrix - replay.matrix)) < 1e-8


def shuffled_schedule_program(n: int = 2, seed: int = 21) -> MeasurementProgram:
    # most of the cluster is live at once, so the replay's w pool grows
    # several times and recycles the columns its pivots free
    program, _ = compile(random_symplectic(n, seed))
    schedule = list(program.schedule)
    np.random.default_rng(3).shuffle(schedule)
    return dataclasses.replace(program, schedule=tuple(schedule))


def qnd_chain_program() -> MeasurementProgram:
    # input 0 -> ancilla 1 -> output 2: at node 1 the pivot |c| ~ 1.2e-9 is
    # degenerate only against the u and s coefficients (max |q| ~ 1.414);
    # the z and w coefficients reach 1.0
    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_QND, port=0),
        Node(1, ROLE_ANCILLA),
        Node(2, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1), (1, 2)))
    return MeasurementProgram(
        graph=graph,
        schedule=(
            ScheduleEntry(0, -0.7853593730871928),
            ScheduleEntry(1, 1.5707963279585941),
        ),
        feedforward=(),
        target=identity(1),
    )


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
        lambda: shuffled_schedule_program(4, 2),
        output_edge_program,
    ],
    ids=[
        "random-n1",
        "random-n2",
        "random-n3",
        "random-n4",
        "teleport-identity",
        "shuffled-n2",
        "shuffled-n4",
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


@pytest.mark.parametrize(
    "make_program", [degenerate_teleport_program, under_measured_program, qnd_chain_program]
)
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


def test_replay_pivot_ties_go_to_the_lowest_graph_order_ancilla(monkeypatch):
    # p of node 2 is u_2 + w_1 + w_3: the first measurement ties |1| on the
    # w columns of nodes 1 and 3.  Node 3 opened last and took the lower
    # pool column, so a plain argmax would eliminate w_3; the rule takes
    # node 1, first in graph order.  Every later pivot is unique.
    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_QND, port=0),
        Node(1, ROLE_ANCILLA),
        Node(2, ROLE_ANCILLA),
        Node(3, ROLE_ANCILLA),
        Node(4, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((1, 2), (2, 3), (0, 1), (3, 4)))
    angles = {2: 0.0, 0: 0.0, 1: 0.3, 3: 0.7}
    program = MeasurementProgram(
        graph=graph,
        schedule=tuple(ScheduleEntry(node, theta) for node, theta in angles.items()),
        feedforward=(),
        target=identity(1),
    )
    eliminated = []  # node whose w each measurement eliminates, in order
    ancillas, pivot = graph.ancilla_nodes(), executor._pivot

    def spying(absq, owner):
        column = pivot(absq, owner)
        eliminated.append(ancillas[owner[column]].id)
        return column

    monkeypatch.setattr(executor, "_pivot", spying)
    exact_replay(program)
    assert eliminated == [1, 3, 2, 4]


def test_compile_hands_its_replay_to_the_program(replay_passes):
    program, _ = compile(random_symplectic(2, 5))
    replay = exact_replay(program)
    assert exact_replay(program) is replay is program.replay
    # The one pass ran on compile's rule-free program, before the rules existed.
    [bare] = replay_passes
    assert bare.feedforward == () and program.feedforward
    assert bare.graph is program.graph and bare.schedule is program.schedule


def test_a_shared_replay_is_read_only():
    replay = exact_replay(compile(random_symplectic(2, 5))[0])
    for array in (replay.matrix, replay.outcome_response, replay.noise_response):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


def test_a_replaced_program_runs_its_own_replay(replay_passes):
    program, _ = compile(random_symplectic(2, 5))
    replay = exact_replay(program)
    reversed_program = dataclasses.replace(program, schedule=program.schedule[::-1])
    fewer_rules = dataclasses.replace(program, feedforward=program.feedforward[:-1])
    for copy in (reversed_program, fewer_rules):
        assert exact_replay(copy) is not replay
        assert exact_replay(copy) is copy.replay
    assert len(replay_passes) == 3  # compile's pass, then one for each copy
    assert replay_passes[1] is reversed_program and replay_passes[2] is fewer_rules
    assert exact_replay(reversed_program).measured_ids == replay.measured_ids[::-1]
    # The replay never reads the rules.
    assert np.array_equal(exact_replay(fewer_rules).outcome_response, replay.outcome_response)


def test_a_loaded_program_replays_once_on_first_use(replay_passes, tmp_path):
    program, _ = compile(random_symplectic(2, 5))
    path = tmp_path / "program.json"
    serialize.save_program(program, str(path))
    loaded = serialize.load_program(str(path))
    replay = exact_replay(loaded)
    assert exact_replay(loaded) is replay is not program.replay
    assert len(replay_passes) == 2 and replay_passes[1] is loaded  # after compile's own pass
    assert np.array_equal(replay.matrix, program.replay.matrix)


@pytest.mark.parametrize("make_program", [degenerate_teleport_program, under_measured_program])
def test_a_replay_that_raises_keeps_nothing(make_program, replay_passes):
    program = make_program()
    messages = []
    for _ in range(2):
        with pytest.raises(DegenerateMeasurementError) as info:
            exact_replay(program)
        messages.append(str(info.value))
        assert "replay" not in program.__dict__
    assert len(replay_passes) == 2 and messages[0] == messages[1]


def unlabelled(graph) -> list:
    """A graph's nodes without their output-port labels."""
    return [node._replace(port=None) if node.role == ROLE_OUTPUT else node for node in graph.nodes]


def test_two_compiles_of_one_n_share_one_script_and_one_tape_structure(scripts):
    # Every target of one n compiles to one lattice, but which wire ends as
    # which output port is the target's own, and the script reads the
    # outputs out in port order: one script per labelling.  Seeds 1 and 3
    # end wires 0, 1, 2 at ports 1, 0, 2, seed 2 at ports 2, 0, 1.
    a, _ = compile(random_symplectic(3, 1))
    b, _ = compile(random_symplectic(3, 3))
    other, _ = compile(random_symplectic(3, 2))
    assert unlabelled(other.graph) == unlabelled(a.graph) and other.graph.edges == a.graph.edges
    assert a.graph == b.graph and a.graph is not b.graph and other.graph != a.graph
    assert scripts.cache_info().misses == 2  # b's compile replayed a's script
    assert b.tape.blocks is a.tape.blocks and other.tape.blocks is not a.tape.blocks
    assert b.tape.out is a.tape.out and b.tape.size == a.tape.size
    assert not np.array_equal(other.tape.out, a.tape.out)
    assert scripts.cache_info().misses == 2
    # Only the angles' sines and cosines are the program's own.
    assert len(b.tape.weights) == len(a.tape.blocks)
    assert not np.array_equal(b.tape.weights[0], a.tape.weights[0])
    for block in a.tape.blocks:
        for array in block[1:]:
            assert not array.flags.writeable


def test_another_schedule_order_or_edge_list_gets_its_own_script(scripts):
    program, _ = compile(random_symplectic(2, 5))
    graph = program.graph
    variants = [
        dataclasses.replace(program, schedule=program.schedule[::-1]),
        dataclasses.replace(program, graph=dataclasses.replace(graph, edges=graph.edges[::-1])),
        dataclasses.replace(
            program, graph=dataclasses.replace(graph, edges=tuple((v, u) for u, v in graph.edges))
        ),
    ]
    for i, variant in enumerate(variants):
        exact_replay(variant)
        assert scripts.cache_info().misses == 2 + i
        assert variant.tape.blocks is not program.tape.blocks
        assert scripts.cache_info().misses == 2 + i
    # QND gates commute, so only the rounding may move.
    for variant in variants[1:]:
        assert np.max(np.abs(exact_replay(variant).matrix - program.replay.matrix)) < 1e-12


def test_a_loaded_program_reuses_compiles_script(scripts, tmp_path):
    program, _ = compile(random_symplectic(2, 5))
    path = tmp_path / "program.json"
    serialize.save_program(program, str(path))
    loaded = serialize.load_program(str(path))
    exact_replay(loaded)
    loaded.tape
    info = scripts.cache_info()
    assert info.misses == 1 and info.hits == 2


def test_the_script_cache_keeps_at_most_its_bound(scripts):
    for length in range(1, executor.SCRIPTS + 4):
        nodes = tuple(Node(i, ROLE_ANCILLA) for i in range(length))
        graph = ClusterGraph(nodes=nodes, edges=tuple((i, i + 1) for i in range(length - 1)))
        build_cluster(graph, 1.0)
    info = scripts.cache_info()
    assert info.misses == executor.SCRIPTS + 3
    assert info.currsize == executor.SCRIPTS
