"""Gaussian simulation: states, clusters, conditioning, program execution."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import (
    DegenerateConditioningError,
    GaussianState,
    PINNED_ZERO,
    apply_map,
    build_cluster,
    coherent,
    compile,
    db_to_r,
    effective_map,
    extract_effective_map,
    fourier,
    homodyne_measure,
    identity,
    r_to_db,
    random_symplectic,
    run_program,
    sampled,
    squeeze,
    squeezed_vacuum,
    symplectic_eigenvalues,
    tensor,
    vacuum,
    validate_state,
)
from cvcluster.ir import (
    COUPLING_TELEPORT,
    ClusterGraph,
    MeasurementProgram,
    Node,
    ROLE_ANCILLA,
    ROLE_INPUT,
    ROLE_OUTPUT,
    ScheduleEntry,
)
from cvcluster.executor import exact_replay

from oracles import dense_run_program


def chain_graph(length: int, r_roles=None) -> ClusterGraph:
    nodes = tuple(Node(i, ROLE_ANCILLA) for i in range(length))
    edges = tuple((i, i + 1) for i in range(length - 1))
    return ClusterGraph(nodes=nodes, edges=edges)


def teleport_identity_program() -> MeasurementProgram:
    """Standard teleportation: Bell measurement on the input and one end of a
    two-mode cluster, x measurements on both (paper angles theta0=theta1=0)."""
    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_TELEPORT, port=0),
        Node(1, ROLE_ANCILLA),
        Node(2, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1), (1, 2)))
    program = MeasurementProgram(
        graph=graph,
        schedule=(ScheduleEntry(0, np.pi / 2), ScheduleEntry(1, np.pi / 2)),
        feedforward=(),
        target=identity(1),
    )
    return dataclasses.replace(program, feedforward=exact_replay(program).feedforward_rules())


def test_squeezed_vacuum():
    flat = squeezed_vacuum(0.0)
    assert_allclose(flat.cov, np.eye(2) / 4, atol=0)
    deep = squeezed_vacuum(8.0)
    assert deep.cov[1, 1] < 1e-7
    rng = np.random.default_rng(0)
    for r in rng.uniform(-3, 3, size=20):
        state = squeezed_vacuum(r)
        assert state.cov[0, 0] * state.cov[1, 1] == pytest.approx(1.0 / 16.0)


def test_apply_map():
    state = vacuum(2)
    same = apply_map(state, identity(2))
    assert_allclose(same.cov, state.cov, atol=0)
    squeezed = apply_map(vacuum(1), squeeze(0.9))
    assert_allclose(squeezed.cov, squeezed_vacuum(0.9).cov, atol=1e-14)


def test_apply_map_preserves_symplectic_spectrum():
    state = GaussianState(
        np.zeros(4), np.diag([0.5, 0.3, 0.2, 0.25])
    )
    before = symplectic_eigenvalues(state.cov)
    after = symplectic_eigenvalues(apply_map(state, random_symplectic(2, 7)).cov)
    assert_allclose(np.sort(before), np.sort(after), atol=1e-10)


def test_build_cluster_single_node():
    state = build_cluster(chain_graph(1), 1.3)
    assert_allclose(state.cov, squeezed_vacuum(1.3).cov, atol=0)


def nullifier_variance(state, graph, node_id):
    index = {node.id: i for i, node in enumerate(graph.nodes)}
    n = len(graph.nodes)
    v = np.zeros(2 * n)
    v[n + index[node_id]] = 1.0
    for neighbour in graph.neighbours(node_id):
        v[index[neighbour]] -= 1.0
    return float(v @ state.cov @ v)


def test_cluster_nullifiers():
    graph = chain_graph(2)
    for r in (1.0, 2.0, 3.0):
        state = build_cluster(graph, r)
        for node in graph.nodes:
            assert nullifier_variance(state, graph, node.id) == pytest.approx(
                np.exp(-2 * r) / 4, abs=1e-12
            )
    # variances vanish with growing squeezing
    values = [
        nullifier_variance(build_cluster(graph, r), graph, 0) for r in (1.0, 2.0, 3.0)
    ]
    assert values[0] > values[1] > values[2]


def test_build_cluster_rejects_ports():
    nodes = (Node(0, ROLE_INPUT, coupling="qnd", port=0), Node(1, ROLE_ANCILLA))
    graph = ClusterGraph(nodes=nodes, edges=((0, 1),))
    with pytest.raises(ValueError):
        build_cluster(graph, 1.0)


def test_homodyne_product_state():
    state = tensor(vacuum(1), vacuum(1))
    for theta in (0.0, 0.4, np.pi / 2):
        outcome, reduced = homodyne_measure(state, 0, theta)
        assert outcome == 0.0
        assert_allclose(reduced.cov, np.eye(2) / 4, atol=1e-15)


def test_homodyne_sampled_outcome_statistics():
    # any quadrature of the vacuum has variance 1/4
    rng = np.random.default_rng(8)
    outcomes = []
    state = tensor(vacuum(1), vacuum(1))
    policy = sampled(0)
    for _ in range(3000):
        outcome, _ = homodyne_measure(state, 0, 0.7, policy, rng)
        outcomes.append(outcome)
    assert np.mean(outcomes) == pytest.approx(0.0, abs=0.03)
    assert np.var(outcomes) == pytest.approx(0.25, rel=0.1)


def test_sampled_runs_reproducible_under_seed():
    program, _ = compile(identity(1))
    out_a, rec_a = run_program(program, vacuum(1), 1.0, sampled(5))
    out_b, rec_b = run_program(program, vacuum(1), 1.0, sampled(5))
    assert rec_a == rec_b
    assert out_a == out_b


def test_homodyne_cluster_schur_complement():
    r = 1.0
    graph = chain_graph(2)
    state = build_cluster(graph, r)
    _, reduced = homodyne_measure(state, 0, 0.0)  # measure p of node 0
    big, small = np.exp(2 * r) / 4, np.exp(-2 * r) / 4
    # closed form: Var(x1 | p0) = E e / (E + e) with E, e the x/p variances
    expected = big * small / (big + small)
    assert reduced.cov[0, 0] == pytest.approx(expected, rel=1e-12)
    assert reduced.cov[0, 0] < 0.25


def test_homodyne_conditional_cov_outcome_independent():
    state = build_cluster(chain_graph(3), 1.0)
    outcome_a, state_a = homodyne_measure(state, 0, 0.3, sampled(0))
    outcome_b, state_b = homodyne_measure(state, 0, 0.3, sampled(1))
    assert outcome_a != outcome_b
    assert (state_a.cov == state_b.cov).all()
    assert not np.allclose(state_a.mean, state_b.mean)


def test_homodyne_degenerate_variance():
    state = GaussianState(np.zeros(2), np.diag([1.0, 0.0]))
    with pytest.raises(DegenerateConditioningError):
        homodyne_measure(state, 0, 0.0)  # p quadrature has exactly zero variance


def test_run_program_identity_chain():
    program, _ = compile(identity(1))
    input_state = coherent(1, [0.7, -0.4])
    out, outcomes = run_program(program, input_state, r=10.0)
    assert_allclose(out.mean, input_state.mean, atol=1e-6)
    excess = out.cov - input_state.cov
    assert np.min(np.linalg.eigvalsh(excess)) > -1e-6
    assert np.abs(np.trace(excess)) < 1e-6
    assert set(outcomes) == {s.node_id for s in program.schedule}


def test_run_program_sampled_matches_pinned_mean():
    program, _ = compile(identity(1))
    input_state = coherent(1, [0.5, 0.2])
    r = db_to_r(130.0)
    pinned_out, _ = run_program(program, input_state, r, PINNED_ZERO)
    means = []
    for shot in range(2000):
        out, _ = run_program(program, input_state, r, sampled(1000 + shot))
        means.append(out.mean)
    mc = np.mean(means, axis=0)
    spread = np.std(means, axis=0) / np.sqrt(len(means))
    assert np.all(np.abs(mc - pinned_out.mean) < 5 * spread + 1e-9)


def test_run_program_applies_target_displacement():
    target = dataclasses.replace(identity(1), displacement=np.array([0.3, -0.1]))
    program, _ = compile(target)
    out, _ = run_program(program, vacuum(1), r=12.0)
    assert_allclose(out.mean, [0.3, -0.1], atol=1e-8)


def test_teleport_identity_transfer():
    program = teleport_identity_program()
    r = 2.0
    big, small = np.exp(2 * r), np.exp(-2 * r)
    input_state = coherent(1, [0.3, -0.2])
    out, _ = run_program(program, input_state, r)
    # Closed-form Schur oracle for the pinned run: conditioning on the two
    # Bell outcomes attenuates the transferred means by E/(1+e+E) and
    # E/(1+E); both factors approach 1 with growing squeezing.
    assert out.mean[0] == pytest.approx(0.3 * big / (1 + small + big), rel=1e-9)
    assert out.mean[1] == pytest.approx(-0.2 * big / (1 + big), rel=1e-9)
    assert out.cov[0, 0] == pytest.approx(
        big * (1 + small) / (4 * (1 + small + big)), rel=1e-9
    )
    assert out.cov[1, 1] == pytest.approx(
        small / 4 + big / (4 * (1 + big)), rel=1e-9
    )
    # identity transfer in the high-squeezing limit
    out_hi, _ = run_program(program, input_state, 12.0)
    assert_allclose(out_hi.mean, input_state.mean, atol=1e-9)


def test_gaussian_parallelism():
    program, _ = compile(random_symplectic(2, 21))
    base, _ = run_program(program, vacuum(2), 1.5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        schedule = list(program.schedule)
        rng.shuffle(schedule)
        shuffled = dataclasses.replace(program, schedule=tuple(schedule))
        out, _ = run_program(shuffled, vacuum(2), 1.5)
        assert np.max(np.abs(out.mean - base.mean)) < 1e-10
        assert np.max(np.abs(out.cov - base.cov)) < 1e-10


def shuffled_schedule_program():
    program, _ = compile(random_symplectic(2, 21))
    schedule = list(program.schedule)
    np.random.default_rng(3).shuffle(schedule)
    return dataclasses.replace(program, schedule=tuple(schedule))


def coherent_input(n: int) -> GaussianState:
    return coherent(n, np.random.default_rng(n).uniform(-1.0, 1.0, 2 * n))


def correlated_input(n: int) -> GaussianState:
    # Not a product state: every input port must be in the state before the
    # first edge is applied.
    return apply_map(coherent_input(n), random_symplectic(n, 3))


@pytest.mark.parametrize("policy", [PINNED_ZERO, sampled(4)], ids=["pinned", "sampled"])
@pytest.mark.parametrize(
    "make_program, make_input",
    [
        (lambda: compile(random_symplectic(1, 11))[0], coherent_input),
        (lambda: compile(random_symplectic(2, 8))[0], coherent_input),
        (lambda: compile(random_symplectic(3, 5))[0], coherent_input),
        (shuffled_schedule_program, coherent_input),
        (teleport_identity_program, coherent_input),
        (lambda: compile(random_symplectic(2, 8))[0], correlated_input),
    ],
    ids=[
        "random-n1",
        "random-n2",
        "random-n3",
        "shuffled-n2",
        "teleport-identity",
        "correlated-n2",
    ],
)
def test_run_program_matches_dense_oracle(make_program, make_input, policy):
    program = make_program()
    n = program.n
    input_state = make_input(n)
    r = db_to_r(13.0)
    out, record = run_program(program, input_state, r, policy)
    mean, cov, expected = dense_run_program(program, input_state, r, policy)
    assert_allclose(out.mean, mean, rtol=0, atol=1e-12)
    assert_allclose(out.cov, cov, rtol=0, atol=1e-12)
    assert np.array_equal(out.cov, out.cov.T)
    assert list(record) == list(expected)
    assert_allclose(list(record.values()), list(expected.values()), rtol=0, atol=1e-12)
    if policy.kind == "sampled":
        assert any(value != 0.0 for value in record.values())


@pytest.mark.parametrize(
    "run",
    [
        lambda program: run_program(program, vacuum(6), db_to_r(13.0), sampled(1)),
        lambda program: extract_effective_map(program, db_to_r(13.0)),
    ],
    ids=["run_program", "extract_effective_map"],
)
def test_simulator_memory_follows_the_live_frontier(run):
    # The dense covariance of the whole cluster takes ~100 MB here; the live
    # frontier's takes under a megabyte.
    program, _ = compile(random_symplectic(6, 7))
    tracemalloc.start()
    try:
        run(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_physicality_along_a_run():
    program, _ = compile(random_symplectic(2, 33))
    run_program(program, vacuum(2), 1.0, validate=True)  # validates every step


def test_extract_effective_map_identity():
    program, _ = compile(identity(1))
    effective, excess = extract_effective_map(program, 15.0)
    assert np.max(np.abs(effective.matrix - np.eye(2))) < 1e-6
    assert np.trace(excess) < 1e-6


def test_effective_map_is_the_map_of_extract_effective_map():
    program, _ = compile(random_symplectic(2, 5))
    effective = effective_map(program, db_to_r(13.0))
    extracted, _ = extract_effective_map(program, db_to_r(13.0))
    assert np.array_equal(effective.matrix, extracted.matrix)
    assert np.array_equal(effective.displacement, extracted.displacement)


def test_extract_effective_map_converges():
    program, _ = compile(fourier())
    errors = []
    for r in (1.0, 2.0, 3.0, 4.0, 5.0):
        effective, _ = extract_effective_map(program, r)
        errors.append(np.max(np.abs(effective.matrix - fourier().matrix)))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


def test_excess_trace_decreases_on_identity_chain():
    program, _ = compile(identity(1))
    traces = []
    for r in (1.0, 2.0, 3.0, 4.0, 5.0):
        _, excess = extract_effective_map(program, r)
        traces.append(np.trace(excess))
        eigs = np.linalg.eigvalsh(excess)
        assert eigs.min() > -1e-9  # positive semidefinite within tolerance
    assert all(a > b for a, b in zip(traces, traces[1:]))


@pytest.mark.parametrize(
    "make_program",
    [lambda: compile(random_symplectic(2, 8))[0], teleport_identity_program],
    ids=["random-n2", "teleport-identity"],
)
def test_extract_excess_is_the_corrected_channel_excess(make_program, monkeypatch):
    # The simulator's excess is the outcome-averaged, feedforward-corrected
    # channel's; the executor's N N^T e^{-2r}/4 is the same quantity, derived
    # independently.  The executor is disabled during extraction so that the
    # comparison stays a cross-check.
    from cvcluster import executor, simulator

    program = make_program()
    radii = [db_to_r(db) for db in (5.0, 10.0, 15.0, 20.0, 25.0)]
    replay = exact_replay(program)
    expected = [replay.excess_covariance(r) for r in radii]

    def unavailable(*args, **kwargs):
        raise AssertionError("the simulator must not call the executor")

    monkeypatch.setattr(executor, "exact_replay", unavailable)
    assert not hasattr(simulator, "exact_replay")
    for r, pred in zip(radii, expected):
        _, excess = extract_effective_map(program, r)
        assert_allclose(excess, pred, rtol=0, atol=1e-9 * np.max(np.abs(pred)))
        assert np.linalg.eigvalsh(excess).min() >= 0.0


def test_feedforward_gains_elementary_step():
    # single-step chain: measuring p on the input corrects x by -outcome
    nodes = (
        Node(0, ROLE_INPUT, coupling="qnd", port=0),
        Node(1, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1),))
    program = MeasurementProgram(
        graph=graph,
        schedule=(ScheduleEntry(0, 0.0),),
        feedforward=(),
        target=fourier(),
    )
    rules = exact_replay(program).feedforward_rules()
    assert len(rules) == 1
    assert rules[0].gain_x == pytest.approx(-1.0)
    assert rules[0].gain_p == pytest.approx(0.0)


def test_feedforward_gains_do_not_depend_on_squeezing():
    # The probe reads the exact linear algebra, which has no squeezing level:
    # probing the compiled program again gives the gains it was compiled with.
    program, _ = compile(random_symplectic(1, 11))
    assert exact_replay(program).feedforward_rules() == program.feedforward


def test_predicted_excess_matches_teleport_closed_form():
    program = teleport_identity_program()
    r = 2.0
    pred = exact_replay(program).excess_covariance(r)
    assert_allclose(pred, np.exp(-2 * r) / 4 * np.eye(2), atol=1e-12)


def test_db_conversion():
    assert db_to_r(20.0) == pytest.approx(np.log(10.0))
    assert r_to_db(db_to_r(13.0)) == pytest.approx(13.0)
    # variance ratio at 10 dB is a factor of 10
    assert np.exp(-2 * db_to_r(10.0)) == pytest.approx(0.1)


def test_validate_state_rejects_unphysical():
    bad = GaussianState(np.zeros(2), np.diag([0.1, 0.1]))
    with pytest.raises(ValueError, match="unphysical"):
        validate_state(bad)
