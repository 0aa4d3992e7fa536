"""Connection gates, Bloch-Messiah, splitter meshes, and full compilation."""

import functools
import unittest.mock
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvcluster import (
    CompileError,
    ConnectionGateParams,
    SymplecticMap,
    beam_splitter_matrix,
    beam_splitter_program,
    bloch_messiah,
    compile,
    compose,
    compose_many,
    connection_gate,
    db_to_r,
    embed,
    exact_replay,
    fourier_power,
    identity,
    random_symplectic,
    reck_decompose,
    rotation,
    squeeze,
    symplectic_residual,
)
from cvcluster import multimode
from cvcluster.ir import ROLE_INPUT, ROLE_OUTPUT
from cvcluster.symplectic import require_symplectic
from oracles import (
    bloch_messiah_product,
    four_step_product,
    greedy_variant_walk,
    greedy_variants,
    joint_variant_minimum,
    mesh_census,
    realized_chain_error,
    two_mode_sweep,
    variant_walk,
)


def connection_cube(reflectivity: float) -> np.ndarray:
    triple = beam_splitter_program(reflectivity)
    m = np.eye(4)
    for params in triple:
        m = connection_gate(params).matrix @ m
    return m


def test_connection_gate_no_interaction():
    f2 = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    gate = connection_gate(ConnectionGateParams(0.0, 0.0, 0.0))
    assert_allclose(gate.matrix, f2, atol=0)


def test_connection_gate_cross_terms():
    gate = connection_gate(ConnectionGateParams(0.0, 0.0, 0.5)).matrix
    # eta3 couples x1 into the partner momentum rows (through F2).
    assert gate[0, 1] != 0.0 and gate[1, 0] != 0.0


def test_connection_gate_symplectic():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k1, k2, e3 = rng.uniform(-3, 3, size=3)
        gate = connection_gate(ConnectionGateParams(k1, k2, e3))
        assert symplectic_residual(gate) < 1e-12


def test_beam_splitter_program_parameters():
    full = beam_splitter_program(1.0)
    assert_allclose([full[0].kappa1, full[0].kappa2, full[0].eta3], [1, -1, 0], atol=0)
    assert_allclose(connection_cube(1.0), np.diag([1.0, -1.0, 1.0, -1.0]), atol=1e-15)
    half = beam_splitter_program(0.5)
    assert_allclose(
        [half[0].kappa1, half[0].kappa2, half[0].eta3],
        [0.0, -np.sqrt(2), -1 / np.sqrt(2)],
        atol=1e-15,
    )
    assert_allclose(connection_cube(0.5), beam_splitter_matrix(0.5).matrix, atol=1e-15)
    swapish = np.zeros((4, 4))
    swapish[0, 1] = swapish[1, 0] = swapish[2, 3] = swapish[3, 2] = 1.0
    assert_allclose(connection_cube(0.0), swapish, atol=1e-15)
    with pytest.raises(ValueError):
        beam_splitter_program(-0.2)


def test_connection_cube_is_beam_splitter():
    for reflectivity in np.linspace(0.0, 1.0, 101):
        assert_allclose(
            connection_cube(reflectivity),
            beam_splitter_matrix(reflectivity).matrix,
            atol=1e-12,
        )


def test_bloch_messiah_identity():
    factors = bloch_messiah(identity(3))
    assert_allclose(factors.squeezings, 0.0, atol=1e-12)
    assert_allclose(
        factors.passive_out.matrix @ factors.passive_in.matrix, np.eye(6), atol=1e-12
    )


def test_bloch_messiah_embedded_squeezer():
    target = embed(squeeze(0.8), 3, [1])
    factors = bloch_messiah(target)
    assert_allclose(sorted(factors.squeezings, reverse=True), [0.8, 0.0, 0.0], atol=1e-10)
    assert_allclose(bloch_messiah_product(factors), target.matrix, atol=1e-9)


def test_bloch_messiah_random():
    for seed in range(20):
        target = random_symplectic(3, seed)
        factors = bloch_messiah(target)
        assert_allclose(bloch_messiah_product(factors), target.matrix, atol=1e-9)
        for passive in (factors.passive_out, factors.passive_in):
            assert symplectic_residual(passive) < 1e-10
            assert np.max(np.abs(passive.matrix.T @ passive.matrix - np.eye(6))) < 1e-10
        assert all(r >= -1e-12 for r in factors.squeezings)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 3),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    wire=st.integers(0, 2),
    r=st.floats(2.0, 6.0),
    phi=st.floats(-np.pi, np.pi),
    psi=st.floats(-np.pi, np.pi),
)
@example(n=3, seed=None, wire=0, r=5.0, phi=0.3, psi=1.1)
def test_bloch_messiah_holds_at_high_squeezing(n, seed, wire, r, phi, psi):
    # One strong squeezer after a random map (the identity for seed None).
    # A polar factor taken from eigh(S S^T) and a solve against P squares S's
    # condition number: from r ~ 2 reck_decompose then refused the passives
    # (the example: "map is not passive ... 2.772e-09").
    base = identity(n) if seed is None else random_symplectic(n, seed)
    squeezer = compose_many(rotation(phi), squeeze(r), rotation(psi))
    target = compose(base, embed(squeezer, n, [wire % n]))
    require_symplectic(target)  # its tolerance scales with max|target|^2
    factors = bloch_messiah(target)
    for passive in (factors.passive_in, factors.passive_out):
        reck_decompose(passive)  # raises unless passive to SYMPLECTIC_TOL
    error = np.max(np.abs(bloch_messiah_product(factors) - target.matrix))
    assert error <= 1e-12 * np.max(np.abs(target.matrix))


def test_reck_counts_n1():
    matrix, pairs, phases, _ = mesh_census(1, reck_decompose(rotation(0.7)))
    assert len(pairs) == 0
    assert phases == 1
    assert_allclose(matrix, rotation(0.7).matrix, atol=1e-12)


def test_reck_balanced_splitter():
    ops = reck_decompose(beam_splitter_matrix(0.5))
    bs = [op for op in ops if op[0] == "bs"]
    assert len(bs) == 1
    assert bs[0][2] == pytest.approx(0.5)
    matrix, _, _, _ = mesh_census(2, ops)
    assert np.max(np.abs(matrix - beam_splitter_matrix(0.5).matrix)) < 1e-10


def test_reck_random_passive():
    for seed in range(10):
        factors = bloch_messiah(random_symplectic(3, 50 + seed))
        for passive in (factors.passive_out, factors.passive_in):
            matrix, pairs, phases, _ = mesh_census(3, reck_decompose(passive))
            assert len(pairs) <= 3
            assert phases <= 6
            assert np.max(np.abs(matrix - passive.matrix)) < 1e-9


def test_reck_rejects_active_maps():
    with pytest.raises(ValueError):
        reck_decompose(squeeze(0.5))


@pytest.mark.parametrize(
    "matrix",
    [embed(squeeze(0.5), 2, [1]).matrix, np.diag([1.0, 1.0, 1.0, -1.0])],
    ids=["symplectic-not-orthogonal", "orthogonal-not-symplectic"],
)
def test_reck_rejects_maps_that_are_not_passive(matrix):
    with pytest.raises(ValueError, match="is not (passive|symplectic)"):
        reck_decompose(SymplecticMap(2, matrix))


def passive(unitary: np.ndarray) -> SymplecticMap:
    """The passive map of an n-by-n unitary U: x + ip -> U (x + ip)."""
    re, im = unitary.real, unitary.imag
    return SymplecticMap(len(unitary), np.block([[re, -im], [im, re]]))


@st.composite
def passives(draw):
    """Haar-random passives, permutations times phases, and the identity."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["haar", "permutation", "identity"]))
    if kind == "identity":
        return passive(np.eye(n))
    if kind == "permutation":
        order = draw(st.permutations(range(n)))
        phases = draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n))
        return passive(np.eye(n)[order] * np.exp(1j * np.array(phases)))
    return haar_passive(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def haar_passive(n: int, rng) -> SymplecticMap:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return passive(q * (np.diag(r) / np.abs(np.diag(r))))


@settings(max_examples=300, deadline=None)
@given(target=passives())
def test_reck_mesh_is_rectangular(target):
    n = target.n
    matrix, pairs, phases, layers = mesh_census(n, reck_decompose(target))
    assert np.max(np.abs(matrix - target.matrix)) < 1e-10
    assert len(pairs) <= n * (n - 1) // 2
    assert all(j == i + 1 for i, j in pairs), pairs
    assert phases <= n * (n + 1) // 2
    assert layers <= n


@settings(max_examples=200, deadline=None)
@given(target=passives())
def test_bloch_messiah_leaves_a_passive_whole(target):
    # All eigenvalues of P are 1: the cluster's canonical basis is the
    # standard one, so the first passive is the target and the second is I.
    factors = bloch_messiah(target)
    assert factors.squeezings == (0.0,) * target.n
    assert np.max(np.abs(factors.passive_out.matrix - np.eye(2 * target.n))) < 1e-12
    assert np.max(np.abs(factors.passive_in.matrix - target.matrix)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    rs=st.lists(st.sampled_from([0.0, 0.4, 0.8, 1.2]), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_bloch_messiah_of_equal_squeezers_has_identity_passives(rs, seed):
    # Repeated squeezings get the canonical basis of their eigenspace, not
    # eigh's arbitrary one; between Haar passives that basis still factors
    # the target.
    rs = sorted(rs, reverse=True)
    n = len(rs)
    squeezers = SymplecticMap(n, np.diag(np.exp(np.concatenate([rs, np.negative(rs)]))))
    factors = bloch_messiah(squeezers)
    assert_allclose(factors.squeezings, rs, atol=1e-12)
    for passive in (factors.passive_out, factors.passive_in):
        assert np.max(np.abs(passive.matrix - np.eye(2 * n))) < 1e-12

    rng = np.random.default_rng(seed)
    u, v = (haar_passive(n, rng) for _ in range(2))
    target = compose(u, compose(squeezers, v))
    factors = bloch_messiah(target)
    assert_allclose(factors.squeezings, rs, atol=1e-9)
    assert_allclose(bloch_messiah_product(factors), target.matrix, atol=1e-9)
    for passive in (factors.passive_out, factors.passive_in):
        assert symplectic_residual(passive) < 1e-10
        assert np.max(np.abs(passive.matrix.T @ passive.matrix - np.eye(2 * n))) < 1e-10


def test_compile_equal_squeezers_are_the_two_mode_lattice():
    # Every two-mode target is the one gate of the n = 2 triangle, a local
    # target too: equal squeezers on both wires lower to 12 ancillas.
    squeezers = compose(embed(squeeze(0.8), 2, [0]), embed(squeeze(0.8), 2, [1]))
    _, report = compile(squeezers)
    assert report.ancilla_count == 12
    assert Counter(record.kind for record in report.step_params) == {"two-mode": 1}
    assert report.replay_residual < 1e-9


def test_pad_fourier_commutes_through_beam_splitters():
    # equal Fourier powers on both wires commute through a phase-free beam
    # splitter
    for reflectivity in (0.0, 0.3, 1.0):
        bs = beam_splitter_matrix(reflectivity)
        for power in (1, 2, 3):
            ff = compose(
                embed(fourier_power(power), 2, [0]),
                embed(fourier_power(power), 2, [1]),
            )
            assert_allclose(compose(bs, ff).matrix, compose(ff, bs).matrix, atol=0)


def test_compile_identity_single_mode():
    program, report = compile(identity(1))
    assert report.ancilla_count == 4
    assert report.noise_proxy == pytest.approx(4.0)
    assert all(entry.angle == 0.0 for entry in program.schedule)
    assert len(program.schedule) == 4
    # linear chain: input port plus 4 ancillas, 4 edges
    assert len(program.graph.edges) == 4
    assert report.replay_residual < 1e-12


def chain_product(connections) -> np.ndarray:
    """The map that connection gates [(kappa1, kappa2, eta3), ...] realize."""
    m = np.eye(4)
    for params in connections:
        m = connection_gate(ConnectionGateParams(*params)).matrix @ m
    return m


def two_mode_product(rec) -> np.ndarray:
    """The map that a two-mode record's four connection gates realize."""
    return chain_product(rec.params["connections"])


def chain_excess_oracle(connections, weight: np.ndarray) -> float:
    """tr(W K K^T) of connection gates from explicit products: gate t's three
    p-noises enter its output as e_{p_i}, e_{p_j} and eta3 (e_{x_i} + e_{x_j}),
    and each later gate carries them on."""
    columns = []
    for kappa1, kappa2, eta3 in connections:
        gate = connection_gate(ConnectionGateParams(kappa1, kappa2, eta3)).matrix
        columns = [gate @ c for c in columns] + [
            np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]),
            eta3 * np.array([1.0, 1.0, 0.0, 0.0]),
        ]
    k = np.column_stack(columns)
    return float(np.trace(weight @ k @ k.T))


def on_pair(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``first`` on wire i plus ``second`` on wire j, in (x_i, x_j, p_i, p_j)."""
    m = np.zeros((4, 4))
    m[0::2, 0::2], m[1::2, 1::2] = first, second
    return m


def ancillas(rec) -> int:
    """A record's ancillas: three per connection gate, one per chain step."""
    if rec.kind == "two-mode":
        return 3 * len(rec.params["connections"])
    return len(rec.params["kappas"])


def output_labels(program) -> list:
    """Each wire's output port, wire w starting at input port w."""
    return [port for _, port in wire_ends(program)]


def wire_order(labels) -> np.ndarray:
    """The rows (x then p) of a target in wire order, for ``labels`` from
    :func:`output_labels`."""
    n = len(labels)
    return np.array([*labels, *(n + port for port in labels)])


def test_compile_pure_balanced_splitter():
    # One two-mode gate: four connection gates of three ancillas each.  The
    # gate absorbs both wires' L^-1 and D, so it is the target itself, its
    # rows in wire order; neither wire has a later gate to undo a Fourier
    # power, so it is realized as itself (variant k = l = 0).
    target = beam_splitter_matrix(0.5)
    program, report = compile(target)
    assert report.ancilla_count == 12
    assert report.replay_residual < 1e-9
    (rec,) = report.step_params
    assert (rec.kind, rec.wires, rec.column, rec.params["fourier"]) == ("two-mode", (0, 1), 0, [0, 0])
    rows = wire_order(output_labels(program))
    assert np.max(np.abs(two_mode_product(rec) - target.matrix[rows])) < 1e-10


def test_compile_free_param_pins_kappa1():
    program, report = compile(identity(1), kappa1=0.5)
    rec = report.step_params[0]
    assert rec.params["kappas"][0] == pytest.approx(0.5)
    assert report.replay_residual < 1e-9


def test_compile_rejects_kappa1_for_multimode_targets():
    with pytest.raises(ValueError, match="kappa1 pins a one-mode synthesis; the target has 2 modes"):
        compile(random_symplectic(2, 0), kappa1=0.5)


def test_compile_multimode_replay_and_census():
    for seed, n in [(0, 2), (1, 3), (2, 3), (3, 4)]:
        target = random_symplectic(n, seed)
        program, report = compile(target)
        assert report.replay_residual < 1e-9
        # ancilla census: 4 per one-mode gate and per pad (four steps), 12
        # per two-mode gate (four connection gates of 3)
        assert report.ancilla_count == sum(map(ancillas, report.step_params))
        # executor agrees with the embedded target
        replay = exact_replay(program)
        assert np.max(np.abs(replay.matrix - target.matrix)) < 1e-9


def test_compile_schedule_covers_every_non_output_node():
    program, _ = compile(random_symplectic(3, 9))
    measured = [s.node_id for s in program.schedule]
    assert len(measured) == len(set(measured))
    roles = {n.id: n.role for n in program.graph.nodes}
    expected = {i for i, role in roles.items() if role != ROLE_OUTPUT}
    assert set(measured) == expected
    outputs = [n for n in program.graph.nodes if n.role == ROLE_OUTPUT]
    inputs = [n for n in program.graph.nodes if n.role == ROLE_INPUT]
    assert len(outputs) == len(inputs) == 3


#: Two splitters in a row on wire 1.
TWO_SPLITTERS = compose(
    embed(beam_splitter_matrix(0.3), 3, [1, 2]),
    embed(beam_splitter_matrix(0.5), 3, [0, 1]),
)
#: As TWO_SPLITTERS on four modes, with a rotation on wire 3.
FOLD = compose(
    embed(beam_splitter_matrix(0.3), 4, [1, 2]),
    compose(embed(rotation(0.4), 4, [3]), embed(beam_splitter_matrix(0.5), 4, [0, 1])),
)
#: Two splitters on disjoint pairs.
DISJOINT = compose(
    embed(beam_splitter_matrix(0.3), 4, [2, 3]),
    embed(beam_splitter_matrix(0.5), 4, [0, 1]),
)


def triangle_gates(target) -> list:
    """Each two-mode gate of the triangle as (pair, map), in application
    order, from ``multimode._triangle``: the map is
    (h_i + h_j) G^-1 (g_i + g_j), g a wire's L^-1 at its first gate and h
    its D at its last (else the identity)."""
    inputs, triangle, outputs, _ = multimode._triangle(target.matrix)
    gates = [(pair, core) for pair, core, _ in triangle]
    first = {w: i for i, (pair, _) in reversed(list(enumerate(gates))) for w in pair}
    last = {w: i for i, (pair, _) in enumerate(gates) for w in pair}
    return [
        (pair, on_pair(*(outputs[w] if last[w] == i else np.eye(2) for w in pair))
         @ core @ on_pair(*(inputs[w] if first[w] == i else np.eye(2) for w in pair)))
        for i, (pair, core) in enumerate(gates)
    ]


def test_compile_flushes_pad_fourier_transforms():
    # No wire owes a Fourier power at the end, and no record is a pad.  A
    # two-mode gate realizes (F^k + F^l) x undo(owed) for its map x, and
    # each wire's next gate undoes its power; F goes to a wire without a
    # next gate only when no choice of the variants avoids it, and the wire
    # then ends in a four-step gate F^-1.  BS(1) forces it on wire 1: its
    # one gate has no chain that forwards no F.  TWO_SPLITTERS and FOLD
    # are spared the F on wire 1 that a gate-by-gate choice forces (40 and
    # 76 ancillas), as the variants are chosen jointly.  Each is the full
    # triangle: 2n - 3 columns of two-mode gates, and the four-step gates
    # after them.  Every gate's product is known exactly from the
    # decomposition.
    cases = [  # target, ancillas, columns, each two-mode gate's (k, l)
        (beam_splitter_matrix(1.0), 16, 2, [[0, 1]]),
        (embed(beam_splitter_matrix(0.5), 3, [0, 1]), 36, 3, [[0, 0], [1, 0], [0, 0]]),
        (TWO_SPLITTERS, 36, 3, [[1, 0], [0, 0], [0, 0]]),
        (FOLD, 72, 5, [[1, 0], [0, 0], [1, 0], [1, 1], [0, 0], [0, 0]]),
        (DISJOINT, 72, 5, [[1, 0], [1, 1], [0, 0], [0, 0], [1, 0], [0, 0]]),
    ]
    for target, ancilla_count, columns, variants in cases:
        program, report = compile(target)
        assert report.ancilla_count == ancilla_count
        assert 1 + max(rec.column for rec in report.step_params) == columns
        expected = {}  # pair -> its gates' maps, in order
        for pair, x in triangle_gates(target):
            expected.setdefault(pair, []).append(x)
        owed = [0] * target.n
        for rec in report.step_params:
            if rec.kind == "two-mode":
                (i, j), (k, l) = rec.wires, rec.params["fourier"]
                undo = on_pair(fourier_power(-owed[i]).matrix, fourier_power(-owed[j]).matrix)
                x = expected[rec.wires].pop(0)
                gate = on_pair(fourier_power(k).matrix, fourier_power(l).matrix) @ x @ undo
                assert np.max(np.abs(two_mode_product(rec) - gate)) < 1e-10 * max(1.0, np.max(np.abs(x)))
                owed[i], owed[j] = k, l
            else:
                assert rec.kind == "four-step"
                (w,) = rec.wires
                steps = four_step_product(rec.params["kappas"])
                assert owed[w] == 1
                assert np.max(np.abs(steps - fourier_power(-1).matrix)) < 1e-12
                owed[w] = 0
        assert owed == [0] * target.n
        assert all(not rest for rest in expected.values())
        assert [rec.params["fourier"] for rec in report.step_params if rec.kind == "two-mode"] == variants
        assert report.replay_residual < 1e-9
        if target is FOLD:
            excess = np.trace(exact_replay(program).excess_covariance(db_to_r(10.0)))
            assert excess == pytest.approx(1.5569, abs=1e-4)  # 1.6912 gate by gate


@pytest.mark.parametrize("n", range(2, 9))
def test_compile_packs_disjoint_splitters_into_columns(n):
    # Stage hi's gate (c, c + 1) goes to column c + 2 (n - 1 - hi), so the
    # triangle has 2n - 3 columns of disjoint two-mode gates, and the
    # records come column by column.  Each wire's last gate absorbs its
    # trailing one-mode ops, so nothing follows them.
    stages = [(hi, c) for hi in range(n - 1, 0, -1) for c in range(hi)]  # application order
    for seed in range(2):
        _, report = compile(random_symplectic(n, seed))
        records = [rec for rec in report.step_params if rec.kind == "two-mode"]
        assert [rec.column for rec in records] == sorted(rec.column for rec in records)
        placed = sorted(((c + 2 * (n - 1 - hi), (c, c + 1)) for hi, c in stages), key=lambda gate: gate[0])
        assert [(rec.column, rec.wires) for rec in records] == placed
        pairs = {}
        for rec in records:
            pairs.setdefault(rec.column, []).append(rec.wires)
        for column, wires in pairs.items():
            used = [w for pair in wires for w in pair]
            assert len(used) == len(set(used)), (column, wires)
        assert len(pairs) == max(1, 2 * n - 3)
        assert {rec.kind for rec in report.step_params} == {"two-mode"}
        assert sorted(pairs) == list(range(len(pairs)))
        assert report.replay_residual < 1e-9


def splitter_products(count: int) -> list:
    """Seeded products of phase-free splitters with occasional rotations."""
    targets = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        target = identity(n)
        for _ in range(int(rng.integers(2, 7))):
            if rng.random() < 0.25:
                gate = embed(rotation(rng.uniform(-np.pi, np.pi)), n, [int(rng.integers(n))])
            else:
                pair = sorted(int(w) for w in rng.choice(n, 2, replace=False))
                gate = embed(beam_splitter_matrix(rng.uniform(0.0, 1.0)), n, pair)
            target = compose(gate, target)
        targets.append(target)
    return targets


def wire_ends(program) -> list:
    """Each wire's steps and output port: the number of nodes on the graph
    path from its input port to the output node that ends it, the input
    excluded, and that node's port.  A wire node has one in-edge; a
    connection gate's control node has two and leads nowhere."""
    graph = program.graph
    indegree = Counter(v for _, v in graph.edges)
    successors = {}
    for u, v in graph.edges:
        successors.setdefault(u, []).append(v)
    outputs = {node.id: node.port for node in graph.output_ports()}
    ends = []
    for node in graph.input_ports():
        at, count = node.id, 0
        while at not in outputs:
            (at,) = (v for v in successors[at] if indegree[v] == 1)
            count += 1
        ends.append((count, outputs[at]))
    return ends


def wire_steps(program) -> list:
    """Each wire's steps (:func:`wire_ends`)."""
    return [steps for steps, _ in wire_ends(program)]


def test_compile_keeps_wires_step_aligned():
    # Each gate advances each of its wires by exactly four steps: a two-mode
    # gate is four connection gates of one step on each of its wires, and a
    # one-mode gate is a four-step chain.  Without pads, wires end at
    # different depths: each wire's path in the graph is four steps per gate
    # on it.
    targets = [random_symplectic(n, seed) for n in range(2, 6) for seed in range(4)]
    targets += [embed(beam_splitter_matrix(0.5), 3, [0, 1]), TWO_SPLITTERS, FOLD, DISJOINT]
    targets += [embed(squeeze(0.8), 3, [1]), identity(3)]
    targets += splitter_products(40)
    forwarded = ragged = 0
    for target in targets:
        program, report = compile(target)
        gates = Counter(w for rec in report.step_params for w in rec.wires)
        for rec in report.step_params:
            assert ancillas(rec) == (12 if rec.kind == "two-mode" else 4), rec
        steps = wire_steps(program)
        assert steps == [4 * gates[w] for w in range(target.n)], (steps, gates)
        ragged += len(set(steps)) > 1
        forwarded += sum(
            rec.kind == "two-mode" and any(rec.params["fourier"]) for rec in report.step_params
        )
    assert forwarded > 0 and ragged > 0


F = fourier_power(1).matrix
#: One-mode gates g for two-mode gates BS(R) (g_i + g_j): Fourier powers,
#: d = 0 maps ((a, b), (-1/b, 0)), and random maps.
ONE_MODE_GATES = st.one_of(
    st.sampled_from([1, 2, 3]).map(lambda k: fourier_power(k).matrix),
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.3, 2.5), st.sampled_from([-1.0, 1.0])).map(
        lambda abs_: np.array([[abs_[0], abs_[1] * abs_[2]], [-1.0 / (abs_[1] * abs_[2]), 0.0]])
    ),
    st.integers(0, 2**32 - 1).map(lambda seed: random_symplectic(1, seed).matrix),
)


def splitter_gate(reflectivity, gi, gj, seed):
    """BS(R) (g_i + g_j) and a weight W: I for ``seed`` None, else D^T D with
    D a seeded 6 x 4 normal matrix."""
    t = beam_splitter_matrix(reflectivity).matrix @ on_pair(gi, gj)
    if seed is None:
        return t, np.eye(4)
    d = np.random.default_rng(seed).normal(size=(6, 4))
    return t, d.T @ d


SPLITTER_GATES = dict(
    reflectivity=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    gi=ONE_MODE_GATES,
    gj=ONE_MODE_GATES,
    seed=st.none() | st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(**SPLITTER_GATES)
@example(reflectivity=0.0, gi=F, gj=F, seed=None)  # T_d = 0, T_c symmetric
@example(reflectivity=0.0, gi=F, gj=F.T, seed=None)  # T_d = 0, T_c not symmetric
@example(reflectivity=1.0, gi=np.eye(2), gj=np.eye(2), seed=None)
def test_two_mode_chart_reproduces_its_gate(reflectivity, gi, gj, seed):
    # Some Fourier variant (F^k + F^l) T of every T = BS(R) (g_i + g_j) gets a
    # chain of four connection gates that reproduces it to round-off, and the
    # chain's recorded excess is its tr(W K K^T).
    # So does every variant that the sweep returns.
    t, weight = splitter_gate(reflectivity, gi, gj, seed)
    found = swept_variants(t, weight, (True, True))
    assert found
    for variant, connections, excess in found:
        assert_round_off(t, variant, connections)
        fourier = fourier_variant(variant)
        oracle = chain_excess_oracle(connections, fourier @ weight @ fourier.T)
        assert excess == pytest.approx(oracle, rel=1e-9)


def swept_variants(t, weight, free) -> list:
    """(variant, connections, excess) of each variant that
    ``multimode._two_mode_chains`` returns a chain for, for one gate."""
    table, chains = multimode._two_mode_chains([(t, weight, free)])
    return [(v, chains[0, v].tolist(), float(table[0, v])) for v in range(4) if np.isfinite(table[0, v])]


def least_chain(t, weight, free) -> tuple:
    """The first variant of least excess among :func:`swept_variants`."""
    return min(swept_variants(t, weight, free), key=lambda found: found[2])


def fourier_variant(variant: int) -> np.ndarray:
    """F^k + F^l of the variant (k, l) = ``multimode._VARIANTS[variant]``."""
    k, l = multimode._VARIANTS[variant]
    return on_pair(fourier_power(k).matrix, fourier_power(l).matrix)


def assert_round_off(t, variant, connections):
    """The chain reproduces its variant of ``t`` to ``ROUNDOFF_TOL`` relative
    to max(1, max|t|), with each gain as its homodyne angle realizes it."""
    error = realized_chain_error(connections, fourier_variant(variant) @ t)
    assert error <= multimode.ROUNDOFF_TOL * max(1.0, np.max(np.abs(t)))


def squeezed_splitter_gate(seed: int) -> np.ndarray:
    """(h_i + h_j) BS(R) (g_i + g_j) with R uniform in [0, 1] and each
    one-mode part R(phi) S(r) R(psi), |r| <= 4, from a seeded generator."""
    rng = np.random.default_rng(seed)

    def part():
        phi, r, psi = rng.uniform(-np.pi, np.pi), rng.uniform(-4.0, 4.0), rng.uniform(-np.pi, np.pi)
        return rotation(phi).matrix @ squeeze(r).matrix @ rotation(psi).matrix

    h = on_pair(part(), part())
    g = on_pair(part(), part())
    return h @ beam_splitter_matrix(rng.uniform(0.0, 1.0)).matrix @ g


def test_a_squeezed_splitter_takes_a_round_off_chain_over_a_loose_one_forwarding_no_f():
    # Seed 1184 of a scan of 6000 such gates, with both wires owing their
    # forwarded F to a later four-step gate (free = (False, False)).  Variant
    # (0, 0), which forwards no F, reaches only a chain that reproduces it to
    # ~8e-13 relative (excess ~9.6e4): cancellation, not round-off.  A chain
    # is accepted only to round-off, so a variant that forwards one F wins,
    # at an excess ~4.0e3.
    t = squeezed_splitter_gate(1184)
    variant, connections, excess = least_chain(t, np.eye(4), (False, False))
    assert_round_off(t, variant, connections)
    assert sum(multimode._VARIANTS[variant]) == 1
    assert excess == pytest.approx(chain_excess_oracle(connections, np.eye(4)), rel=1e-9)
    assert excess < 5e3


@settings(max_examples=150, deadline=None)
@given(**SPLITTER_GATES, free=st.tuples(st.booleans(), st.booleans()))
@example(reflectivity=0.0, gi=F, gj=F.T, seed=None, free=(True, True))  # an empty family
@example(reflectivity=0.3, gi=F, gj=np.eye(2), seed=7, free=(False, True))
def test_batched_sweep_is_no_worse_than_the_scalar_oracle(reflectivity, gi, gj, seed, free):
    # _two_mode_chains line-minimizes every Fourier variant of the least-forced
    # group in one pass of arrays; oracles.two_mode_sweep does the same one
    # variant and one line at a time, in scalars.  The batched chain
    # reproduces its variant to round-off, forwards no more F, and with as
    # many, its excess is at most the oracle's to 1e-7 (52000 random draws agreed to
    # 2.6e-8: a line minimum that is flat in location is found to ~1e-8 by
    # either computation, and the next line search starts there).  The two
    # may part further only at a chain whose reproduction error is within
    # rounding of its bound, which each accepts or not by its own rounding:
    # such an error is itself round-off, so it moves by 2x between points a
    # few ulps apart.  A draw that parts must show such a check in the
    # oracle's sweep (about 1 draw in 4000 does; counted as an event).
    t, weight = splitter_gate(reflectivity, gi, gj, seed)
    variant, connections, excess = least_chain(t, weight, free)
    errors = []
    oracle_variant, _, oracle_excess = two_mode_sweep(t, weight, free, errors)
    assert_round_off(t, variant, connections)
    forced = [sum(k and not f for k, f in zip(multimode._VARIANTS[v], free)) for v in (variant, oracle_variant)]
    assert forced[0] <= forced[1]
    if forced[0] < forced[1]:  # e.g. a point just off a removable pole at the family's start
        event("the batched sweep forwards fewer F")
    elif excess > oracle_excess * (1.0 + 1e-7):
        assert any(0.5 <= e <= 2.0 for e in errors), (excess, oracle_excess)
        event("parts from the oracle at a chain checked within 2x of its bound")


def test_two_mode_chart_reaches_both_degenerate_families():
    # After a swap (R = 0), Fourier gates on both wires leave T_d = 0.  The
    # family of S1 is then all of S1 space if T_c is symmetric (F, F) and
    # empty if not (F, F^3); the latter gate gets its chain from a variant.
    swap = beam_splitter_matrix(0.0).matrix
    empty = swap @ on_pair(F, F.T)
    starts, bases, counts = multimode._families(np.array([swap @ on_pair(F, F), empty]), np.full(2, multimode.FAMILY_TOL))
    assert counts.tolist() == [3, 0]
    assert starts[0].tolist() == [0.0, 0.0, 0.0] and np.array_equal(bases[0], np.eye(3))
    variant, _, _ = least_chain(empty, np.eye(4), (True, True))
    assert multimode._VARIANTS[variant] != (0, 0)


def compile_with_table(target, monkeypatch) -> tuple:
    """compile(target), the report, and what ``_choose_variants`` saw: each
    gate's pair and whether its wires have a later gate, and its excess
    table (gates x owed a x owed b x variant)."""
    choose, seen = multimode._choose_variants, []

    def recording(gates, table):
        seen.append(([pair for _, pair, *_ in gates], [free for *_, free in gates], table))
        return choose(gates, table)

    monkeypatch.setattr(multimode, "_choose_variants", recording)
    program, report = compile(target)
    ((pairs, free, table),) = seen
    return report, pairs, free, table


def two_mode_total(report) -> tuple:
    """(forced F, summed two-mode excess) of a compiled program's records."""
    kinds = Counter(rec.kind for rec in report.step_params)
    return kinds["four-step"], sum(rec.params["excess"] for rec in report.step_params if rec.kind == "two-mode")


@pytest.mark.parametrize("n, seeds", [(2, range(3)), (3, range(4)), (4, range(2))])
def test_joint_variants_reach_the_enumerated_minimum(n, seeds, monkeypatch):
    # Each gate's share of the excess depends on its variant and on the
    # powers it owes, not on the other gates' chains, so the least
    # (forced F, summed excess) over all 4^(gates) assignments (4096 at
    # n = 4) is what the dynamic program must reach, and the records'
    # shares sum to it.
    for seed in seeds:
        report, pairs, free, table = compile_with_table(random_symplectic(n, seed), monkeypatch)
        forced, excess = two_mode_total(report)
        best_forced, best_excess = joint_variant_minimum(pairs, free, table)
        assert forced == best_forced
        assert excess == pytest.approx(best_excess, rel=1e-12)


@pytest.mark.parametrize("wires", [(0, 1, 2), (0, 70, 71)])
def test_joint_variants_of_a_random_table_reach_the_enumerated_minimum(wires):
    # The choice reads only the gates' pairs and free flags and the table.
    # Random tables, with no chain (inf) for 40 % of the entries, exercise
    # the forced-F order too; wire 70's bit does not fit in an int64.
    u, v, w = wires
    pairs = [(u, v), (v, w), (u, w), (u, v), (v, w)]
    free = [(True, True), (True, True), (True, True), (False, True), (False, False)]
    gates = [(column, pair, 1.0, None, None, list(f)) for column, (pair, f) in enumerate(zip(pairs, free))]
    rng = np.random.default_rng(11)
    for _ in range(40):
        table = np.where(rng.random((5, 2, 2, 4)) < 0.4, np.inf, rng.random((5, 2, 2, 4)))
        best = joint_variant_minimum(pairs, free, table)
        if best[0] == np.inf:
            with pytest.raises(CompileError, match="no chain of four connection gates"):
                multimode._choose_variants(gates, table)
            continue
        walk = variant_walk(pairs, free, table, multimode._choose_variants(gates, table))
        assert walk[0] == best[0] and walk[1] == pytest.approx(best[1], rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@example(n=12, seed=7)  # the beam prunes: up to 2^11 owed-power states
@example(n=3, seed=2)
def test_joint_variants_never_cost_more_than_the_gate_by_gate_walk(n, seed):
    # The dynamic program keeps the state that the gate-by-gate choice
    # reaches, whatever the beam drops, so no target reads higher than
    # that choice, in forced F first, then in summed excess.
    with pytest.MonkeyPatch.context() as monkeypatch:
        report, pairs, free, table = compile_with_table(random_symplectic(n, seed), monkeypatch)
    live = max(len({w for p in pairs[:g] for w in p} & {w for p in pairs[g:] for w in p}) for g in range(len(pairs)))
    assert n < 12 or 2**live > multimode.BEAM
    forced, excess = two_mode_total(report)
    walk_forced, walk_excess = greedy_variant_walk(pairs, free, table)
    assert forced <= walk_forced
    if forced == walk_forced:
        assert excess <= walk_excess * (1.0 + 1e-12)


def test_compile_names_a_splitter_without_a_chain(monkeypatch):
    # The one gate of n = 2 has no chain: its error names it and its pivot.
    def no_family(ts, tols):  # every variant's S1 family empty
        return np.zeros((len(ts), 3)), np.zeros((len(ts), 3, 3)), np.zeros(len(ts), dtype=int)

    monkeypatch.setattr(multimode, "_families", no_family)
    with pytest.raises(
        CompileError,
        match=r"no chain of four connection gates reproduces the two-mode gate on wires "
        r"\(0, 1\) in column 0 \(pivot [\d.]+\)",
    ):
        compile(random_symplectic(2, 0))


def test_compile_refuses_a_wrong_lowering(monkeypatch):
    import cvcluster.multimode as multimode
    from cvcluster import CompileError, decompose_four_step

    wrong = decompose_four_step(identity(1))
    monkeypatch.setattr(multimode, "decompose_four_step", lambda *args, **kwargs: wrong)
    with pytest.raises(CompileError, match=r"at entry \(\d, \d\)"):
        compile(squeeze(0.5))


def cluster_structure(program) -> tuple:
    """A program's graph (nodes without their output ports' labels, and
    edges) and schedule node order."""
    graph = program.graph
    nodes = tuple(node._replace(port=None) if node.role == ROLE_OUTPUT else node for node in graph.nodes)
    return nodes, graph.edges, tuple(entry.node_id for entry in program.schedule)


@functools.cache
def reference_program(n: int):
    return compile(random_symplectic(n, 0))[0]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 5]), seed=st.integers(1, 2**32 - 1))
def test_generic_targets_of_one_n_compile_to_one_fixed_cluster(n, seed):
    # The paper's claim: one finite cluster per n realises every generic
    # target.  Only the homodyne angles, the feedforward and the output
    # labels (which wire ends as which output port, chosen per target like
    # the angles) depend on it.
    program, reference = compile(random_symplectic(n, seed))[0], reference_program(n)
    assert cluster_structure(program) == cluster_structure(reference)
    assert sorted(output_labels(program)) == list(range(n))
    angles = [entry.angle for entry in program.schedule]
    assert angles != [entry.angle for entry in reference.schedule]


#: Per n, a target whose last gate on one wire forwards F: that wire ends in
#: a four-step gate F^-1.  At n = 3 and 4 only the gate-by-gate choice of
#: variants (``oracles.greedy_variants``) forces it.
FORCED_F = {2: embed(squeeze(0.8), 2, [1]), 3: TWO_SPLITTERS, 4: FOLD}


def gate_by_gate(gates, table) -> list:
    """A stand-in for ``multimode._choose_variants``: the gate-by-gate choice."""
    return greedy_variants([pair for _, pair, *_ in gates], table)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_four_step_gate_records_its_share_of_the_excess(n, monkeypatch):
    # Every record's excess tr(W K K^T) (four-step and two-mode gates) is the
    # sum of |N[:, j]|^2 over its ancillas' columns of the executor's noise
    # response N, so the shares sum to tr(N N^T), whichever variants the
    # gates take.  Records follow the order in which the builder creates
    # ancillas.  Generic targets and the embedded squeezer (n >= 3) have
    # two-mode gates only; FORCED_F, with the gate-by-gate choice, adds the
    # four-step gate of a forced F.
    gates = n * (n - 1) // 2
    cases = [(random_symplectic(n, seed), {"two-mode": gates}, False) for seed in range(4)]
    cases.append((FORCED_F[n], {"two-mode": gates, "four-step": 1}, True))
    if n > 2:
        cases.append((embed(squeeze(0.8), n, [1]), {"two-mode": gates}, False))
    choose = multimode._choose_variants
    for target, kinds, greedy in cases:
        monkeypatch.setattr(multimode, "_choose_variants", gate_by_gate if greedy else choose)
        program, report = compile(target)
        noise = program.replay.noise_response
        start = 0
        for rec in report.step_params:
            width = ancillas(rec)
            share = float(np.sum(noise[:, start : start + width] ** 2))
            assert rec.params["excess"] == pytest.approx(share, rel=1e-9)
            start += width
        assert start == noise.shape[1]
        total = sum(rec.params["excess"] for rec in report.step_params)
        assert total == pytest.approx(float(np.sum(noise**2)), rel=1e-9)
        assert Counter(rec.kind for rec in report.step_params) == kinds


def test_compile_multimode_identity():
    # The identity is the n = 2 lattice too: every step of the triangle is
    # trivial, and the one gate is lowered as any other.
    program, report = compile(identity(2))
    assert report.replay_residual < 1e-12
    assert report.ancilla_count == 12
    assert [rec.params["pivot"] for rec in report.step_params] == [1.0]


@pytest.mark.parametrize("n", range(2, 7))
def test_generic_targets_lower_to_two_mode_gates_only(n):
    # The triangle holds n(n - 1)/2 gates.  Each absorbs its wires' L^-1 at
    # their first gate and D at their last: n(n - 1)/2 two-mode gates of 12
    # ancillas and no four-step gate, each wire four steps per gate on it.
    for seed in range(20):
        program, report = compile(random_symplectic(n, seed))
        assert Counter(rec.kind for rec in report.step_params) == {"two-mode": n * (n - 1) // 2}
        assert report.ancilla_count == 6 * n * (n - 1)
        gates = Counter(w for rec in report.step_params for w in rec.wires)
        assert wire_steps(program) == [4 * gates[w] for w in range(n)]
        assert report.replay_residual < 1e-9


@pytest.mark.parametrize(
    "target, ancilla_count, four_step, excess",
    [
        (identity(2), 12, 0, 0.2000),
        (identity(3), 36, 0, 0.6000),
        (embed(squeeze(0.8), 2, [0]), 16, 1, 0.4155),
        (embed(squeeze(0.8), 3, [1]), 36, 0, 0.7289),
        (embed(beam_splitter_matrix(0.5), 3, [0, 1]), 36, 0, 0.6993),
    ],
    ids=["identity-2", "identity-3", "squeezer-on-2", "squeezer-on-3", "splitter-on-3"],
)
def test_special_targets_compile_to_the_full_triangle(target, ancilla_count, four_step, excess):
    # No pruning: a wire that the target leaves alone still carries its
    # gates, as trivial steps emit theirs, so special targets pay the
    # lattice's n(n - 1)/2 two-mode gates; the squeezer on wire 0 of two
    # adds a forced F's four-step gate.  Their excess at 10 dB is pinned
    # (to 1e-4).
    program, report = compile(target)
    program.validate()
    assert report.ancilla_count == ancilla_count
    kinds = Counter(rec.kind for rec in report.step_params)
    assert kinds == {"two-mode": target.n * (target.n - 1) // 2, **({"four-step": four_step} if four_step else {})}
    measured = np.trace(program.replay.excess_covariance(db_to_r(10.0)))
    assert measured == pytest.approx(excess, abs=1e-4)
    assert report.replay_residual < 1e-9


def test_a_forced_fourier_power_ends_in_a_four_step_gate():
    # squeeze(0.8) on wire 1 of two: its one gate has no chain as itself,
    # so it forwards F to a wire that has no later gate to undo it, which
    # ends with a four-step gate F^-1.
    program, report = compile(FORCED_F[2])
    assert report.ancilla_count == 16
    two_mode, four_step = report.step_params
    (k, l) = two_mode.params["fourier"]
    assert k + l == 1
    assert four_step.kind == "four-step" and four_step.wires == ((0,) if k else (1,))
    assert np.max(np.abs(four_step_product(four_step.params["kappas"]) - fourier_power(-1).matrix)) < 1e-12
    assert sorted(wire_steps(program)) == [4, 8]
    assert report.replay_residual < 1e-9


def test_compile_rejects_non_symplectic():
    from cvcluster import SymplecticMap

    bad = SymplecticMap(1, np.array([[1.1, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not symplectic"):
        compile(bad)


def test_compile_checks_the_target_at_the_symplectic_tolerance():
    # A residual of 3.8e-9 fails at compile's own check of the target, not
    # later at a check of a Bloch-Messiah passive.  The tolerance is 1e-10
    # times max|target|^2 (2.036^2 here).
    matrix = random_symplectic(3, 1).matrix.copy()
    matrix[0, 0] += 5e-9
    with pytest.raises(ValueError) as err:
        compile(SymplecticMap(3, matrix))
    assert str(err.value) == (
        "matrix is not symplectic: max violation 3.834e-09 at entry (0, 3)"
        " exceeds tolerance 4.1e-10"
    )


def test_compile_accepts_high_squeezing():
    # The symplectic check and the replay check both scale with the entries:
    # at r = 6 and r = 7 they are ~1e3, and absolute tolerances refused these.
    program, report = compile(squeeze(7.0))
    assert report.replay_residual <= 1e-9 * np.exp(7.0)
    squeezer = compose_many(rotation(2.4750437103042957), squeeze(6.0), rotation(-1.2842497998790938))
    target = compose(random_symplectic(3, 1599464955), embed(squeezer, 3, [1]))
    assert symplectic_residual(target) > 3e-10
    program, report = compile(target)
    assert report.replay_residual <= 1e-9 * np.max(np.abs(target.matrix))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 3),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    wire=st.integers(0, 2),
    r=st.floats(2.0, 6.0),
    phi=st.floats(-np.pi, np.pi),
    psi=st.floats(-np.pi, np.pi),
)
@example(n=3, seed=None, wire=0, r=5.0, phi=0.3, psi=1.1)
def test_compile_holds_at_high_squeezing(n, seed, wire, r, phi, psi):
    # One strong squeezer after a random map (the identity for seed None),
    # as in test_bloch_messiah_holds_at_high_squeezing.  The program
    # replays the target to 1e-9 relative, and every chain that the sweep
    # accepts reproduces its gate to round-off.
    base = identity(n) if seed is None else random_symplectic(n, seed)
    squeezer = compose_many(rotation(phi), squeeze(r), rotation(psi))
    target = compose(base, embed(squeezer, n, [wire % n]))
    real, swept = multimode._two_mode_chains, []

    def sweep(gates):
        table, chains = real(gates)
        swept.extend(zip(gates, table, chains))
        return table, chains

    with unittest.mock.patch.object(multimode, "_two_mode_chains", sweep):
        _, report = compile(target)
    assert report.replay_residual <= 1e-9 * np.max(np.abs(target.matrix))
    for (t, _, _), excess, chains in swept:
        for variant in np.flatnonzero(np.isfinite(excess)):
            assert_round_off(t, variant, chains[variant])


@pytest.mark.parametrize("n", [3, 4, 6])
def test_the_triangle_is_stable_under_round_off(n):
    # An output whose rows already sit on one wire (random_symplectic's
    # nearest-neighbour layers leave such zeros) is swapped onward, and
    # its blocks are balanced already, where the SVD's axes are arbitrary.
    # The gauge then keeps them, and the complement is taken nearest the
    # wire's axes, so a 1e-14 change to the target moves no gate by more
    # than round-off times its conditioning.
    rng = np.random.default_rng(n)
    for seed in range(4):
        matrix = random_symplectic(n, seed).matrix
        first, gates, last, ports = multimode._triangle(matrix)
        moved = multimode._triangle(matrix + 1e-14 * rng.normal(size=matrix.shape))
        assert moved[3] == ports
        for (_, core, _), (_, other, _) in zip(gates, moved[1]):
            assert np.max(np.abs(core - other)) < 1e-10
        # S = Pi D G_m^-1 ... G_0^-1 L^-1
        product = np.eye(2 * n)
        for wire, a in enumerate(first):
            product = embed(SymplecticMap(1, a), n, [wire]).matrix @ product
        for pair, core, _ in gates:
            product = embed(SymplecticMap(2, core), n, list(pair)).matrix @ product
        for wire, d in enumerate(last):
            product = embed(SymplecticMap(1, d), n, [wire]).matrix @ product
        rows = wire_order(ports)
        assert np.max(np.abs(product - matrix[rows])) < 1e-13


def test_compiled_connection_steps_match_angles():
    # Each connection gate measures its two wire nodes at arctan(kappa1) and
    # arctan(kappa2), then its control node, coupled to both, at
    # arctan2(1, eta3): three scheduled homodynes per connection gate.
    target = beam_splitter_matrix(0.3)
    program, report = compile(target)
    (rec,) = report.step_params
    assert rec.kind == "two-mode" and len(program.schedule) == 12
    expected = [
        angle
        for kappa1, kappa2, eta3 in rec.params["connections"]
        for angle in (np.arctan(kappa1), np.arctan(kappa2), np.arctan2(1.0, eta3))
    ]
    assert [entry.angle for entry in program.schedule] == expected
    controls = [entry.node_id for entry in program.schedule[2::3]]
    assert [sum(node == new for _, new in program.graph.edges) for node in controls] == [2] * 4
