"""Connection gates, Bloch-Messiah, splitter meshes, and full compilation."""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvcluster import (
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
from cvcluster.ir import ROLE_INPUT, ROLE_OUTPUT
from cvcluster.symplectic import SYMPLECTIC_TOL
from oracles import bloch_messiah_product, four_step_product, mesh_census


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
    assume(symplectic_residual(target) <= SYMPLECTIC_TOL)  # what bloch_messiah accepts
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


def test_compile_equal_squeezers_needs_no_splitter():
    squeezers = compose(embed(squeeze(0.8), 2, [0]), embed(squeeze(0.8), 2, [1]))
    _, report = compile(squeezers)
    assert report.ancilla_count == 8
    assert Counter(record.kind for record in report.step_params) == {"four-step": 2}
    assert report.replay_residual < 1e-9


def test_pad_fourier_commutes_through_beam_splitters():
    # equal leftover pad Fourier powers on both wires commute through a
    # phase-free beam splitter; this is what lets the compiler defer their
    # compensation across splitter columns
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


def test_compile_pure_balanced_splitter():
    target = beam_splitter_matrix(0.5)
    program, report = compile(target)
    assert report.ancilla_count == 9
    assert report.replay_residual < 1e-9
    census = Counter(record.kind for record in report.step_params)
    assert census.get("connection") == 3
    assert "four-step" not in census


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
        # ancilla census: 4 per chain block (gates and 4-step pads),
        # 3 per connection step and its 3-step pads
        expected = 0
        for rec in report.step_params:
            if rec.kind == "connection":
                expected += 3
            else:
                expected += len(rec.params["kappas"])
        assert report.ancilla_count == expected
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


def undoes_its_compensation(rec) -> bool:
    """Whether a four-step record is an identity gate: its steps apply
    exactly the inverse of the pad Fourier transforms it compensates."""
    steps = four_step_product(rec.params["kappas"])
    undo = fourier_power(-rec.params.get("fourier_compensation", 0))
    return bool(np.max(np.abs(steps - undo.matrix)) < 1e-12)


#: Splitters whose two wires owe different pad powers.
TWO_SPLITTERS = compose(
    embed(beam_splitter_matrix(0.3), 3, [1, 2]),
    embed(beam_splitter_matrix(0.5), 3, [0, 1]),
)
#: As TWO_SPLITTERS on four modes, with a rotation whose column can take identity gates.
FOLD = compose(
    embed(beam_splitter_matrix(0.3), 4, [1, 2]),
    compose(embed(rotation(0.4), 4, [3]), embed(beam_splitter_matrix(0.5), 4, [0, 1])),
)
#: Two splitters on disjoint pairs.
DISJOINT = compose(
    embed(beam_splitter_matrix(0.3), 4, [2, 3]),
    embed(beam_splitter_matrix(0.5), 4, [0, 1]),
)


def test_compile_flushes_pad_fourier_transforms():
    # A splitter column pads each idle wire with F^3.  The wire's next real
    # gate undoes it (fourier_compensation); a splitter on two wires owing
    # different powers, and the end of the program, get an identity four-step
    # gate that undoes it in the column before.  Bloch-Messiah leaves these
    # passive targets whole in the first mesh (the second passive is I).
    _, report = compile(embed(beam_splitter_matrix(0.5), 3, [0, 1]))
    assert report.ancilla_count == 24
    gates = [rec for rec in report.step_params if rec.kind == "four-step"]
    assert [(rec.wires, rec.column) for rec in gates] == [((2,), 1)]
    assert undoes_its_compensation(gates[0])
    assert gates[0].params["fourier_compensation"] == 3
    assert report.replay_residual < 1e-9

    # Identity gates before the splitter on (1, 2) and at the end.
    _, report = compile(TWO_SPLITTERS)
    assert report.ancilla_count == 48
    gates = [rec for rec in report.step_params if rec.kind == "four-step"]
    assert [(rec.wires, rec.column) for rec in gates] == [((2,), 1), ((0,), 3)]
    assert all(undoes_its_compensation(rec) for rec in gates)
    assert all(rec.params["fourier_compensation"] == 3 for rec in gates)
    kinds = {rec.column: rec.kind for rec in report.step_params if rec.kind != "pad"}
    assert kinds == {0: "connection", 1: "four-step", 2: "connection", 3: "four-step"}
    assert report.replay_residual < 1e-9

    # The end's identity gate shares column 3 with the rotation, a real gate
    # that compensates without an identity gate: 62 ancillas in 4 columns.
    program, report = compile(FOLD)
    assert report.ancilla_count == 62
    gates = [rec for rec in report.step_params if rec.kind == "four-step"]
    assert 1 + max(rec.column for rec in report.step_params) == 4
    shared = {rec.column for rec in gates if undoes_its_compensation(rec)} & {
        rec.column for rec in gates if not undoes_its_compensation(rec)
    }
    assert sorted(shared) == [3]
    (compensated,) = [rec for rec in gates if rec.wires == (3,)]
    assert compensated.params["fourier_compensation"] == 2
    assert not undoes_its_compensation(compensated)
    assert report.replay_residual < 1e-9
    excess = np.trace(exact_replay(program).excess_covariance(db_to_r(10.0)))
    assert excess == pytest.approx(1.8235, abs=1e-4)

    # The disjoint splitters on (0, 1) and (2, 3) share column 0, and no
    # wire owes a count: 18 ancillas in 1 column.
    _, report = compile(DISJOINT)
    assert report.ancilla_count == 18
    assert {(rec.wires, rec.column) for rec in report.step_params} == {
        ((0, 1), 0),
        ((2, 3), 0),
    }
    assert report.replay_residual < 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_compile_packs_disjoint_splitters_into_columns(n):
    # Each passive is a mesh of at most n splitter layers, so the program has
    # at most 2n splitter columns, each after at most one one-mode column,
    # and one final one-mode column.
    for seed in range(2):
        _, report = compile(random_symplectic(n, seed))
        pairs = {}
        for rec in report.step_params:
            if rec.kind == "connection" and rec.params["step"] == 0:
                pairs.setdefault(rec.column, []).append(rec.wires)
        for column, wires in pairs.items():
            used = [w for pair in wires for w in pair]
            assert len(used) == len(set(used)), (column, wires)
        assert len(pairs) <= 2 * n
        assert 1 + max(rec.column for rec in report.step_params) <= 4 * n + 1
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


def test_compile_keeps_wires_step_aligned():
    # Every column advances every wire by the same number of steps; a
    # connection record is one step on each of its two wires.
    targets = [random_symplectic(n, seed) for n in range(2, 6) for seed in range(4)]
    targets += [embed(beam_splitter_matrix(0.5), 3, [0, 1]), TWO_SPLITTERS, FOLD, DISJOINT]
    targets += splitter_products(40)
    flushed = 0
    for target in targets:
        _, report = compile(target)
        steps = {}
        for rec in report.step_params:
            column = steps.setdefault(rec.column, dict.fromkeys(range(target.n), 0))
            for wire in rec.wires:
                column[wire] += 1 if rec.kind == "connection" else len(rec.params["kappas"])
        assert sorted(steps) == list(range(len(steps)))
        for column, advance in steps.items():
            assert len(set(advance.values())) == 1, (column, advance)
        flushed += sum(
            rec.kind == "four-step" and undoes_its_compensation(rec)
            for rec in report.step_params
        )
    assert flushed > 0


def test_compile_refuses_a_wrong_lowering(monkeypatch):
    import cvcluster.multimode as multimode
    from cvcluster import CompileError, decompose_four_step

    wrong = decompose_four_step(identity(1))
    monkeypatch.setattr(multimode, "decompose_four_step", lambda *args, **kwargs: wrong)
    with pytest.raises(CompileError, match=r"at entry \(\d, \d\)"):
        compile(squeeze(0.5))


def cluster_structure(program) -> tuple:
    """A program's graph (nodes and edges) and schedule node order."""
    graph = program.graph
    return graph.nodes, graph.edges, tuple(entry.node_id for entry in program.schedule)


@functools.cache
def reference_program(n: int):
    return compile(random_symplectic(n, 0))[0]


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), seed=st.integers(1, 2**32 - 1))
def test_generic_targets_of_one_n_compile_to_one_fixed_cluster(n, seed):
    # The paper's claim: one finite cluster per n realises every generic
    # target; only the homodyne angles and the feedforward depend on it.
    program, reference = compile(random_symplectic(n, seed))[0], reference_program(n)
    assert cluster_structure(program) == cluster_structure(reference)
    angles = [entry.angle for entry in program.schedule]
    assert angles != [entry.angle for entry in reference.schedule]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_four_step_gate_records_its_share_of_the_excess(n):
    # A gate's recorded excess tr(W K K^T) is the sum of |N[:, j]|^2 over its
    # four ancillas' columns of the executor's noise response N.  Records
    # follow the order in which the builder creates ancillas.
    for seed in range(4):
        program, report = compile(random_symplectic(n, seed))
        noise = program.replay.noise_response
        start = gates = 0
        for rec in report.step_params:
            width = 3 if rec.kind == "connection" else len(rec.params["kappas"])
            if rec.kind == "four-step":
                share = float(np.sum(noise[:, start : start + 4] ** 2))
                assert rec.params["excess"] == pytest.approx(share, rel=1e-9)
                gates += 1
            start += width
        assert start == noise.shape[1] and gates > n


def test_compile_multimode_identity():
    # no gates from the factorization: wires still get explicit chains
    program, report = compile(identity(2))
    assert report.replay_residual < 1e-12
    assert report.ancilla_count == 8


def test_compile_rejects_non_symplectic():
    from cvcluster import SymplecticMap

    bad = SymplecticMap(1, np.array([[1.1, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not symplectic"):
        compile(bad)


def test_compile_checks_the_target_at_the_symplectic_tolerance():
    # A residual of 3.8e-10 fails at compile's own check of the target, not
    # later at a check of a Bloch-Messiah passive.
    matrix = random_symplectic(3, 1).matrix.copy()
    matrix[0, 0] += 5e-10
    with pytest.raises(ValueError) as err:
        compile(SymplecticMap(3, matrix))
    assert str(err.value) == (
        "matrix is not symplectic: max violation 3.834e-10 at entry (0, 3)"
        " exceeds tolerance 1.0e-10"
    )


def test_compiled_connection_steps_match_angles():
    # every connection step contributes exactly three scheduled homodynes
    target = beam_splitter_matrix(0.3)
    program, report = compile(target)
    census = Counter(record.kind for record in report.step_params)
    assert census["connection"] == 3
    assert len(program.schedule) == 9
    controller_angles = [
        entry.angle for entry in program.schedule if entry.angle > np.pi / 2
    ]
    # eta3 < 0 for R < 1: controller angle atan2(1, eta3) lies in (pi/2, pi)
    assert len(controller_angles) == 3
