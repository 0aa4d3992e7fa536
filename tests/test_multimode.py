"""Connection gates, Bloch-Messiah, Reck networks, and full compilation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import (
    ConnectionGateParams,
    beam_splitter_matrix,
    beam_splitter_program,
    bloch_messiah,
    compile,
    connection_gate,
    embed,
    exact_replay,
    identity,
    random_symplectic,
    reck_decompose,
    rotation,
    squeeze,
    symplectic_residual,
)
from cvcluster.ir import ROLE_INPUT, ROLE_OUTPUT


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
    assert_allclose(factors.reconstruct(), target.matrix, atol=1e-9)


def test_bloch_messiah_random():
    for seed in range(20):
        target = random_symplectic(3, seed)
        factors = bloch_messiah(target)
        assert_allclose(factors.reconstruct(), target.matrix, atol=1e-9)
        for passive in (factors.passive_out, factors.passive_in):
            assert symplectic_residual(passive) < 1e-10
            assert np.max(np.abs(passive.matrix.T @ passive.matrix - np.eye(6))) < 1e-10
        assert all(r >= -1e-12 for r in factors.squeezings)


def test_reck_counts_n1():
    network = reck_decompose(rotation(0.7))
    assert network.beam_splitter_count() == 0
    assert network.phase_shifter_count() == 1
    assert_allclose(network.matrix(), rotation(0.7).matrix, atol=1e-12)


def test_reck_balanced_splitter():
    network = reck_decompose(beam_splitter_matrix(0.5))
    bs = [el for el in network.elements if el.kind == "bs"]
    assert len(bs) == 1
    assert bs[0].value == pytest.approx(0.5)
    assert np.max(np.abs(network.matrix() - beam_splitter_matrix(0.5).matrix)) < 1e-10


def test_reck_random_passive():
    for seed in range(10):
        factors = bloch_messiah(random_symplectic(3, 50 + seed))
        for passive in (factors.passive_out, factors.passive_in):
            network = reck_decompose(passive)
            assert network.beam_splitter_count() <= 3
            assert network.phase_shifter_count() <= 6
            assert np.max(np.abs(network.matrix() - passive.matrix)) < 1e-9


def test_reck_rejects_active_maps():
    with pytest.raises(ValueError):
        reck_decompose(squeeze(0.5))


def test_pad_fourier_commutes_through_beam_splitters():
    # equal leftover pad Fourier powers on both wires commute through a
    # phase-free beam splitter; this is what lets the compiler defer their
    # compensation across splitter columns
    from cvcluster import compose, fourier_power

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
    census = report.gate_census()
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


def test_compile_flushes_pad_fourier_transforms():
    # A splitter column pads each idle wire with F^3.  The wire's next real
    # gate undoes it (fourier_compensation); a splitter on two wires owing
    # different powers, and the end of the program, flush it first with an
    # identity four-step gate.
    from cvcluster import compose

    _, report = compile(embed(beam_splitter_matrix(0.5), 3, [0, 1]))
    assert report.ancilla_count == 24
    gates = [rec for rec in report.step_params if rec.kind == "four-step"]
    assert [(rec.wires, rec.column) for rec in gates] == [((2,), 1)]
    assert gates[0].params["flush"] is True
    assert gates[0].params["fourier_compensation"] == 3
    assert report.replay_residual < 1e-9

    target = compose(
        embed(beam_splitter_matrix(0.3), 3, [1, 2]),
        embed(beam_splitter_matrix(0.5), 3, [0, 1]),
    )
    _, report = compile(target)
    assert report.ancilla_count == 120
    flushes = [rec for rec in report.step_params if rec.params.get("flush")]
    assert [rec.column for rec in flushes] == [3, 7, 9]
    assert all(rec.params["fourier_compensation"] == 3 for rec in flushes)
    kinds = {rec.column: rec.kind for rec in report.step_params if rec.kind != "pad"}
    assert kinds[4] == kinds[8] == "connection"
    assert max(kinds) == 9
    # a real gate compensates without a flush
    (compensated,) = [
        rec for rec in report.step_params if rec.column == 1 and rec.kind == "four-step"
    ]
    assert compensated.params["fourier_compensation"] == 3
    assert "flush" not in compensated.params
    assert report.replay_residual < 1e-9


def test_compile_refuses_a_wrong_lowering(monkeypatch):
    import cvcluster.multimode as multimode
    from cvcluster import CompileError, decompose_four_step

    wrong = decompose_four_step(identity(1))
    monkeypatch.setattr(multimode, "decompose_four_step", lambda *args, **kwargs: wrong)
    with pytest.raises(CompileError, match=r"at entry \(\d, \d\)"):
        compile(squeeze(0.5))


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


def test_compiled_connection_steps_match_angles():
    # every connection step contributes exactly three scheduled homodynes
    target = beam_splitter_matrix(0.3)
    program, report = compile(target)
    census = report.gate_census()
    assert census["connection"] == 3
    assert len(program.schedule) == 9
    controller_angles = [
        entry.angle for entry in program.schedule if entry.angle > np.pi / 2
    ]
    # eta3 < 0 for R < 1: controller angle atan2(1, eta3) lies in (pi/2, pi)
    assert len(controller_angles) == 3
