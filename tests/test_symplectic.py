"""Elementary symplectic constructors and their algebra."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvcluster import (
    SymplecticMap,
    beam_splitter_matrix,
    compose,
    embed,
    fourier,
    identity,
    random_symplectic,
    require_symplectic,
    rotation,
    squeeze,
    symplectic_residual,
)
from oracles import elementary_matrix

F = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_rotation_special_angles():
    assert_allclose(rotation(0.0).matrix, np.eye(2), atol=0)
    assert_allclose(rotation(np.pi / 2).matrix, F, atol=1e-15)
    assert_allclose(rotation(np.pi).matrix, -np.eye(2), atol=1e-15)
    assert_allclose(fourier().matrix, F, atol=0)


def test_elementary_step():
    assert_allclose(elementary_matrix(0.0), F, atol=0)
    assert_allclose(elementary_matrix(1.0), [[-1, -1], [1, 0]], atol=0)


def test_elementary_step_is_fourier_after_shear():
    # Equal to double precision; rotation(pi/2) carries the cos(pi/2) ulp.
    rng = np.random.default_rng(1)
    for kappa in rng.uniform(-10, 10, size=50):
        built = rotation(np.pi / 2).matrix @ np.array([[1.0, 0.0], [kappa, 1.0]])
        assert_allclose(built, elementary_matrix(kappa), atol=1e-14)


def test_two_step_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k1, k2 = rng.uniform(-3, 3, size=2)
        product = elementary_matrix(k2) @ elementary_matrix(k1)
        closed = np.array([[k2 * k1 - 1.0, k2], [-k1, -1.0]])
        assert_allclose(product, closed, atol=1e-14)


def test_four_step_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        k1, k2, k3, k4 = rng.uniform(-3, 3, size=4)
        product = (
            elementary_matrix(k4) @ elementary_matrix(k3)
            @ elementary_matrix(k2) @ elementary_matrix(k1)
        )
        closed = np.array(
            [
                [
                    k4 * k3 * k2 * k1 - k4 * k3 - k2 * k1 - k4 * k1 + 1.0,
                    k4 * k3 * k2 - k4 - k2,
                ],
                [-k3 * k2 * k1 + k3 + k1, -k3 * k2 + 1.0],
            ]
        )
        assert_allclose(product, closed, atol=1e-12)


def test_squeeze():
    assert_allclose(squeeze(0.0).matrix, np.eye(2), atol=0)
    assert_allclose(squeeze(np.log(2)).matrix, np.diag([2.0, 0.5]), atol=1e-15)
    assert_allclose(
        compose(squeeze(0.7), squeeze(-0.7)).matrix, np.eye(2), atol=1e-15
    )


def test_beam_splitter_blocks():
    full = beam_splitter_matrix(1.0).matrix
    assert_allclose(full[:2, :2], [[1, 0], [0, -1]], atol=0)
    assert_allclose(full[2:, 2:], [[1, 0], [0, -1]], atol=0)
    assert_allclose(full[:2, 2:], 0, atol=0)
    half = beam_splitter_matrix(0.5).matrix
    assert_allclose(half[:2, :2], np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


def test_beam_splitter_is_involution():
    rng = np.random.default_rng(4)
    for reflectivity in rng.uniform(0, 1, size=25):
        bs = beam_splitter_matrix(reflectivity)
        assert_allclose(compose(bs, bs).matrix, np.eye(4), atol=1e-15)


def test_beam_splitter_domain():
    with pytest.raises(ValueError):
        beam_splitter_matrix(1.2)
    with pytest.raises(ValueError):
        beam_splitter_matrix(-0.1)


def test_compose():
    x = random_symplectic(1, 10)
    assert_allclose(compose(identity(1), x).matrix, x.matrix, atol=0)
    f = rotation(np.pi / 2)
    assert_allclose(compose(f, f).matrix, -np.eye(2), atol=1e-15)
    assert symplectic_residual(compose(x, random_symplectic(1, 11))) < 1e-10
    with pytest.raises(ValueError):
        compose(identity(1), identity(2))


def test_compose_displacement():
    a = SymplecticMap(1, squeeze(0.3).matrix, [1.0, 2.0])
    b = SymplecticMap(1, rotation(0.4).matrix, [-0.5, 0.25])
    ab = compose(a, b)
    assert_allclose(ab.displacement, a.matrix @ b.displacement + a.displacement)
    assert_allclose(ab.matrix, a.matrix @ b.matrix)


def test_embed():
    assert_allclose(embed(identity(1), 3, [1]).matrix, np.eye(6), atol=0)
    m = embed(fourier(), 2, [1]).matrix
    # mode 0 untouched
    assert_allclose(m[[0, 2]][:, [0, 2]], np.eye(2), atol=0)
    assert_allclose(m[[1, 3]][:, [1, 3]], F, atol=0)
    assert symplectic_residual(m) < 1e-12
    with pytest.raises(ValueError):
        embed(beam_splitter_matrix(0.5), 3, [1, 1])


def test_constructors_are_symplectic():
    cases = [
        rotation(0.3),
        elementary_matrix(-1.5),
        squeeze(0.8),
        beam_splitter_matrix(0.37),
        embed(squeeze(0.5), 4, [2]),
    ]
    for m in cases:
        assert symplectic_residual(m) < 1e-10


def test_require_symplectic_rejects_non_finite_entries():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="not symplectic"):
            require_symplectic(np.array([[bad, 1.0], [-1.0, 0.0]]))


def test_random_symplectic():
    a = random_symplectic(3, 123)
    b = random_symplectic(3, 123)
    assert_allclose(a.matrix, b.matrix, atol=0)
    assert symplectic_residual(a) < 1e-10
    one = random_symplectic(1, 7)
    assert abs(np.linalg.det(one.matrix) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SymplecticMap(1, np.eye(4)), "matrix shape (4, 4) does not match n=1"),
        (lambda: SymplecticMap(1, np.eye(2), [0.0]), "displacement shape (1,) does not match n=1"),
        (lambda: identity(2).abcd(), "abcd() is defined for one-mode maps only"),
        (lambda: embed(squeeze(0.3), 2, [2]), "mode indices [2] out of range for n=2"),
        (lambda: embed(squeeze(0.3), 2, [0, 1]), "expected 1 mode indices, got 2"),
        (lambda: random_symplectic(0), "n must be >= 1"),
    ],
    ids=[
        "matrix-shape", "displacement-shape", "abcd-two-mode",
        "embed-mode-out-of-range", "embed-mode-count", "no-modes",
    ],
)
def test_bad_arguments_are_named(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
