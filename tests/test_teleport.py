"""Teleportation coupling: M_tel algebra and the teleport+two-step synthesis."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvcluster import (
    DegenerateMeasurementError,
    SingularParameterError,
    SymplecticMap,
    TelepAngles,
    canonicalize,
    decompose_telep_plus_two,
    fourier,
    identity,
    mtel,
    random_symplectic,
    rotation,
    squeeze,
    symplectic_residual,
)
from cvcluster.single_mode import RECONSTRUCTION_TOL
from cvcluster.teleport import BELL_SPLITTER, _wrap_angle, select_free_theta0, telep_noise_proxy

from oracles import (
    d_one_family,
    d_zero_family,
    grid_free_theta0,
    mtel_factored,
    near_d_one_targets,
    telep_plus_two_product,
)


def proxy(params) -> float:
    return telep_noise_proxy(params.angles, params.kappa3, params.kappa4)


def test_mtel_identity():
    assert_allclose(mtel(0.0, 0.0).matrix, np.eye(2), atol=0)


def test_mtel_pure_rotation():
    assert_allclose(mtel(np.pi / 2, 0.0).matrix, [[0, 1], [-1, 0]], atol=1e-15)
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-1.4, 1.4, size=100):
        assert_allclose(
            mtel(theta, 0.0).matrix, rotation(-theta).matrix, atol=1e-12
        )


def test_mtel_diagonal_squeeze():
    theta_minus = np.pi / 6
    r = np.arctanh(np.sin(theta_minus))
    expected = np.array(
        [[np.cosh(r), np.sinh(r)], [np.sinh(r), np.cosh(r)]]
    )
    assert_allclose(mtel(0.0, theta_minus).matrix, expected, atol=1e-12)


def test_mtel_determinant_one():
    rng = np.random.default_rng(1)
    for _ in range(200):
        tp = rng.uniform(-np.pi, np.pi)
        tm = rng.uniform(-1.4, 1.4)
        m = mtel(tp, tm).matrix
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_mtel_degenerate():
    with pytest.raises(DegenerateMeasurementError):
        mtel(0.3, np.pi / 2)
    with pytest.raises(DegenerateMeasurementError):
        mtel(0.0, 3 * np.pi / 2)


def test_mtel_sandwich_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        tp = rng.uniform(-np.pi, np.pi)
        tm = rng.uniform(-1.4, 1.4)
        whole = mtel(tp, tm).matrix
        split = mtel(tp / 2, 0.0).matrix @ mtel(0.0, tm).matrix @ mtel(tp / 2, 0.0).matrix
        assert_allclose(whole, split, atol=1e-12)


def test_canonicalize():
    ok = TelepAngles(0.2, 0.1)
    assert canonicalize(ok) == ok
    # theta_plus = 0, theta_minus = pi: flipped to (pi, 2 pi) equivalents
    flipped = canonicalize(TelepAngles(np.pi / 2, -np.pi / 2))
    assert np.cos(flipped.theta_minus) > 0
    assert np.cos(flipped.theta_plus) == pytest.approx(-1.0)
    before = mtel(0.0, np.pi).matrix
    after = mtel(flipped.theta_plus, flipped.theta_minus).matrix
    assert_allclose(before, after, atol=1e-12)
    assert canonicalize(canonicalize(flipped)) == canonicalize(flipped)


def test_mtel_factored():
    # theta_plus = 0: plain 45-degree squeeze chain
    phi1, r, phi2 = mtel_factored(0.0, 0.4)
    assert phi1 == pytest.approx(np.pi / 4)
    assert phi2 == pytest.approx(-np.pi / 4)
    assert np.tanh(r) == pytest.approx(np.sin(0.4))
    # theta_minus = 0: the two rotations compose to R(-theta_plus)
    phi1, r, phi2 = mtel_factored(0.9, 0.0)
    assert r == 0.0
    assert_allclose(
        (rotation(phi1).matrix @ rotation(phi2).matrix),
        rotation(-0.9).matrix,
        atol=1e-12,
    )
    rng = np.random.default_rng(3)
    for _ in range(100):
        tp = rng.uniform(-np.pi, np.pi)
        tm = rng.uniform(-1.4, 1.4)
        phi1, r, phi2 = mtel_factored(tp, tm)
        rebuilt = rotation(phi1).matrix @ squeeze(r).matrix @ rotation(phi2).matrix
        assert_allclose(rebuilt, mtel(tp, tm).matrix, atol=1e-12)


def test_ab_locus_is_a_circle():
    # For fixed squeeze r, (a, b) entries trace a circle centred at
    # (0, sinh r) of radius cosh r, which passes through (+-1, 0).
    for r in (-0.7, 0.0, 0.9):
        centre = np.array([0.0, np.sinh(r)])
        radius = np.cosh(r)
        tm = np.arcsin(np.tanh(r))
        for theta in np.linspace(-np.pi, np.pi, 37):
            m = mtel(theta, tm).matrix
            point = np.array([m[0, 0], m[0, 1]])
            assert abs(np.linalg.norm(point - centre) - radius) < 1e-10
        for on_axis in (np.array([1.0, 0.0]), np.array([-1.0, 0.0])):
            assert abs(np.linalg.norm(on_axis - centre) - radius) < 1e-12


def test_telep_plus_two_identity():
    params = decompose_telep_plus_two(identity(1), theta0=np.pi / 2)
    assert params.kappa3 == pytest.approx(0.0, abs=1e-12)
    assert params.kappa4 == pytest.approx(0.0, abs=1e-12)
    assert_allclose(params.reconstruct().matrix, np.eye(2), atol=1e-12)


def test_select_identity_exact_half_pi():
    assert select_free_theta0(identity(1)) == np.pi / 2


def test_pinned_theta0_must_be_finite():
    for theta0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(SingularParameterError, match=f"theta0={theta0} is not finite"):
            decompose_telep_plus_two(fourier(), theta0=theta0)


def test_rotation_by_pi_family_decomposes_at_theta0_zero():
    # (-1 b; 0 -1) zeroes the cot(theta1) denominator 2c - (1 + d) cot(theta0)
    # for every theta0 while its numerator 1 - d = 2 stays, so theta1 = 0.  In
    # v = 1/cot(theta0) the proxy is 4 + 6 v^2 + 4 b v + b^2, smallest at
    # v = -b/3 with 4 + b^2/3.  For b = 0 that is v = 0, theta0 = 0, where the
    # closed forms have the finite limits theta1 = 0, kappa3 = c, kappa4 = b.
    for target in (rotation(np.pi), SymplecticMap(1, -np.eye(2))):
        params = decompose_telep_plus_two(target)
        assert params.free_param == 0.0
        assert proxy(params) == 4.0
        assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-12
    for b in (0.7, -2.0):
        target = SymplecticMap(1, np.array([[-1.0, b], [0.0, -1.0]]))
        params = decompose_telep_plus_two(target)
        assert params.angles.theta1 == 0.0
        assert proxy(params) == pytest.approx(4.0 + b * b / 3.0, rel=1e-12)
        assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(b=st.floats(-10.0, 10.0), c=st.floats(-10.0, 10.0))
@example(b=0.0, c=2.225073858507e-311)  # the root of a subnormal-led linear overflows
def test_d_minus_one_family_decomposes_within_its_theta0_zero_proxy(b, c):
    # (a b; c -1) with a = -1 - bc: at theta0 = 0, theta1 = atan(c) mod pi,
    # kappa3 = c and kappa4 = b reproduce it exactly with proxy 4 + 3c^2 + b^2.
    target = SymplecticMap(1, np.array([[-1.0 - b * c, b], [c, -1.0]]))
    params = decompose_telep_plus_two(target)
    limit = RECONSTRUCTION_TOL * max(1.0, np.max(np.abs(target.matrix)))
    assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) <= limit
    assert proxy(params) <= (4.0 + 3.0 * c * c + b * b) * (1.0 + 1e-12)
    at_zero = decompose_telep_plus_two(target, theta0=0.0)
    assert (at_zero.kappa3, at_zero.kappa4) == (c + 0.0, b + 0.0)
    assert np.max(np.abs(at_zero.reconstruct().matrix - target.matrix)) <= limit


def test_pinned_theta0_zero_needs_d_minus_one():
    # Only for d = -1 do the closed forms have finite limits at theta0 = 0.
    target = SymplecticMap(1, np.array([[2.0, 0.5], [0.0, 0.5]]))
    for theta0 in (0.0, np.pi):
        with pytest.raises(SingularParameterError) as err:
            decompose_telep_plus_two(target, theta0=theta0)
        assert str(err.value) == f"theta0={theta0}: cot(theta0) diverges"


def test_select_on_the_theta1_zero_edge():
    # u = cot(theta0) = 2c/(1 + d) = 2 zeroes the cot(theta1) denominator of
    # (-3 -1; 1 0), where its proxy 4 + (1 - u)^2 + (1 - u)^4 / 2 + (4 - u)^2
    # is smallest: there theta1 = 0 and the proxy is 9.5.
    target = SymplecticMap(1, np.array([[-3.0, -1.0], [1.0, 0.0]]))
    params = decompose_telep_plus_two(target)
    assert 1.0 / np.tan(params.free_param) == pytest.approx(2.0, abs=1e-12)
    assert abs(params.angles.theta1) < 1e-12
    assert proxy(params) == pytest.approx(9.5, rel=1e-12)
    assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-12


def test_select_never_worse_than_grid_oracle():
    targets = [random_symplectic(1, seed) for seed in range(1000)]
    for target in targets + d_zero_family() + d_one_family():
        params = decompose_telep_plus_two(target)
        oracle = proxy(decompose_telep_plus_two(target, theta0=grid_free_theta0(target)))
        assert proxy(params) <= oracle * (1.0 + 1e-12)
        assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-9


def test_select_at_d_equal_one():
    # d = 1 puts the kappa4 pole cot(theta0) = c/d on the theta1 chart edge
    # 2c/(1 + d).  The proxy is 4 + (c - 2u)^2 + 2u^2 + b^2 in u = cot(theta0),
    # smallest at u = c/3.
    target = SymplecticMap(1, np.array([[1.05, 0.5], [0.1, 1.0]]))
    params = decompose_telep_plus_two(target)
    assert 1.0 / np.tan(params.free_param) == pytest.approx(0.1 / 3.0, rel=1e-9)
    assert proxy(params) == pytest.approx(4.0 + 0.01 / 3.0 + 0.25, rel=1e-12)
    assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-12


def test_pinned_theta0_at_the_kappa4_zero_over_zero():
    # At d = 1 and cot(theta0) = c the kappa4 formula is 0/0 with limit -b.
    for a, b, c in ((1.0, 2.0, 0.0), (2.5, 3.0, 0.5)):
        target = SymplecticMap(1, np.array([[a, b], [c, 1.0]]))
        params = decompose_telep_plus_two(target, theta0=np.arctan2(1.0, c))
        assert params.kappa4 == -b
        assert_allclose(params.reconstruct().matrix, target.matrix, atol=1e-12)


def test_pinned_theta0_of_a_degenerate_teleportation_is_singular():
    # theta1 = theta0 - pi/2 puts theta_minus at pi/2.  Solving
    # cot(theta1) = (1 - d) / (2c - (1 + d) cot(theta0)) = -tan(theta0) for c
    # gives c = d cot(theta0), where the kappa4 denominator c - d cot(theta0)
    # vanishes too; with b = 0 and det 1 its numerator 1 - a = 1 - 1/d is
    # within the 0/0 tolerance at d = 1 - 2^-30.  With cot(theta0) = 4 every
    # step of the closed forms is exact.
    theta0 = math.atan2(1.0, 4.0)
    assert np.cos(theta0) / np.sin(theta0) == 4.0
    d = 1.0 - 2.0 ** -30
    target = SymplecticMap(1, np.array([[1.0 / d, 0.0], [4.0 * d, d]]))
    with pytest.raises(SingularParameterError, match="theta0 leads to a degenerate teleportation"):
        decompose_telep_plus_two(target, theta0=theta0)


def test_select_reproduces_targets_next_to_d_equal_one():
    # Within ~1e-5 of d = 1 the proxy dips next to the pole cot(theta0) = c/d,
    # where the closed forms lose up to ~1e-7; the selector keeps only
    # candidates that reproduce the target.
    for target in near_d_one_targets():
        params = decompose_telep_plus_two(target)
        assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-9


def test_select_finds_global_optimum_the_grid_misses():
    # The grid search stopped in a local minimum at proxy 11.305.
    target = random_symplectic(1, 601)
    params = decompose_telep_plus_two(target)
    assert proxy(params) == pytest.approx(8.117702296604278, rel=1e-12)
    assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-9


def test_select_next_to_the_theta1_chart_edge():
    # d = 0, a = -1 - (1 + b^2)/b^4: the proxy is smallest (9.5 at b = -1)
    # exactly where cot(theta1) diverges, so the chart's nearest admissible
    # theta0 is taken.
    target = SymplecticMap(1, np.array([[-3.0, -1.0], [1.0, 0.0]]))
    params = decompose_telep_plus_two(target)
    assert proxy(params) == pytest.approx(9.5, rel=1e-12)
    assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), theta0=st.floats(1e-3, np.pi - 1e-3))
def test_select_never_worse_than_any_pinned_theta0(seed, theta0):
    target = random_symplectic(1, seed)
    try:
        pinned = proxy(decompose_telep_plus_two(target, theta0=theta0))
    except SingularParameterError:
        return
    assert proxy(decompose_telep_plus_two(target)) <= pinned * (1.0 + 1e-12)


def test_telep_plus_two_fourier():
    params = decompose_telep_plus_two(fourier())
    assert_allclose(params.reconstruct().matrix, fourier().matrix, atol=1e-9)


def test_telep_plus_two_random_targets():
    # reconstruct() shares its scalar product with the selection; the oracle
    # is a plain numpy product of the three matrices.
    worst = 0.0
    for seed in range(1000):
        target = random_symplectic(1, seed)
        params = decompose_telep_plus_two(target)
        rebuilt = params.reconstruct().matrix
        assert_allclose(rebuilt, telep_plus_two_product(params), rtol=0.0, atol=1e-12)
        worst = max(worst, float(np.max(np.abs(rebuilt - target.matrix))))
    assert worst < 1e-9


def test_bell_splitter():
    assert symplectic_residual(BELL_SPLITTER) < 1e-12
    assert_allclose(np.linalg.norm(BELL_SPLITTER, axis=0), 1.0, atol=1e-15)
    # Applying it twice sends x0 to -p1.
    twice = BELL_SPLITTER @ BELL_SPLITTER
    expected_row = np.zeros(4)
    expected_row[3] = -1.0
    assert_allclose(twice[0], expected_row, atol=1e-15)


@pytest.mark.parametrize("theta0, theta1", [(0.9, 0.9 - np.pi / 2), (0.2, 0.2 + 3 * np.pi / 2)])
def test_canonicalize_rejects_a_degenerate_teleportation(theta0, theta1):
    angles = TelepAngles(theta0, theta1)
    with pytest.raises(DegenerateMeasurementError, match=re.escape(f"theta_minus={angles.theta_minus}")):
        canonicalize(angles)


@pytest.mark.parametrize("theta_minus", [np.pi / 2, -np.pi / 2 + 1e-12, 3 * np.pi / 2])
def test_mtel_factored_rejects_a_degenerate_teleportation(theta_minus):
    with pytest.raises(DegenerateMeasurementError, match=re.escape(f"theta_minus={theta_minus}")):
        mtel_factored(0.4, theta_minus)


@pytest.mark.parametrize("theta_plus, theta_minus", [(0.3, 2.5), (-1.1, -2.9), (2.0, np.pi)])
def test_mtel_factored_when_cos_theta_minus_is_negative(theta_plus, theta_minus):
    # Both angles shift by pi, which leaves M_tel unchanged.
    assert np.cos(theta_minus) < 0.0
    phi1, r, phi2 = mtel_factored(theta_plus, theta_minus)
    assert phi1 == pytest.approx(-(theta_plus + np.pi) / 2.0 + np.pi / 4.0, abs=1e-15)
    assert phi2 == pytest.approx(-(theta_plus + np.pi) / 2.0 - np.pi / 4.0, abs=1e-15)
    assert np.tanh(r) == pytest.approx(np.sin(theta_minus + np.pi), abs=1e-15)
    rebuilt = rotation(phi1).matrix @ squeeze(r).matrix @ rotation(phi2).matrix
    assert_allclose(rebuilt, mtel(theta_plus, theta_minus).matrix, atol=1e-12)


def test_wrap_angle_takes_minus_pi_to_pi():
    # math.remainder rounds half to even, so -pi and 3 pi land on -pi first.
    for theta in (-math.pi, 3.0 * math.pi, -5.0 * math.pi):
        assert _wrap_angle(theta) == math.pi
    assert _wrap_angle(math.pi) == math.pi
    assert _wrap_angle(-0.5) == -0.5
