"""Four-step synthesis: closed forms, free-parameter selection, reachability."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvcluster import (
    SingularParameterError,
    SymplecticMap,
    decompose_four_step,
    decompose_telep_plus_two,
    fourier,
    identity,
    random_symplectic,
    rotation,
    rsr_decompose,
    select_free_kappa1,
    squeeze,
    three_step_reachable,
)


from oracles import (
    cot_theta0_stationary_polynomial,
    d_zero_family,
    grid_free_kappa1,
    kappa1_stationary_polynomial,
    near_d_one_targets,
    polynomial_free_kappa1,
    polynomial_free_theta0,
    real_roots,
    three_step_grid_minimum,
)
from cvcluster import elementary_step
from cvcluster.single_mode import _kappa1_stationary_points, _params, _roots, _select
from cvcluster.teleport import _cot_theta0_stationary_points, select_free_theta0


def test_identity_is_all_zero():
    params = decompose_four_step(identity(1))
    assert params.kappas == (0.0, 0.0, 0.0, 0.0)
    assert params.noise_proxy == 4.0


def test_fourier_with_pinned_kappa1():
    params = decompose_four_step(fourier(), kappa1=0.0)
    assert_allclose(params.kappas, (0.0, 1.0, 1.0, 1.0), atol=0)
    assert_allclose(params.reconstruct().matrix, fourier().matrix, atol=1e-15)


def test_squeezer_with_pinned_kappa1():
    target = SymplecticMap(1, np.diag([2.0, 0.5]))
    params = decompose_four_step(target, kappa1=1.0)
    assert_allclose(params.kappas, (1.0, -1.0, -0.5, 2.0), atol=1e-15)
    assert_allclose(params.reconstruct().matrix, target.matrix, atol=1e-14)


def test_singular_kappa1_rejected():
    # diag(2, 1/2): the pole kappa1 = c/d = 0 has numerator 1-d = 1/2 != 0
    target = SymplecticMap(1, np.diag([2.0, 0.5]))
    with pytest.raises(SingularParameterError):
        decompose_four_step(target, kappa1=0.0)


def test_degenerate_kappa3_accepted():
    # pure x-shear: d=1, b=0 forces kappa3=0 with vanishing numerators
    target = SymplecticMap(1, np.array([[1.0, 0.0], [1.5, 1.0]]))
    params = decompose_four_step(target, kappa1=1.5)
    assert params.kappas == (1.5, 0.0, 0.0, 0.0)
    assert_allclose(params.reconstruct().matrix, target.matrix, atol=1e-14)


def test_degenerate_kappa3_with_p_shear():
    # d=1, b != 0: kappa3 = 0 only constrains kappa2 + kappa4 = -b
    target = SymplecticMap(1, np.array([[1.0, -1.0], [0.0, 1.0]]))
    params = decompose_four_step(target, kappa1=0.0)
    assert params.kappas[2] == 0.0
    assert params.kappas[1] + params.kappas[3] == pytest.approx(1.0)
    assert_allclose(params.reconstruct().matrix, target.matrix, atol=1e-14)


def test_select_identity_exact_zero():
    assert select_free_kappa1(identity(1)) == 0.0


def test_select_fourier_beats_default():
    kappa1 = select_free_kappa1(fourier())
    chosen = decompose_four_step(fourier(), kappa1=kappa1)
    at_zero = decompose_four_step(fourier(), kappa1=0.0)
    assert at_zero.noise_proxy == pytest.approx(7.0)
    assert chosen.noise_proxy <= at_zero.noise_proxy
    # analytic optimum kappa1 = 1/2, proxy 6.5
    assert chosen.noise_proxy == pytest.approx(6.5, abs=1e-6)


def test_pinned_kappa1_must_be_finite():
    for kappa1 in (np.nan, np.inf, -np.inf):
        with pytest.raises(SingularParameterError, match=f"kappa1={kappa1} is not finite"):
            decompose_four_step(fourier(), kappa1=kappa1)


def test_select_never_worse_than_grid_oracle():
    targets = [random_symplectic(1, seed) for seed in range(1000)] + d_zero_family()
    for target in targets:
        params = decompose_four_step(target)
        oracle = decompose_four_step(target, kappa1=grid_free_kappa1(target)).noise_proxy
        assert params.noise_proxy <= oracle * (1.0 + 1e-12)
        assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-9


def test_select_reproduces_targets_next_to_d_equal_one():
    # Within ~1e-5 of d = 1 the proxy dips next to the pole kappa1 = c/d,
    # where the closed forms lose up to ~1e-7; the selector keeps only
    # candidates that reproduce the target.
    for target in near_d_one_targets():
        params = decompose_four_step(target)
        assert np.max(np.abs(params.reconstruct().matrix - target.matrix)) < 1e-9


def test_select_finds_global_optimum_the_grid_misses():
    # The grid search stopped in a local minimum at proxy 4.1003.
    params = decompose_four_step(random_symplectic(1, 107))
    assert params.noise_proxy == pytest.approx(4.090352241273559, rel=1e-12)


def test_select_takes_the_kappa3_zero_branch_when_it_wins():
    # d = 1: kappa1 = c leaves kappa3 = 0 and only kappa2 + kappa4 = -b fixed,
    # proxy 4 + c^2 + b^2/2 = 8.75, below 4 + c^2/2 + b^2 at the smooth optimum.
    target = SymplecticMap(1, np.array([[2.5, 3.0], [0.5, 1.0]]))
    assert select_free_kappa1(target) == 0.5
    params = decompose_four_step(target)
    assert params.noise_proxy == pytest.approx(8.75, rel=1e-15)
    assert_allclose(params.reconstruct().matrix, target.matrix, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), kappa1=st.floats(-50.0, 50.0))
def test_select_never_worse_than_any_pinned_kappa1(seed, kappa1):
    target = random_symplectic(1, seed)
    try:
        pinned = decompose_four_step(target, kappa1=kappa1).noise_proxy
    except SingularParameterError:
        return
    assert decompose_four_step(target).noise_proxy <= pinned * (1.0 + 1e-12)


_entries = st.floats(-4.0, 4.0).map(lambda v: round(v, 6))
_nonzero = _entries.filter(lambda v: abs(v) >= 0.1)


@st.composite
def degree_dropping_targets(draw):
    """Det-1 targets, with the families where a leading coefficient of the
    stationary polynomials vanishes: d = 0, b = 0, d = -1 (the teleport kappa3
    slope 1 + d), d = 1 and the identity."""
    family = draw(st.sampled_from(["generic", "d=0", "b=0", "d=-1", "d=1", "identity"]))
    if family == "generic":
        return random_symplectic(1, draw(st.integers(0, 10**6)))
    if family == "identity":
        return identity(1)
    x, y, nonzero = draw(_entries), draw(_entries), draw(_nonzero)
    matrix = {
        "d=0": [[x, nonzero], [-1.0 / nonzero, 0.0]],
        "b=0": [[nonzero, 0.0], [x, 1.0 / nonzero]],
        "d=-1": [[-1.0 - x * y, x], [y, -1.0]],
        "d=1": [[1.0 + x * y, x], [y, 1.0]],
    }[family]
    return SymplecticMap(1, np.array(matrix))


def _choice(select, target):
    """The chosen parameter bit for bit (sign of zero included), or the error."""
    try:
        return float(select(target)).hex()
    except SingularParameterError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(target=degree_dropping_targets())
@example(target=identity(1))
@example(target=SymplecticMap(1, np.array([[0.5, 2.0], [-0.5, 0.0]])))
@example(target=SymplecticMap(1, np.array([[2.0, 0.0], [0.3, 0.5]])))
@example(target=SymplecticMap(1, np.array([[-1.6, 2.0], [0.3, -1.0]])))
@example(target=SymplecticMap(1, np.array([[1.0, -2.0], [0.5, 0.0]])))  # a root at 0
def test_stationary_points_match_the_polynomial_oracle(target):
    a, b, c, d = target.abcd()
    charts = (
        (_kappa1_stationary_points, kappa1_stationary_polynomial,
         select_free_kappa1, polynomial_free_kappa1),
        (_cot_theta0_stationary_points, cot_theta0_stationary_polynomial,
         select_free_theta0, polynomial_free_theta0),
    )
    for points, polynomial, select, oracle in charts:
        expected = real_roots(polynomial(target))
        got = points(a, b, c, d)
        assert got.shape == expected.shape
        assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        # a root at -0.0 would reach the program as a homodyne angle of -0.0
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert _choice(select, target) == _choice(oracle, target)


def test_select_deterministic():
    target = random_symplectic(1, 99)
    assert select_free_kappa1(target) == select_free_kappa1(target)


def test_round_trip_random_targets():
    worst = 0.0
    for seed in range(1000):
        target = random_symplectic(1, seed)
        params = decompose_four_step(target)
        assert params.noise_proxy >= 4.0
        worst = max(
            worst, float(np.max(np.abs(params.reconstruct().matrix - target.matrix)))
        )
    assert worst < 1e-9


def test_three_step_reachable_classification():
    assert three_step_reachable(identity(1))
    assert not three_step_reachable(fourier())
    assert three_step_reachable(SymplecticMap(1, np.diag([2.0, 0.5])))


def test_three_step_grid_oracle_agrees():
    # diag(2, 1/2) has the exact on-grid solution (k1, k2, k3) = (2, 0.5, 2).
    reachable = SymplecticMap(1, np.diag([2.0, 0.5]))
    assert three_step_grid_minimum(reachable) < 1e-3
    # F is in the {d=0, b != 1} gap: the grid never comes close.
    assert three_step_grid_minimum(fourier()) > 0.1


def test_three_step_grid_oracle_reachable_family():
    # Targets assembled from on-grid kappa triples are found by the grid
    # search (the 0.05 step cannot resolve generic off-grid solutions, so
    # the consistency check uses exactly representable ones).
    from cvcluster import compose_many

    triples = [(0.5, 2.0, -1.5), (1.0, 1.0, 1.0), (-0.25, 3.0, 0.05),
               (2.0, -0.6, 4.0), (0.0, 0.9, -7.0), (-3.3, 0.15, 2.45)]
    for triple in triples:
        target = compose_many(*[elementary_step(k) for k in reversed(triple)])
        assert three_step_reachable(target)
        assert three_step_grid_minimum(target) < 1e-2


def test_unreachable_family_succeeds_with_four_steps():
    for seed, a in enumerate(np.linspace(-2, 2, 10)):
        for b in (-1.0, -2.0, 2.5):
            target = SymplecticMap(1, np.array([[a, b], [-1.0 / b, 0.0]]))
            assert not three_step_reachable(target)
            params = decompose_four_step(target)
            residual = np.max(np.abs(params.reconstruct().matrix - target.matrix))
            assert residual < 1e-9


def test_rsr_identity_gauge():
    phi1, xi, phi2 = rsr_decompose(identity(1))
    assert xi == pytest.approx(0.0, abs=1e-12)
    assert np.cos(phi1 + phi2) == pytest.approx(1.0, abs=1e-12)


def test_rsr_squeezer():
    phi1, xi, phi2 = rsr_decompose(squeeze(0.8))
    assert xi == pytest.approx(0.8, abs=1e-12)
    rebuilt = rotation(phi1).matrix @ squeeze(xi).matrix @ rotation(phi2).matrix
    assert_allclose(rebuilt, squeeze(0.8).matrix, atol=1e-12)


def test_rsr_random_reconstruction():
    for seed in range(200):
        target = random_symplectic(1, seed)
        phi1, xi, phi2 = rsr_decompose(target)
        assert xi >= 0.0
        rebuilt = rotation(phi1).matrix @ squeeze(xi).matrix @ rotation(phi2).matrix
        assert np.max(np.abs(rebuilt - target.matrix)) < 1e-10


@pytest.mark.parametrize(
    "call, message",
    [
        (decompose_four_step, "four-step synthesis applies to one-mode maps"),
        (three_step_reachable, "reachability test applies to one-mode maps"),
        (rsr_decompose, "rotation-squeeze-rotation applies to one-mode maps"),
        (decompose_telep_plus_two, "teleport+two-step synthesis applies to one-mode maps"),
    ],
    ids=["four-step", "three-step", "rsr", "teleport"],
)
def test_one_mode_charts_refuse_two_modes(call, message):
    with pytest.raises(ValueError) as err:
        call(identity(2))
    assert str(err.value) == message


def test_roots_drop_a_root_beyond_the_float_range():
    # A subnormal leading coefficient puts a root near -1/5e-324, which no
    # float holds; dividing by it overflows.
    assert _roots(np.array([1.0, 5e-324])).size == 0
    assert_allclose(_roots(np.array([1.0, 2.0, 5e-324])), [-0.5], rtol=1e-15)


def test_select_names_the_free_parameter_when_no_candidate_is_admissible():
    # kappa1 = c/d zeroes kappa3 while the numerators of kappa2 and kappa4
    # stay nonzero: a pole, which select skips.
    target = random_symplectic(1, 3)
    a, b, c, d = target.abcd()
    with pytest.raises(SingularParameterError) as err:
        _select(target, [c / d], lambda kappa1: _params(a, b, c, d, kappa1), "kappa1")
    assert str(err.value) == "no kappa1 is admissible for this target"
