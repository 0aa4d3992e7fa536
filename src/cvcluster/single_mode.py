"""Four-step synthesis of arbitrary one-mode Gaussian maps.

A one-mode target (a b; c d) with det 1 factors into four elementary
gate-teleportation steps M(k4) M(k3) M(k2) M(k1), each realized by one
homodyne measurement at angle arctan(kappa).  Three steps cannot reach the
measure-zero family {d = 0, b != 1}; four always suffice.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularParameterError
from .symplectic import SymplecticMap, elementary_matrix, require_symplectic

#: |kappa3| below this (relative) scale is treated as a pole of the formulas.
KAPPA3_SINGULAR_TOL = 1e-9
#: Numerators below this magnitude count as vanishing (legitimate kappa3 = 0,
#: and the 0/0 branches of the teleport chart).
DEGENERATE_NUMERATOR_TOL = 1e-9
#: A selected decomposition reproduces the target to this, relative to its
#: largest entry.  Next to a pole the closed forms lose digits.
RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class FourStepParams:
    """Measurement parameters (kappa1..kappa4) of a four-step decomposition."""

    kappas: tuple[float, float, float, float]
    free_param: float  # the chosen kappa1
    noise_proxy: float  # sum of squared measurement gains, >= 4

    def reconstruct(self) -> SymplecticMap:
        """Product M(k4) M(k3) M(k2) M(k1) of the four steps."""
        k1, k2, k3, k4 = self.kappas
        return SymplecticMap(
            1,
            elementary_matrix(k4)
            @ elementary_matrix(k3)
            @ elementary_matrix(k2)
            @ elementary_matrix(k1),
        )


def _solve(a: float, b: float, c: float, d: float, kappa1: float):
    """Kappas for a fixed kappa1, or raise SingularParameterError at a pole."""
    kappa3 = c - d * kappa1
    num2 = 1.0 - d
    num4 = 1.0 - a + b * kappa1
    scale = max(1.0, abs(c), abs(d * kappa1))
    if abs(kappa3) < KAPPA3_SINGULAR_TOL * scale:
        if (
            abs(num2) < DEGENERATE_NUMERATOR_TOL
            and abs(num4) < DEGENERATE_NUMERATOR_TOL
        ):
            # Legitimate kappa3 = 0 (both numerators vanish, which forces
            # d = 1 and kappa1 = c).  The closed form then only constrains
            # kappa2 + kappa4 = -b; split evenly to minimize the gain proxy.
            return (kappa1, -b / 2.0 + 0.0, 0.0, -b / 2.0 + 0.0)
        raise SingularParameterError(
            f"kappa1={kappa1} makes kappa3 vanish while a numerator is nonzero"
        )
    return (kappa1, num2 / kappa3, kappa3, num4 / kappa3)


def noise_proxy(kappas) -> float:
    """Sum of squared homodyne gains, sum_i (1 + kappa_i^2)."""
    return float(sum(1.0 + k * k for k in kappas))


def decompose_four_step(target: SymplecticMap, kappa1: float = None) -> FourStepParams:
    """Decompose a one-mode symplectic target into four elementary steps.

    Args:
        target: one-mode symplectic map (displacement ignored).
        kappa1: optional value of the free parameter; chosen by
            :func:`select_free_kappa1` when absent.

    Raises:
        SingularParameterError: the given kappa1 is not finite or hits a
            pole of the closed forms.
    """
    if target.n != 1:
        raise ValueError("four-step synthesis applies to one-mode maps")
    require_symplectic(target)
    a, b, c, d = target.abcd()
    if kappa1 is None:
        kappa1 = select_free_kappa1(target)
    elif not np.isfinite(kappa1):
        raise SingularParameterError(f"kappa1={kappa1} is not finite")
    return _params(a, b, c, d, float(kappa1))


def _params(a: float, b: float, c: float, d: float, kappa1: float) -> FourStepParams:
    """The decomposition for a fixed kappa1; see :func:`_solve`."""
    kappas = _solve(a, b, c, d, kappa1)
    return FourStepParams(kappas=kappas, free_param=kappa1, noise_proxy=noise_proxy(kappas))


def select_free_kappa1(target: SymplecticMap) -> float:
    """Pick the kappa1 minimizing the gain proxy sum_i (1 + kappa_i^2).

    With kappa3 = c - d kappa1 the proxy is 4 + kappa1^2 + kappa3^2 +
    ((1 - d)^2 + (1 - a + b kappa1)^2) / kappa3^2.  The candidates are its
    real stationary points and the pole kappa1 = c/d, which :func:`_solve`
    accepts only on the legitimate kappa3 = 0 branch.  Among the candidates
    whose decomposition reproduces the target (see :data:`RECONSTRUCTION_TOL`)
    the first of lowest proxy wins.  The identity gets exactly 0.
    """
    a, b, c, d = target.abcd()
    candidates = list(_kappa1_stationary_points(a, b, c, d))
    if d != 0.0:
        candidates.append(c / d)
    return _select(target, candidates, lambda kappa1: _params(a, b, c, d, kappa1), "kappa1")


def _kappa1_stationary_points(a: float, b: float, c: float, d: float) -> np.ndarray:
    """The real stationary points of the proxy of :func:`select_free_kappa1`:
    S = kappa1^2 + kappa3^2, Q = (1 - d)^2 + (1 - a + b kappa1)^2, G = kappa3."""
    k3 = _trim(np.array([c, -d]))
    lin = np.array([1.0 - a, b])
    s = _add(np.array([0.0, 0.0, 1.0]), _mul(k3, k3))
    q = _add(np.array([(1.0 - d) ** 2]), _mul(lin, lin))
    return _stationary_points(s, q, k3)


def _select(target: SymplecticMap, candidates, params_at, name: str) -> float:
    """The free-parameter choice of both one-mode charts: the first candidate
    of lowest ``noise_proxy`` among those not at a pole whose
    ``params_at(candidate)`` reproduces the target to :data:`RECONSTRUCTION_TOL`
    (relative to its largest entry).  Raises SingularParameterError, naming
    the free parameter ``name``, when no candidate is admissible."""
    limit = RECONSTRUCTION_TOL * max(1.0, np.max(np.abs(target.matrix)))
    scored = {}
    for x in map(float, candidates):
        try:
            params = params_at(x)
        except SingularParameterError:
            continue
        if np.max(np.abs(params.reconstruct().matrix - target.matrix)) <= limit:
            scored[x] = params.noise_proxy
    if not scored:
        raise SingularParameterError(f"no {name} is admissible for this target")
    return min(scored, key=scored.get)


def _stationary_points(s: np.ndarray, q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Real roots of S' G^3 + Q' G - 2 G' Q, the numerator of the derivative
    of 4 + S + Q / G^2 (S quadratic, G linear, Q of degree <= 4).  A common
    root of G and Q is a multiple root, which round-off may turn complex.

    Each polynomial is an array of ascending coefficients without trailing
    zeros (see :func:`_trim`), so a vanishing leading coefficient lowers the
    degree.  Products are ``np.convolve`` of trimmed arrays and the roots are
    the sorted eigenvalues of the companion matrix."""
    g3 = _mul(_mul(g, g), g)
    num = _add(_mul(_deriv(s), g3), _mul(_deriv(q), g))
    num = _add(num, _mul(-2.0 * _deriv(g), q))
    roots = _roots(num)
    # + 0.0 turns a root at -0.0 into 0.0, which would otherwise reach the
    # program as a homodyne angle of -0.0.
    return roots.real[roots.imag == 0.0] + 0.0


def _trim(c: np.ndarray) -> np.ndarray:
    """Coefficients without trailing zeros; at least one is kept."""
    end = len(c)
    while end > 1 and c[end - 1] == 0.0:
        end -= 1
    return c[:end]


def _add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum of two coefficient arrays, trimmed."""
    if len(x) < len(y):
        x, y = y, x
    out = x.copy()
    out[: len(y)] += y
    return _trim(out)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of two coefficient arrays, trimmed."""
    return _trim(np.convolve(_trim(x), _trim(y)))


def _deriv(c: np.ndarray) -> np.ndarray:
    """Derivative of a coefficient array; a constant's is [0]."""
    if len(c) == 1:
        return c * 0.0
    return c[1:] * np.arange(1, len(c))


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots of a trimmed coefficient array, sorted; real when all are.  A
    leading coefficient too small to divide by (a subnormal one) puts a root
    beyond the float range: it is dropped, and that root with it."""
    while len(c) > 1:
        with np.errstate(over="ignore"):
            monic = c[:-1] / c[-1]
        if np.isfinite(monic).all():
            break
        c = c[:-1]
    if len(c) < 2:
        return np.array([])
    if len(c) == 2:
        return -monic
    n = len(c) - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n :: n + 1] = 1.0
    companion[:, -1] -= monic
    roots = np.linalg.eigvals(companion)
    roots.sort()
    return roots


def three_step_reachable(target: SymplecticMap) -> bool:
    """Whether three elementary steps suffice for the target.

    The unreachable family is {d = 0, b != 1}: a three-step product always
    has d3 = kappa2, and d3 = 0 forces b3 = 1.
    """
    if target.n != 1:
        raise ValueError("reachability test applies to one-mode maps")
    _, b, _, d = target.abcd()
    return not (abs(d) < 1e-12 and abs(b - 1.0) > 1e-12)


def rsr_decompose(target: SymplecticMap) -> tuple[float, float, float]:
    """Factor a one-mode symplectic map as R(phi1) S(xi) R(phi2), xi >= 0.

    Computed from the singular value decomposition of the 2x2 matrix with
    both orthogonal factors forced to be proper rotations.
    """
    if target.n != 1:
        raise ValueError("rotation-squeeze-rotation applies to one-mode maps")
    require_symplectic(target)
    u, s, vt = np.linalg.svd(target.matrix)
    if np.linalg.det(u) < 0:
        flip = np.diag([1.0, -1.0])
        u = u @ flip
        vt = flip @ vt
    phi1 = float(np.arctan2(u[1, 0], u[0, 0]))
    phi2 = float(np.arctan2(vt[1, 0], vt[0, 0]))
    xi = float(np.log(s[0]))
    return phi1, xi, phi2
