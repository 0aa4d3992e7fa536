"""Teleportation-based input coupling and the teleport+two-step construction.

A Bell measurement (balanced beam splitter followed by two homodynes at
phases theta0 and theta1) teleports the input onto a cluster end node while
applying M_tel(theta_plus, theta_minus), theta_pm = theta0 +/- theta1.  Two
additional elementary steps restore full one-mode universality; the free
theta0 is chosen with ``single_mode``'s scalar quartic builder and selection.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateMeasurementError, SingularParameterError
from .single_mode import DEGENERATE_NUMERATOR_TOL, _numerator, _product, _real, _roots, _select
from .symplectic import SymplecticMap, require_symplectic

#: |cos(theta_minus)| below this is rejected as a failed teleportation.
DEGENERACY_TOL = 1e-9
#: Zero-denominator guard for the explicit parameter formulas.
SINGULAR_DENOM_TOL = 1e-9


def _wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.remainder(theta, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class TelepAngles:
    """Bell-measurement homodyne phases, with derived sum/difference angles."""

    theta0: float
    theta1: float

    @property
    def theta_plus(self) -> float:
        return self.theta0 + self.theta1

    @property
    def theta_minus(self) -> float:
        return self.theta0 - self.theta1


@dataclass(frozen=True)
class TelepPlusTwoParams:
    """Teleport coupling followed by two elementary steps."""

    angles: TelepAngles
    kappa3: float
    kappa4: float
    free_param: float  # the chosen theta0

    def reconstruct(self) -> SymplecticMap:
        return SymplecticMap(1, np.reshape(_telep_product(self), (2, 2)))


def _telep_product(params: TelepPlusTwoParams) -> tuple:
    """Entries (a, b, c, d) of M(k4) M(k3) M_tel(theta+, theta-), in scalars."""
    mtel_entries = _mtel_entries(params.angles.theta_plus, params.angles.theta_minus)
    return _product((params.kappa3, params.kappa4), mtel_entries)


def _cos_theta_minus(theta_minus: float) -> float:
    """cos(theta_minus), checked against the degenerate pi/2 + n pi."""
    cm = np.cos(theta_minus)
    if abs(cm) < DEGENERACY_TOL:
        raise DegenerateMeasurementError(
            f"theta_minus={theta_minus} is within {DEGENERACY_TOL} of pi/2 + n*pi"
        )
    return cm


def mtel(theta_plus: float, theta_minus: float) -> SymplecticMap:
    """Transformation applied by a generalized teleportation.

    Returns (1/cos(t-)) ((cos t+, sin t- + sin t+), (sin t- - sin t+, cos t+)),
    which has determinant 1.

    Raises:
        DegenerateMeasurementError: theta_minus within 1e-9 of pi/2 + n pi,
            where one input quadrature is measured outright and the
            teleportation fails.
    """
    return SymplecticMap(1, np.reshape(_mtel_entries(theta_plus, theta_minus), (2, 2)))


def _mtel_entries(theta_plus: float, theta_minus: float) -> tuple:
    """Entries (a, b, c, d) of :func:`mtel`, in scalars."""
    cm = _cos_theta_minus(theta_minus)
    cp, sp, sm = np.cos(theta_plus), np.sin(theta_plus), np.sin(theta_minus)
    return cp / cm, (sm + sp) / cm, (sm - sp) / cm, cp / cm


def canonicalize(angles: TelepAngles) -> TelepAngles:
    """Shift both derived angles by pi when cos(theta_minus) < 0.

    The transformation is unchanged; afterwards cos(theta_minus) > 0.  Both
    stored phases are wrapped to (-pi, pi].
    """
    cm = _cos_theta_minus(angles.theta_minus)
    t0, t1 = angles.theta0, angles.theta1
    if cm < 0.0:
        t0 += np.pi  # adds pi to both theta_plus and theta_minus
    return TelepAngles(_wrap_angle(t0), _wrap_angle(t1))


def _solve_telep(a: float, b: float, c: float, d: float, theta0: float):
    """Angles and kappas for a fixed theta0, or raise at a singular choice."""
    st0 = np.sin(theta0)
    if abs(st0) < 1e-12:
        if abs(1.0 + d) > DEGENERATE_NUMERATOR_TOL:
            raise SingularParameterError(f"theta0={theta0}: cot(theta0) diverges")
        # For d = -1 the closed forms stay finite as cot(theta0) diverges:
        # cot(theta1) tends to 1/c, kappa3 to c and kappa4 to b.
        return _canonical(theta0, math.atan(c) % math.pi), c + 0.0, b + 0.0
    ct0 = np.cos(theta0) / st0

    # cot(theta1) = num1 / den1; den1 = 0 != num1 is theta1 = 0, 0/0 is pi/2.
    den1 = 2.0 * c - (1.0 + d) * ct0
    num1 = 1.0 - d
    if abs(den1) < SINGULAR_DENOM_TOL and abs(num1) <= DEGENERATE_NUMERATOR_TOL:
        theta1 = math.pi / 2.0
    else:
        theta1 = math.atan2(den1, num1) % math.pi

    kappa3 = c - (1.0 + d) * ct0
    num4 = 1.0 - a + b * ct0
    den4 = c - d * ct0
    if abs(den4) < SINGULAR_DENOM_TOL:
        if abs(num4) > DEGENERATE_NUMERATOR_TOL:
            raise SingularParameterError("kappa4 denominator vanishes")
        # Both vanish only at d = 1 and cot(theta0) = c, where num4 / den4
        # tends to -b.
        kappa4 = -b + 0.0
    else:
        kappa4 = num4 / den4
    return _canonical(theta0, theta1), float(kappa3), float(kappa4)


def _canonical(theta0: float, theta1: float) -> TelepAngles:
    """The canonical angles of a chart point; a degenerate teleportation is
    a singular choice of theta0."""
    try:
        return canonicalize(TelepAngles(float(theta0), theta1))
    except DegenerateMeasurementError:
        raise SingularParameterError("theta0 leads to a degenerate teleportation") from None


def telep_noise_proxy(angles: TelepAngles, kappa3: float, kappa4: float) -> float:
    """Gain proxy: amplification cosh^2(r) = 1/cos^2(theta_minus) for each of
    the two Bell homodynes plus (1 + kappa^2) per elementary step."""
    cm = np.cos(angles.theta_minus)
    return float(2.0 / (cm * cm) + (1.0 + kappa3 ** 2) + (1.0 + kappa4 ** 2))


def select_free_theta0(target: SymplecticMap) -> float:
    """Pick the theta0 in [0, pi) minimizing the gain proxy.

    In u = cot(theta0) the proxy is 4 + kappa3^2 + (A^2/2 + (1 - a + b u)^2) / G^2
    with kappa3 = c - (1 + d) u, G = c - d u, A = (1 - d) - u (2c - (1 + d) u).
    The candidates are, for d = -1, theta0 = 0, where the proxy has the finite
    limit 4 + 3c^2 + b^2 (4 for rotation(pi) and -I), then its real
    stationary points.  Among those whose decomposition reproduces the
    target (see :data:`~cvcluster.single_mode.RECONSTRUCTION_TOL`) the first
    of lowest proxy wins.  The identity gets exactly pi/2.

    Raises:
        SingularParameterError: no theta0 in [0, pi) is admissible.
    """
    a, b, c, d = target.abcd()
    candidates = [0.0] if abs(1.0 + d) <= DEGENERATE_NUMERATOR_TOL else []
    candidates += [math.atan2(1.0, x) for x in _real(_roots(_cot_theta0_numerator(a, b, c, d)))]
    return _select(target, candidates, partial(_theta0_score, a, b, c, d), "theta0 in [0, pi)")


def _theta0_score(a: float, b: float, c: float, d: float, theta0: float) -> tuple:
    """The proxy of the decomposition at theta0 and its product's entries;
    the evaluation :func:`~cvcluster.single_mode._select` makes of each theta0."""
    params = _params(a, b, c, d, theta0)
    return telep_noise_proxy(params.angles, params.kappa3, params.kappa4), _telep_product(params)


def _cot_theta0_numerator(a: float, b: float, c: float, d: float) -> np.ndarray:
    """The numerator S' G^3 + Q' G - 2 G' Q of the derivative in u = cot(theta0)
    of the proxy of :func:`select_free_theta0`, S = kappa3^2, Q = A^2/2 + L^2,
    L = 1 - a + b u, as a :func:`~cvcluster.single_mode._numerator`.  With
    B = A' G + d A and m = b G + d L = b c + (1 - a) d, it is S' G^3 + A B + 2 m L."""
    m = b * c + (1.0 - a) * d
    a0, a1, a2 = 1.0 - d, -2.0 * c, 1.0 + d  # A
    b0, b1, b2 = d * (1.0 - d) - 2.0 * c * c, 2.0 * c * (1.0 + d), -d * (1.0 + d)  # B
    e = (a0 * b0 + 2.0 * m * (1.0 - a), a0 * b1 + a1 * b0 + 2.0 * m * b,
         a0 * b2 + a1 * b1 + a2 * b0, a1 * b2 + a2 * b1, a2 * b2)
    return _numerator(c, d, -2.0 * (1.0 + d) * c, 2.0 * (1.0 + d) ** 2, e)


def _params(a: float, b: float, c: float, d: float, theta0: float) -> TelepPlusTwoParams:
    """The decomposition for a fixed theta0; see :func:`_solve_telep`."""
    return TelepPlusTwoParams(*_solve_telep(a, b, c, d, theta0), free_param=theta0)


def decompose_telep_plus_two(
    target: SymplecticMap, theta0: float = None
) -> TelepPlusTwoParams:
    """Decompose a one-mode target as M(k4) M(k3) M_tel(theta+, theta-).

    theta0 is a free parameter; when absent it is chosen to minimize the
    gain proxy.  Raises SingularParameterError when an explicitly supplied
    theta0 is not finite or hits a zero denominator of the closed forms, or
    when no theta0 in [0, pi) is admissible.
    """
    if target.n != 1:
        raise ValueError("teleport+two-step synthesis applies to one-mode maps")
    require_symplectic(target)
    a, b, c, d = target.abcd()
    if theta0 is None:
        theta0 = select_free_theta0(target)
    elif not np.isfinite(theta0):
        raise SingularParameterError(f"theta0={theta0} is not finite")
    return _params(a, b, c, d, float(theta0))


#: The balanced Bell beam splitter of a teleport coupling, on (x0, x1, p0, p1):
#: it sends them to ((x0 - p1)/sqrt2, (x1 - p0)/sqrt2, (p0 + x1)/sqrt2,
#: (p1 + x0)/sqrt2); mode 0 is the input, mode 1 the cluster end node.
BELL_SPLITTER = np.array(
    [
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, -1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
) / np.sqrt(2.0)
BELL_SPLITTER.flags.writeable = False

