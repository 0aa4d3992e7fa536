"""Four-step synthesis of arbitrary one-mode Gaussian maps.

A one-mode target (a b; c d) with det 1 factors into four elementary
gate-teleportation steps M(k4) M(k3) M(k2) M(k1), each realized by one
homodyne measurement at angle arctan(kappa).  Three steps cannot reach the
measure-zero family {d = 0, b != 1}; four always suffice.

kappa1 is free.  It is chosen to minimize the chain's excess noise
tr(W K K^T): K holds the responses of the chain's output to the squeezed
p-noise of its four ancillas, and W = D^T D, where D carries the chain's
output to the program's outputs (W = I when the chain is the whole program;
``multimode`` passes each gate its own).  The excess is rational in kappa1,
so its stationary points are the roots of one quartic, built in scalars by
:func:`_numerator`, which also builds the teleport chart's theta0 quartic.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SingularParameterError
from .symplectic import SymplecticMap, require_symplectic

#: |kappa3| below this (relative) scale is treated as a pole of the formulas.
KAPPA3_SINGULAR_TOL = 1e-9
#: Numerators below this magnitude count as vanishing (legitimate kappa3 = 0,
#: and the 0/0 branches of the teleport chart).
DEGENERATE_NUMERATOR_TOL = 1e-9
#: A selected decomposition reproduces the target to this, relative to its
#: largest entry.  Next to a pole the closed forms lose digits.
RECONSTRUCTION_TOL = 1e-10
#: The weight (w11, w12, w22) of W for a chain whose output is the program's.
UNIT_WEIGHT = (1.0, 0.0, 1.0)
#: A root this close to real (|imag| <= this * |real|) counts as real: it may
#: be a multiple root that round-off split, by about eps^(1/m) at multiplicity m.
_NEAR_REAL = 1e-3


@dataclass(frozen=True)
class FourStepParams:
    """Measurement parameters (kappa1..kappa4) of a four-step decomposition."""

    kappas: tuple[float, float, float, float]
    free_param: float  # the chosen kappa1

    def reconstruct(self) -> SymplecticMap:
        """Product M(k4) M(k3) M(k2) M(k1) of the four steps."""
        return SymplecticMap(1, np.reshape(_product(self.kappas), (2, 2)))


def _product(kappas, start=(1.0, 0.0, 0.0, 1.0)) -> tuple:
    """Entries (a, b, c, d) of M(k_n) ... M(k_1) X for kappas (k_1, ..., k_n),
    in scalars, with X the 2x2 matrix of entries ``start`` (default I)."""
    a, b, c, d = start
    for k in kappas:
        a, b, c, d = -k * a - c, -k * b - d, a, b
    return a, b, c, d


def _solve(a: float, b: float, c: float, d: float, kappa1: float, weight=UNIT_WEIGHT):
    """Kappas for a fixed kappa1, or raise SingularParameterError at a pole.
    ``weight`` sets kappa4 on the kappa3 = 0 branch."""
    kappa3 = c - d * kappa1
    num2 = 1.0 - d
    num4 = 1.0 - a + b * kappa1
    # kappa2 = num2 / kappa3 and kappa4 = num4 / kappa3: a kappa3 small
    # against either numerator is a pole too, a chain no replay can run.
    scale = max(1.0, abs(c), abs(d * kappa1), abs(num2), abs(num4))
    if abs(kappa3) < KAPPA3_SINGULAR_TOL * scale:
        if (
            abs(num2) < DEGENERATE_NUMERATOR_TOL
            and abs(num4) < DEGENERATE_NUMERATOR_TOL
        ):
            # Legitimate kappa3 = 0 (both numerators vanish, which forces
            # d = 1 and kappa1 = c).  The closed form then only constrains
            # kappa2 + kappa4 = -b; the excess is least at kappa4 = w12 / w11.
            kappa4 = weight[1] / weight[0] + 0.0
            return (kappa1, -b - kappa4 + 0.0, 0.0, kappa4)
        raise SingularParameterError(
            f"kappa1={kappa1} makes kappa3 vanish while a numerator is nonzero"
        )
    return (kappa1, num2 / kappa3, kappa3, num4 / kappa3)


def noise_proxy(kappas) -> float:
    """Sum of squared homodyne gains, sum_i (1 + kappa_i^2)."""
    return float(sum(1.0 + k * k for k in kappas))


def chain_excess(kappas, weight=UNIT_WEIGHT) -> float:
    """Excess tr(W K K^T) of a four-step chain, W = ((w11, w12), (w12, w22)).

    The columns of K, the responses of the chain's output to its ancillas'
    p-noises, are (1 - k3 k4, k3), (k4, -1), (-1, 0) and (0, 1): kappa1 and
    kappa2 add no excess.  The excess covariance of the output is
    tr(N N^T) e^{-2r} / 4, and each chain's share of tr(N N^T) is this.
    """
    _, _, k3, k4 = kappas
    w11, w12, w22 = weight
    x = 1.0 - k3 * k4
    return w11 * (x * x + k4 * k4 + 1.0) + 2.0 * w12 * (x * k3 - k4) + w22 * (k3 * k3 + 2.0)


def decompose_four_step(
    target: SymplecticMap, kappa1: float = None, *, weight=UNIT_WEIGHT
) -> FourStepParams:
    """Decompose a one-mode symplectic target into four elementary steps.

    Args:
        target: one-mode symplectic map (displacement ignored).
        kappa1: optional value of the free parameter; chosen by
            :func:`select_free_kappa1` when absent.
        weight: (w11, w12, w22) of the chain's weight W (see the module
            docstring); it sets the choice of kappa1 and, on the kappa3 = 0
            branch, of kappa4.

    Raises:
        SingularParameterError: the given kappa1 is not finite or hits a
            pole of the closed forms.
    """
    if target.n != 1:
        raise ValueError("four-step synthesis applies to one-mode maps")
    require_symplectic(target)
    a, b, c, d = target.abcd()
    if kappa1 is None:
        kappa1 = select_free_kappa1(target, weight=weight)
    elif not np.isfinite(kappa1):
        raise SingularParameterError(f"kappa1={kappa1} is not finite")
    kappa1 = float(kappa1)
    return FourStepParams(kappas=_solve(a, b, c, d, kappa1, weight), free_param=kappa1)


def select_free_kappa1(target: SymplecticMap, *, weight=UNIT_WEIGHT) -> float:
    """Pick the kappa1 minimizing the chain's excess :func:`chain_excess`.

    With G = kappa3 = c - d kappa1, L = kappa3 kappa4 = 1 - a + b kappa1 and
    A = 1 - L, the excess is S + T/G + Q/G^2, where
    S = w11 A^2 + 2 w12 A G + w22 G^2 + w11 + 2 w22, T = -2 w12 L and
    Q = w11 L^2.  The candidates are its real stationary points, those of
    the gain proxy sum_i (1 + kappa_i^2) (so the choice is never worse than
    the proxy's, and a candidate survives next to d = 1), and the pole
    kappa1 = c/d, which :func:`_solve` accepts only on the legitimate
    kappa3 = 0 branch.  Among the candidates whose decomposition reproduces
    the target (see :data:`RECONSTRUCTION_TOL`) the first of lowest excess
    wins.  The identity gets exactly 0.
    """
    a, b, c, d = target.abcd()
    candidates = list(np.concatenate(_kappa1_stationary_points(a, b, c, d, weight)))
    if d != 0.0:
        candidates.append(c / d)
    return _select(target, candidates, partial(_kappa1_score, a, b, c, d, weight), "kappa1")


def _kappa1_score(a, b, c, d, weight, kappa1: float) -> tuple:
    """The excess of the decomposition at kappa1 and its product's entries:
    the evaluation :func:`_select` makes of each kappa1."""
    kappas = _solve(a, b, c, d, kappa1, weight)
    return chain_excess(kappas, weight), _product(kappas)


def _kappa1_stationary_points(a: float, b: float, c: float, d: float, weight=UNIT_WEIGHT) -> tuple:
    """The real stationary points of the excess of :func:`select_free_kappa1`
    and those of the gain proxy: the real roots of :func:`_kappa1_numerators`."""
    return tuple(_real(_roots(row)) for row in _kappa1_numerators(a, b, c, d, weight))


def _kappa1_numerators(a: float, b: float, c: float, d: float, weight=UNIT_WEIGHT) -> list:
    """The numerators of the derivatives in kappa1 of the excess of
    :func:`select_free_kappa1` and of the gain proxy
    4 + kappa1^2 + G^2 + ((1 - d)^2 + L^2) / G^2, as :func:`_numerator`s.

    With m = G L' - L G' = b c + (1 - a) d, they are
    - S' G^3 + T' G^2 - T G' G + Q' G - 2 Q G' = S' G^3 + 2 m (w11 L - w12 G);
    - (2 kappa1 + 2 G G') G^3 + 2 m L + 2 d (1 - d)^2."""
    w11, w12, w22 = weight
    m = b * c + (1.0 - a) * d
    return [
        _numerator(
            c, d, -2.0 * (w11 * a * b + w12 * (b * c + a * d) + w22 * c * d),
            2.0 * (w11 * b * b + 2.0 * w12 * b * d + w22 * d * d),
            (2.0 * m * (w11 * (1.0 - a) - w12 * c), 2.0 * m * (w11 * b + w12 * d)),
        ),
        _numerator(
            c, d, -2.0 * c * d, 2.0 * (1.0 + d * d),
            (2.0 * m * (1.0 - a) + 2.0 * d * (1.0 - d) ** 2, 2.0 * m * b),
        ),
    ]


def _numerator(c: float, d: float, s0: float, s1: float, e: tuple) -> np.ndarray:
    """(s0 + s1 x) G^3 + e(x) with G = c - d x, as trimmed ascending
    coefficients (see :func:`_trim`) built in scalars: the stationary
    numerator S' G^3 + ... of both one-mode charts.  ``e`` holds e(x)'s
    ascending coefficients (at most five); each is added to its own
    coefficient only, so no -0.0 becomes 0.0."""
    g = (c * c * c, -3.0 * c * c * d, 3.0 * c * d * d, -d * d * d)  # G^3
    coef = [s0 * g[0], s0 * g[1] + s1 * g[0], s0 * g[2] + s1 * g[1], s0 * g[3] + s1 * g[2], s1 * g[3]]
    for i, ei in enumerate(e):
        coef[i] += ei
    return _trim(np.array(coef))


def _select(target: SymplecticMap, candidates, evaluate, name: str) -> float:
    """The free-parameter choice of both one-mode charts.

    ``evaluate(candidate)`` returns the candidate's score and the entries
    (a, b, c, d) of its decomposition's product, or raises
    SingularParameterError at a pole.  The first candidate of lowest score
    whose product reproduces the target to :data:`RECONSTRUCTION_TOL`
    (relative to the target's largest entry) wins.  Raises
    SingularParameterError, naming the free parameter ``name``, when no
    candidate is admissible."""
    entries = target.matrix.ravel().tolist()
    limit = RECONSTRUCTION_TOL * max(1.0, *map(abs, entries))
    best = best_score = None
    for x in map(float, candidates):
        try:
            score, product = evaluate(x)
        except SingularParameterError:
            continue
        if all(abs(p - t) <= limit for p, t in zip(product, entries)) and (
            best is None or score < best_score
        ):
            best, best_score = x, score
    if best is None:
        raise SingularParameterError(f"no {name} is admissible for this target")
    return best


def _real(roots: np.ndarray) -> np.ndarray:
    """The real parts of those of ``roots`` that are real to :data:`_NEAR_REAL`.
    + 0.0 turns a root at -0.0 into 0.0, which would otherwise reach the
    program as a homodyne angle of -0.0."""
    return roots.real[np.abs(roots.imag) <= _NEAR_REAL * np.abs(roots.real)] + 0.0


def _trim(c: np.ndarray) -> np.ndarray:
    """Coefficients without trailing zeros; at least one is kept."""
    end = len(c)
    while end > 1 and c[end - 1] == 0.0:
        end -= 1
    return c[:end]


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

