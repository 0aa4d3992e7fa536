"""Symplectic-group primitives for n-mode Gaussian (Bogoliubov) transformations.

Quadratures are ordered as (x_1..x_n, p_1..p_n) so a map splits into n-by-n
blocks (A B; C D).  The convention is hbar = 1/2, i.e. [x, p] = i/2 and the
vacuum quadrature variance is 1/4.
"""

from dataclasses import dataclass, field

import numpy as np

VACUUM_QUADRATURE_VARIANCE = 0.25

#: Tolerance for the symplectic condition M^T J M = J, relative to
#: max(1, max|M|)^2: M^T J M rounds off in proportion to the entries squared.
SYMPLECTIC_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SymplecticMap:
    """Affine symplectic action q -> M q + d on the quadrature vector.

    Attributes:
        n: mode count.
        matrix: real 2n-by-2n matrix in (x-block, p-block) ordering.
        displacement: real 2n vector, defaults to zero.

    The symplectic condition is not enforced at construction (finite-squeezing
    estimates of a map may violate it); use :func:`require_symplectic` where a
    genuine group element is required.
    """

    n: int
    matrix: np.ndarray
    displacement: np.ndarray = field(default=None)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"matrix shape {m.shape} does not match n={self.n}")
        d = self.displacement
        d = np.zeros(2 * self.n) if d is None else np.array(d, dtype=float)
        if d.shape != (2 * self.n,):
            raise ValueError(f"displacement shape {d.shape} does not match n={self.n}")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "displacement", _readonly(d))

    def __eq__(self, other):
        if not isinstance(other, SymplecticMap):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.matrix, other.matrix)
            and np.array_equal(self.displacement, other.displacement)
        )

    def abcd(self) -> tuple[float, float, float, float]:
        """Scalar entries (a, b, c, d) of a one-mode map."""
        if self.n != 1:
            raise ValueError("abcd() is defined for one-mode maps only")
        m = self.matrix
        return float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1])


def symplectic_form(n: int) -> np.ndarray:
    """J = (0 I; -I 0) for n modes in x-then-p ordering."""
    j = np.zeros((2 * n, 2 * n))
    i = np.eye(n)
    j[:n, n:] = i
    j[n:, :n] = -i
    return j


def _violation(mat: np.ndarray) -> np.ndarray:
    """|M^T J M - J|, entry by entry."""
    j = symplectic_form(len(mat) // 2)
    return np.abs(mat.T @ j @ mat - j)


def symplectic_residual(m) -> float:
    """Max-abs violation of M^T J M = J."""
    mat = m.matrix if isinstance(m, SymplecticMap) else np.asarray(m, dtype=float)
    return float(_violation(mat).max())


def require_symplectic(m) -> None:
    """Raise ValueError naming the worst entry if M^T J M = J fails by more
    than SYMPLECTIC_TOL * max(1, max|M|)^2."""
    mat = m.matrix if isinstance(m, SymplecticMap) else np.asarray(m, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix is not symplectic: it has a non-finite entry")
    viol = _violation(mat)
    worst = float(viol.max())
    limit = SYMPLECTIC_TOL * max(1.0, float(np.abs(mat).max())) ** 2
    if worst > limit:
        r, c = np.unravel_index(int(np.argmax(viol)), viol.shape)
        raise ValueError(
            f"matrix is not symplectic: max violation {worst:.3e} at entry ({r}, {c})"
            f" exceeds tolerance {limit:.1e}"
        )


def identity(n: int) -> SymplecticMap:
    return SymplecticMap(n, np.eye(2 * n))


def rotation(theta: float) -> SymplecticMap:
    """One-mode phase-space rotation R(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    return SymplecticMap(1, np.array([[c, -s], [s, c]]))


def fourier() -> SymplecticMap:
    """The Fourier transform F = R(pi/2), exact integer entries."""
    return SymplecticMap(1, np.array([[0.0, -1.0], [1.0, 0.0]]))


def fourier_power(k: int) -> SymplecticMap:
    """F^k with exact integer entries (k may be negative)."""
    f = np.array([[0.0, -1.0], [1.0, 0.0]])
    return SymplecticMap(1, np.linalg.matrix_power(f, k % 4))


def squeeze(r: float) -> SymplecticMap:
    """S(r) = diag(e^r, e^-r); r > 0 squeezes the p quadrature."""
    return SymplecticMap(1, np.diag([np.exp(r), np.exp(-r)]))


def beam_splitter_matrix(reflectivity: float) -> SymplecticMap:
    """Phase-free two-mode beam splitter with intensity reflectivity R.

    Acts as M_R = ((sqrt(R), sqrt(1-R)), (sqrt(1-R), -sqrt(R))) on the x block
    and identically on the p block; M_R squares to the identity.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity} outside [0, 1]")
    t = np.sqrt(reflectivity)
    u = np.sqrt(1.0 - reflectivity)
    mat = np.zeros((4, 4))
    mat[:2, :2] = mat[2:, 2:] = ((t, u), (u, -t))
    return SymplecticMap(2, mat)


def compose(a: SymplecticMap, b: SymplecticMap) -> SymplecticMap:
    """The map applying b first, then a."""
    if a.n != b.n:
        raise ValueError(f"mode counts differ: {a.n} != {b.n}")
    return SymplecticMap(
        a.n, a.matrix @ b.matrix, a.matrix @ b.displacement + a.displacement
    )


def compose_many(*maps: SymplecticMap) -> SymplecticMap:
    """Compose left-to-right as written: the rightmost map acts first."""
    out = maps[0]
    for m in maps[1:]:
        out = compose(out, m)
    return out


def embed(op: SymplecticMap, n: int, modes) -> SymplecticMap:
    """Embed a k-mode map into n modes, acting on the given mode indices.

    ``modes[i]`` receives the action of the op's i-th mode; all other modes
    are untouched.
    """
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate mode indices {modes}")
    if any(not 0 <= m < n for m in modes):
        raise ValueError(f"mode indices {modes} out of range for n={n}")
    if len(modes) != op.n:
        raise ValueError(f"expected {op.n} mode indices, got {len(modes)}")
    idx = modes + [n + m for m in modes]
    mat = np.eye(2 * n)
    mat[np.ix_(idx, idx)] = op.matrix
    d = np.zeros(2 * n)
    d[idx] = op.displacement
    return SymplecticMap(n, mat, d)


def random_symplectic(n: int, seed=None) -> SymplecticMap:
    """Seeded random symplectic built from Euler-type one-mode factors.

    Two layers of per-mode rotation * squeeze * rotation interleaved with
    nearest-neighbour beam splitters.  Not Haar-distributed; intended as a
    deterministic test-input generator (squeezing bounded by |r| <= 1.2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    total = identity(n)
    for _ in range(2):
        for m in range(n):
            layer = compose_many(
                rotation(rng.uniform(-np.pi, np.pi)),
                squeeze(rng.uniform(-1.2, 1.2)),
                rotation(rng.uniform(-np.pi, np.pi)),
            )
            total = compose(embed(layer, n, [m]), total)
        for m in range(n - 1):
            bs = beam_splitter_matrix(rng.uniform(0.0, 1.0))
            total = compose(embed(bs, n, [m, m + 1]), total)
    return total
