"""Compilation of n-mode Gaussian maps to cluster measurement programs.

Pipeline: a target S of n >= 2 modes is decomposed directly into a fixed
nearest-neighbour triangle of n(n - 1)/2 two-mode gates,
S = Pi D G_m^-1 ... G_0^-1 L^-1, with L and D local and Pi the output
labelling (:func:`_triangle`), and one pass lowers these factors
(:meth:`_Builder.build`); a one-mode target is one wire with L^-1 = I,
D = S and no gate.  Gates on disjoint wires share a column.  Each wire's
first gate absorbs its part of L^-1 and its last gate its part of D, so
every gate (h_i + h_j) G^-1 (g_i + g_j) becomes one two-mode gate of four
three-mode connection gates (12 ancillas, four steps on each wire).  Every
target of one n gets the same nodes, edges and schedule order; only the
angles, the feedforward and the output labels depend on it.  A wire gets
nodes only for its own gates, so wires end at different depths; a wire
without gates, and one that still owes a forced Fourier power, ends in a
four-step measurement chain (4 ancillas).

Each gate's share of the program's excess noise tr(N N^T) depends only on
its parameters and on W = D^T D, where D is the ideal map from the gate's
output to the program's outputs, fixed by the target and the gates emitted
before it.  A four-step gate minimizes its share by its free kappa1
(``single_mode``); a two-mode gate M(S4) M(S3) M(S2) M(S1), with
M(S) = (-S -I; I 0) the connection gate of a symmetric S, by S1 on the
two-parameter affine family of each Fourier variant (:func:`_two_mode_chains`),
among the chains that reproduce the gate to round-off.  D does not depend on
the Fourier powers that earlier gates forward, since each wire's next gate
undoes its power, so every gate is swept with every pair of powers it may
owe in one pass of arrays, and the shares of (gate, owed powers, variant)
sum to tr(N N^T).  A dynamic program over the powers the wires owe then
chooses all variants together (:func:`_choose_variants`).

``bloch_messiah`` and ``reck_decompose`` (passive * squeezers * passive and
its splitter meshes) are no longer on the compile path.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CompileError
from .executor import exact_replay
from .ir import (
    COUPLING_QND,
    ClusterGraph,
    GateRecord,
    MeasurementProgram,
    Node,
    ROLE_ANCILLA,
    ROLE_INPUT,
    ROLE_OUTPUT,
    ScheduleEntry,
    SynthesisReport,
)
from .single_mode import _NEAR_REAL, chain_excess, decompose_four_step
from .symplectic import (
    SYMPLECTIC_TOL,
    SymplecticMap,
    fourier_power,
    require_symplectic,
    rotation,
    symplectic_form,
)

#: Acceptance threshold on the noise-free replay of a compilation.
REPLAY_TOL = 1e-9
#: Phase shifters below this magnitude are dropped from splitter meshes.
PHASE_SKIP_TOL = 1e-14
#: Bloch-Messiah eigenvalues this close (relative), or this close to 1, form
#: one cluster.
CLUSTER_TOL = 1e-8
#: Ties: Bloch-Messiah's candidate basis vectors whose norms differ by less
#: than this, and the triangle's stage pivots and a column block's two
#: singular values that agree to this, relative.
TIE_TOL = 1e-10
#: A two-mode gate's chain is accepted only if it reproduces the gate to
#: this, relative to its largest entry: round-off, with no cancellation.
ROUNDOFF_TOL = 1e-13


@dataclass(frozen=True)
class ConnectionGateParams:
    """Measurement parameters of one three-mode connection gate."""

    kappa1: float
    kappa2: float
    eta3: float


def connection_gate(params: ConnectionGateParams) -> SymplecticMap:
    """Two-mode action of a connection gate in (x1, x2, p1, p2) ordering.

    Equals F2 * shear with the shear adding (kappa1 - eta3) x1 - eta3 x2 to p1
    and -eta3 x1 + (kappa2 - eta3) x2 to p2; F2 is the two-mode Fourier
    transform (0 -I; I 0).
    """
    k1, k2, e3 = params.kappa1, params.kappa2, params.eta3
    shear = np.eye(4)
    shear[2, 0] = k1 - e3
    shear[2, 1] = -e3
    shear[3, 0] = -e3
    shear[3, 1] = k2 - e3
    f2 = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    return SymplecticMap(2, f2 @ shear)


def beam_splitter_program(reflectivity: float) -> list:
    """Three identical connection gates realizing a phase-free beam splitter.

    With kappa1 = sqrt(R) - sqrt(1-R), kappa2 = -sqrt(R) - sqrt(1-R) and
    eta3 = -sqrt(1-R), the cube of the connection gate equals M_R + M_R
    (block diagonal) exactly.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity {reflectivity} outside [0, 1]")
    t = math.sqrt(reflectivity)
    u = math.sqrt(1.0 - reflectivity)
    params = ConnectionGateParams(kappa1=t - u, kappa2=-t - u, eta3=-u)
    return [params, params, params]


@dataclass(frozen=True)
class BlochMessiahFactors:
    """Passive * diagonal squeeze * passive factorization of a symplectic map."""

    passive_out: SymplecticMap  # U, applied last
    squeezings: tuple  # per-mode squeezing parameters r_i, descending
    passive_in: SymplecticMap  # V, applied first


def _canonical_vectors(cluster: np.ndarray, count: int, j: np.ndarray) -> list:
    """``count`` orthonormal vectors in the span of ``cluster``'s columns,
    each orthogonal to J times the others.

    Each is the projected standard basis vector, less its components along
    the vectors already chosen and their J images, of largest norm; ties
    within round-off go to the lowest index, so canonical inputs (the
    identity, pure beam splitters, equal squeezers) yield canonical factors.
    """
    projector = cluster @ cluster.T
    chosen = []
    while len(chosen) < count:
        cands = projector.copy()
        for v in chosen:
            for b in (v, j @ v):
                cands -= np.outer(b, b @ cands)
        norms = np.linalg.norm(cands, axis=0)
        k = int(np.argmax(norms > norms.max() - TIE_TOL))
        chosen.append(cands[:, k] / norms[k])
    return chosen


def _symplectic_pair_basis(p: np.ndarray, n: int) -> tuple:
    """Columns (v_1..v_n) with P v_i = lam_i v_i, lam_i >= 1, such that
    K = [V | -J V] is orthogonal-symplectic and P = K diag(lam, 1/lam) K^T.

    A lone eigenvalue above 1 keeps eigh's vector.  A repeated one, and the
    eigenvalue-1 subspace (J-invariant, so it also needs a symplectic
    pairing), get ``_canonical_vectors`` instead of eigh's arbitrary basis.
    """
    j = symplectic_form(n)
    lam, vec = np.linalg.eigh(p)
    order = np.argsort(-lam)
    lam, vec = lam[order], vec[:, order]
    cols, rs = [], []
    start = 0
    squeezed = lam > 1.0 + CLUSTER_TOL
    while squeezed[start]:
        end = start + 1
        while squeezed[end] and lam[end - 1] - lam[end] <= CLUSTER_TOL * lam[end]:
            end += 1
        if end - start == 1:
            cols.append(vec[:, start])
        else:
            cols += _canonical_vectors(vec[:, start:end], end - start, j)
        rs += [math.log(x) for x in lam[start:end]]
        start = end
    unit = vec[:, np.abs(lam - 1.0) <= CLUSTER_TOL]
    m = unit.shape[1] // 2
    cols += _canonical_vectors(unit, m, j)
    rs += [0.0] * m
    return np.column_stack(cols), np.array(rs)


def bloch_messiah(target: SymplecticMap) -> BlochMessiahFactors:
    """Factor a symplectic map as passive * squeezers * passive (not used by
    ``compile``, which decomposes targets by :func:`_triangle`).

    Polar-decomposes the matrix as P O with P = sqrt(S S^T) symmetric
    positive-definite symplectic and O orthogonal-symplectic, both from one
    SVD S = Q diag(sigma) R^T: P = Q diag(sigma) Q^T and O = Q R^T (S S^T
    and a solve against P would square S's condition number).  Then it
    diagonalizes P in an orthogonal-symplectic eigenbasis; the eigenvalues
    come in reciprocal pairs e^{+-r_i}.
    """
    require_symplectic(target)
    n = target.n
    q, sigma, rt = np.linalg.svd(target.matrix)
    p = (q * sigma) @ q.T
    o = q @ rt
    vplus, rs = _symplectic_pair_basis(p, n)
    j = symplectic_form(n)
    k = np.column_stack([vplus, -j @ vplus])
    u = SymplecticMap(n, k)
    v = SymplecticMap(n, k.T @ o)
    return BlochMessiahFactors(passive_out=u, squeezings=tuple(rs), passive_in=v)


def reck_decompose(passive: SymplecticMap) -> list:
    """Rectangular nearest-neighbour mesh (Clements et al., Optica 3, 1460
    (2016)) of a passive map: at most n(n-1)/2 phase-free beam splitters on
    adjacent modes, at most n layers deep, and n(n+1)/2 phase shifters (not
    used by ``compile``).

    The entries of the equivalent complex unitary U below its diagonal are
    nulled one sub-diagonal at a time, from the corner (n-1, 0) inwards:
    alternate sub-diagonals by right-multiplied nulls R on columns
    (c, c+1), the others by left-multiplied nulls L on rows (r-1, r).  Each
    null is one phase shifter and one splitter; what is left is a diagonal
    D, and U = L_1^-1 ... L_m^-1 D R_k^-1 ... R_1^-1.

    Returns the mesh as wire ops in application order: ("onemode", mode,
    rotation matrix) per phase shifter above ``PHASE_SKIP_TOL`` and ("bs",
    (i, i + 1), R) per splitter.
    """
    n, mat = passive.n, passive.matrix
    j = symplectic_form(n)
    # Orthogonal and commuting with J (A = D, B = -C), hence symplectic.
    off = np.concatenate([mat.T @ mat - np.eye(2 * n), mat @ j - j @ mat])
    violation = float(np.max(np.abs(off)))
    if not violation <= SYMPLECTIC_TOL:
        raise ValueError(
            f"map is not passive: M^T M = I or M J = J M fails by {violation:.3e}"
            f" (tolerance {SYMPLECTIC_TOL:.1e})"
        )

    def phase(mode: int, theta: float) -> list:
        if abs(theta) > PHASE_SKIP_TOL:
            return [("onemode", mode, rotation(theta).matrix)]
        return []

    w = mat[:n, :n] + 1j * mat[n:, :n]  # the unitary A + iC
    right, left = [], []  # the ops of R_1^-1 ... R_k^-1 and of L_m^-1 ... L_1^-1
    for k in range(n - 1):
        for m in range(k + 1):
            if k % 2 == 0:
                r, c = n - 1 - m, k - m
                pair, u, v = [c, c + 1], w[r, c], w[r, c + 1]
            else:
                r, c = n - 1 - k + m, m
                pair, u, v = [r - 1, r], w[r, c], w[r - 1, c]
            if abs(u) < 1e-13:
                continue
            refl = abs(v) ** 2 / (abs(u) ** 2 + abs(v) ** 2)
            sr, st = math.sqrt(refl), math.sqrt(1.0 - refl)
            mix = np.array([[sr, st], [st, -sr]])
            bs = ("bs", tuple(pair), refl)
            if k % 2 == 0:  # w <- w R: phase column c, then mix; R^-1 = ps, then bs
                theta = float(np.angle(-u / v)) if v else 0.0
                w[:, c] *= np.exp(-1j * theta)
                w[:, pair] = w[:, pair] @ mix
                right += [*phase(c, theta), bs]
            else:  # w <- L w: phase row r-1, then mix; L^-1 = bs, then ps
                theta = float(np.angle(v / u)) if v else 0.0
                w[r - 1] *= np.exp(-1j * theta)
                w[pair] = mix @ w[pair]
                left[:0] = [bs, *phase(r - 1, theta)]
    diagonal = [op for k in range(n) for op in phase(k, float(np.angle(w[k, k])))]
    return right + diagonal + left


# ---------------------------------------------------------------------------
# Two-mode gates: four connection gates
# ---------------------------------------------------------------------------

#: |g| below this (relative to the gate's largest entry) makes the S1 family
#: of :func:`_families` degenerate: all of S1 space, or empty.
FAMILY_TOL = 1e-12
_I2 = np.eye(2)
#: Nodes on a line for the cubic delta K, the inverse of their Vandermonde
#: matrix (ascending powers), the power of u of each entry of a 4 x 4 Gram
#: matrix of cubic coefficients, and P' delta - 2 P delta' from the products
#: p_i delta_j: (i - 2 j) at power i + j - 1.
_NODES = (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)
_VINV = np.linalg.inv(np.vander(_NODES, 4, increasing=True))
_POWER_SUMS = np.equal.outer(np.add.outer(np.arange(4), np.arange(4)).ravel(), np.arange(7)).astype(float)
_I, _J = np.ogrid[:7, :3]
_STATIONARY = ((_I - 2 * _J)[..., None] * np.equal.outer(_I + _J - 1, np.arange(8))).reshape(21, 8)
#: A degree-7 polynomial's and its derivative's coefficients from its own;
#: its companion matrix is _SHIFT - monic coefficients x _LAST.
_NEWTON = np.stack([np.eye(8), np.diag(np.arange(1.0, 8.0), -1)], axis=2).reshape(8, 16)
_SHIFT, _LAST = np.eye(7, k=-1), np.eye(7)[-1]
#: Polynomial coefficients this small relative to their largest are round-off.
_ROUND_OFF = 1e-12


def _on_pair(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``first`` on wire i plus ``second`` on wire j, in (x_i, x_j, p_i, p_j)."""
    m = np.zeros((4, 4))
    m[0::2, 0::2], m[1::2, 1::2] = first, second
    return m


#: The Fourier variants (k, l) of a two-mode gate and their maps F^k + F^l;
#: F^-k for each k, which the wire's next gate applies first.
_VARIANTS = ((0, 0), (0, 1), (1, 0), (1, 1))
_VARIANT_MAPS = np.array([_on_pair(fourier_power(k).matrix, fourier_power(l).matrix) for k, l in _VARIANTS])
_UNDO = (_I2, fourier_power(-1).matrix)
_J2 = symplectic_form(2)
#: (kappa1, kappa2, eta3) = (s00 - s01, s11 - s01, -s01) of a symmetric S,
#: and (s00, s01, s01, s11) = (kappa1 + s01, s01, s01, kappa2 + s01).
_GAINS = np.array([[1.0, 0.0, 0.0], [-1.0, -1.0, -1.0], [0.0, 1.0, 0.0]])
_SYMMETRIC = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]])


def _families(ts: np.ndarray, tols: np.ndarray) -> tuple:
    """The symmetric S1 = (a b; b c) that make S3 = T_c - T_d S1 symmetric,
    for each gate of ``ts`` (m x 4 x 4).

    That is one linear equation g . (a, b, c) = r, with
    g = (T_d10, T_d11 - T_d00, -T_d01) and r = T_c10 - T_c01.  Returns the
    least-norm (a, b, c) (m x 3), an orthonormal basis of the family's
    directions (g's null space, in closed form; m x 3 x 3, unused rows 0),
    and their count: 2, or where |g| <= ``tols``, 3 (all of S1 space) if
    |r| <= ``tols`` and 0 (the family is empty) if not."""
    g = np.stack([ts[:, 3, 2], ts[:, 3, 3] - ts[:, 2, 2], -ts[:, 2, 3]], axis=1)
    r, norm = ts[:, 3, 0] - ts[:, 2, 1], np.sqrt(np.add.reduce(g * g, axis=1))
    flat = norm <= tols
    norm = np.where(flat, 1.0, norm)  # a flat row's results are replaced below
    g = g / norm[:, None]

    def cross(a, b):
        return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]

    v = cross(g, np.eye(3)[np.argmin(np.abs(g), axis=1)])  # the axis least along g
    v = v / np.where(flat, 1.0, np.sqrt(np.add.reduce(v * v, axis=1)))[:, None]
    bases = np.where(flat[:, None, None], np.eye(3), np.stack([v, cross(g, v), 0.0 * v], axis=1))
    starts = np.where(flat[:, None], 0.0, g * (r / norm)[:, None])
    return starts, bases, np.where(flat, np.where(np.abs(r) <= tols, 3, 0), 2)


def _chart(t: list, s) -> list:
    """The chain M(S4) M(S3) M(S2) M(S1) = T at S1 = (a b; b c), s = (a, b, c),
    in scalars (``t`` as nested lists) or arrays (``t`` as 4 x 4 x m), as
    one flat list: delta, S1, delta S2, S3 and delta S4 as symmetric (s00,
    s01, s11), then delta K (4 x 12, row-major).

    S3 = T_c - T_d S1, delta = det S3, S2 = S3^-1 (I - T_d) and
    S4 = (I - T_a + T_b S1) S3^-1, each read as symmetric through its (0, 1)
    entry.  K holds the responses of the chain's output to its ancillas'
    p-noises: connection gate t's three enter its output as e_{p_i}, e_{p_j}
    and eta_t (e_{x_i} + e_{x_j}), eta_t = -(S_t)01, and the later gates carry
    them on.  Scaled by delta, every entry of both is a polynomial in S1.
    """
    (a00, a01, b00, b01), (a10, a11, b10, b11), (c00, c01, d00, d01), (_, c11, d10, d11) = t
    x, y, z = s
    q00, q01, q10, q11 = b00 * x + b01 * y, b00 * y + b01 * z, b10 * x + b11 * y, b10 * y + b11 * z
    u00, u01, u11 = c00 - d00 * x - d01 * y, c01 - d00 * y - d01 * z, c11 - d10 * y - d11 * z
    det = u00 * u11 - u01 * u01
    n00, n01, n11 = u11 * (1.0 - d00) + u01 * d10, -u11 * d01 - u01 * (1.0 - d11), u00 * (1.0 - d11) + u01 * d01
    f00, f01, f10, f11 = 1.0 - a00 + q00, q01 - a01, q10 - a10, 1.0 - a11 + q11
    m00, m01, m11 = f00 * u11 - f01 * u01, f01 * u00 - f00 * u01, f11 * u00 - f10 * u01
    a00, a01, a10, a11 = a00 - q00, a01 - q01, a10 - q10, a11 - q11  # T_a - T_b S1 = I - S4 S3
    h0, h1 = d00 + d01, d10 + d11  # T_d h, h = (1, 1)
    g0, g1 = m00 * h0 + m01 * h1 + n00 + n01, m01 * h0 + m11 * h1 + n01 + n11
    o = 0.0 * det  # a zero of det's shape
    return [  # K's columns: gate 1's three noises (p_i, p_j, control), then gates 2, 3, 4's
        det, x, y, z, n00, n01, n11, u00, u01, u11, m00, m01, m11,
        det * a00, det * a01, -y * g0, m00, m01, -n01 * (a00 + a01), -det, o, u01 * (m00 + m01), o, o, -m01,
        det * a10, det * a11, -y * g1, m01, m11, -n01 * (a10 + a11), o, -det, u01 * (m01 + m11), o, o, -m01,
        det * u00, det * u01, y * det * h0, -det, o, -n01 * (u00 + u01), o, o, -u01 * det, det, o, o,
        det * u01, det * u11, y * det * h1, o, -det, -n01 * (u01 + u11), o, o, -u01 * det, o, det, o,
    ]


def _rows(ts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """:func:`_chart` of each gate of ``ts`` (m x 4 x 4) at its point (m x 3)."""
    return np.array(_chart(ts.transpose(1, 2, 0), points.T)).T


def _excess(rows: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """E = tr(W K K^T) of each chart row with its weight of ``ws``."""
    k = rows[:, 13:].reshape(-1, 4, 12)
    return np.add.reduce((k * (ws @ k)).reshape(-1, 48), axis=1) / rows[:, 0] ** 2


def _check(ts: np.ndarray, ws: np.ndarray, points: np.ndarray, limits: np.ndarray) -> tuple:
    """Each gate's excess at its point, whether its chain reproduces it to
    its limit in every entry with each gain as its homodyne angle realizes
    it (kappa = tan(arctan(kappa)), eta3 = cot(arctan2(1, eta3)); this fails
    at and next to a pole, and for a gain that is not finite), and the
    chain's (kappa1, kappa2, eta3) * 4."""
    rows = _rows(ts, points)
    excess, sym = _excess(rows, ws), rows[:, 1:13].reshape(-1, 4, 3)
    sym[:, 1::2] /= rows[:, :1, None]  # S1, S2, S3, S4
    params = sym @ _GAINS
    real = np.tan(np.arctan(params))
    real[..., 2] = -1.0 / np.tan(np.arctan2(1.0, params[..., 2]))  # S01
    s = real @ _SYMMETRIC  # S00, S01, S01, S11 as realized
    left, right = -s[..., :2, None], s[..., 2:, None]
    x, p = np.eye(4)[:2], np.eye(4)[2:]  # M(S) = (-S -I; I 0) on the columns of I,
    for g in range(4):  # x <- -S00 x0 - S01 x1 - p, p <- x in this order
        x, p = left[:, g] * x[..., :1, :] - right[:, g] * x[..., 1:, :] - p, x
    return excess, np.abs(np.concatenate([x, p], axis=1) - ts).max(axis=(1, 2)) <= limits, params


def _real_roots(num: np.ndarray) -> np.ndarray:
    """The real parts of the nonzero roots of each row of ``num`` (degree
    <= 7, ascending) that are real to
    :data:`~cvcluster.single_mode._NEAR_REAL`, nan elsewhere.  A leading
    coefficient at round-off (:data:`_ROUND_OFF`) would cost the companion's
    eigenvalues most of their digits, so each row is shifted up until a
    significant one leads, which adds roots at 0 only.  One eigvals call
    takes all rows, then each root gets a Newton step."""
    size = np.abs(num)
    shift = np.argmax(size[:, ::-1] > _ROUND_OFF * size.max(axis=1, keepdims=True), axis=1)
    padded = np.zeros((len(num), 15))
    padded[:, 7:] = num
    lead = padded[np.arange(len(num))[:, None], np.arange(7, 15) - shift[:, None]]
    monic = lead[:, :-1] / lead[:, -1:]  # nan for a zero row
    fits = np.isfinite(monic).all(axis=1)
    found = np.linalg.eigvals(_SHIFT - np.where(fits[:, None], monic, 0.0)[:, :, None] * _LAST)
    real = (np.abs(found.imag) <= _NEAR_REAL * np.abs(found.real)) & (found != 0.0) & fits[:, None]
    roots = np.where(real, found.real, np.nan)
    value = np.vander(roots.ravel(), 8, increasing=True).reshape(*roots.shape, 8) @ (num @ _NEWTON).reshape(-1, 8, 2)
    return roots - value[..., 0] / value[..., 1] + 0.0  # + 0.0: no root of -0.0


def _line_min(ts, ws, points, excess, directions, limits) -> None:
    """One line search per gate of ``ts``, all in one pass of arrays: in
    place, the point of least excess on the line points + u directions whose
    chain reproduces the gate, if it beats ``excess``.

    delta K is cubic in u and delta quadratic, both interpolated at
    :data:`_NODES`, so E delta^2 = P(u), of degree <= 6, comes from the
    Gram matrix of the cubic's coefficients, and E = P / delta^2 is
    stationary at the real roots of P' delta - 2 P delta'.  P loses digits
    next to delta = 0 and far out on the line, so each root is evaluated
    afresh (:func:`_check`)."""
    m = len(points)
    scale = np.sqrt(np.add.reduce(points * points, axis=1)) + 1.0
    nodes = points[:, None] + (scale[:, None] * _NODES)[..., None] * directions[:, None]
    rows = _rows(np.repeat(ts, 4, axis=0), nodes.reshape(-1, 3))
    coef = _VINV @ rows[:, 13:].reshape(m, 4, 48)
    gram = coef @ (ws[:, None] @ coef.reshape(m, 4, 4, 12)).reshape(m, 4, 48).transpose(0, 2, 1)
    p, dc = gram.reshape(m, 16) @ _POWER_SUMS, rows[:, 0].reshape(m, 4) @ _VINV[:3].T
    us = _real_roots((p[:, :, None] * dc[:, None, :]).reshape(m, 21) @ _STATIONARY)
    owner, root = np.nonzero(np.isfinite(us))
    tried = points[owner] + (scale[owner] * us[owner, root])[:, None] * directions[owner]
    fresh, ok, _ = _check(ts[owner], ws[owner], tried, limits[owner])
    better = np.flatnonzero(ok & (fresh < excess[owner]))
    for i in better[np.argsort(fresh[better], kind="stable")[::-1]].tolist():  # the first least one last
        points[owner[i]], excess[owner[i]] = tried[i], fresh[i]


def _two_mode_chains(gates: list) -> tuple:
    """Four connection gates for each two-mode gate (t, weight W, free),
    all swept in the same passes of arrays.

    A gate may realize a Fourier variant (F^k + F^l) t.  Its variants are
    taken in groups by how many F they forward to a wire without a later
    gate (``free`` false), fewest first, and the next group only if none of
    the last reproduced its variant.  Each variant starts at the least-norm
    S1 of its family (:func:`_families`) and minimizes once along each
    direction of it (:func:`_line_min`).  Returns each gate's excess per
    variant (m x 4) and chains ((kappa1, kappa2, eta3) * 4 per variant,
    m x 4 x 4 x 3).  The excess is finite only for the variants of the
    gate's first group with a chain that reproduces them to round-off
    (:data:`ROUNDOFF_TOL`), and inf elsewhere, next to a pole too."""
    ts = _VARIANT_MAPS @ np.array([t for t, _, _ in gates])[:, None]
    ws = _VARIANT_MAPS @ np.array([w for _, w, _ in gates])[:, None] @ _VARIANT_MAPS.transpose(0, 2, 1)
    scales = np.maximum(1.0, np.abs(ts[:, 0]).max(axis=(1, 2)))  # the same for every variant
    table, chains = np.full((len(gates), 4), np.inf), np.zeros((len(gates), 4, 4, 3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        starts, bases, counts = (x.reshape(len(gates), 4, *x.shape[1:]) for x in _families(
            ts.reshape(-1, 4, 4), np.repeat(FAMILY_TOL * scales, 4)))
        stages = []  # per gate: its groups of variants, in order
        for (_, _, free), count in zip(gates, counts.tolist()):
            extra = [sum(k and not f for k, f in zip(kl, free)) for kl in _VARIANTS]
            stages.append([
                [v for v in range(4) if count[v] and extra[v] == fewest]
                for fewest in sorted({extra[v] for v in range(4) if count[v]})
            ])
        while rows := [(i, v) for i in np.isinf(table).all(axis=1).nonzero()[0].tolist() if stages[i] for v in stages[i][0]]:
            for i in {i for i, _ in rows}:
                del stages[i][0]
            gate, variant = np.array(rows).T
            t, w, limits = ts[gate, variant], ws[gate, variant], ROUNDOFF_TOL * scales[gate]
            points = starts[gate, variant]
            excess = _excess(_rows(t, points), w)
            excess[np.isnan(excess)] = np.inf
            for direction in bases[gate, variant, : counts[gate, variant].max()].transpose(1, 0, 2):
                _line_min(t, w, points, excess, direction, limits)
            excess, ok, chains[gate, variant] = _check(t, w, points, limits)
            table[gate, variant] = np.where(ok & np.isfinite(excess), excess, np.inf)
    return table, chains


#: States (the powers the wires owe) that :func:`_choose_variants` keeps
#: after each gate, besides the gate-by-gate choice's.
BEAM = 64


def _choose_variants(gates: list, table: np.ndarray) -> list:
    """The Fourier variant of each two-mode gate (column, pair, pivot, ...,
    free) that together give the least (forced F, summed excess), from
    ``table``: each gate's excess per pair of powers (a, b) its wires owe and
    per variant (gates x 2 x 2 x 4, inf for no chain).

    A forward dynamic program over the powers owed by the wires that have a
    later gate (a state: a bit per wire) keeps, after each gate, the cheapest
    way to each state, and of these the :data:`BEAM` cheapest states and the
    state of the gate-by-gate choice (each gate the least share of the
    powers it owes).  Every wire's bit leaves after its last gate, so one
    state is left, and its way back gives the variants."""
    layer, walk, unset = [(0, (0, 0.0), ())], 0, (math.inf,)  # (state, cost, (way back, variant))
    for (column, (i, j), pivot, *_, free), shares in zip(gates, table.tolist()):
        keep = ~(1 << i | 1 << j)
        owes = [k * free[0] << i | l * free[1] << j for k, l in _VARIANTS]
        extras = [(k and not free[0]) + (l and not free[1]) for k, l in _VARIANTS]
        costs, backs = {}, {}
        for state, (forced, excess), back in layer:
            for v, share in enumerate(shares[state >> i & 1][state >> j & 1]):
                if share < math.inf:
                    key, cost = state & keep | owes[v], (forced + extras[v], excess + share)
                    if cost < costs.get(key, unset):
                        costs[key], backs[key] = cost, (back, v)
        if not costs:
            raise CompileError(
                f"no chain of four connection gates reproduces the two-mode gate on "
                f"wires {(i, j)} in column {column} (pivot {pivot:.3g})"
            )
        kept = sorted(costs, key=costs.__getitem__)[:BEAM]
        if walk is not None:
            row = shares[walk >> i & 1][walk >> j & 1]
            v = row.index(min(row))
            walk = walk & keep | owes[v] if row[v] < math.inf else None
            if walk is not None and walk not in kept:
                kept.append(walk)
        layer = [(key, costs[key], backs[key]) for key in kept]
    ((_, _, back),) = layer
    variants = []
    while back:
        back, v = back
        variants.append(v)
    return variants[::-1]


# ---------------------------------------------------------------------------
# The triangle: n(n - 1)/2 two-mode gates on adjacent wires
# ---------------------------------------------------------------------------

#: A step whose output rows are this small on its wire c, relative to their
#: largest entry, is trivial: its gate is the identity.
TRIVIAL_TOL = 1e-13
#: A row this small against the other one vanishes, and rows whose part
#: orthogonal to each other is this small against the longer are parallel
#: (rank 1; their second singular value is at most this times the first).
RANK_TOL = 1e-12


def _norm(x: np.ndarray) -> np.ndarray:
    """The norm along the last axis."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _balance(blocks: np.ndarray) -> np.ndarray:
    """The Sp(2) gauge +-V diag(sqrt(s2 / s1), sqrt(s1 / s2)), from the SVD
    U diag(s1, s2) V^T of each 2n x 2 column block (b1, b2) of ``blocks``,
    that gives the block two equal singular values; the sign makes the
    balanced block's largest x entry positive, so that the block does not
    depend on the SVD's signs.  In closed form, which keeps more digits than
    a batched SVD with the same sign and tie rules (the worst replay
    residual of random_symplectic(n, 7050 ... 7199), n = 2, 3, 4: 8.9e-14
    against 1.8e-13): V is the rotation onto the principal axes of the Gram
    matrix (a b; b c), s1^2 its larger eigenvalue and
    s1 s2 = |b1| |b2 - (b / a) b1|, which has no cancellation.  A block
    balanced to :data:`TIE_TOL` has no principal axes, and keeps V = I."""
    b1, b2 = blocks[..., 0], blocks[..., 1]
    gram = blocks.swapaxes(-1, -2) @ blocks
    a, b, c = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
    spread = np.hypot(0.5 * (a - c), b)
    tied = spread <= TIE_TOL * (a + c)
    angle = np.where(tied, 0.0, 0.5 * np.arctan2(2.0 * b, a - c))
    root = np.where(tied, 1.0, np.sqrt(np.sqrt(a) * _norm(b2 - (b / a)[..., None] * b1) / (0.5 * (a + c) + spread)))
    gauge = np.empty(a.shape + (2, 2))
    gauge[..., 0, 0], gauge[..., 1, 0] = np.cos(angle) * root, np.sin(angle) * root
    gauge[..., 0, 1], gauge[..., 1, 1] = -gauge[..., 1, 0] / root**2, gauge[..., 0, 0] / root**2
    x = (blocks @ gauge[..., :1])[..., 0]
    return gauge * np.sign(np.take_along_axis(x, np.abs(x).argmax(axis=-1)[..., None], axis=-1))[..., None]


def _symplectic_pair(a: np.ndarray, b: np.ndarray) -> tuple:
    """Each (a, b) (rows of m x 4) scaled to the symplectic pair
    (a, +-b) / sqrt(kappa), kappa = |omega(a, b)|; and kappa."""
    omega = np.add.reduce(a * (b @ _J2.T), axis=-1)
    scale = 1.0 / np.sqrt(np.abs(omega))[:, None]
    return a * scale, b * (np.sign(omega)[:, None] * scale), np.abs(omega)


def _first_long(x: np.ndarray) -> np.ndarray:
    """Per stack of ``x`` (m x 4 x 4), its first row of norm >= 0.4, as a
    unit: of the projections of the four axes onto a plane, one has norm
    >= 1/sqrt(2)."""
    norms = _norm(x)
    first = np.argmax(norms >= 0.4, axis=1)
    rows = np.arange(len(x))
    return x[rows, first] / norms[rows, first, None]


#: Each wire's (x, p) of a gate on (x_c, x_c+1, p_c, p_c+1).
_PAIRS = np.array([[0, 2], [1, 3]])
#: The axes of a gate's wires in the order (x_c+1, p_c+1, x_c, p_c).
_ORDER = [1, 3, 0, 2]
_AXES = np.eye(4)[_ORDER]


def _clearing(rows: np.ndarray) -> tuple:
    """For each pair of rows (u; v) of ``rows`` (m x 2 x 4, on (x_c, x_c+1,
    p_c, p_c+1)), the Sp(4) gate G with (u; v) G zero on wire c, and its
    pivot kappa.

    With an orthonormal basis q1, q2 of the rows' plane P (Gram-Schmidt from
    u, or from v where u vanishes to :data:`RANK_TOL`; q2 = -J q1 if the rows
    are parallel to that; singular vectors are arbitrary where the rows'
    singular values tie, and the gates would then move by O(1) under a
    round-off change of the target), kappa = |omega(q1, q2)|, and
    H^-1 = (f_c, f_a, f_d, f_b) maps wire c + 1 to (q1, +-q2) / sqrt(kappa)
    and wire c to an orthonormal pair of the plane's omega-complement J P^perp,
    scaled the same way.  G = H^T: (u; v) G = (H u; H v), and H's wire-c rows
    vanish on P.  G's wire-c columns are that pair's preimage (e1, e2) in
    P^perp, and e1, e2 come from the axes nearest wire c + 1
    (:func:`_first_long`).  The balanced gauge makes both bases immaterial
    unless a block is balanced already, as where an output's rows already
    sit on wire c alone: the gate is then a swap."""
    u, v = rows[:, 0], rows[:, 1]
    nu, nv = _norm(u)[:, None], _norm(v)[:, None]
    along = nu > RANK_TOL * nv
    q1, other = np.where(along, u / np.where(along, nu, nv), v / nv), np.where(along, v, u)
    w = other - np.add.reduce(q1 * other, axis=1)[:, None] * q1
    nw = _norm(w)[:, None]
    q2 = np.where(nw <= RANK_TOL * np.maximum(nu, nv), q1 @ _J2, w / nw)
    f_a, f_b, kappa = _symplectic_pair(q1, q2)
    rest = _AXES - q1[:, _ORDER, None] * q1[:, None] - q2[:, _ORDER, None] * q2[:, None]
    e1 = _first_long(rest)
    e2 = _first_long(rest - np.add.reduce(rest * e1[:, None], axis=2)[..., None] * e1[:, None])
    e1, e2, _ = _symplectic_pair(e1, e2)
    hinv = np.stack([e2 @ _J2.T, f_a, -e1 @ _J2.T, f_b], axis=2)  # f_c = J e2, f_d = -J e1
    return -_J2 @ hinv @ _J2, kappa  # H^T = (H^-1)^-T


def _triangle(matrix: np.ndarray) -> tuple:
    """S = Pi D G_m^-1 ... G_0^-1 L^-1 for a symplectic ``matrix`` S (n >= 2):
    L and D local, Pi the output labelling, and n(n - 1)/2 Sp(4) gates on
    adjacent wires, G_0^-1 applied first.

    M = S L, with L the gauge (:func:`_balance`) of each input block, is
    right-multiplied by clearing gates (:func:`_clearing`): stage by stage,
    for hi = n - 1 down to 1, the gates on wires (0, 1), ..., (hi - 1, hi)
    move one output's rows (x_o, p_o) entirely onto wire hi, and each gate
    balances its wires' column blocks again.  A step whose rows already
    vanish on wire c (:data:`TRIVIAL_TOL`) is the identity; it still emits
    its gate, so every target of one n gets the same gates.  Each stage
    tries every output left, all in one pass of arrays, and keeps the one
    whose least pivot over its non-trivial steps is largest (ties to the
    lowest).

    Returns L^-1 per wire, the gates in application order as
    ((c, c + 1), G^-1, pivot) (pivot 1 for a trivial step), D per wire and
    each wire's output port."""
    n = len(matrix) // 2
    blocks = np.array([[w, n + w] for w in range(n)])
    m = matrix.copy()
    gauge = _balance(np.stack([m[:, b] for b in blocks]))
    for b, a in zip(blocks, gauge):
        m[:, b] = m[:, b] @ a
    gates, ports, left = [], [0] * n, list(range(n))
    with np.errstate(divide="ignore", invalid="ignore"):  # trivial steps keep the identity
        for hi in range(n - 1, 0, -1):
            count = len(left)
            ms = np.repeat(m[None], count, axis=0)
            picked = np.arange(count)[:, None], blocks[left]
            worst, steps = np.full(count, np.inf), []
            for c in range(hi):
                cols = [c, c + 1, n + c, n + c + 1]
                rows = ms[picked]
                size = np.abs(rows).max(axis=(1, 2))
                trivial = np.abs(rows[:, :, blocks[c]]).max(axis=(1, 2)) <= TRIVIAL_TOL * size
                g, kappa = _clearing(rows[:, :, cols])
                g[trivial] = np.eye(4)
                part = ms[:, :, cols] @ g
                local = np.zeros_like(g)
                local[:, 0::2, 0::2], local[:, 1::2, 1::2] = _balance(part[:, :, _PAIRS].transpose(2, 0, 1, 3))
                local[trivial] = np.eye(4)
                ms[:, :, cols] = part @ local
                steps.append((g @ local, np.where(trivial, 1.0, kappa)))
                worst = np.where(trivial, worst, np.minimum(worst, kappa))
            k = int(np.argmax(worst >= (1.0 - TIE_TOL) * worst.max()))
            m, ports[hi] = ms[k], left.pop(k)
            gates += [((c, c + 1), -_J2 @ g[k].T @ _J2, float(kappa[k])) for c, (g, kappa) in enumerate(steps)]
    ports[0] = left[0]
    d = np.array([m[np.ix_(blocks[o], blocks[w])] for w, o in enumerate(ports)])
    # M has picked up round-off off these blocks; det 1 keeps each D symplectic
    # to round-off, and so the gate that absorbs it, which a chain must
    # reproduce to round-off.
    return np.linalg.inv(gauge), gates, d / np.sqrt(np.linalg.det(d))[:, None, None], ports


# ---------------------------------------------------------------------------
# Lowering to a cluster program
# ---------------------------------------------------------------------------


class _Builder:
    """Accumulates nodes, edges, schedule and gate records column by column.

    A two-mode gate may realize (F^k + F^l) T in place of T (k, l in {0, 1});
    ``forward`` holds the power each wire's next gate then undoes.
    ``kappa1`` pins the free parameter of every four-step gate.

    ``downstream`` is T P^-1, where T is the target and P the ideal map of
    the steps emitted so far: its (w, n + w) columns are the map D from
    wire w's current state to the program's outputs.  Each emission on k
    wires updates 2k of its columns; the two-mode gates update it in a
    first pass, without the Fourier powers they forward.
    """

    def __init__(self, target: SymplecticMap, kappa1: float = None):
        self.n = n = target.n
        self.kappa1 = kappa1
        self.downstream = target.matrix.copy()
        self.nodes = [
            Node(w, ROLE_INPUT, coupling=COUPLING_QND, port=w) for w in range(n)
        ]
        self.edges = []
        self.schedule = []
        self.records = []
        self.heads = {w: w for w in range(n)}
        self.forward = [0] * n
        self.column = 0
        self.total_proxy = 0.0

    def _new_node(self) -> int:
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, ROLE_ANCILLA))
        return node_id

    def _chain_steps(self, wire: int, kappas) -> None:
        for kappa in kappas:
            new = self._new_node()
            self.edges.append((self.heads[wire], new))
            self.schedule.append(
                ScheduleEntry(self.heads[wire], float(np.arctan(kappa)))
            )
            self.heads[wire] = new
            self.total_proxy += 1.0 + kappa * kappa

    def _advance(self, wires, inverse: np.ndarray) -> np.ndarray:
        """Account in ``downstream`` for a block B on ``wires``, applied after
        the steps so far and given by its ``inverse`` in (x..., p...) order:
        P <- B P, so T P^-1 <- T P^-1 B^-1.  Returns the wires' new columns."""
        idx = [*wires, *(self.n + w for w in wires)]
        self.downstream[:, idx] = cols = self.downstream[:, idx] @ inverse
        return cols

    def _four_step(self, wire: int, gate: np.ndarray) -> None:
        (a, b), (c, d) = gate.tolist()
        cols = self._advance((wire,), np.array([[d, -b], [-c, a]]))  # det 1
        (w11, w12), (_, w22) = (cols.T @ cols).tolist()
        params = decompose_four_step(
            SymplecticMap(1, gate), kappa1=self.kappa1, weight=(w11, w12, w22)
        )
        self._chain_steps(wire, params.kappas)
        meta = {
            "kappas": [float(k) for k in params.kappas],
            "free_kappa1": params.free_param,
            "excess": chain_excess(params.kappas, (w11, w12, w22)),
        }
        self.records.append(GateRecord("four-step", (wire,), self.column, meta))

    def _two_mode(self, pair: tuple, pivot: float, variant: int, chain: list, excess: float) -> None:
        """The four connection gates ``chain`` of the two-mode gate on
        ``pair``, which realizes its Fourier ``variant``."""
        self.forward[pair[0]], self.forward[pair[1]] = _VARIANTS[variant]
        for kappa1, kappa2, eta3 in chain:
            heads = [self.heads[w] for w in pair]
            self._chain_steps(pair[0], (kappa1,))
            self._chain_steps(pair[1], (kappa2,))
            ctrl = self._new_node()  # measured along x + eta3 p
            self.edges += [(head, ctrl) for head in heads]
            self.schedule.append(ScheduleEntry(ctrl, float(np.arctan2(1.0, eta3))))
            self.total_proxy += 1.0 + eta3**2
        meta = {
            "pivot": pivot,
            "fourier": list(_VARIANTS[variant]),
            "connections": [list(step) for step in chain],
            "excess": excess,
        }
        self.records.append(GateRecord("two-mode", pair, self.column, meta))

    def build(self, first: list, gates: list, last: list, ports: list, target: SymplecticMap) -> MeasurementProgram:
        """The program of :func:`_triangle`'s factors: each wire's L^-1
        (``first``), the two-mode gates (pair, G^-1, pivot) in application
        order, each wire's D (``last``), and wire w's output port ports[w].

        Each gate goes to the first column in which both its wires are free,
        so a column holds disjoint pairs, and the gates are emitted column by
        column, in application order within a column.  The application order
        itself is not column-major from n = 5 on (stage 4's gate (3, 4) in
        column 3 precedes stage 3's gate (0, 1) in column 2), and node ids,
        schedule order and :func:`_choose_variants` all follow the emission
        order.  A wire's first gate absorbs its L^-1 and its last gate its D,
        as nothing else acts on the wire before or after them:
        x = (h_i + h_j) G^-1 (g_i + g_j).  The same pass reads each gate's
        weight from ``downstream`` = T P^-1 without the powers owed, and
        poses the gate with every pair of powers its wires may owe,
        x (F^-a + F^-b).  One pass of arrays sweeps them all
        (:func:`_two_mode_chains`), and :func:`_choose_variants` picks the
        variants of all gates together.  A wire without gates (n = 1), and
        one that still owes a forced F, ends in a four-step gate."""
        columns, level = [], [0] * self.n  # each gate's column; one past each wire's last
        for pair, _, _ in gates:
            columns.append(max(level[w] for w in pair))
            for w in pair:
                level[w] = columns[-1] + 1
        posed, rows, problems, seen = [], np.full((len(gates), 2, 2), -1), [], set()
        for i, g in enumerate(sorted(range(len(gates)), key=columns.__getitem__)):
            (pair, core, pivot), column = gates[g], columns[g]
            free = [level[w] > column + 1 for w in pair]
            x = (_on_pair(*(_I2 if f else last[w] for w, f in zip(pair, free))) @ core
                 @ _on_pair(*(_I2 if w in seen else first[w] for w in pair)))
            cols = self._advance(pair, -_J2 @ x.T @ _J2)  # x^-1, x symplectic
            weight = cols.T @ cols
            for form in itertools.product(*((0, 1) if w in seen else (0,) for w in pair)):
                rows[(i, *form)] = len(problems)
                problems.append((x @ _on_pair(*(_UNDO[k] for k in form)), weight, free))
            posed.append((column, pair, pivot, free))
            seen.update(pair)
        if problems:  # none for n = 1
            table, chains = _two_mode_chains(problems)
            costs = np.vstack([table, np.full(4, np.inf)])[rows]  # row -1: a form no gate owes
            for i, ((column, pair, pivot, _), variant) in enumerate(zip(posed, _choose_variants(posed, costs))):
                self.column, form = column, tuple(self.forward[w] for w in pair)
                row = rows[(i, *form)]
                self._two_mode(pair, pivot, variant, chains[row, variant].tolist(), float(table[row, variant]))
        self.column = max(level)
        for wire, owed in enumerate(self.forward):
            if owed:
                self._advance((wire,), _UNDO[1])  # now T P^-1 on the wire
            if owed or not level[wire]:
                self._four_step(wire, _UNDO[1] if owed else last[wire] @ first[wire])
        head_ids = {self.heads[w]: ports[w] for w in range(self.n)}
        nodes = tuple(
            Node(node.id, ROLE_OUTPUT, port=head_ids[node.id])
            if node.id in head_ids
            else node
            for node in self.nodes
        )
        return MeasurementProgram(
            graph=ClusterGraph(nodes=nodes, edges=tuple(self.edges)),
            schedule=tuple(self.schedule),
            feedforward=(),
            target=target,
        )


def compile(target: SymplecticMap, kappa1: float = None):
    """Compile an n-mode symplectic target into a measurement program.

    Returns (MeasurementProgram, SynthesisReport).  A target of n >= 2
    modes is decomposed into the triangle of :func:`_triangle`: n(n - 1)/2
    gates on adjacent wires, stage by stage (0, 1), (1, 2), ...,
    (hi - 1, hi) for hi = n - 1 down to 1, each lowered to one two-mode gate
    of four connection gates (:meth:`_Builder.build`).  A generic target is
    6 n (n - 1) ancillas on one lattice per n: a trivial step still emits
    its gate, and only the output labels (which wire ends as which output
    port) vary with the target.  A one-mode target is one wire with L^-1 = I,
    D = the target and no gate, which lowers to a single four-step chain;
    ``kappa1`` pins its free parameter.  A two-mode gate may realize a
    Fourier variant (F^k + F^l) of its map; a wire left owing F ends in a
    four-step gate F^-1.

    The program's one check is its exact replay, which also yields the
    feedforward: ``replay_residual`` is max|replay - target| over the
    matrix entries, and a residual above ``REPLAY_TOL`` times
    max(1, max|target|) raises CompileError naming the worst entry.  The
    returned program keeps that replay, so a later ``exact_replay`` of it
    runs no second pass.
    """
    require_symplectic(target)
    n = target.n
    if kappa1 is not None and n != 1:
        raise ValueError(f"kappa1 pins a one-mode synthesis; the target has {n} modes")
    builder = _Builder(target, kappa1)
    factors = ([_I2], [], [target.matrix], [0]) if n == 1 else _triangle(target.matrix)
    bare = builder.build(*factors, target)

    check = exact_replay(bare)
    diff = np.abs(check.matrix - target.matrix)
    residual = float(diff.max())
    limit = REPLAY_TOL * max(1.0, float(np.abs(target.matrix).max()))
    if not residual <= limit:
        worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(diff)), diff.shape))
        raise CompileError(
            f"noise-free replay misses the target by {residual:.3e} at entry "
            f"{worst} (> {limit:.3e})"
        )
    program = replace(bare, feedforward=check.feedforward_rules())
    # The replay reads the graph and the schedule, never the rules, so the
    # check is the returned program's replay too (``MeasurementProgram.replay``).
    program.__dict__["replay"] = check
    report = SynthesisReport(
        ancilla_count=len(program.graph.nodes) - n,
        step_params=builder.records,
        noise_proxy=builder.total_proxy,
        replay_residual=residual,
    )
    return program, report
