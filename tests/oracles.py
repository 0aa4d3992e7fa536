"""Independent numerical oracles shared by the test modules."""

import itertools
import math

import numpy as np
from numpy.polynomial import Polynomial


def three_step_grid_minimum(target, lo=-10.0, hi=10.0, step=0.05):
    """Brute-force three-step search: best max-abs residual of
    M(k3) M(k2) M(k1) against the target over the full (k1, k2, k3) grid.

    Uses the closed-form entries of the three-step product, vectorized one
    k2 slice at a time; the d entry equals k2, constant per slice.
    """
    a, b = target.matrix[0]
    c, d = target.matrix[1]
    ks = np.arange(lo, hi + step / 2, step)
    k1 = ks[:, None]
    k3 = ks[None, :]
    best = np.inf
    for k2 in ks:
        res = np.abs((-k3 * k2 * k1 + k3 + k1) - a)
        np.maximum(res, np.abs((1.0 - k3 * k2) - b), out=res)
        np.maximum(res, np.abs((k2 * k1 - 1.0) - c), out=res)
        best = min(best, max(float(res.min()), abs(k2 - d)))
    return best


def elementary_matrix(kappa):
    """One gate-teleportation step M(kappa) = F O(kappa) = ((-kappa, -1), (1, 0)),
    O(kappa) the shear ((1, 0), (kappa, 1))."""
    return np.array([[-kappa, -1.0], [1.0, 0.0]])


def four_step_product(kappas):
    """Plain matrix product of the four elementary steps (no closed form)."""
    total = np.eye(2)
    for kappa in kappas:
        total = elementary_matrix(kappa) @ total
    return total


def telep_plus_two_product(params):
    """M(k4) M(k3) M_tel(theta+, theta-) of teleport+two-step parameters, a
    plain numpy product of ``teleport.mtel``'s matrix and two steps."""
    from cvcluster import mtel

    angles = params.angles
    return (
        elementary_matrix(params.kappa4)
        @ elementary_matrix(params.kappa3)
        @ mtel(angles.theta_plus, angles.theta_minus).matrix
    )


def apply_map(state, smap):
    """The Gaussian state after the affine symplectic map ``smap``:
    mean M mean + d, covariance M cov M^T."""
    from cvcluster import GaussianState

    matrix = smap.matrix
    return GaussianState(matrix @ state.mean + smap.displacement, matrix @ state.cov @ matrix.T)


def bloch_messiah_product(factors):
    """U diag(e^r, e^-r) V of Bloch-Messiah factors, a plain product."""
    r = np.asarray(factors.squeezings)
    squeezers = np.diag(np.concatenate([np.exp(r), np.exp(-r)]))
    return factors.passive_out.matrix @ squeezers @ factors.passive_in.matrix


def mesh_census(n, ops):
    """Plain product of a splitter mesh's wire ops, ("onemode", mode, 2x2
    matrix) or ("bs", (i, j), R), in application order, and its counts:
    (matrix, splitter pairs, one-mode ops, splitter layers by wire
    dependency).  A splitter acts as ((sqrt R, sqrt(1-R)), (sqrt(1-R),
    -sqrt R)) on both the x and the p block of its pair."""
    total = np.eye(2 * n)
    pairs, phases, level = [], 0, [0] * n
    for kind, modes, value in ops:
        step = np.eye(2 * n)
        if kind == "onemode":
            phases += 1
            idx = [modes, n + modes]
            step[np.ix_(idx, idx)] = value
        else:
            pairs.append(modes)
            t, u = np.sqrt(value), np.sqrt(1.0 - value)
            for offset in (0, n):
                idx = [offset + m for m in modes]
                step[np.ix_(idx, idx)] = [[t, u], [u, -t]]
            level[modes[0]] = level[modes[1]] = max(level[m] for m in modes) + 1
        total = step @ total
    return total, pairs, phases, max(level)


def dense_run_program(program, input_state, r, policy):
    """Reference execution with the dense remove-and-renumber homodyne loop.

    The coupled cluster is built as one Heisenberg-picture matrix (QND rows,
    then the Bell splitters of teleport ports) applied to the input and the
    p-squeezed ancillas.  Each homodyne then conditions the whole state by
    its own Schur complement, removes the measured mode and renumbers the
    survivors.  Sampled outcomes are drawn from each outcome's conditional
    distribution, in schedule order, from one generator seeded by the
    policy.  Returns (output mean, output covariance, outcome record).
    """
    from cvcluster.ir import COUPLING_TELEPORT
    from cvcluster.teleport import BELL_SPLITTER

    graph = program.graph
    n = program.n
    nodes = graph.input_ports() + graph.ancilla_nodes()
    size = len(nodes)
    live = {node.id: i for i, node in enumerate(nodes)}

    mean = np.zeros(2 * size)
    cov = np.zeros((2 * size, 2 * size))
    inputs = list(range(n)) + [size + i for i in range(n)]
    mean[inputs] = input_state.mean
    cov[np.ix_(inputs, inputs)] = input_state.cov
    for i in range(n, size):
        cov[i, i] = np.exp(2.0 * r) / 4.0
        cov[size + i, size + i] = np.exp(-2.0 * r) / 4.0

    teleport = {p.id for p in graph.input_ports() if p.coupling == COUPLING_TELEPORT}
    coupling = np.eye(2 * size)
    bell_pairs = []
    for u, v in graph.edges:
        if u in teleport or v in teleport:
            bell_pairs.append((u, v) if u in teleport else (v, u))
        else:
            j, k = live[u], live[v]
            coupling[[size + j, size + k]] += coupling[[k, j]]
    for port, partner in bell_pairs:
        a, b = live[port], live[partner]
        rows = [a, b, size + a, size + b]
        coupling[rows] = BELL_SPLITTER @ coupling[rows]
    mean = coupling @ mean
    cov = coupling @ cov @ coupling.T

    rng = np.random.default_rng(policy.seed) if policy.kind == "sampled" else None
    outcomes = {}
    for entry in program.schedule:
        mode = live.pop(entry.node_id)
        size = mean.size // 2
        q = np.zeros(2 * size)
        q[mode] = np.sin(entry.angle)
        q[size + mode] = np.cos(entry.angle)
        prior_mean = q @ mean
        prior_var = q @ cov @ q
        outcome = 0.0
        if rng is not None:
            outcome = float(rng.normal(prior_mean, np.sqrt(prior_var)))
        gain = cov @ q
        mean = mean + gain * ((outcome - prior_mean) / prior_var)
        cov = cov - np.outer(gain, gain) / prior_var
        keep = np.delete(np.arange(2 * size), [mode, size + mode])
        mean, cov = mean[keep], cov[np.ix_(keep, keep)]
        live = {node: i - (i > mode) for node, i in live.items()}
        outcomes[entry.node_id] = outcome

    size = mean.size // 2
    for rule in program.feedforward:
        t = live[rule.target_id]
        mean[t] += rule.gain_x * outcomes[rule.source_id]
        mean[size + t] += rule.gain_p * outcomes[rule.source_id]
    order = [live[p.id] for p in graph.output_ports()]
    sel = order + [size + i for i in order]
    return mean[sel] + program.target.displacement, cov[np.ix_(sel, sel)], outcomes


def dense_exact_replay(program):
    """Reference exact replay with one dense row per node over the whole basis.

    Every node gets its x and p rows over [z | w | u | s] up front; all QND
    edges are applied, then the Bell splitters of teleport ports, and only
    then is the schedule replayed, each measurement substituting its pivot
    noise in every row.  Returns (matrix, outcome_response, noise_response)
    and raises the executor's error classes on degenerate measurements and
    under-measured outputs.
    """
    from cvcluster.errors import DegenerateMeasurementError, ProgramError
    from cvcluster.executor import PIVOT_TOL
    from cvcluster.ir import COUPLING_TELEPORT
    from cvcluster.teleport import BELL_SPLITTER

    program.validate()
    graph = program.graph
    ports = graph.input_ports()
    ancillas = graph.ancilla_nodes()
    n, n_anc, n_meas = len(ports), len(ancillas), len(program.schedule)
    z0, w0, u0, s0 = 0, 2 * n, 2 * n + n_anc, 2 * n + 2 * n_anc

    nodes = ports + ancillas
    row_of = {node.id: (2 * i, 2 * i + 1) for i, node in enumerate(nodes)}
    rows = np.zeros((2 * len(nodes), s0 + n_meas))
    for port in ports:
        rows[row_of[port.id][0], z0 + port.port] = 1.0
        rows[row_of[port.id][1], z0 + n + port.port] = 1.0
    for j, anc in enumerate(ancillas):
        rows[row_of[anc.id][0], w0 + j] = 1.0
        rows[row_of[anc.id][1], u0 + j] = 1.0

    teleport = {p.id for p in ports if p.coupling == COUPLING_TELEPORT}
    bell_pairs = []
    for u, v in graph.edges:
        if u in teleport or v in teleport:
            bell_pairs.append((u, v) if u in teleport else (v, u))
        else:
            rows[row_of[u][1]] += rows[row_of[v][0]]
            rows[row_of[v][1]] += rows[row_of[u][0]]
    for port, partner in bell_pairs:
        (xa, pa), (xb, pb) = row_of[port], row_of[partner]
        rows[[xa, xb, pa, pb]] = BELL_SPLITTER @ rows[[xa, xb, pa, pb]]

    for k, entry in enumerate(program.schedule):
        xr, pr = row_of[entry.node_id]
        q = np.sin(entry.angle) * rows[xr] + np.cos(entry.angle) * rows[pr]
        pivot = int(np.argmax(np.abs(q[w0:u0])))
        c = q[w0 + pivot]
        if abs(c) < PIVOT_TOL * max(1.0, float(np.max(np.abs(q)))):
            raise DegenerateMeasurementError(f"node {entry.node_id} resolves no noise")
        # w_pivot = (s_k - (q - c w_pivot)) / c, substituted in every row
        w_expr = -q / c
        w_expr[w0 + pivot] = 0.0
        w_expr[s0 + k] = 1.0 / c
        w_expr[w0 + pivot] -= 1.0
        col = rows[:, w0 + pivot]
        nz = np.flatnonzero(col)
        rows[nz] += np.outer(col[nz], w_expr)

    out = np.zeros((2 * n, s0 + n_meas))
    for port in graph.output_ports():
        xr, pr = row_of[port.id]
        out[[port.port, n + port.port]] = rows[[xr, pr]]
    if n_anc and np.max(np.abs(out[:, w0:u0])) > 1e-9:
        raise ProgramError("an output retains antisqueezed ancilla noise")
    return out[:, z0 : z0 + 2 * n], out[:, s0:], out[:, u0:s0]


def d_zero_family():
    """One-mode targets ((a, b), (-1/b, 0)): det 1 and d = 0, the family three
    elementary steps cannot reach (for b != 1)."""
    from cvcluster import SymplecticMap

    return [
        SymplecticMap(1, np.array([[a, b], [-1.0 / b, 0.0]]))
        for a in np.linspace(-2, 2, 10)
        for b in (-3.0, -2.0, -1.5, -1.0, 0.5, 2.5)
    ]


def d_one_family(offset=0.0):
    """One-mode targets (((1 + bc)/d, b), (c, d)) with d = 1 + offset.  At
    d = 1 the kappa3 = 0 pole of the four-step formulas and the kappa4 pole of
    the teleport formulas, both at c/d, are 0/0; next to d = 1 the closed forms
    lose digits near that pole."""
    from cvcluster import SymplecticMap

    d = 1.0 + offset
    return [
        SymplecticMap(1, np.array([[(1.0 + b * c) / d, b], [c, d]]))
        for b in (-2.0, -0.5, 0.0, 0.5, 1.5)
        for c in (-1.2, 0.0, 0.1, 0.6, 2.0)
    ]


def near_d_one_targets():
    """d_one_family at offsets +-1e-5 ... +-1e-10."""
    return [
        target
        for k in range(5, 11)
        for sign in (1.0, -1.0)
        for target in d_one_family(sign * 10.0 ** -k)
    ]


def grid_free_kappa1(target):
    """Reference free-kappa1 search of the gain proxy (the choice before
    the excess was minimized): the 401-point grid over [-20, 20] with
    golden-section refinement of the best grid point.

    A local search, limited to |kappa1| <= 20.  Points within 1e-6 of the
    kappa3 = 0 pole are excluded unless both numerators vanish there.
    """
    from scipy import optimize

    from cvcluster.errors import SingularParameterError
    from cvcluster.single_mode import DEGENERATE_NUMERATOR_TOL, _solve, noise_proxy

    a, b, c, d = target.abcd()
    pole = c / d if abs(d) > 0.0 else None

    def objective(k1):
        try:
            kappas = _solve(a, b, c, d, k1)
        except SingularParameterError:
            return np.inf
        near_pole = pole is not None and abs(k1 - pole) < 1e-6
        numerators_vanish = (
            abs(1.0 - d) < DEGENERATE_NUMERATOR_TOL
            and abs(1.0 - a + b * k1) < DEGENERATE_NUMERATOR_TOL
        )
        if near_pole and not numerators_vanish:
            return np.inf
        return noise_proxy(kappas)

    return _grid_then_golden(objective, np.linspace(-20.0, 20.0, 401), optimize)


def executor_excess(target, kappa1=None):
    """tr(N N^T) of ``compile(target, kappa1=kappa1)``, read from the
    executor's noise response N."""
    from cvcluster import compile

    program, _ = compile(target, kappa1=kappa1)
    return float(np.sum(program.replay.noise_response ** 2))


def grid_exact_kappa1(target, grid=np.linspace(-20.0, 20.0, 81)):
    """Reference free-kappa1 search on the executor: the excess tr(N N^T) of
    ``compile(target, kappa1=k)`` over ``grid``, with golden-section
    refinement of the best grid point.

    A local search, limited to the grid's span.  A kappa1 that compile
    refuses (a pole, a degenerate measurement, or a replay that misses the
    target) scores inf.
    """
    from scipy import optimize

    from cvcluster.errors import CompileError, DegenerateMeasurementError, SingularParameterError

    def objective(k1):
        try:
            return executor_excess(target, float(k1))
        except (SingularParameterError, DegenerateMeasurementError, CompileError):
            return np.inf

    return _grid_then_golden(objective, grid, optimize)


def grid_free_theta0(target):
    """Reference free-theta0 search: a 401-point grid of (0, pi) with
    golden-section refinement of the best grid point."""
    from scipy import optimize

    from cvcluster.errors import SingularParameterError
    from cvcluster.teleport import _solve_telep, telep_noise_proxy

    a, b, c, d = target.abcd()

    def objective(t0):
        if not 0.0 < t0 < np.pi:
            return np.inf
        try:
            return telep_noise_proxy(*_solve_telep(a, b, c, d, t0))
        except SingularParameterError:
            return np.inf

    return _grid_then_golden(objective, np.linspace(0.0, np.pi, 403)[1:-1], optimize)


def _grid_then_golden(objective, grid, optimize):
    values = np.array([objective(x) for x in grid])
    i = int(np.argmin(values))
    best_x, best_v = float(grid[i]), float(values[i])
    if 0 < i < len(grid) - 1 and np.isfinite(values[i - 1]) and np.isfinite(values[i + 1]):
        try:
            res = optimize.minimize_scalar(
                objective,
                bracket=(float(grid[i - 1]), best_x, float(grid[i + 1])),
                method="golden",
                options={"xtol": 1e-12},
            )
            if np.isfinite(res.fun) and res.fun < best_v:
                return float(res.x)
        except ValueError:
            pass  # bracket not strictly unimodal at grid resolution
    return best_x


def kappa1_excess_polynomial(target, weight):
    """S' G^3 + T' G^2 - T G' G + Q' G - 2 Q G' of the four-step excess
    S + T / G + Q / G^2 in kappa1 (see ``single_mode.select_free_kappa1``),
    in numpy's Polynomial class."""
    a, b, c, d = target.abcd()
    w11, w12, w22 = weight
    k1 = Polynomial([0.0, 1.0])
    g = c - d * k1  # kappa3
    big_l = 1.0 - a + b * k1  # kappa3 kappa4
    big_a = 1.0 - big_l
    s = w11 * big_a ** 2 + 2.0 * w12 * big_a * g + w22 * g ** 2 + w11 + 2.0 * w22
    t = -2.0 * w12 * big_l
    q = w11 * big_l ** 2
    return s.deriv() * g ** 3 + t.deriv() * g ** 2 - t * g.deriv() * g + q.deriv() * g - 2.0 * q * g.deriv()


def kappa1_stationary_polynomial(target):
    """S' G^3 + Q' G - 2 G' Q of the four-step proxy in kappa1 (see
    ``single_mode.select_free_kappa1``), in numpy's Polynomial class."""
    a, b, c, d = target.abcd()
    k1 = Polynomial([0.0, 1.0])
    k3 = c - d * k1
    q = (1.0 - d) ** 2 + (1.0 - a + b * k1) ** 2
    return _stationary_polynomial(k1 ** 2 + k3 ** 2, q, k3)


def cot_theta0_stationary_polynomial(target):
    """S' G^3 + Q' G - 2 G' Q of the teleport proxy in u = cot(theta0) (see
    ``teleport.select_free_theta0``), in numpy's Polynomial class."""
    a, b, c, d = target.abcd()
    u = Polynomial([0.0, 1.0])
    kappa3 = c - (1.0 + d) * u
    q = ((1.0 - d) - u * (2.0 * c - (1.0 + d) * u)) ** 2 / 2.0 + (1.0 - a + b * u) ** 2
    return _stationary_polynomial(kappa3 ** 2, q, c - d * u)


def _stationary_polynomial(s, q, g):
    return s.deriv() * g ** 3 + q.deriv() * g - 2.0 * g.deriv() * q


def real_roots(polynomial):
    """numpy's roots of ``polynomial`` that are real to ``single_mode._NEAR_REAL``
    (a multiple root that round-off split counts), as their real parts."""
    from cvcluster.single_mode import _NEAR_REAL

    roots = polynomial.roots()
    return roots.real[np.abs(roots.imag) <= _NEAR_REAL * np.abs(roots.real)]


def polynomial_free_kappa1(target, weight):
    """The package's kappa1 choice, from numpy's roots of the package's
    numerators (``single_mode._kappa1_numerators``) and the pole c/d."""
    from functools import partial

    from cvcluster.single_mode import _kappa1_numerators, _kappa1_score, _select

    a, b, c, d = target.abcd()
    candidates = [
        x for row in _kappa1_numerators(a, b, c, d, weight) for x in real_roots(Polynomial(row))
    ]
    if d != 0.0:
        candidates.append(c / d)
    return _select(target, candidates, partial(_kappa1_score, a, b, c, d, weight), "kappa1")


def polynomial_free_theta0(target):
    """The package's theta0 choice, from theta0 = 0 for d = -1 and numpy's
    roots of the package's numerator (``teleport._cot_theta0_numerator``)."""
    from functools import partial

    from cvcluster.single_mode import DEGENERATE_NUMERATOR_TOL, _select
    from cvcluster.teleport import _cot_theta0_numerator, _theta0_score

    a, b, c, d = target.abcd()
    candidates = [0.0] if abs(1.0 + d) <= DEGENERATE_NUMERATOR_TOL else []
    roots = real_roots(Polynomial(_cot_theta0_numerator(a, b, c, d)))
    candidates += [math.atan2(1.0, x) for x in roots]
    return _select(target, candidates, partial(_theta0_score, a, b, c, d), "theta0 in [0, pi)")


def rsr_decompose(target):
    """Factor a one-mode symplectic map as R(phi1) S(xi) R(phi2), xi >= 0.

    Computed from the singular value decomposition of the 2x2 matrix with
    both orthogonal factors forced to be proper rotations.
    """
    from cvcluster import require_symplectic

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


def mtel_factored(theta_plus, theta_minus):
    """Rotation-squeeze-rotation factorization of the teleportation map.

    Returns (phi1, r, phi2) with M_tel = R(phi1) S(r) R(phi2), where
    phi1 = -theta_plus/2 + pi/4, phi2 = -theta_plus/2 - pi/4 and
    tanh(r) = sin(theta_minus): a 45-degree squeeze sandwiched by rotations.
    Raises the teleport module's DegenerateMeasurementError where
    cos(theta_minus) vanishes.
    """
    from cvcluster.teleport import _cos_theta_minus

    if _cos_theta_minus(theta_minus) < 0:  # shifting both angles by pi leaves M_tel unchanged
        theta_plus, theta_minus = theta_plus + np.pi, theta_minus + np.pi
    r = float(np.arctanh(np.sin(theta_minus)))
    phi1 = -theta_plus / 2.0 + np.pi / 4.0
    phi2 = -theta_plus / 2.0 - np.pi / 4.0
    return float(phi1), r, float(phi2)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _sweep_family(t, tol):
    """``multimode._families`` of one gate (nested lists), in scalars: the
    least-norm S1 = (a, b, c) with g . (a, b, c) = r, g = (T_d10,
    T_d11 - T_d00, -T_d01), r = T_c10 - T_c01, and an orthonormal basis of
    g's null space; all of S1 space if |g| <= ``tol`` and |r| <= ``tol``,
    None if |g| <= ``tol`` < |r|."""
    g, r = (t[3][2], t[3][3] - t[2][2], -t[2][3]), t[3][0] - t[2][1]
    norm = math.hypot(*g)
    if norm <= tol:
        return ((0.0, 0.0, 0.0), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))) if abs(r) <= tol else None
    g = tuple(x / norm for x in g)
    axis = min(range(3), key=lambda k: abs(g[k]))  # the one least along g
    v = _cross(g, [float(k == axis) for k in range(3)])
    v = tuple(x / math.hypot(*v) for x in v)
    return tuple(x * r / norm for x in g), (v, _cross(g, v))


def _sweep_chain(t, s, limit, errors=None):
    """The chain of the two-mode chart (``multimode._chart``) at S1 = s as
    connection-gate parameters [(kappa1, kappa2, eta3)] * 4, or None unless
    it reproduces ``t`` (nested lists) to ``limit`` in every entry with each
    gain as its homodyne angle realizes it: the column recursion of
    M(S) = (-S -I; I 0) in scalars.  Appends its largest error over
    ``limit`` to ``errors``, if given and the chain is finite."""
    from cvcluster.multimode import _chart

    row = _chart(t, s)
    det, chain = row[0], [tuple(row[1 + 3 * k : 4 + 3 * k]) for k in range(4)]
    if det == 0.0:
        return None
    chain[1], chain[3] = (tuple(x / det for x in m) for m in chain[1::2])
    params = [(p - q, r - q, -q) for p, q, r in chain]
    if not math.isfinite(sum(map(sum, params))):
        return None
    error = realized_chain_error(params, t)
    if errors is not None:
        errors.append(error / limit)
    return params if error <= limit else None


def realized_chain_error(params, t) -> float:
    """max |chain - t| over the entries of ``t`` (4 x 4) for connection gates
    [(kappa1, kappa2, eta3), ...] with each gain as its homodyne angle
    realizes it: the column recursion of M(S) = (-S -I; I 0) in scalars,
    with numpy's tan and arctan, as the program's.  nan if it is not finite."""
    cols = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    for kappa1, kappa2, eta3 in params:
        q = -1.0 / float(np.tan(np.arctan2(1.0, eta3)))
        p, r = float(np.tan(np.arctan(kappa1))) + q, float(np.tan(np.arctan(kappa2))) + q
        cols = [(-p * x0 - q * x1 - p0, -q * x0 - r * x1 - p1, x0, x1) for x0, x1, p0, p1 in cols]
    return float(np.max(np.abs(np.array(cols).T - np.asarray(t))))


def _sweep_excess(t, w, s):
    """tr(W K K^T) of the two-mode chart at S1 = s, and its delta."""
    from cvcluster.multimode import _chart

    row = np.array(_chart(t, s))
    k = row[13:].reshape(4, 12)
    return float(np.sum(k * (w @ k))) / row[0] ** 2, row[0]


def _sweep_line_min(t, w, s, excess, v, limit, errors=None):
    """One line search of a two-mode variant, in scalars: the admissible S1
    of least excess on the line s + u v and its excess, or (s, ``excess``).

    delta K (cubic in u) and delta (quadratic) are interpolated at the four
    nodes (-1, -1/3, 1/3, 1) times 1 + |s|; P = tr(W (delta K)(delta K)^T)
    comes from np.polynomial products.  Each real nonzero root of the
    stationary numerator P' delta - 2 P delta', less its coefficients at
    round-off (one companion matrix; real to ``single_mode._NEAR_REAL``, as
    a multiple root is split by round-off), gets one Newton step on the whole
    numerator and is evaluated afresh; the least excess whose chain
    reproduces ``t`` wins, as ``multimode._line_min`` does for all variants
    at once."""
    from cvcluster.multimode import _ROUND_OFF, _chart
    from cvcluster.single_mode import _NEAR_REAL, _roots, _trim

    scale = 1.0 + math.hypot(*s)
    nodes = (-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0)
    rows = np.array([_chart(t, [a + scale * u * b for a, b in zip(s, v)]) for u in nodes])
    vinv = np.linalg.inv(np.vander(nodes, 4, increasing=True))
    cubic = vinv @ rows[:, 13:]  # delta K's coefficients, one 4 x 12 per power
    quadratic = Polynomial((vinv @ rows[:, 0])[:3])
    gram = sum(
        Polynomial([0.0] * (i + j) + [float(np.sum(cubic[i].reshape(4, 12) * (w @ cubic[j].reshape(4, 12))))])
        for i in range(4) for j in range(4)
    )
    num = gram.deriv() * quadratic - 2.0 * gram * quadratic.deriv()
    coef = np.zeros(8)
    coef[: len(num.coef)] = num.coef
    slope = num.deriv()
    coef[np.abs(coef) <= _ROUND_OFF * np.abs(coef).max()] = 0.0
    best = (excess, s)
    roots = _roots(_trim(coef))  # and their real parts where real to _NEAR_REAL
    for u in roots.real[np.abs(roots.imag) <= _NEAR_REAL * np.abs(roots.real)].tolist():
        if u == 0.0:  # the line's own point
            continue
        u = u - num(u) / slope(u)  # a Newton step on the untrimmed numerator
        point = tuple(a + scale * u * b for a, b in zip(s, v))
        if _sweep_chain(t, point, limit, errors) is not None:
            fresh, _ = _sweep_excess(t, w, point)
            if fresh < best[0]:
                best = (fresh, point)
    return best[1], best[0]


def two_mode_sweep(t, w, free, errors=None):
    """Scalar reference of ``multimode._two_mode_chains``: the same sweep one
    gate, one variant and one line at a time.  The variants (F^k + F^l) t
    are taken in groups by how many F they forward to a wire without a
    later gate, fewest first.  Each starts at the least-norm S1 of its
    family (:func:`_sweep_family`) and is line-minimized once along each
    direction; the least excess among those whose chain reproduces their
    variant to ``multimode.ROUNDOFF_TOL`` relative to max(1, max|t|) wins,
    and the next group is tried only if there is none.  Returns (variant
    index, [(kappa1, kappa2, eta3)] * 4, excess) or None.  ``errors``, if
    given, gets every chain check's largest error over its limit, in order."""
    from cvcluster.multimode import FAMILY_TOL, ROUNDOFF_TOL, _VARIANT_MAPS, _VARIANTS

    ts = (_VARIANT_MAPS @ t).tolist()
    ws = _VARIANT_MAPS @ w @ _VARIANT_MAPS.transpose(0, 2, 1)
    scale = max(1.0, float(np.abs(t).max()))
    limit = ROUNDOFF_TOL * scale
    families = [_sweep_family(m, FAMILY_TOL * scale) for m in ts]
    extra = [sum(k and not f for k, f in zip(kl, free)) for kl in _VARIANTS]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for fewest in sorted({extra[v] for v in range(4) if families[v]}):
            found = []
            for v in (v for v in range(4) if families[v] and extra[v] == fewest):
                s, directions = families[v]
                e = _sweep_excess(ts[v], ws[v], s)[0]
                e = math.inf if math.isnan(e) else e
                for direction in directions:
                    s, e = _sweep_line_min(ts[v], ws[v], s, e, direction, limit, errors)
                chain = _sweep_chain(ts[v], s, limit, errors)
                if chain is not None:
                    found.append((e, v, chain))
            if found:
                e, v, chain = min(found, key=lambda f: f[0])
                return v, chain, e
    return None


def variant_walk(pairs, free, table, variants):
    """(forced F, summed excess) of the two-mode gates on ``pairs`` when
    gate g realizes Fourier variant ``variants[g]`` (an index of
    ``multimode._VARIANTS``), with ``table[g, a, b, v]`` the excess of gate
    g owing the powers (a, b) in variant v (inf: no chain), and ``free[g]``
    whether each of its wires has a later gate.  A wire owes the power its
    last gate forwarded, 0 before its first.  (inf, inf) if a gate has no
    chain."""
    from cvcluster.multimode import _VARIANTS

    owed, forced, total = {}, 0, 0.0
    for (i, j), later, costs, v in zip(pairs, free, table, variants):
        total += float(costs[owed.get(i, 0), owed.get(j, 0), v])
        if total == math.inf:
            return math.inf, math.inf
        owed[i], owed[j] = _VARIANTS[v]
        forced += sum(k and not f for k, f in zip(_VARIANTS[v], later))
    return forced, total


def joint_variant_minimum(pairs, free, table):
    """The least (forced F, summed excess) over every assignment of Fourier
    variants to the gates, 4^(gates) of them, by enumeration."""
    return min(variant_walk(pairs, free, table, vs) for vs in itertools.product(range(4), repeat=len(pairs)))


def greedy_variants(pairs, table) -> list:
    """The gate-by-gate choice: each gate, in order, takes the first
    variant of least excess for the powers it owes."""
    from cvcluster.multimode import _VARIANTS

    owed, variants = {}, []
    for (i, j), costs in zip(pairs, table):
        v = int(np.argmin(costs[owed.get(i, 0), owed.get(j, 0)]))
        owed[i], owed[j] = _VARIANTS[v]
        variants.append(v)
    return variants


def greedy_variant_walk(pairs, free, table):
    """(forced F, summed excess) of :func:`greedy_variants`."""
    return variant_walk(pairs, free, table, greedy_variants(pairs, table))
