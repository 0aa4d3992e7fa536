"""Independent numerical oracles shared by the test modules."""

import numpy as np


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


def four_step_product(kappas):
    """Plain matrix product of the four elementary steps (no closed form)."""
    total = np.eye(2)
    for kappa in kappas:
        total = np.array([[-kappa, -1.0], [1.0, 0.0]]) @ total
    return total


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
    from cvcluster import bell_splitter_relations
    from cvcluster.ir import COUPLING_TELEPORT

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
    bell = bell_splitter_relations().matrix
    for port, partner in bell_pairs:
        a, b = live[port], live[partner]
        rows = [a, b, size + a, size + b]
        coupling[rows] = bell @ coupling[rows]
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
    from cvcluster import bell_splitter_relations
    from cvcluster.errors import DegenerateMeasurementError, ProgramError
    from cvcluster.executor import PIVOT_TOL
    from cvcluster.ir import COUPLING_TELEPORT

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
    bell = bell_splitter_relations().matrix
    for port, partner in bell_pairs:
        (xa, pa), (xb, pb) = row_of[port], row_of[partner]
        rows[[xa, xb, pa, pb]] = bell @ rows[[xa, xb, pa, pb]]

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
    """Reference free-kappa1 search: the 401-point grid over [-20, 20] with
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
