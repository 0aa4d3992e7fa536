"""Gaussian-state execution of measurement programs at finite squeezing.

States are (mean, covariance) pairs in x-then-p ordering with hbar = 1/2
(vacuum variance 1/4).  Cluster construction applies QND gates to p-squeezed
vacua.  Every homodyne detection, in every execution path, is one in-place
Schur-complement step (``_condition``) on a mean carried as an affine
function of the input mean and the outcomes; it clears the measured mode.
Feedforward displaces surviving modes in proportion to recorded outcomes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditioningError
from .executor import exact_replay
from .ir import (
    COUPLING_TELEPORT,
    ClusterGraph,
    MeasurementProgram,
    ROLE_INPUT,
)
from .symplectic import (
    SymplecticMap,
    VACUUM_QUADRATURE_VARIANCE,
    symplectic_form,
)
from .teleport import BELL_SPLITTER

#: Physicality slack on the symplectic-eigenvalue bound >= 1/4.
PHYSICALITY_TOL = 1e-9
#: Default verification squeezing, ~130 dB: finite-squeezing error below 1e-10.
VERIFICATION_R = 15.0


def db_to_r(db: float) -> float:
    """Squeezing in dB to the squeezing parameter r (variance ratio e^{-2r})."""
    return db * np.log(10.0) / 20.0


def r_to_db(r: float) -> float:
    return 20.0 * r / np.log(10.0)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of n qumodes (x-then-p ordering)."""

    mean: np.ndarray
    cov: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, GaussianState):
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(
            self.cov, other.cov
        )

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError("mean must be a vector of even length")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class OutcomePolicy:
    """How homodyne outcomes are produced: pinned to zero, or sampled."""

    kind: str  # "pinned-zero" | "sampled"
    seed: int = None

    def __post_init__(self):
        if self.kind not in ("pinned-zero", "sampled"):
            raise ValueError(f"unknown outcome policy {self.kind!r}")


PINNED_ZERO = OutcomePolicy("pinned-zero")


def sampled(seed: int) -> OutcomePolicy:
    return OutcomePolicy("sampled", seed)


def vacuum(n: int) -> GaussianState:
    return GaussianState(np.zeros(2 * n), np.eye(2 * n) * VACUUM_QUADRATURE_VARIANCE)


def squeezed_vacuum(r: float) -> GaussianState:
    """One-mode squeezed vacuum, cov diag(e^{2r}, e^{-2r})/4; r > 0 squeezes p."""
    return GaussianState(
        np.zeros(2), np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)]) / 4.0
    )


def coherent(n: int, mean) -> GaussianState:
    """Vacuum displaced to the given 2n mean vector."""
    mean = np.asarray(mean, dtype=float)
    return GaussianState(mean, np.eye(2 * n) * VACUUM_QUADRATURE_VARIANCE)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two registers (modes of a first)."""
    na, nb = a.n, b.n
    n = na + nb
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    ia = list(range(na)) + [n + i for i in range(na)]
    ib = [na + i for i in range(nb)] + [n + na + i for i in range(nb)]
    mean[ia] = a.mean
    mean[ib] = b.mean
    cov[np.ix_(ia, ia)] = a.cov
    cov[np.ix_(ib, ib)] = b.cov
    return GaussianState(mean, cov)


def apply_map(state: GaussianState, smap: SymplecticMap, modes=None) -> GaussianState:
    """Apply a symplectic map (embedded on the given modes if supplied)."""
    if modes is not None:
        from .symplectic import embed

        smap = embed(smap, state.n, modes)
    if smap.n != state.n:
        raise ValueError(f"map acts on {smap.n} modes, state has {state.n}")
    mean = smap.matrix @ state.mean + smap.displacement
    cov = smap.matrix @ state.cov @ smap.matrix.T
    return GaussianState(mean, cov)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Williamson eigenvalues of a covariance matrix (physical iff >= 1/4)."""
    n = cov.shape[0] // 2
    eig = np.linalg.eigvals(symplectic_form(n) @ cov)
    values = np.sort(np.abs(eig.imag))
    return values[n:]  # each eigenvalue appears as +-i nu


def validate_state(state: GaussianState, tol: float = PHYSICALITY_TOL) -> None:
    """Check covariance symmetry and the uncertainty bound."""
    asym = float(np.max(np.abs(state.cov - state.cov.T)))
    if asym > 1e-12:
        raise ValueError(f"covariance asymmetry {asym:.2e} exceeds 1e-12")
    nu = symplectic_eigenvalues(state.cov)
    if nu.size and float(nu.min()) < VACUUM_QUADRATURE_VARIANCE - tol:
        raise ValueError(
            f"state is unphysical: symplectic eigenvalue {nu.min():.6g} < 1/4"
        )


def build_cluster(graph: ClusterGraph, r: float) -> GaussianState:
    """Tensor p-squeezed vacua over the graph nodes and apply a QND gate
    per edge.  Every node must be a squeezed mode (no input ports); the
    state's mode order follows the graph's node order."""
    graph.validate()
    if any(node.role == ROLE_INPUT for node in graph.nodes):
        raise ValueError("build_cluster expects a graph without input ports")
    if not graph.nodes:
        raise ValueError("graph has no nodes")
    mean, cov, _ = _couple(graph, np.zeros(0), np.zeros((0, 0)), r)
    return GaussianState(mean, cov)


def _apply_qnd_inplace(mean, cov, n, j, k):
    # p_j += x_k ; p_k += x_j  (x rows untouched, so order is immaterial)
    mean[n + j] += mean[k]
    mean[n + k] += mean[j]
    cov[n + j, :] += cov[k, :]
    cov[n + k, :] += cov[j, :]
    cov[:, n + j] += cov[:, k]
    cov[:, n + k] += cov[:, j]


def _apply_bell_inplace(mean, cov, n, a, b):
    # Balanced Bell splitter on modes (a, b), a the input port.
    idx = [a, b, n + a, n + b]
    mean[idx] = BELL_SPLITTER @ mean[idx]
    cov[idx, :] = BELL_SPLITTER @ cov[idx, :]
    cov[:, idx] = cov[:, idx] @ BELL_SPLITTER.T


def _condition(mean, cov, mode: int, theta: float, column: int):
    """Condition (mean, cov) in place on x sin(theta) + p cos(theta) of a mode.

    ``mean`` is an affine mean, one column per variable; the outcome is the
    variable of ``column``.  Only rows and columns where the measured
    quadrature has support are updated.  Returns the outcome's prior (its
    mean row) and variance, then clears the measured mode's rows and columns.
    """
    total = cov.shape[0] // 2
    sin, cos = math.sin(theta), math.cos(theta)
    cv = sin * cov[:, mode] + cos * cov[:, total + mode]
    var = sin * cv[mode] + cos * cv[total + mode]
    if var <= 0.0:
        raise DegenerateConditioningError(
            f"measured quadrature on mode {mode} has non-positive variance {var:.3e}"
        )
    prior = sin * mean[mode] + cos * mean[total + mode]
    innovation = -prior
    innovation[column] += 1.0
    support = np.flatnonzero(cv)
    cv = cv[support]
    mean[support] += np.outer(cv / var, innovation)
    cov[support[:, None], support] -= np.outer(cv, cv) / var
    for i in (mode, total + mode):
        mean[i] = 0.0
        cov[i] = 0.0
        cov[:, i] = 0.0
    return prior, var


def homodyne_measure(
    state: GaussianState,
    mode: int,
    theta: float,
    policy: OutcomePolicy = PINNED_ZERO,
    rng: np.random.Generator = None,
):
    """Measure x sin(theta) + p cos(theta) on a mode.

    Returns (outcome, conditional state with the mode removed).  The
    conditional covariance does not depend on the outcome value.
    """
    n = state.n
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} out of range for n={n}")
    mean = np.column_stack([state.mean, np.zeros(2 * n)])
    cov = state.cov.copy()
    prior, var = _condition(mean, cov, mode, theta, 1)
    outcome = 0.0
    if policy.kind == "sampled":
        if rng is None:
            rng = np.random.default_rng(policy.seed)
        outcome = float(rng.normal(prior[0], np.sqrt(var)))
    keep = [i for i in range(2 * n) if i not in (mode, n + mode)]
    return outcome, GaussianState(
        mean[keep, 0] + mean[keep, 1] * outcome, cov[np.ix_(keep, keep)]
    )


def _couple(graph: ClusterGraph, input_mean, input_cov, r: float):
    """Tensor the input with p-squeezed ancillas and apply the graph's
    couplings (QND edges, then the Bell splitters of teleport ports).

    ``input_mean`` is a 2n vector, or a 2n-by-c array whose columns are
    carried along as an affine mean.  Returns (mean, cov, mode_of), with the
    inputs on modes 0..n-1 in port order and the ancillas after them in
    graph order.
    """
    ports = graph.input_ports()
    n = len(ports)
    if len(input_mean) != 2 * n:
        raise ValueError(
            f"program has {n} ports but input has {len(input_mean) // 2} modes"
        )
    ancillas = graph.ancilla_nodes()
    total = n + len(ancillas)

    mean = np.zeros((2 * total,) + np.shape(input_mean)[1:])
    cov = np.zeros((2 * total, 2 * total))
    in_idx = list(range(n)) + [total + i for i in range(n)]
    cov[np.ix_(in_idx, in_idx)] = input_cov
    mean[in_idx] = input_mean
    mode_of = {}
    for port in ports:
        mode_of[port.id] = port.port
    for j, anc in enumerate(ancillas):
        mode = n + j
        mode_of[anc.id] = mode
        cov[mode, mode] = np.exp(2.0 * r) / 4.0
        cov[total + mode, total + mode] = np.exp(-2.0 * r) / 4.0

    node_map = graph.node_map()
    bell_pairs = []
    for u, v in graph.edges:
        nu, nv = node_map[u], node_map[v]
        teleport = None
        for a, b in ((nu, nv), (nv, nu)):
            if a.role == ROLE_INPUT and a.coupling == COUPLING_TELEPORT:
                teleport = (a.id, b.id)
                break
        if teleport is not None:
            bell_pairs.append(teleport)
        else:
            _apply_qnd_inplace(mean, cov, total, mode_of[u], mode_of[v])
    for port_id, partner_id in bell_pairs:
        _apply_bell_inplace(mean, cov, total, mode_of[port_id], mode_of[partner_id])
    return mean, cov, mode_of


def _execute(program: MeasurementProgram, input_mean, input_cov, r, validate=False):
    """Couple the inputs, condition on every scheduled homodyne and install
    the feedforward, on an affine mean.

    ``input_mean`` is a 2n-by-c array; outcome k (schedule order) is the
    variable of column c + k.  Returns the output ports' affine mean
    (2n-by-(c + m)) and covariance, and each outcome's prior row and
    variance.  ``validate`` checks the unmeasured modes after every step.
    """
    program.validate()
    c = input_mean.shape[1]
    m = len(program.schedule)
    mean, cov, mode_of = _couple(
        program.graph,
        np.hstack([input_mean, np.zeros((len(input_mean), m))]),
        input_cov,
        r,
    )
    total = cov.shape[0] // 2
    prior = np.zeros((m, c + m))
    var = np.zeros(m)
    live = np.ones(2 * total, dtype=bool)
    for k, entry in enumerate(program.schedule):
        mode = mode_of[entry.node_id]
        prior[k], var[k] = _condition(mean, cov, mode, entry.angle, c + k)
        if validate:
            live[[mode, total + mode]] = False
            keep = np.flatnonzero(live)
            validate_state(GaussianState(np.zeros(keep.size), cov[np.ix_(keep, keep)]))

    column = {entry.node_id: c + k for k, entry in enumerate(program.schedule)}
    for rule in program.feedforward:
        t = mode_of[rule.target_id]
        mean[t, column[rule.source_id]] += rule.gain_x
        mean[total + t, column[rule.source_id]] += rule.gain_p

    order = [mode_of[p.id] for p in program.graph.output_ports()]
    sel = order + [total + t for t in order]
    return mean[sel], cov[np.ix_(sel, sel)], prior, var


def run_program(
    program: MeasurementProgram,
    input_state: GaussianState,
    r: float,
    policy: OutcomePolicy = PINNED_ZERO,
    validate: bool = False,
):
    """Execute a compiled program on an input state at ancilla squeezing r.

    Builds the ancilla cluster, couples the inputs (QND edges, or a Bell
    splitter for teleport ports), runs the homodyne schedule, applies the
    outcome-proportional feedforward displacements and the target's
    post-displacement, and returns (output state, outcome record).  The
    output modes follow the program's output-port order.
    """
    out, cov, prior, var = _execute(
        program, input_state.mean[:, None], input_state.cov, r, validate
    )
    s = np.zeros(len(var))
    if policy.kind == "sampled":
        # Outcome k is drawn from its prior given the input and outcomes 0..k-1.
        rng = np.random.default_rng(policy.seed)
        for k in range(len(var)):
            s[k] = rng.normal(prior[k, 0] + prior[k, 1:] @ s, np.sqrt(var[k]))
    outcomes = {
        entry.node_id: float(value) for entry, value in zip(program.schedule, s)
    }
    mean = out[:, 0] + out[:, 1:] @ s + program.target.displacement
    return GaussianState(mean, cov), outcomes


def extract_effective_map(
    program: MeasurementProgram, r: float, policy: OutcomePolicy = PINNED_ZERO
):
    """The program's effective map and the excess noise of its channel.

    One Gaussian pass on vacuum input carries the mean as a linear function
    of the input mean z (2n) and the outcomes s (m, schedule order): every
    homodyne applies the same Schur-complement update to each column, and
    records the outcome's prior, s_k = P_k z + R_k s + e_k, where the
    innovations e_k are independent with the prior variance of the measured
    quadrature.  The installed feedforward gains are then added to the
    outputs' s-columns, leaving output mean = M z + S s.

    Returns (SymplecticMap(n, M, target displacement), excess):

    * M is the input response at pinned-zero outcomes (s = 0), the map that
      ``run_program`` under ``PINNED_ZERO`` applies.  It is only
      approximately symplectic at finite squeezing and converges to the
      compile target as r grows.
    * excess is the excess covariance of the feedforward-corrected channel,
      averaged over outcomes.  Eliminating s = (I - R)^{-1} (P z + e) gives
      the channel map M_ch = M + K P and covariance
      cov(out | s) + K diag(var_q) K^T, with K = S (I - R)^{-1}; excess is
      that covariance minus M_ch (I/4) M_ch^T, symmetrized.  The
      executor's exact ``N N^T e^{-2r}/4`` is the same quantity, found
      independently.
    """
    if policy.kind != "pinned-zero":
        raise ValueError("effective-map probing requires the pinned-zero policy")
    n = program.n
    m = len(program.schedule)
    out, out_cov, prior, var = _execute(
        program, np.eye(2 * n), np.eye(2 * n) * VACUUM_QUADRATURE_VARIANCE, r
    )
    effective = out[:, : 2 * n]
    k_gain = np.linalg.solve(np.eye(m) - prior[:, 2 * n :].T, out[:, 2 * n :].T).T
    channel = effective + k_gain @ prior[:, : 2 * n]
    channel_cov = out_cov + (k_gain * var) @ k_gain.T
    excess = channel_cov - channel @ channel.T * VACUUM_QUADRATURE_VARIANCE
    excess = (excess + excess.T) / 2.0
    return SymplecticMap(n, effective, program.target.displacement), excess


def predicted_excess(program: MeasurementProgram, r: float) -> np.ndarray:
    """Exact excess covariance of the corrected outputs at squeezing r,
    from the linear replay's ancilla-noise response."""
    return exact_replay(program).excess_covariance(r)
