"""Gaussian-state execution of measurement programs at finite squeezing.

States are (mean, covariance) pairs in x-then-p ordering with hbar = 1/2
(vacuum variance 1/4).  A program runs on the live frontier of its cluster,
the nodes that are coupled but not yet measured.  The executor's edge
scheduler (``executor._Frontier``) decides when each QND edge and Bell
splitter is applied and when a node's p-squeezed vacuum slot is opened or
freed; this module holds only the Gaussian arithmetic on the slots, with a
slot's x and p adjacent.  The state is therefore only as large as the
frontier; ``run_program``, ``effective_map`` and ``extract_effective_map``
never call the executor's replay.

Every homodyne detection is one in-place Schur-complement step
(``_condition``), its outcome pinned to zero or drawn from its prior as it
is measured.  Feedforward displacements are accumulated on the side and
added to the outputs at read-out, after all of their edges.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditioningError
from .executor import _Frontier
from .ir import ClusterGraph, MeasurementProgram
from .symplectic import (
    SymplecticMap,
    VACUUM_QUADRATURE_VARIANCE,
    symplectic_form,
)
from .teleport import BELL_SPLITTER

#: Physicality slack on the symplectic-eigenvalue bound >= 1/4.
PHYSICALITY_TOL = 1e-9


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
    if graph.input_ports():
        raise ValueError("build_cluster expects a graph without input ports")
    if not graph.nodes:
        raise ValueError("graph has no nodes")
    state = _Moments(graph, r, np.zeros(0), np.zeros((0, 0)))
    return GaussianState(*state.read([node.id for node in graph.nodes]))


class _Moments(_Frontier):
    """Mean and covariance of the live slots, as ``_Frontier`` schedules them.

    ``mean`` is a vector, or has one column per input-mean direction.  The
    ``tail`` rows after the slots are registers that no edge touches.
    """

    def __init__(self, graph, r: float, mean, cov, tail: int = 0):
        super().__init__(graph)
        n = self.size // 2
        if len(mean) != 2 * n:
            raise ValueError(f"program has {n} ports but input has {len(mean) // 2} modes")
        order = np.arange(2 * n).reshape(2, n).T.ravel()  # x0, p0, x1, p1, ...
        self.tail = tail
        self.mean = np.zeros((2 * n + tail,) + np.shape(mean)[1:])
        self.mean[: 2 * n] = mean[order]
        self.cov = np.zeros((2 * n + tail, 2 * n + tail))
        self.cov[: 2 * n, : 2 * n] = cov[order[:, None], order]
        self.squeezed = (np.exp(2.0 * r) / 4.0, np.exp(-2.0 * r) / 4.0)

    def read(self, node_ids):
        """Couple the nodes; return the mean and covariance of their x's,
        their p's and the tail."""
        xs = [self.couple(node_id) for node_id in node_ids]
        rows = len(self.cov)
        sel = np.array(xs + [x + 1 for x in xs] + list(range(rows - self.tail, rows)))
        return self.mean[sel], self.cov[sel[:, None], sel]

    def validate(self) -> None:
        """Check the physicality of the live slots' state."""
        xs = sorted(self.slot.values())
        sel = xs + [x + 1 for x in xs]
        validate_state(GaussianState(np.zeros(len(sel)), self.cov[np.ix_(sel, sel)]))

    def _grow(self, size: int) -> None:
        keep = np.arange(len(self.cov))  # old row -> new row; the tail moves to the end
        keep[keep >= len(self.cov) - self.tail] += size + self.tail - len(self.cov)
        mean = np.zeros((size + self.tail,) + self.mean.shape[1:])
        cov = np.zeros((size + self.tail, size + self.tail))
        mean[keep] = self.mean
        cov[keep[:, None], keep] = self.cov
        self.mean, self.cov = mean, cov

    def _open(self, node_id, xr: int) -> None:
        self.cov[xr, xr], self.cov[xr + 1, xr + 1] = self.squeezed

    def _qnd(self, xu: int, xv: int) -> None:
        # p_u += x_v, p_v += x_u: rows, then columns
        mean, cov = self.mean, self.cov
        mean[xu + 1] += mean[xv]
        mean[xv + 1] += mean[xu]
        cov[xu + 1] += cov[xv]
        cov[xv + 1] += cov[xu]
        cov[:, xu + 1] += cov[:, xv]
        cov[:, xv + 1] += cov[:, xu]

    def _bell(self, xa: int, xb: int) -> None:
        idx = [xa, xb, xa + 1, xb + 1]
        self.mean[idx] = BELL_SPLITTER @ self.mean[idx]
        self.cov[idx] = BELL_SPLITTER @ self.cov[idx]
        self.cov[:, idx] = self.cov[:, idx] @ BELL_SPLITTER.T

    def _clear(self, xr: int) -> None:
        self.mean[xr : xr + 2] = 0.0
        self.cov[xr : xr + 2] = 0.0
        self.cov[:, xr : xr + 2] = 0.0


def _condition(mean, cov, ix: int, ip: int, theta: float, rng, name: str) -> float:
    """Condition (mean, cov) in place on x sin(theta) + p cos(theta), with x
    and p at indices ix and ip; return the outcome.

    The outcome is drawn from its prior with ``rng``, or pinned to zero when
    ``rng`` is None; a ``mean`` with columns is conditioned column by column.
    """
    sin, cos = math.sin(theta), math.cos(theta)
    cv = sin * cov[:, ix] + cos * cov[:, ip]
    var = sin * cv[ix] + cos * cv[ip]
    if var <= 0.0:
        raise DegenerateConditioningError(
            f"measured quadrature on {name} has non-positive variance {var:.3e}"
        )
    prior = sin * mean[ix] + cos * mean[ip]
    outcome = 0.0 if rng is None else float(rng.normal(prior, math.sqrt(var)))
    mean += np.multiply.outer(cv / var, outcome - prior)
    cov -= np.outer(cv, cv) / var
    return outcome


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
    if policy.kind == "sampled" and rng is None:
        rng = np.random.default_rng(policy.seed)
    rng = rng if policy.kind == "sampled" else None
    mean, cov = state.mean.copy(), state.cov.copy()
    outcome = _condition(mean, cov, mode, n + mode, theta, rng, f"mode {mode}")
    keep = [i for i in range(2 * n) if i not in (mode, n + mode)]
    return outcome, GaussianState(mean[keep], cov[np.ix_(keep, keep)])


@contextlib.contextmanager
def _finite_moments(r: float):
    """Raise DegenerateConditioningError, naming the squeezing, where the
    moments overflow: first where a Schur update multiplies two antisqueezed
    variances, about e^{4r}/16, which leaves the double range above r = 178."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise DegenerateConditioningError(
            f"ancilla squeezing of {r_to_db(r):.6g} dB (r = {r:.6g}) overflows "
            "the Gaussian moments in double precision"
        ) from None


def _execute(program: MeasurementProgram, mean, cov, r, rng=None, validate=False):
    """Condition on the scheduled homodynes, drawing outcomes with ``rng``
    (pinned to zero if None); return the output ports' mean and covariance
    (x-then-p) and the outcome record.  ``validate`` checks the live modes
    after every step."""
    program.validate()
    with _finite_moments(r):
        state = _Moments(program.graph, r, mean, cov)
        outcomes = {}
        for entry in program.schedule:
            node = entry.node_id
            xr = state.couple(node)
            outcomes[node] = _condition(
                state.mean, state.cov, xr, xr + 1, entry.angle, rng, f"node {node}"
            )
            state.release(node)
            if validate:
                state.validate()
        out_mean, out_cov = state.read([p.id for p in program.graph.output_ports()])
    return out_mean, out_cov, outcomes


def run_program(
    program: MeasurementProgram,
    input_state: GaussianState,
    r: float,
    policy: OutcomePolicy = PINNED_ZERO,
    validate: bool = False,
):
    """Execute a compiled program on an input state at ancilla squeezing r.

    Couples the inputs to the ancillas (QND edges, or a Bell splitter for
    teleport ports) as the live frontier reaches them, runs the homodyne
    schedule, drawing each sampled outcome from its prior given the outcomes
    before it, applies the outcome-proportional feedforward displacements
    and the target's post-displacement, and returns (output state, outcome
    record).  The output modes follow the program's output-port order.
    """
    rng = np.random.default_rng(policy.seed) if policy.kind == "sampled" else None
    mean, cov, outcomes = _execute(
        program, input_state.mean, input_state.cov, r, rng, validate
    )
    # Feedforward lands after every edge of the outputs, so it is added here.
    gains = program.feedforward_gains()
    for node, value in outcomes.items():
        if value and node in gains:
            mean += value * gains[node]
    return GaussianState(mean + program.target.displacement, cov), outcomes


def effective_map(program: MeasurementProgram, r: float) -> SymplecticMap:
    """The program's effective map SymplecticMap(n, M, target displacement).

    M is the input response at pinned-zero outcomes, the map that
    ``run_program`` under ``PINNED_ZERO`` applies.  One conditioned pass on
    vacuum input carries the mean as a 2n-column linear function of the
    input mean.  M is only approximately symplectic at finite squeezing and
    converges to the compile target as r grows.
    """
    n = program.n
    matrix, _, _ = _execute(program, np.eye(2 * n), vacuum(n).cov, r)
    return SymplecticMap(n, matrix, program.target.displacement)


def extract_effective_map(program: MeasurementProgram, r: float):
    """The program's effective map and the excess noise of its channel.

    Returns (``effective_map(program, r)``, excess).  excess is the excess
    covariance of the feedforward-corrected channel, averaged over outcomes,
    from a second pass by deferred measurement.  A measured mode takes part
    in no later edge, so its outcome may be left as the quadrature q itself:
    each homodyne adds gain * q to 2n accumulator registers, the installed
    feedforward, and the measured mode is then marginalised, with no
    conditioning.  The channel output is ``out + acc``; run on an input of
    zero covariance, its covariance is the channel's excess itself.  The
    executor's exact ``N N^T e^{-2r}/4`` is the same quantity, found
    independently.
    """
    return effective_map(program, r), _channel_excess(program, r)


def _channel_excess(program: MeasurementProgram, r: float) -> np.ndarray:
    """The deferred-measurement pass of ``extract_effective_map``."""
    n = program.n
    gains = program.feedforward_gains()
    with _finite_moments(r):
        state = _Moments(program.graph, r, np.zeros(2 * n), np.zeros((2 * n, 2 * n)), 2 * n)
        for entry in program.schedule:
            xr = state.couple(entry.node_id)
            gain = gains.get(entry.node_id)
            if gain is not None:
                # acc += gain * q: rows, then columns
                cov = state.cov
                sin, cos = math.sin(entry.angle), math.cos(entry.angle)
                cq = sin * cov[:, xr] + cos * cov[:, xr + 1]
                cov[-2 * n :] += np.outer(gain, cq)
                cq[-2 * n :] += gain * (sin * cq[xr] + cos * cq[xr + 1])
                cov[:, -2 * n :] += np.outer(cq, gain)
            state.release(entry.node_id)
        _, joint = state.read([p.id for p in program.graph.output_ports()])
    excess = joint.reshape(2, 2 * n, 2, 2 * n).sum(axis=(0, 2))
    return (excess + excess.T) / 2.0
