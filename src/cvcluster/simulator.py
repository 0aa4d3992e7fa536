"""Gaussian-state execution of measurement programs at finite squeezing.

States are (mean, covariance) pairs in x-then-p ordering with hbar = 1/2
(vacuum variance 1/4).  A program runs on the live frontier of its cluster,
the nodes that are coupled but not yet measured.  The executor's edge
scheduler (``executor._Frontier``) decides when each QND edge and Bell
splitter is applied and when a node's p-squeezed vacuum slot is opened or
freed.  That bookkeeping runs once per cluster structure (graph and
schedule order), shared with the executor's replay.  A program's tape
(``MeasurementProgram.tape``, from ``executor.record``) is that
structure's blocks plus the program's own homodyne angles, and this module
holds only the Gaussian arithmetic that replays it on the slots, with a
slot's x and p adjacent.  The state is therefore only as large as the
frontier; ``run_program``, ``effective_map`` and ``extract_effective_map``
never call the executor's replay.

A tape block is up to ``executor.TAPE_BLOCK`` consecutive homodynes.  It
opens its slots, applies its couplings as one matrix, conditions on its k
homodynes at once and clears their slots.  The homodyne angles never wait
on an outcome, since every correction is a displacement, so the k
conditionings are one Schur complement with their k-by-k covariance; its
Cholesky factor draws sampled outcomes exactly as k one-at-a-time draws
would.  The tape holds only the frontier.  Feedforward displacements are
added to the outputs at read-out, after all of their edges, as one
product of the outcomes with the program's ``gain_table``.

Since outcomes only displace, the conditioned covariance is the same for
every outcome record.  A pass is therefore split in two.  The plan
(``covariance_plan``) conditions the covariance alone and keeps, per
block, the Cholesky factor L of the homodynes' covariance and the gain K
that moves the mean per unit outcome, and the read-out covariance.  A
shot (``shot``) replays the plan on a mean: couplings, outcomes prior +
L z or 0, the K update and the cleared rows.  ``MeasurementProgram.plan``
keeps the last plan of a program, keyed by r and the input covariance's
bytes, so repeated shots and ``effective_map`` at one squeezing share one
covariance pass.
"""

import contextlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateConditioningError
from .executor import record
from .ir import ClusterGraph, MeasurementProgram
from .symplectic import (
    SymplecticMap,
    VACUUM_QUADRATURE_VARIANCE,
    symplectic_form,
)

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


def coherent(n: int, mean) -> GaussianState:
    """Vacuum displaced to the given 2n mean vector."""
    mean = np.asarray(mean, dtype=float)
    return GaussianState(mean, np.eye(2 * n) * VACUUM_QUADRATURE_VARIANCE)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Williamson eigenvalues of a covariance matrix (physical iff >= 1/4)."""
    n = cov.shape[0] // 2
    eig = np.linalg.eigvals(symplectic_form(n) @ cov)
    values = np.sort(np.abs(eig.imag))
    return values[n:]  # each eigenvalue appears as +-i nu


def validate_state(state: GaussianState) -> None:
    """Check covariance symmetry and the uncertainty bound."""
    asym = float(np.max(np.abs(state.cov - state.cov.T)))
    if asym > 1e-12:
        raise ValueError(f"covariance asymmetry {asym:.2e} exceeds 1e-12")
    nu = symplectic_eigenvalues(state.cov)
    if nu.size and float(nu.min()) < VACUUM_QUADRATURE_VARIANCE - PHYSICALITY_TOL:
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
    tape = record(graph, (), [node.id for node in graph.nodes])
    state = _Covariance(tape, r, np.zeros((0, 0)))
    state.couple(tape.blocks[0])
    return GaussianState(np.zeros(2 * len(graph.nodes)), state.read())


def _interleaved(n: int) -> np.ndarray:
    """The x-then-p indices of n modes in slot order: x0, p0, x1, p1, ..."""
    return np.arange(2 * n).reshape(2, n).T.ravel()


class _Covariance:
    """Covariance of a tape's storage rows, which the tape's blocks update
    in place.  The ``tail`` rows after the storage are registers that no
    coupling touches."""

    def __init__(self, tape, r: float, cov, tail: int = 0):
        n = tape.ports
        if len(cov) != 2 * n:
            raise ValueError(f"program has {n} ports but input has {len(cov) // 2} modes")
        order = _interleaved(n)
        rows = tape.size + tail
        self.tape, self.tail = tape, tail
        self.cov = np.zeros((rows, rows))
        self.cov[: 2 * n, : 2 * n] = cov[order[:, None], order]
        self.squeezed = (np.exp(2.0 * r) / 4.0, np.exp(-2.0 * r) / 4.0)

    def couple(self, block) -> None:
        """Open the block's slots and apply its couplings."""
        cov = self.cov
        cov[block.opens, block.opens], cov[block.opens + 1, block.opens + 1] = self.squeezed
        if len(block.rows):
            rows, coupling = block.rows, block.coupling
            cov[rows] = coupling @ cov[rows]
            cov[:, rows] = cov[:, rows] @ coupling.T

    def quadratures(self, block, weights):
        """cov q for each homodyne q of the block (a column each), and
        their k-by-k covariance; ``weights`` are the tape's for the block."""
        k, rows = len(block.nodes), block.measured
        both = self.cov[:, rows] * weights
        cq = both[:, :k] + both[:, k:]
        both = cq[rows] * weights[:, None]
        return cq, both[:k] + both[k:]

    def condition(self, block, weights):
        """Condition on the block's k homodynes at once; return (L, K).

        With S the homodynes' k-by-k covariance, L is its Cholesky factor
        (which also finds a degenerate homodyne) and K = S^-1 (cov q)^T,
        and cov -= (cov q) K.  The update takes no square root: (cov q)
        L^-T would round each antisqueezed entry by about eps e^{2r}/4,
        where elimination keeps exact cancellations exact.
        """
        cq, var = self.quadratures(block, weights)
        try:
            low = np.linalg.cholesky(var)
        except np.linalg.LinAlgError:
            raise _degenerate(var, block.nodes) from None
        gain = np.linalg.solve(var, cq.T)
        self.cov -= cq @ gain
        return low, gain

    def clear(self, block) -> None:
        """Free the block's measured slots."""
        self.cov[block.measured] = 0.0
        self.cov[:, block.measured] = 0.0

    def read(self) -> np.ndarray:
        """The covariance of the read-out nodes' x's, their p's and the
        tail, checked finite."""
        rows, sel = len(self.cov), self.tape.out
        if self.tail:
            sel = np.concatenate((sel, np.arange(rows - self.tail, rows)))
        cov = _symmetric(self.cov[sel[:, None], sel])
        _check_finite(cov)
        return cov


def _symmetric(cov):
    # The in-place updates keep cov symmetric up to rounding only.
    return (cov + cov.T) / 2.0


def _check_finite(*arrays) -> None:
    # LAPACK calls and matrix products do not trap under np.errstate.
    if not all(np.isfinite(a).all() for a in arrays):
        raise FloatingPointError("non-finite Gaussian moments")


def _degenerate(var, nodes) -> Exception:
    """The error for a block whose homodyne covariance ``var`` has no
    Cholesky factor: the first homodyne, in schedule order, whose
    conditional variance is <= 0 (or the smallest, should rounding make
    each one positive)."""
    _check_finite(var)
    var = var.copy()  # the loop reads the lower triangle, as Cholesky does
    conditional = []
    for i in range(len(nodes)):
        conditional.append(var[i, i])
        if not var[i, i] > 0.0:
            break
        var[i + 1 :, i + 1 :] -= np.outer(var[i + 1 :, i], var[i + 1 :, i]) / var[i, i]
    i = int(np.argmin(conditional))
    return DegenerateConditioningError(
        f"measured quadrature on node {nodes[i]} has non-positive variance "
        f"{conditional[i]:.3e}"
    )


def homodyne_measure(
    state: GaussianState,
    mode: int,
    theta: float,
    policy: OutcomePolicy = PINNED_ZERO,
    rng: np.random.Generator = None,
):
    """Measure x sin(theta) + p cos(theta) on a mode.

    Returns (outcome, conditional state with the mode removed).  A sampled
    outcome is drawn from its prior with ``rng`` (or a generator seeded by
    the policy); a pinned one is zero.  The conditional covariance does not
    depend on the outcome value.  Program passes condition a tape block at
    a time instead (``covariance_plan`` and ``shot``).
    """
    n = state.n
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} out of range for n={n}")
    ix, ip = mode, n + mode
    sin, cos = math.sin(theta), math.cos(theta)
    cv = sin * state.cov[:, ix] + cos * state.cov[:, ip]
    var = sin * cv[ix] + cos * cv[ip]
    if var <= 0.0:
        raise DegenerateConditioningError(
            f"measured quadrature on mode {mode} has non-positive variance {var:.3e}"
        )
    prior = sin * state.mean[ix] + cos * state.mean[ip]
    outcome = 0.0
    if policy.kind == "sampled":
        rng = np.random.default_rng(policy.seed) if rng is None else rng
        outcome = float(rng.normal(prior, math.sqrt(var)))
    mean = state.mean + cv / var * (outcome - prior)
    cov = state.cov - np.outer(cv, cv) / var
    keep = [i for i in range(2 * n) if i not in (ix, ip)]
    return outcome, GaussianState(mean[keep], cov[np.ix_(keep, keep)])


@contextlib.contextmanager
def _finite_moments(r: float):
    """Raise DegenerateConditioningError, naming the squeezing, where the
    moments overflow.  No step forms a product of two antisqueezed
    variances, so the moments are at most a few times e^{2r}/4: e^{2r}
    itself leaves the double range above r = 354.9 (3082.6 dB), and sums
    of such terms may overflow a few dB before that."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise DegenerateConditioningError(
            f"ancilla squeezing of {r_to_db(r):.6g} dB (r = {r:.6g}) overflows "
            "the Gaussian moments in double precision"
        ) from None


class Plan(NamedTuple):
    """A tape's conditioned covariance at squeezing r for one input
    covariance (``covariance_plan``): every shot of the program on such an
    input replays it with ``shot``."""

    tape: object  # executor.Tape
    r: float
    steps: tuple  # (L, K) of each block, schedule order (``_Covariance.condition``)
    cov: np.ndarray  # read-out covariance, x-then-p, read-only


def covariance_plan(tape, r: float, cov) -> Plan:
    """Condition the covariance ``cov`` of a tape's inputs on its
    homodynes, a block at a time; ``MeasurementProgram.plan`` keeps the
    program's last one."""
    with _finite_moments(r):
        state = _Covariance(tape, r, cov)
        steps = []
        for block, weights in zip(tape.blocks, tape.weights):
            state.couple(block)
            steps.append(state.condition(block, weights))
            state.clear(block)
        cov = state.read()
    cov.flags.writeable = False
    return Plan(tape, r, tuple(steps), cov)


def shot(plan: Plan, mean, rng=None):
    """Replay a plan on an input mean, drawing outcomes with ``rng`` (pinned
    to zero if None); return the read-out's mean (x-then-p) and the
    outcomes in schedule order.

    Each block applies its coupling to the mean.  Its k outcomes are
    prior + L z, z drawn standard normal with ``rng`` (the draws of k
    one-at-a-time conditionings), or 0 when ``rng`` is None; the mean then
    moves by K^T (outcomes - prior), and the measured rows are cleared.  A
    ``mean`` with columns is conditioned column by column.
    """
    tape = plan.tape
    n = tape.ports
    with _finite_moments(plan.r):
        state = np.zeros((tape.size,) + np.shape(mean)[1:])
        state[: 2 * n] = mean[_interleaved(n)]
        outcomes = []
        for block, weights, (low, gain) in zip(tape.blocks, tape.weights, plan.steps):
            if len(block.rows):
                state[block.rows] = block.coupling @ state[block.rows]
            k = len(block.nodes)
            both = (state[block.measured].T * weights).T
            prior = both[:k] + both[k:]  # a row per homodyne
            if rng is None:
                outcomes.append(np.zeros(k))
                shift = -prior
            else:
                shift = low @ rng.standard_normal(k)
                outcomes.append(prior + shift)
            state += gain.T @ shift
            state[block.measured] = 0.0
        outcomes = np.concatenate(outcomes)
        mean = state[tape.out]
        _check_finite(mean, outcomes)
    return mean, outcomes


def run_program(
    program: MeasurementProgram,
    input_state: GaussianState,
    r: float,
    policy: OutcomePolicy = PINNED_ZERO,
):
    """Execute a compiled program on an input state at ancilla squeezing r.

    Couples the inputs to the ancillas (QND edges, or a Bell splitter for
    teleport ports) as the live frontier reaches them, runs the homodyne
    schedule, drawing each sampled outcome from its prior given the outcomes
    before it, applies the outcome-proportional feedforward displacements
    and the target's post-displacement, and returns (output state, outcome
    record).  The output modes follow the program's output-port order.

    The covariance comes from the program's plan for (r, input covariance)
    (``MeasurementProgram.plan``), which lives as long as the program or
    until a run with another r or input covariance replaces it; the run
    itself is one mean-only ``shot``.  The feedforward is the outcomes
    times the program's ``gain_table``.
    """
    rng = np.random.default_rng(policy.seed) if policy.kind == "sampled" else None
    plan = program.plan(r, input_state.cov)
    mean, outcomes = shot(plan, input_state.mean, rng)
    # Feedforward lands after every edge of the outputs, so it is added here.
    mean += outcomes @ program.gain_table
    record = dict(zip((e.node_id for e in program.schedule), outcomes.tolist()))
    return GaussianState(mean + program.target.displacement, plan.cov), record


def effective_map(program: MeasurementProgram, r: float) -> SymplecticMap:
    """The program's effective map SymplecticMap(n, M, target displacement).

    M is the input response at pinned-zero outcomes, the map that
    ``run_program`` under ``PINNED_ZERO`` applies: one pinned shot of the
    program's vacuum-input plan (``MeasurementProgram.plan``) carries the
    mean as a 2n-column linear function of the input mean.  M is only
    approximately symplectic at finite squeezing and converges to the
    compile target as r grows.
    """
    n = program.n
    matrix, _ = shot(program.plan(r, vacuum(n).cov), np.eye(2 * n))
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
    """The deferred-measurement pass of ``extract_effective_map``: each
    block adds G q to the accumulators, G the 2n-by-k gains of its k
    homodynes q."""
    n, tape, table = program.n, program.tape, program.gain_table
    with _finite_moments(r):
        state = _Covariance(tape, r, np.zeros((2 * n, 2 * n)), 2 * n)
        cov, acc, start = state.cov, slice(tape.size, None), 0
        for block, weights in zip(tape.blocks, tape.weights):
            state.couple(block)
            stop = start + len(block.nodes)
            gains, start = table[start:stop].T, stop
            cq, var = state.quadratures(block, weights)
            # acc += G q: rows, then columns
            cov[acc] += gains @ cq.T
            cq[acc] += gains @ var
            cov[:, acc] += cq @ gains.T
            state.clear(block)
        joint = state.read()
    excess = joint.reshape(2, 2 * n, 2, 2 * n).sum(axis=(0, 2))
    return (excess + excess.T) / 2.0
