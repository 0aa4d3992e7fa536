"""Exact linear replay of measurement programs.

Every gate and homodyne step of a compiled program acts linearly on
quadrature operators, so a program can be executed symbolically: each live
quadrature is a vector of coefficients over the basis

    [input quadratures z | ancilla x noises w | ancilla p noises u | outcomes s].

Ancillas start as x = w_j, p = u_j; a measurement pins one linear combination
to its outcome and eliminates one antisqueezed noise w (exact operator
identities, independent of the squeezing level).  After a well-formed program
every w is eliminated, leaving

    output = M z + N u + B s.

M is the noise-free replay of the program, -B gives the feedforward gains
that cancel outcome dependence, and N (whose u variables have variance
exp(-2r)/4) gives the exact finite-squeezing excess covariance.

The pass is deterministic on a frozen program, so it runs once per program
object: ``MeasurementProgram.replay`` keeps its result, ``exact_replay``
returns that one object to every caller, and its arrays are read-only.

The replay streams over the schedule and keeps rows only for the live
frontier, the nodes that are coupled but not yet measured, so its memory is
O(live frontier x basis width) rather than O(nodes x basis width).  The
frontier's edge scheduler, ``_Frontier``, is shared with the simulator: its
``_Recorder`` writes a program's schedule once as a ``Tape`` of blocks, which
every simulator pass replays on Gaussian moments in place of coefficient rows.

Internally the rows order their columns by event, so that every row
operation touches only the prefix in use: first a pool of w columns, one
per frontier slot, then the 2n input quadratures, then each u_j when its
node opens and each s_k when measurement k happens.  A pool of one column
per slot is enough, as each measurement eliminates one w, so the w's in use
never outnumber the live non-input slots.  A pivot's column is exactly 0 in
every live row after its substitution, so the next node to open takes it.
The outputs' u and s columns are gathered back to graph and schedule order
at the end; ``ExactReplay`` holds the [z | w | u | s] responses above.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMeasurementError
from .ir import COUPLING_TELEPORT, MeasurementProgram, ROLE_INPUT, FeedforwardRule
from .teleport import BELL_SPLITTER

#: A measurement must overlap an unresolved ancilla noise at least this much.
PIVOT_TOL = 1e-9
#: A feedforward rule is kept when one of its gains exceeds this magnitude.
FEEDFORWARD_TOL = 1e-12
#: Schedule entries per tape block, the homodynes the simulator conditions at once.
TAPE_BLOCK = 8


@dataclass(frozen=True)
class ExactReplay:
    """Exact linear response of a program's outputs.

    One instance is kept per program (``MeasurementProgram.replay``) and
    shared by every caller, so its arrays are read-only.

    Attributes:
        matrix: 2n-by-2n input response (the noise-free replay of the program).
        outcome_response: 2n-by-m response to the recorded outcomes, schedule
            order; installing gains -outcome_response makes outputs
            outcome-independent.
        noise_response: 2n-by-A response to the ancilla squeezed-quadrature
            noises (one per non-input node, graph order).
        measured_ids: node ids in schedule order (columns of outcome_response).
        output_ids: output-port node ids, port order.
    """

    matrix: np.ndarray
    outcome_response: np.ndarray
    noise_response: np.ndarray
    measured_ids: tuple
    output_ids: tuple

    def excess_covariance(self, r: float) -> np.ndarray:
        """Exact excess covariance N diag(e^{-2r}/4) N^T of the corrected output."""
        var = np.exp(-2.0 * r) / 4.0
        return var * (self.noise_response @ self.noise_response.T)

    def feedforward_rules(self) -> tuple:
        """Feedforward rules whose gains cancel the outcome terms of the
        outputs, ordered by measurement, then by output port."""
        n = self.matrix.shape[0] // 2
        gains = -self.outcome_response.T  # row k: x gains, then p gains, port order
        keep = abs(gains) > FEEDFORWARD_TOL
        k, port = np.nonzero(keep[:, :n] | keep[:, n:])
        return tuple(map(
            FeedforwardRule,
            [self.measured_ids[i] for i in k.tolist()],
            [self.output_ids[i] for i in port.tolist()],
            gains[k, port].tolist(),
            gains[k, n + port].tolist(),
        ))

    def feedforward_error(self, gains: np.ndarray) -> tuple:
        """max|outcome_response + G^T| for the m-by-2n gain table G of
        ``MeasurementProgram.gain_table`` (zero when it makes the outputs
        outcome-independent), and the (source node id, output port) of that
        entry."""
        n = self.matrix.shape[0] // 2
        diff = np.abs(self.outcome_response + gains.T)
        row, k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        return float(diff[row, k]), (self.measured_ids[k], int(row) % n)


class _Frontier:
    """Slots of the live nodes, with the cluster's edges applied on demand.

    This class alone decides when an edge is applied.  Every coupling is a
    linear map that commutes with measurements on other nodes, so an edge is
    applied just before the first measurement or read-out of either endpoint
    (``couple``), and a teleport port's Bell splitter after every QND edge of
    its partner, shared-partner splitters in edge order.  QND gates add x's
    to p's and leave every x as it is, so any set of them commutes and acts
    as one map.  A splitter mixes x's with p's, so it does not commute with
    its partner's QND gates and must follow them; only splitters order the
    couplings.  ``_Recorder`` writes this order once per program as a
    ``Tape`` for the simulator; ``exact_replay`` drives the frontier live.

    A slot is two adjacent rows (x, then p).  Input port p holds rows 2p and
    2p + 1 from the start, as the inputs may be correlated; any other node
    gets a slot when its first edge is applied or it is measured, reused
    once it is measured.  Subclasses hold the arithmetic: ``_grow`` (to
    ``size`` rows), ``_open`` (a new slot), ``_qnd``, ``_bell`` and
    ``_clear`` (a released slot), all given x rows.
    """

    def __init__(self, graph):
        ports = graph.input_ports()
        self.size = 2 * len(ports)  # rows of storage
        self.free = []  # x rows of free slots; the slots double when none is left
        self.slot = {port.id: 2 * port.port for port in ports}  # live node -> x row
        self.qnd = {node.id: [] for node in graph.nodes}  # pending QND partners
        self.bell = {node.id: [] for node in graph.nodes}  # pending splitters, edge order
        self.splitters = []  # (teleport port, Bell partner)
        node_map = graph.node_map()
        for u, v in graph.edges:
            nu, nv = node_map[u], node_map[v]
            for a, bnode in ((nu, nv), (nv, nu)):
                if a.role == ROLE_INPUT and a.coupling == COUPLING_TELEPORT:
                    self.bell[a.id].append(len(self.splitters))
                    self.bell[bnode.id].append(len(self.splitters))
                    self.splitters.append((a.id, bnode.id))
                    break
            else:
                self.qnd[u].append(v)
                self.qnd[v].append(u)

    def couple(self, node_id) -> int:
        """Apply every pending edge at a node; return its x row."""
        self._apply_qnd(node_id)
        while self.bell[node_id]:
            # A splitter mixes its partner's p row, so it follows every QND
            # edge of the partner, and the partner's splitters keep edge order.
            partner = self.splitters[self.bell[node_id][0]][1]
            self._apply_qnd(partner)
            first = self.bell[partner].pop(0)
            port = self.splitters[first][0]
            self.bell[port].remove(first)
            self._bell(self._row(port), self._row(partner))
        return self._row(node_id)

    def release(self, node_id) -> None:
        """Free a measured node's slot for reuse."""
        xr = self.slot.pop(node_id)
        self._clear(xr)
        self.free.append(xr)

    def _apply_qnd(self, node_id) -> None:
        partners, self.qnd[node_id] = self.qnd[node_id], []
        for other in partners:
            self.qnd[other].remove(node_id)
            self._qnd(self._row(node_id), self._row(other))

    def _row(self, node_id) -> int:
        xr = self.slot.get(node_id)
        if xr is None:
            if not self.free:
                old, self.size = self.size, max(2, 2 * self.size)
                self._grow(self.size)
                self.free = list(range(self.size - 2, old - 2, -2))
            xr = self.free.pop()
            self.slot[node_id] = xr
            self._open(node_id, xr)
        return xr


class Block(NamedTuple):
    """At most ``TAPE_BLOCK`` consecutive schedule entries, as ``Tape``
    replays them: open the slots ``opens`` (whose rows are zero), apply
    ``coupling`` to ``rows``, condition on the homodynes, then clear their
    slots.  Homodyne i of the k measures ``weights[i]`` x + ``weights[k +
    i]`` p (sin and cos of its angle) at rows ``measured[i]`` and
    ``measured[k + i]``.

    Every coupling of the block comes before its first homodyne.  That is
    exact: a coupling never touches a node measured before it, since
    ``couple`` applied all of that node's edges first, and a linear map on
    other modes commutes with conditioning.  A slot the block releases is
    reused only by a later block.  ``coupling`` is the product of the
    block's couplings in the order ``_Frontier`` applied them, so each Bell
    splitter still follows its partner's QND edges.
    """

    nodes: tuple  # ids of the k homodynes, schedule order
    opens: np.ndarray  # x rows of the slots the block opens
    rows: np.ndarray  # x and p rows its couplings touch, ascending
    coupling: np.ndarray  # its couplings' product, acting on ``rows``
    measured: np.ndarray  # the homodynes' x rows, then their p rows
    weights: np.ndarray  # the homodyne angles' sines, then their cosines


@dataclass(frozen=True)
class Tape:
    """A schedule's frontier, recorded once by ``record`` and replayed by
    every simulator pass in place of ``_Frontier``'s bookkeeping.  It holds
    the frontier alone: a program's feedforward is its ``gain_table``.

    Storage has ``size`` rows; input port p holds rows 2p and 2p + 1.  The
    blocks run in schedule order.  The last one also applies the edges
    left at the read-out nodes, whose x rows, then p rows, are ``out``:
    those edges touch no measured node, so they too may come before its
    homodynes.  A tape without homodynes is one block that only reads out.
    """

    ports: int  # input ports
    blocks: tuple  # Block, schedule order
    out: np.ndarray
    size: int


class _Recorder(_Frontier):
    """A frontier that only keeps books: it logs the slots it opens and the
    couplings it applies, and cuts them into ``Block``s."""

    def __init__(self, graph):
        super().__init__(graph)
        self.opens, self.ops, self.out = [], [], []

    def block(self, entries, weights, readout=()) -> Block:
        """Couple the entries' nodes and the ``readout`` nodes (whose x rows
        go to ``out``), then release the entries; return the block of
        everything applied since the last one."""
        measured = [self.couple(e.node_id) for e in entries]
        self.out = [self.couple(node_id) for node_id in readout]
        for entry in entries:
            self.release(entry.node_id)
        slots = sorted({a for a, _, _ in self.ops} | {b for _, b, _ in self.ops})
        local = {x: 2 * i for i, x in enumerate(slots)}  # local x row; p follows
        size = 2 * len(slots)
        coupling = None
        run = list(range(0, size * size, size + 1))  # flat entries of I and a QND run
        for a, b, bell in self.ops:
            a, b = local[a], local[b]
            if bell:
                coupling = _qnd_run(size, run, coupling)
                run = []
                idx = [a, b, a + 1, b + 1]
                coupling[idx] = BELL_SPLITTER @ coupling[idx]
            else:  # QND: p_a += x_b, p_b += x_a
                run += ((a + 1) * size + b, (b + 1) * size + a)
        block = Block(
            nodes=tuple(e.node_id for e in entries),
            opens=np.array(self.opens, dtype=int),
            rows=np.array([r for x in slots for r in (x, x + 1)], dtype=int),
            coupling=_qnd_run(size, run, coupling),
            measured=np.array(measured + [x + 1 for x in measured], dtype=int),
            weights=weights,
        )
        self.opens, self.ops = [], []
        return block

    def _grow(self, size: int) -> None:
        pass

    def _open(self, node_id, xr: int) -> None:
        self.opens.append(xr)

    def _qnd(self, xu: int, xv: int) -> None:
        self.ops.append((xu, xv, False))

    def _bell(self, xa: int, xb: int) -> None:
        self.ops.append((xa, xb, True))

    def _clear(self, xr: int) -> None:
        pass


def _qnd_run(size: int, run, coupling) -> np.ndarray:
    """``coupling`` after a run of QND gates, each given as the flat (p row,
    x row) entries it adds to the identity.  No gate of the run changes an x
    row, so the run is I + C, C the entries' count matrix.  A ``coupling``
    of None is the identity, and ``run`` then lists its diagonal too."""
    counts = np.bincount(run, minlength=size * size).reshape(size, size)
    return counts.astype(float) if coupling is None else coupling + (counts @ coupling)


def record(graph, schedule, readout) -> Tape:
    """Record the frontier of a schedule, ``TAPE_BLOCK`` entries a block,
    and of the read-out of the nodes ``readout``."""
    frontier = _Recorder(graph)
    ports = frontier.size // 2
    angles = np.array([entry.angle for entry in schedule])
    sin, cos = np.sin(angles), np.cos(angles)
    starts = range(0, max(len(schedule), 1), TAPE_BLOCK)
    blocks = tuple(
        frontier.block(
            schedule[k : k + TAPE_BLOCK],
            np.concatenate((sin[k : k + TAPE_BLOCK], cos[k : k + TAPE_BLOCK])),
            readout if k == starts[-1] else (),
        )
        for k in starts
    )
    out = frontier.out + [x + 1 for x in frontier.out]
    return Tape(ports, blocks, np.array(out, dtype=int), frontier.size)


def program_tape(program: MeasurementProgram) -> Tape:
    """``record`` of a program's schedule, read out at its output ports;
    ``MeasurementProgram.tape`` keeps it."""
    graph = program.graph
    return record(graph, program.schedule, [port.id for port in graph.output_ports()])


class _Rows(_Frontier):
    """Coefficient rows of the live quadratures over the replay's internal
    columns: the w pool, the 2n input quadratures, then each u and each s
    in the order it appears; every operation acts on ``rows[:, :end]``."""

    def __init__(self, graph, n_meas: int):
        super().__init__(graph)
        n = self.size // 2
        self.ancillas = {anc.id: j for j, anc in enumerate(graph.ancilla_nodes())}
        self.pool = n  # w columns, one per slot
        self.spare = list(range(n))  # w columns that no live row references
        self.owner = np.zeros(n, dtype=int)  # graph-order ancilla of each w column
        self.u = np.zeros(len(self.ancillas), dtype=int)  # u column of each ancilla, past the pool
        self.end = 3 * n  # columns in use
        self.rows = np.zeros((self.size, self.end + len(self.ancillas) + n_meas))
        self.rows[0::2, n : 2 * n] = np.eye(n)
        self.rows[1::2, 2 * n : 3 * n] = np.eye(n)

    def _grow(self, size: int) -> None:
        old, pool = self.pool, size // 2
        grown = np.zeros((size, pool + self.rows.shape[1] - old))
        grown[: len(self.rows), :old] = self.rows[:, :old]
        grown[: len(self.rows), pool : pool + self.end - old] = self.rows[:, old : self.end]
        self.rows = grown
        self.spare += range(old, pool)
        self.owner = np.concatenate((self.owner, np.zeros(pool - old, dtype=int)))
        self.end += pool - old
        self.pool = pool

    def _open(self, node_id, xr: int) -> None:
        j = self.ancillas[node_id]
        w = self.spare.pop()
        self.owner[w] = j
        self.u[j] = self.end - self.pool
        self.rows[xr, w] = 1.0
        self.rows[xr + 1, self.end] = 1.0
        self.end += 1

    def _qnd(self, xu: int, xv: int) -> None:
        # QND: p_u += x_v, p_v += x_u
        rows, end = self.rows, self.end
        rows[xu + 1, :end] += rows[xv, :end]
        rows[xv + 1, :end] += rows[xu, :end]

    def _bell(self, xa: int, xb: int) -> None:
        idx = [xa, xb, xa + 1, xb + 1]
        self.rows[idx, : self.end] = BELL_SPLITTER @ self.rows[idx, : self.end]

    def _clear(self, xr: int) -> None:
        self.rows[xr : xr + 2, : self.end] = 0.0


def exact_replay(program: MeasurementProgram) -> ExactReplay:
    """The program's exact replay, ``MeasurementProgram.replay``: computed
    once per program object and then shared, so every call returns the same
    read-only ``ExactReplay``.  A program from ``compile`` holds the replay
    that checked it; see ``_replay`` for the pass."""
    return program.replay


def _replay(program: MeasurementProgram) -> ExactReplay:
    """Execute a validated program on symbolic quadratures; see module
    docstring.

    Edges are applied when ``_Frontier`` schedules them.  No w survives to
    an output: ``validate`` makes the schedule exactly the non-output nodes
    and the port counts equal, so there is one measurement per w (per
    non-input node).  Each measurement either raises
    DegenerateMeasurementError or eliminates a w that is still live, and
    the -1 that ``delta`` puts at its pivot leaves that column exactly 0 in
    every live row; the eliminated w never comes back, and its column
    returns to the pool for the next node that opens.

    The rows use the internal column layout of the module docstring.  The
    pivot is the largest |coefficient| in the w pool, ties going to the
    lowest graph-order ancilla; the measurement is degenerate when that
    coefficient is below PIVOT_TOL times max(1, max |coefficient|), the
    max taken over every column in use (unused columns are exact zeros).
    """
    graph = program.graph
    n = len(graph.input_ports())
    n_meas = len(program.schedule)
    frontier = _Rows(graph, n_meas)
    outcomes = np.zeros(n_meas, dtype=int)  # s column of each outcome, past the pool

    for k, entry in enumerate(program.schedule):
        xr = frontier.couple(entry.node_id)
        rows, pool, s = frontier.rows, frontier.pool, frontier.end
        # q spans the columns in use and the new outcome's, which is still 0.
        q = np.sin(entry.angle) * rows[xr, : s + 1] + np.cos(entry.angle) * rows[xr + 1, : s + 1]
        wabs = abs(q[:pool])
        ties = (wabs == wabs.max()).nonzero()[0]
        pivot = int(ties[frontier.owner[ties].argmin()] if len(ties) > 1 else ties[0])
        c = q[pivot]
        if abs(c) < PIVOT_TOL * max(1.0, float(abs(q).max())):
            raise DegenerateMeasurementError(
                f"measurement on node {entry.node_id} resolves no ancilla noise "
                "(degenerate or redundant homodyne setting)"
            )
        # Pin q = s_k and solve for the pivot noise variable,
        #   w_pivot = (s_k - (q - c w_pivot)) / c,
        # as the change delta = w_pivot - (old w_pivot) of every row using it.
        delta = np.divide(q, -c, out=q)
        delta[pivot] = -1.0
        delta[s] = 1.0 / c
        outcomes[k] = s - pool
        frontier.end = s + 1
        # Rank-1 substitution in the live rows that reference the pivot noise;
        # the measured node's own rows are released (zeroed) first, and the
        # pivot column, now 0 in every live row, returns to the pool.
        frontier.release(entry.node_id)
        frontier.spare.append(pivot)
        for row in rows[:, pivot].nonzero()[0]:
            rows[row, : s + 1] += rows[row, pivot] * delta

    out = np.zeros(2 * n, dtype=int)
    for port in graph.output_ports():
        xr = frontier.couple(port.id)
        out[port.port], out[n + port.port] = xr, xr + 1
    picked, pool = frontier.rows[out], frontier.pool
    replay = ExactReplay(
        matrix=picked[:, pool : pool + 2 * n].copy(),
        outcome_response=picked[:, pool + outcomes],
        noise_response=picked[:, pool + frontier.u],
        measured_ids=tuple(e.node_id for e in program.schedule),
        output_ids=tuple(p.id for p in graph.output_ports()),
    )
    for array in (replay.matrix, replay.outcome_response, replay.noise_response):
        array.flags.writeable = False  # every caller shares the one replay
    return replay
