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
frontier's edge scheduler, ``_Frontier``, decides when each coupling is
applied and which rows each node's slot takes, and logs each of these
events.  None of that depends on an angle, only on the cluster's structure:
the graph and the order of the measured nodes.  So ``_script`` walks the
frontier once per structure and keeps its events as a ``Script``, for the
last ``SCRIPTS`` structures.  The replay runs a script's events on
coefficient rows, and a simulator ``Tape`` (``record``) is the script's
blocks, cut once per structure, with the program's own sines and cosines;
every simulator pass replays a tape on Gaussian moments.

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
from functools import cached_property, lru_cache
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
#: Cluster structures whose frontier scripts ``_script`` keeps.
SCRIPTS = 8


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
    """Slots of the live nodes, with the cluster's edges applied on demand,
    and the log of the events that this takes.

    This class alone decides when an edge is applied.  Every coupling is a
    linear map that commutes with measurements on other nodes, so an edge is
    applied just before the first measurement or read-out of either endpoint
    (``couple``), and a teleport port's Bell splitter after every QND edge of
    its partner, shared-partner splitters in edge order.  QND gates add x's
    to p's and leave every x as it is, so any set of them commutes and acts
    as one map.  A splitter mixes x's with p's, so it does not commute with
    its partner's QND gates and must follow them; only splitters order the
    couplings.  The order depends on the graph and on the order of the
    nodes measured, never on an angle, so it is written down once per
    cluster structure (``_script``).

    A slot is two adjacent rows (x, then p).  Input port p holds rows 2p and
    2p + 1 from the start, as the inputs may be correlated; any other node
    gets a slot when its first edge is applied or it is measured, reused
    once it is released; ``size`` rows of storage hold the slots.  Each
    slot opened is logged in ``opens`` as (x row, graph-order ancilla
    index), and each coupling in ``pairs`` as (x row, x row, is a Bell
    splitter), in the order applied, until ``cut`` hands them over.
    """

    def __init__(self, graph):
        ports = graph.input_ports()
        self.size = 2 * len(ports)  # rows of storage
        self.free = []  # x rows of free slots; the slots double when none is left
        self.slot = {port.id: 2 * port.port for port in ports}  # live node -> x row
        self.ancilla = {node.id: j for j, node in enumerate(graph.ancilla_nodes())}
        self.opens, self.pairs = [], []  # events since the last cut
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
            self.pairs.append((self._row(port), self._row(partner), True))
        return self._row(node_id)

    def cut(self) -> tuple:
        """The (opens, couplings) logged since the last cut."""
        events = (tuple(self.opens), tuple(self.pairs))
        self.opens, self.pairs = [], []
        return events

    def release(self, node_id) -> None:
        """Free a measured node's slot for reuse."""
        self.free.append(self.slot.pop(node_id))

    def _apply_qnd(self, node_id) -> None:
        partners, self.qnd[node_id] = self.qnd[node_id], []
        for other in partners:
            self.qnd[other].remove(node_id)
            self.pairs.append((self._row(node_id), self._row(other), False))

    def _row(self, node_id) -> int:
        xr = self.slot.get(node_id)
        if xr is None:
            if not self.free:
                old, self.size = self.size, max(2, 2 * self.size)
                self.free = list(range(self.size - 2, old - 2, -2))
            xr = self.free.pop()
            self.slot[node_id] = xr
            self.opens.append((xr, self.ancilla[node_id]))
        return xr


class Block(NamedTuple):
    """At most ``TAPE_BLOCK`` consecutive schedule entries, as ``Tape``
    replays them: open the slots ``opens`` (whose rows are zero), apply
    ``coupling`` to ``rows``, condition on the homodynes, then clear their
    slots.  Homodyne i of the k is at rows ``measured[i]`` (x) and
    ``measured[k + i]`` (p); the tape's weights hold its angle.

    Every coupling of the block comes before its first homodyne.  That is
    exact: a coupling never touches a node measured before it, since
    ``couple`` applied all of that node's edges first, and a linear map on
    other modes commutes with conditioning.  A slot the block releases is
    reused only by a later block.  ``coupling`` is the product of the
    block's couplings in the order ``_Frontier`` applied them, so each Bell
    splitter still follows its partner's QND edges.  A block belongs to a
    cluster structure and is shared, so its arrays are read-only.
    """

    nodes: tuple  # ids of the k homodynes, schedule order
    opens: np.ndarray  # x rows of the slots the block opens
    rows: np.ndarray  # x and p rows its couplings touch, ascending
    coupling: np.ndarray  # its couplings' product, acting on ``rows``
    measured: np.ndarray  # the homodynes' x rows, then their p rows


@dataclass(frozen=True, eq=False)
class Script:
    """The frontier events of one cluster structure (a graph, the order of
    its measured nodes and its read-out nodes), logged once by ``_script``
    and run by every exact replay and every tape of that structure.

    ``events`` holds, for each schedule entry and then for the read-out,
    the slots opened as (x row, graph-order ancilla index) and the
    couplings applied as (x row, x row, is a Bell splitter), in order.
    Entry k is measured at x row ``measured[k]``; the read-out nodes' x
    rows, then their p rows, are ``out``.  Storage has ``size`` rows, and
    input port p holds rows 2p and 2p + 1.

    The slots are handed out as a tape uses them: the entries of a block
    release their slots only once the whole block, and the read-out, are
    coupled.  The exact replay measures each entry at once but runs the
    same events on the same rows; which row holds a node changes none of
    its arithmetic.
    """

    ports: int  # input ports
    nodes: tuple  # measured node ids, schedule order
    events: tuple  # ((opens, couplings), ...): one per entry, then the read-out
    measured: tuple  # x row of each entry
    out: np.ndarray
    size: int

    @cached_property
    def blocks(self) -> tuple:
        """The events cut into ``Block``s of ``TAPE_BLOCK`` entries, the
        read-out's with the last; cut on a tape's first use."""
        m = len(self.nodes)
        blocks = []
        for k in range(0, max(m, 1), TAPE_BLOCK):
            stop = min(k + TAPE_BLOCK, m)
            last = stop == m  # then the read-out's events come too
            blocks.append(_block(
                self.nodes[k:stop], self.events[k : stop + last], self.measured[k:stop]
            ))
        return tuple(blocks)


@lru_cache(maxsize=SCRIPTS)
def _script(graph, measured: tuple, readout: tuple) -> Script:
    """Walk the frontier of a graph that measures the nodes ``measured``,
    in order, ``TAPE_BLOCK`` to a block, and reads out the nodes
    ``readout``.  The last ``SCRIPTS`` structures are kept."""
    frontier = _Frontier(graph)
    ports = frontier.size // 2
    events, rows = [], []
    starts = range(0, max(len(measured), 1), TAPE_BLOCK)
    for k in starts:
        block = measured[k : k + TAPE_BLOCK]
        for node_id in block:
            rows.append(frontier.couple(node_id))
            events.append(frontier.cut())
        if k == starts[-1]:
            out = [frontier.couple(node_id) for node_id in readout]
            events.append(frontier.cut())
        for node_id in block:
            frontier.release(node_id)
    out = np.array(out + [x + 1 for x in out], dtype=int)
    out.flags.writeable = False
    return Script(ports, measured, tuple(events), tuple(rows), out, frontier.size)


def _block(nodes, events, measured) -> Block:
    """The ``Block`` of the homodynes ``nodes`` at x rows ``measured``,
    after the opens and couplings of ``events``."""
    opens = [xr for slots, _ in events for xr, _ in slots]
    pairs = [pair for _, couplings in events for pair in couplings]
    slots = sorted({a for a, _, _ in pairs} | {b for _, b, _ in pairs})
    local = {x: 2 * i for i, x in enumerate(slots)}  # local x row; p follows
    size = 2 * len(slots)
    coupling = None
    run = list(range(0, size * size, size + 1))  # flat entries of I and a QND run
    for a, b, bell in pairs:
        a, b = local[a], local[b]
        if bell:
            coupling = _qnd_run(size, run, coupling)
            run = []
            idx = [a, b, a + 1, b + 1]
            coupling[idx] = BELL_SPLITTER @ coupling[idx]
        else:  # QND: p_a += x_b, p_b += x_a
            run += ((a + 1) * size + b, (b + 1) * size + a)
    block = Block(
        nodes=nodes,
        opens=np.array(opens, dtype=int),
        rows=np.array([r for x in slots for r in (x, x + 1)], dtype=int),
        coupling=_qnd_run(size, run, coupling),
        measured=np.array(measured + tuple(x + 1 for x in measured), dtype=int),
    )
    for array in block[1:]:
        array.flags.writeable = False  # every tape of the structure shares it
    return block


def _qnd_run(size: int, run, coupling) -> np.ndarray:
    """``coupling`` after a run of QND gates, each given as the flat (p row,
    x row) entries it adds to the identity.  No gate of the run changes an x
    row, so the run is I + C, C the entries' count matrix.  A ``coupling``
    of None is the identity, and ``run`` then lists its diagonal too."""
    counts = np.bincount(run, minlength=size * size).reshape(size, size)
    return counts.astype(float) if coupling is None else coupling + (counts @ coupling)


@dataclass(frozen=True)
class Tape:
    """A schedule's frontier, as every simulator pass replays it in place
    of ``_Frontier``'s bookkeeping: its structure's blocks (``Script.blocks``,
    shared by every program of that structure) and the schedule's own
    homodyne angles.  It holds the frontier alone: a program's feedforward
    is its ``gain_table``.

    Storage has ``size`` rows; input port p holds rows 2p and 2p + 1.  The
    blocks run in schedule order.  The last one also applies the edges
    left at the read-out nodes, whose x rows, then p rows, are ``out``:
    those edges touch no measured node, so they too may come before its
    homodynes.  A tape without homodynes is one block that only reads out.
    """

    ports: int  # input ports
    blocks: tuple  # Block, schedule order
    weights: tuple  # per block: its homodyne angles' sines, then their cosines
    out: np.ndarray
    size: int


def _sin_cos(schedule) -> tuple:
    """The sines and the cosines of a schedule's homodyne angles."""
    angles = np.array([entry.angle for entry in schedule], dtype=float)
    return np.sin(angles), np.cos(angles)


def record(graph, schedule, readout) -> Tape:
    """The tape of a schedule, read out at the nodes ``readout``: the
    blocks of its structure's script (``_script``), ``TAPE_BLOCK`` entries
    a block, with the sines and cosines of the schedule's angles."""
    script = _script(graph, tuple(entry.node_id for entry in schedule), tuple(readout))
    sin, cos = _sin_cos(schedule)
    weights = tuple(
        np.concatenate((sin[k : k + TAPE_BLOCK], cos[k : k + TAPE_BLOCK]))
        for k in range(0, max(len(schedule), 1), TAPE_BLOCK)
    )
    return Tape(script.ports, script.blocks, weights, script.out, script.size)


def exact_replay(program: MeasurementProgram) -> ExactReplay:
    """The program's exact replay, ``MeasurementProgram.replay``: computed
    once per program object and then shared, so every call returns the same
    read-only ``ExactReplay``.  A program from ``compile`` holds the replay
    that checked it; see ``_replay`` for the pass."""
    return program.replay


def _pivot(absq: np.ndarray, owner: np.ndarray) -> int:
    """The w pool column with the largest |coefficient| ``absq``, ties
    going to the lowest graph-order ancilla ``owner`` of a column."""
    ties = (absq == absq.max()).nonzero()[0]
    return int(ties[owner[ties].argmin()] if len(ties) > 1 else ties[0])


def _replay(program: MeasurementProgram) -> ExactReplay:
    """Execute a validated program on symbolic quadratures; see module
    docstring.

    The pass runs the events of the program's structure (``_script``) on
    coefficient rows: storage sized once to the script's, the w pool one
    column per slot.  No w survives to an output: ``validate`` makes the
    schedule exactly the non-output nodes and the port counts equal, so
    there is one measurement per w (per non-input node).  Each measurement
    either raises DegenerateMeasurementError or eliminates a w that is
    still live, and the -1 that ``delta`` puts at its pivot leaves that
    column exactly 0 in every live row; the eliminated w never comes back,
    and its column returns to the pool for the next node that opens.

    The rows use the internal column layout of the module docstring.  The
    pivot is the largest |coefficient| in the w pool, ties going to the
    lowest graph-order ancilla (``_pivot``); the measurement is degenerate
    when that coefficient is below PIVOT_TOL times max(1, max
    |coefficient|), the max taken over every column in use (unused columns
    are exact zeros).
    """
    graph, schedule = program.graph, program.schedule
    readout = tuple(port.id for port in graph.output_ports())
    script = _script(graph, tuple(entry.node_id for entry in schedule), readout)
    n, pool, m = script.ports, script.size // 2, len(schedule)
    n_anc = len(graph.ancilla_nodes())
    rows = np.zeros((script.size, pool + 2 * n + n_anc + m))
    rows[0 : 2 * n : 2, pool : pool + n] = np.eye(n)
    rows[1 : 2 * n : 2, pool + n : pool + 2 * n] = np.eye(n)
    spare = list(range(pool))  # w columns that no live row references
    owner = np.zeros(pool, dtype=int)  # graph-order ancilla of each w column
    u = np.zeros(n_anc, dtype=int)  # u column of each ancilla, past the pool
    outcomes = np.zeros(m, dtype=int)  # s column of each outcome, past the pool
    end = pool + 2 * n  # columns in use
    sin, cos = (values.tolist() for values in _sin_cos(schedule))

    for k, (opens, pairs) in enumerate(script.events):
        for xr, j in opens:
            w = spare.pop()
            owner[w] = j
            u[j] = end - pool
            rows[xr, w] = 1.0
            rows[xr + 1, end] = 1.0
            end += 1
        for a, b, bell in pairs:
            if bell:
                idx = [a, b, a + 1, b + 1]
                rows[idx, :end] = BELL_SPLITTER @ rows[idx, :end]
            else:  # QND: p_a += x_b, p_b += x_a
                rows[a + 1, :end] += rows[b, :end]
                rows[b + 1, :end] += rows[a, :end]
        if k == m:
            break  # those were the read-out's events
        xr, s = script.measured[k], end
        # q spans the columns in use and the new outcome's, which is still 0.
        q = sin[k] * rows[xr, : s + 1] + cos[k] * rows[xr + 1, : s + 1]
        absq = np.abs(q)
        pivot = _pivot(absq[:pool], owner)
        if absq[pivot] < PIVOT_TOL * max(1.0, float(absq.max())):
            raise DegenerateMeasurementError(
                f"measurement on node {script.nodes[k]} resolves no ancilla noise "
                "(degenerate or redundant homodyne setting)"
            )
        # Pin q = s_k and solve for the pivot noise variable,
        #   w_pivot = (s_k - (q - c w_pivot)) / c,
        # as the change delta = w_pivot - (old w_pivot) of every row using it.
        c = q[pivot]
        delta = np.divide(q, -c, out=q)
        delta[pivot] = -1.0
        delta[s] = 1.0 / c
        outcomes[k] = s - pool
        end = s + 1
        # Rank-1 substitution in the live rows that reference the pivot noise;
        # the measured node's own rows are released (zeroed) first, and the
        # pivot column, now 0 in every live row, returns to the pool.
        rows[xr : xr + 2, :end] = 0.0
        spare.append(pivot)
        for row in rows[:, pivot].nonzero()[0]:
            rows[row, :end] += rows[row, pivot] * delta

    picked = rows[script.out]
    replay = ExactReplay(
        matrix=picked[:, pool : pool + 2 * n].copy(),
        outcome_response=picked[:, pool + outcomes],
        noise_response=picked[:, pool + u],
        measured_ids=script.nodes,
        output_ids=readout,
    )
    for array in (replay.matrix, replay.outcome_response, replay.noise_response):
        array.flags.writeable = False  # every caller shares the one replay
    return replay
