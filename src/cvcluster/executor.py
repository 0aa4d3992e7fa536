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

The replay streams over the schedule and keeps rows only for the live
frontier, the nodes that are coupled but not yet measured, so its memory is
O(live frontier x basis width) rather than O(nodes x basis width).  The
frontier's edge scheduler, ``_Frontier``, is shared with the simulator,
which drives it with Gaussian moments in place of coefficient rows.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasurementError, ProgramError
from .ir import COUPLING_TELEPORT, MeasurementProgram, ROLE_INPUT, FeedforwardRule
from .teleport import BELL_SPLITTER

#: A measurement must overlap an unresolved ancilla noise at least this much.
PIVOT_TOL = 1e-9
#: A feedforward rule is kept when one of its gains exceeds this magnitude.
FEEDFORWARD_TOL = 1e-12


@dataclass(frozen=True)
class ExactReplay:
    """Exact linear response of a program's outputs.

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
        """Feedforward rules whose gains cancel the outcome terms of the outputs."""
        rules = []
        n = self.matrix.shape[0] // 2
        for k, src in enumerate(self.measured_ids):
            for port, target in enumerate(self.output_ids):
                gx = -self.outcome_response[port, k]
                gp = -self.outcome_response[n + port, k]
                if abs(gx) > FEEDFORWARD_TOL or abs(gp) > FEEDFORWARD_TOL:
                    rules.append(FeedforwardRule(src, target, float(gx), float(gp)))
        return tuple(rules)

    def feedforward_error(self, rules) -> tuple:
        """max|G + outcome_response| for the gains G that ``rules`` install
        (zero when they make the outputs outcome-independent), and the
        (source node id, output port) of that entry."""
        n = self.matrix.shape[0] // 2
        column = {node: k for k, node in enumerate(self.measured_ids)}
        port = {node: w for w, node in enumerate(self.output_ids)}
        diff = self.outcome_response.copy()
        for rule in rules:
            k, w = column[rule.source_id], port[rule.target_id]
            diff[w, k] += rule.gain_x
            diff[n + w, k] += rule.gain_p
        diff = np.abs(diff)
        row, k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        return float(diff[row, k]), (self.measured_ids[k], int(row) % n)


class _Frontier:
    """Slots of the live nodes, with the cluster's edges applied on demand.

    This class alone decides when an edge is applied.  Every coupling is a
    linear map that commutes with measurements on other nodes, so an edge is
    applied just before the first measurement or read-out of either endpoint
    (``couple``), and a teleport port's Bell splitter after every QND edge of
    its partner, shared-partner splitters in edge order.

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


class _Rows(_Frontier):
    """Coefficient rows of the live quadratures over the replay's basis,
    whose first 2n columns are the input quadratures."""

    def __init__(self, graph, basis: dict, width: int):
        super().__init__(graph)
        self.basis = basis  # ancilla id -> (x column, p column) of its own noises
        n = self.size // 2
        self.rows = np.zeros((self.size, width))
        self.rows[0::2, :n] = np.eye(n)
        self.rows[1::2, n : 2 * n] = np.eye(n)

    def _grow(self, size: int) -> None:
        grown = np.zeros((size, self.rows.shape[1]))
        grown[: len(self.rows)] = self.rows
        self.rows = grown

    def _open(self, node_id, xr: int) -> None:
        xc, pc = self.basis[node_id]
        self.rows[xr, xc] = 1.0
        self.rows[xr + 1, pc] = 1.0

    def _qnd(self, xu: int, xv: int) -> None:
        # QND: p_u += x_v, p_v += x_u
        self.rows[xu + 1] += self.rows[xv]
        self.rows[xv + 1] += self.rows[xu]

    def _bell(self, xa: int, xb: int) -> None:
        idx = [xa, xb, xa + 1, xb + 1]
        self.rows[idx] = BELL_SPLITTER @ self.rows[idx]

    def _clear(self, xr: int) -> None:
        self.rows[xr : xr + 2] = 0.0


def exact_replay(program: MeasurementProgram) -> ExactReplay:
    """Execute the program on symbolic quadratures; see module docstring.

    Edges are applied when ``_Frontier`` schedules them.
    """
    program.validate()
    graph = program.graph
    ports = graph.input_ports()
    ancillas = graph.ancilla_nodes()
    n = len(ports)
    n_anc = len(ancillas)
    n_meas = len(program.schedule)

    z0, w0, u0, s0 = 0, 2 * n, 2 * n + n_anc, 2 * n + 2 * n_anc
    basis = {anc.id: (w0 + j, u0 + j) for j, anc in enumerate(ancillas)}
    frontier = _Rows(graph, basis, s0 + n_meas)

    for k, entry in enumerate(program.schedule):
        xr = frontier.couple(entry.node_id)
        rows = frontier.rows
        q = np.sin(entry.angle) * rows[xr] + np.cos(entry.angle) * rows[xr + 1]
        wcoeff = q[w0:u0]
        pivot = int(np.argmax(np.abs(wcoeff)))
        c = wcoeff[pivot]
        if abs(c) < PIVOT_TOL * max(1.0, float(np.max(np.abs(q)))):
            raise DegenerateMeasurementError(
                f"measurement on node {entry.node_id} resolves no ancilla noise "
                "(degenerate or redundant homodyne setting)"
            )
        # Pin q = s_k and solve for the pivot noise variable,
        #   w_pivot = (s_k - (q - c w_pivot)) / c,
        # as the change delta = w_pivot - (old w_pivot) of every row using it.
        delta = q / -c
        delta[w0 + pivot] = -1.0
        delta[s0 + k] = 1.0 / c
        # Rank-1 substitution in the live rows that reference the pivot noise.
        for row in np.flatnonzero(rows[:, w0 + pivot]):
            rows[row] += rows[row, w0 + pivot] * delta
        frontier.release(entry.node_id)

    matrix = np.zeros((2 * n, 2 * n))
    outcome = np.zeros((2 * n, n_meas))
    noise = np.zeros((2 * n, n_anc))
    for port in graph.output_ports():
        xr = frontier.couple(port.id)
        x_expr, p_expr = frontier.rows[xr : xr + 2]
        for out_row, expr in ((port.port, x_expr), (n + port.port, p_expr)):
            wmax = float(np.max(np.abs(expr[w0:u0]))) if n_anc else 0.0
            if wmax > 1e-9:
                raise ProgramError(
                    f"output port {port.id} retains antisqueezed ancilla noise "
                    f"(coefficient {wmax:.2e}); the program under-measures"
                )
            matrix[out_row] = expr[z0 : z0 + 2 * n]
            noise[out_row] = expr[u0:s0]
            outcome[out_row] = expr[s0:]
    return ExactReplay(
        matrix=matrix,
        outcome_response=outcome,
        noise_response=noise,
        measured_ids=tuple(e.node_id for e in program.schedule),
        output_ids=tuple(p.id for p in graph.output_ports()),
    )

