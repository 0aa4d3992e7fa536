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
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasurementError, ProgramError
from .ir import COUPLING_TELEPORT, MeasurementProgram, ROLE_INPUT, FeedforwardRule
from .teleport import BELL_SPLITTER

#: A measurement must overlap an unresolved ancilla noise at least this much.
PIVOT_TOL = 1e-9


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
        ancilla_ids: node ids of the noise variables (columns of noise_response).
    """

    matrix: np.ndarray
    outcome_response: np.ndarray
    noise_response: np.ndarray
    measured_ids: tuple
    ancilla_ids: tuple

    def excess_covariance(self, r: float) -> np.ndarray:
        """Exact excess covariance N diag(e^{-2r}/4) N^T of the corrected output."""
        var = np.exp(-2.0 * r) / 4.0
        return var * (self.noise_response @ self.noise_response.T)

    def feedforward_rules(self, tol: float = 1e-12) -> tuple:
        """Displacement gains cancelling the outcome terms of the outputs."""
        rules = []
        n = self.matrix.shape[0] // 2
        for k, src in enumerate(self.measured_ids):
            for port in range(n):
                gx = -self.outcome_response[port, k]
                gp = -self.outcome_response[n + port, k]
                if abs(gx) > tol or abs(gp) > tol:
                    rules.append((src, port, float(gx), float(gp)))
        return tuple(rules)


def exact_replay(program: MeasurementProgram) -> ExactReplay:
    """Execute the program on symbolic quadratures; see module docstring."""
    program.validate()
    graph = program.graph
    ports = graph.input_ports()
    ancillas = graph.ancilla_nodes()
    n = len(ports)
    n_anc = len(ancillas)
    n_meas = len(program.schedule)

    z0, w0, u0, s0 = 0, 2 * n, 2 * n + n_anc, 2 * n + 2 * n_anc
    width = 2 * n + 2 * n_anc + n_meas

    nodes = list(ports) + list(ancillas)
    row_of = {}
    rows = np.zeros((2 * len(nodes), width))
    for i, node in enumerate(nodes):
        row_of[node.id] = (2 * i, 2 * i + 1)  # (x row, p row)
    for i, port in enumerate(ports):
        rows[row_of[port.id][0], z0 + port.port] = 1.0
        rows[row_of[port.id][1], z0 + n + port.port] = 1.0
    for j, anc in enumerate(ancillas):
        rows[row_of[anc.id][0], w0 + j] = 1.0
        rows[row_of[anc.id][1], u0 + j] = 1.0

    node_map = graph.node_map()
    teleport_edges = []
    for u, v in graph.edges:
        nu, nv = node_map[u], node_map[v]
        for a, bnode in ((nu, nv), (nv, nu)):
            if a.role == ROLE_INPUT and a.coupling == COUPLING_TELEPORT:
                teleport_edges.append((a.id, bnode.id))
                break
        else:
            # QND: p_u += x_v, p_v += x_u
            rows[row_of[u][1]] += rows[row_of[v][0]]
            rows[row_of[v][1]] += rows[row_of[u][0]]
    for port_id, partner_id in teleport_edges:
        xa, pa = row_of[port_id]
        xb, pb = row_of[partner_id]
        rows[[xa, xb, pa, pb]] = BELL_SPLITTER @ rows[[xa, xb, pa, pb]]

    for k, entry in enumerate(program.schedule):
        xr, pr = row_of[entry.node_id]
        q = np.sin(entry.angle) * rows[xr] + np.cos(entry.angle) * rows[pr]
        wcoeff = q[w0:u0]
        pivot = int(np.argmax(np.abs(wcoeff)))
        c = wcoeff[pivot]
        if abs(c) < PIVOT_TOL * max(1.0, float(np.max(np.abs(q)))):
            raise DegenerateMeasurementError(
                f"measurement on node {entry.node_id} resolves no ancilla noise "
                "(degenerate or redundant homodyne setting)"
            )
        # Pin q = s_k and solve for the pivot noise variable:
        #   w_pivot = (s_k - (q - c w_pivot)) / c
        w_expr = -q / c
        w_expr[w0 + pivot] = 0.0
        w_expr[s0 + k] = 1.0 / c
        delta = w_expr.copy()
        delta[w0 + pivot] -= 1.0
        # Rank-1 substitution, restricted to rows that reference the pivot
        # noise (cluster programs keep this set small).
        col = rows[:, w0 + pivot]
        nz = np.nonzero(col)[0]
        if nz.size:
            rows[nz, :] += np.outer(col[nz], delta)

    out_ports = graph.output_ports()
    matrix = np.zeros((2 * n, 2 * n))
    outcome = np.zeros((2 * n, n_meas))
    noise = np.zeros((2 * n, n_anc))
    for port in out_ports:
        xr, pr = row_of[port.id]
        for out_row, src_row in ((port.port, xr), (n + port.port, pr)):
            expr = rows[src_row]
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
        ancilla_ids=tuple(a.id for a in ancillas),
    )


def probe_feedforward(program: MeasurementProgram) -> tuple:
    """Feedforward rules from unit-impulse probing of each outcome.

    The probe runs the program's exact linear algebra with outcome s_k = 1
    (all others zero) and zero input, reads the output shift, and installs
    the negating displacement.  Exact for linear systems, hence independent
    of the ancilla squeezing level.
    """
    replay = exact_replay(program)
    out_ports = program.graph.output_ports()
    port_node = {p.port: p.id for p in out_ports}
    return tuple(
        FeedforwardRule(source_id=src, target_id=port_node[port], gain_x=gx, gain_p=gp)
        for (src, port, gx, gp) in replay.feedforward_rules()
    )
