"""Compilation of n-mode Gaussian maps to cluster measurement programs.

Pipeline: Bloch-Messiah reduction (passive * single-mode squeezers * passive),
Reck-style factorization of each passive into phase-free beam splitters and
phase shifters, then lowering: every one-mode gate becomes a four-step
measurement chain (4 ancillas), every beam splitter a cascade of three
three-mode connection gates (9 ancillas).  Wires are kept step-aligned with
measured pad chains; the Fourier transform each pad step applies is folded
into the next real gate on that wire.
"""

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
from .single_mode import decompose_four_step
from .symplectic import (
    SymplecticMap,
    beam_splitter_matrix,
    compose,
    embed,
    fourier_power,
    require_symplectic,
    rotation,
    squeeze,
    symplectic_form,
)

#: Acceptance threshold on the noise-free replay of a compilation.
REPLAY_TOL = 1e-9
#: Squeezers below this magnitude compile to nothing.
SQUEEZE_SKIP_TOL = 1e-12
#: Phase shifters below this magnitude are dropped from Reck networks.
PHASE_SKIP_TOL = 1e-14


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

    def squeeze_matrix(self) -> np.ndarray:
        r = np.asarray(self.squeezings)
        return np.diag(np.concatenate([np.exp(r), np.exp(-r)]))

    def reconstruct(self) -> np.ndarray:
        return self.passive_out.matrix @ self.squeeze_matrix() @ self.passive_in.matrix


def _symplectic_pair_basis(p: np.ndarray, n: int) -> tuple:
    """Columns (v_1..v_n) with P v_i = lam_i v_i, lam_i >= 1, such that
    K = [V | -J V] is orthogonal-symplectic and P = K diag(lam, 1/lam) K^T."""
    j = symplectic_form(n)
    lam, vec = np.linalg.eigh(p)
    order = np.argsort(-lam)
    lam, vec = lam[order], vec[:, order]
    eps = 1e-8
    cols, rs = [], []
    cluster_cols = []
    for i in range(2 * n):
        if lam[i] > 1.0 + eps:
            cols.append(vec[:, i])
            rs.append(math.log(lam[i]))
        elif abs(lam[i] - 1.0) <= eps:
            cluster_cols.append(vec[:, i])
    # Eigenvalue-1 subspace: J-invariant, needs an explicit symplectic pairing.
    # Seed from projected standard basis vectors so canonical inputs (identity,
    # pure beam splitters) yield canonical factors.
    if cluster_cols:
        cb = np.column_stack(cluster_cols)
        projector = cb @ cb.T
        chosen = []
        m = len(cluster_cols) // 2
        while len(chosen) < m:
            used = []
            for v in chosen:
                used.append(v)
                used.append(j @ v)
            best_norm, best = -1.0, None
            for k in range(2 * n):
                cand = projector[:, k].copy()
                for bvec in used:
                    cand -= (bvec @ cand) * bvec
                norm = float(np.linalg.norm(cand))
                if norm > best_norm:
                    best_norm, best = norm, cand
            chosen.append(best / best_norm)
        cols.extend(chosen)
        rs.extend([0.0] * m)
    return np.column_stack(cols), np.array(rs)


def bloch_messiah(target: SymplecticMap) -> BlochMessiahFactors:
    """Factor a symplectic map as passive * squeezers * passive.

    Polar-decomposes the matrix as P O with P = sqrt(S S^T) symmetric
    positive-definite symplectic and O orthogonal-symplectic, then
    diagonalizes P in an orthogonal-symplectic eigenbasis; the eigenvalues
    come in reciprocal pairs e^{+-r_i}.
    """
    require_symplectic(target, tol=1e-8)
    n = target.n
    s = target.matrix
    w, q = np.linalg.eigh(s @ s.T)
    p = (q * np.sqrt(w)) @ q.T
    o = np.linalg.solve(p, s)
    vplus, rs = _symplectic_pair_basis(p, n)
    j = symplectic_form(n)
    k = np.column_stack([vplus, -j @ vplus])
    u = SymplecticMap(n, k)
    v = SymplecticMap(n, k.T @ o)
    return BlochMessiahFactors(passive_out=u, squeezings=tuple(rs), passive_in=v)


@dataclass(frozen=True)
class ReckElement:
    """One linear-optics element: ("ps", (mode,), theta) or ("bs", (i, j), R)."""

    kind: str
    modes: tuple
    value: float

    def as_map(self, n: int) -> SymplecticMap:
        if self.kind == "ps":
            return embed(rotation(self.value), n, list(self.modes))
        return embed(beam_splitter_matrix(self.value), n, list(self.modes))


@dataclass(frozen=True)
class ReckNetwork:
    """Phase shifters and phase-free beam splitters, in application order."""

    n: int
    elements: tuple

    def matrix(self) -> np.ndarray:
        m = np.eye(2 * self.n)
        for el in self.elements:
            m = el.as_map(self.n).matrix @ m
        return m

    def beam_splitter_count(self) -> int:
        return sum(1 for el in self.elements if el.kind == "bs")

    def phase_shifter_count(self) -> int:
        return sum(1 for el in self.elements if el.kind == "ps")


def _passive_to_unitary(p: SymplecticMap) -> np.ndarray:
    n = p.n
    a, b, c, d = p.block_a, p.block_b, p.block_c, p.block_d
    if max(np.max(np.abs(a - d)), np.max(np.abs(b + c))) > 1e-10:
        raise ValueError("map is not passive: blocks fail A = D, B = -C")
    return a + 1j * c


def reck_decompose(passive: SymplecticMap) -> ReckNetwork:
    """Triangular factorization of a passive map into at most n(n-1)/2
    phase-free beam splitters and n(n+1)/2 phase shifters.

    Below-diagonal entries of the equivalent complex unitary are nulled row
    by row from the bottom by right-multiplied phase+splitter pairs; the
    residual diagonal phases become final phase shifters.
    """
    require_symplectic(passive, tol=1e-10)
    n = passive.n
    eye = np.eye(2 * n)
    if float(np.max(np.abs(passive.matrix.T @ passive.matrix - eye))) > 1e-10:
        raise ValueError("map is not passive: fails orthogonality")
    w = _passive_to_unitary(passive).astype(complex)
    stages = []  # (j, i, phi, R) in nulling order
    for i in range(n - 1, 0, -1):
        for j in range(0, i):
            u, v = w[i, j], w[i, i]
            if abs(u) < 1e-13:
                continue
            refl = abs(v) ** 2 / (abs(u) ** 2 + abs(v) ** 2)
            phi = float(np.angle(-v / u)) if abs(v) > 0 else 0.0
            t = np.eye(n, dtype=complex)
            sr, st = math.sqrt(refl), math.sqrt(1.0 - refl)
            t[j, j] = np.exp(1j * phi) * sr
            t[j, i] = np.exp(1j * phi) * st
            t[i, j] = st
            t[i, i] = -sr
            w = w @ t
            stages.append((j, i, phi, refl))
    elements = []
    for (j, i, phi, refl) in stages:
        if abs(phi) > PHASE_SKIP_TOL:
            elements.append(ReckElement("ps", (j,), -phi))
        elements.append(ReckElement("bs", (j, i), refl))
    for k in range(n):
        delta = float(np.angle(w[k, k]))
        if abs(delta) > PHASE_SKIP_TOL:
            elements.append(ReckElement("ps", (k,), delta))
    return ReckNetwork(n=n, elements=tuple(elements))


# ---------------------------------------------------------------------------
# Lowering to a cluster program
# ---------------------------------------------------------------------------


class _Builder:
    """Accumulates nodes, edges, schedule and gate records column by column.

    A pad step applies a Fourier transform, so each wire also carries the
    number of pad Fourier transforms (mod 4) that its next real gate still
    has to undo.
    """

    def __init__(self, n: int):
        self.n = n
        self.nodes = [
            Node(w, ROLE_INPUT, coupling=COUPLING_QND, port=w) for w in range(n)
        ]
        self.edges = []
        self.schedule = []
        self.records = []
        self.heads = {w: w for w in range(n)}
        self.pending = [0] * n
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

    def _pad(self, wire: int, steps: int) -> None:
        self._chain_steps(wire, (0.0,) * steps)
        self.records.append(
            GateRecord("pad", (wire,), self.column, {"kappas": [0.0] * steps})
        )

    def one_mode_column(self, gates: dict, flush: bool = False) -> None:
        """gates: wire -> (2x2 matrix, pinned kappa1 or None); other wires pad.

        Each gate first undoes its wire's pending pad Fourier transforms.  An
        empty ``gates`` emits nothing.
        """
        if not gates:
            return
        for wire in range(self.n):
            if wire not in gates:
                self._pad(wire, 4)  # M(0)^4 = F^4 = identity exactly
                continue
            matrix, k1_opt = gates[wire]
            desired = SymplecticMap(1, matrix)
            comp = self.pending[wire]
            if comp:
                desired = compose(desired, fourier_power(-comp))
            self.pending[wire] = 0
            params = decompose_four_step(desired, kappa1=k1_opt)
            self._chain_steps(wire, params.kappas)
            meta = {"kappas": [float(k) for k in params.kappas]}
            if flush:
                meta["flush"] = True
            if comp:
                meta["fourier_compensation"] = comp
            meta["free_kappa1"] = params.free_param
            self.records.append(GateRecord("four-step", (wire,), self.column, meta))
        self.column += 1

    def _flush(self, wires) -> None:
        """Identity gates that undo the pending pad transforms on ``wires``."""
        self.one_mode_column(
            {w: (np.eye(2), None) for w in wires if self.pending[w]}, flush=True
        )

    def bs_column(self, pair: tuple, reflectivity: float) -> None:
        """One beam splitter as three connection gates; the other wires pad.

        Equal pending counts on both wires commute through the splitter;
        unequal ones are flushed first.
        """
        i, j = pair
        if self.pending[i] != self.pending[j]:
            self._flush(pair)
        for step, params in enumerate(beam_splitter_program(reflectivity)):
            node_a, node_b, ctrl = (self._new_node() for _ in range(3))
            head_i, head_j = self.heads[i], self.heads[j]
            self.edges.extend(
                [(head_i, node_a), (head_j, node_b), (head_i, ctrl), (head_j, ctrl)]
            )
            self.schedule.extend(
                [
                    ScheduleEntry(head_i, float(np.arctan(params.kappa1))),
                    ScheduleEntry(head_j, float(np.arctan(params.kappa2))),
                    ScheduleEntry(ctrl, float(np.arctan2(1.0, params.eta3))),
                ]
            )
            self.heads[i], self.heads[j] = node_a, node_b
            self.total_proxy += (
                3.0 + params.kappa1 ** 2 + params.kappa2 ** 2 + params.eta3 ** 2
            )
            record = {
                "step": step,
                "reflectivity": float(reflectivity),
                "kappa1": float(params.kappa1),
                "kappa2": float(params.kappa2),
                "eta3": float(params.eta3),
            }
            self.records.append(GateRecord("connection", pair, self.column, record))
        for wire in range(self.n):
            if wire not in pair:
                self._pad(wire, 3)  # F^3, owed by the wire's next real gate
                self.pending[wire] = (self.pending[wire] + 3) % 4
        self.column += 1

    def finish(self, target: SymplecticMap) -> MeasurementProgram:
        if self.column == 0:
            # No gates at all (e.g. a multi-mode identity): keep every wire's
            # output distinct from its input with identity chains.
            self.one_mode_column({w: (np.eye(2), None) for w in range(self.n)})
        else:
            self._flush(range(self.n))
        head_ids = {self.heads[w]: w for w in range(self.n)}
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


def _gate_sequence(target: SymplecticMap, kappa1: float = None) -> list:
    """Wire-level ops: ("onemode", wire, matrix, kappa1_opt) or ("bs", pair, R)."""
    n = target.n
    if n == 1:
        return [("onemode", 0, np.array(target.matrix), kappa1)]
    factors = bloch_messiah(target)
    ops = []
    for el in reck_decompose(factors.passive_in).elements:
        if el.kind == "ps":
            ops.append(("onemode", el.modes[0], rotation(el.value).matrix, None))
        else:
            ops.append(("bs", el.modes, el.value))
    for wire, r in enumerate(factors.squeezings):
        if abs(r) > SQUEEZE_SKIP_TOL:
            ops.append(("onemode", wire, squeeze(r).matrix, None))
    for el in reck_decompose(factors.passive_out).elements:
        if el.kind == "ps":
            ops.append(("onemode", el.modes[0], rotation(el.value).matrix, None))
        else:
            ops.append(("bs", el.modes, el.value))
    return ops


def compile(target: SymplecticMap, kappa1: float = None):
    """Compile an n-mode symplectic target into a measurement program.

    Returns (MeasurementProgram, SynthesisReport).  One-mode targets lower
    directly to a single four-step chain; larger targets go through
    Bloch-Messiah and Reck factorizations.  ``kappa1`` pins the free
    parameter of the four-step synthesis for one-mode targets.

    Wires idling through a column are padded with measured kappa = 0 chains.
    A pad step applies a Fourier transform, so pads inside four-step columns
    (F^4 = 1) are silent, while the F^3 of a beam-splitter column is folded
    into the next real gate on that wire (equal leftover powers on both
    wires commute through a beam splitter; unequal ones are flushed first).

    The program's one check is its exact replay, which also yields the
    feedforward: ``replay_residual`` is max|replay - target| over the
    matrix entries, and a residual above ``REPLAY_TOL`` raises CompileError
    naming the worst entry.
    """
    require_symplectic(target, tol=1e-8)
    n = target.n
    if kappa1 is not None and n != 1:
        raise ValueError(f"kappa1 pins a one-mode synthesis; the target has {n} modes")
    builder = _Builder(n)
    column = {}  # consecutive one-mode ops on distinct wires share a column
    for op in _gate_sequence(target, kappa1):
        if op[0] == "bs" or op[1] in column:
            builder.one_mode_column(column)
            column = {}
        if op[0] == "bs":
            builder.bs_column(op[1], op[2])
        else:
            column[op[1]] = (op[2], op[3])
    builder.one_mode_column(column)
    program = builder.finish(target)

    check = exact_replay(program)
    diff = np.abs(check.matrix - target.matrix)
    residual = float(diff.max())
    if residual > REPLAY_TOL:
        worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(diff)), diff.shape))
        raise CompileError(
            f"noise-free replay misses the target by {residual:.3e} at entry "
            f"{worst} (> {REPLAY_TOL})"
        )
    program = replace(program, feedforward=check.feedforward_rules())
    report = SynthesisReport(
        ancilla_count=len(program.graph.nodes) - n,
        step_params=builder.records,
        noise_proxy=builder.total_proxy,
        replay_residual=residual,
    )
    return program, report
