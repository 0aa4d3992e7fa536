"""Compilation of n-mode Gaussian maps to cluster measurement programs.

Pipeline: Bloch-Messiah reduction (passive * single-mode squeezers * passive),
a rectangular nearest-neighbour mesh of phase-free beam splitters and phase
shifters for each passive, then lowering: every one-mode gate becomes a
four-step measurement chain (4 ancillas), every beam splitter a cascade of
three three-mode connection gates (9 ancillas), and the disjoint splitters
of a mesh layer share one column.  Wires are kept step-aligned with measured
pad chains; the Fourier transform each pad step applies is folded into the
next real gate on that wire.
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
    compose,
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
#: Phase shifters below this magnitude are dropped from splitter meshes.
PHASE_SKIP_TOL = 1e-14
#: Bloch-Messiah eigenvalues this close (relative), or this close to 1, form
#: one cluster.
CLUSTER_TOL = 1e-8
#: Candidate basis vectors whose norms differ by less than this are tied.
TIE_TOL = 1e-10


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


def _canonical_vectors(cluster: np.ndarray, count: int, j: np.ndarray) -> list:
    """``count`` orthonormal vectors in the span of ``cluster``'s columns,
    each orthogonal to J times the others.

    Each is the projected standard basis vector, less its components along
    the vectors already chosen and their J images, of largest norm; ties
    within round-off go to the lowest index, so canonical inputs (the
    identity, pure beam splitters, equal squeezers) yield canonical factors.
    """
    projector = cluster @ cluster.T
    chosen = []
    while len(chosen) < count:
        cands = projector.copy()
        for v in chosen:
            for b in (v, j @ v):
                cands -= np.outer(b, b @ cands)
        norms = np.linalg.norm(cands, axis=0)
        k = int(np.argmax(norms > norms.max() - TIE_TOL))
        chosen.append(cands[:, k] / norms[k])
    return chosen


def _symplectic_pair_basis(p: np.ndarray, n: int) -> tuple:
    """Columns (v_1..v_n) with P v_i = lam_i v_i, lam_i >= 1, such that
    K = [V | -J V] is orthogonal-symplectic and P = K diag(lam, 1/lam) K^T.

    A lone eigenvalue above 1 keeps eigh's vector.  A repeated one, and the
    eigenvalue-1 subspace (J-invariant, so it also needs a symplectic
    pairing), get ``_canonical_vectors`` instead of eigh's arbitrary basis.
    """
    j = symplectic_form(n)
    lam, vec = np.linalg.eigh(p)
    order = np.argsort(-lam)
    lam, vec = lam[order], vec[:, order]
    cols, rs = [], []
    start = 0
    squeezed = lam > 1.0 + CLUSTER_TOL
    while squeezed[start]:
        end = start + 1
        while squeezed[end] and lam[end - 1] - lam[end] <= CLUSTER_TOL * lam[end]:
            end += 1
        if end - start == 1:
            cols.append(vec[:, start])
        else:
            cols += _canonical_vectors(vec[:, start:end], end - start, j)
        rs += [math.log(x) for x in lam[start:end]]
        start = end
    unit = vec[:, np.abs(lam - 1.0) <= CLUSTER_TOL]
    m = unit.shape[1] // 2
    cols += _canonical_vectors(unit, m, j)
    rs += [0.0] * m
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


def _passive_to_unitary(p: SymplecticMap) -> np.ndarray:
    n = p.n
    a, b, c, d = p.block_a, p.block_b, p.block_c, p.block_d
    if max(np.max(np.abs(a - d)), np.max(np.abs(b + c))) > 1e-10:
        raise ValueError("map is not passive: blocks fail A = D, B = -C")
    return a + 1j * c


def reck_decompose(passive: SymplecticMap) -> list:
    """Rectangular nearest-neighbour mesh (Clements et al., Optica 3, 1460
    (2016)) of a passive map: at most n(n-1)/2 phase-free beam splitters on
    adjacent modes, at most n layers deep, and n(n+1)/2 phase shifters.

    The entries of the equivalent complex unitary U below its diagonal are
    nulled one sub-diagonal at a time, from the corner (n-1, 0) inwards:
    alternate sub-diagonals by right-multiplied nulls R on columns
    (c, c+1), the others by left-multiplied nulls L on rows (r-1, r).  Each
    null is one phase shifter and one splitter; what is left is a diagonal
    D, and U = L_1^-1 ... L_m^-1 D R_k^-1 ... R_1^-1.

    Returns the mesh as wire ops in application order: ("onemode", mode,
    rotation matrix) per phase shifter above ``PHASE_SKIP_TOL`` and ("bs",
    (i, i + 1), R) per splitter.
    """
    require_symplectic(passive, tol=1e-10)
    n = passive.n
    eye = np.eye(2 * n)
    if float(np.max(np.abs(passive.matrix.T @ passive.matrix - eye))) > 1e-10:
        raise ValueError("map is not passive: fails orthogonality")

    def phase(mode: int, theta: float) -> list:
        if abs(theta) > PHASE_SKIP_TOL:
            return [("onemode", mode, rotation(theta).matrix)]
        return []

    w = _passive_to_unitary(passive).astype(complex)
    right, left = [], []  # the ops of R_1^-1 ... R_k^-1 and of L_m^-1 ... L_1^-1
    for k in range(n - 1):
        for m in range(k + 1):
            if k % 2 == 0:
                r, c = n - 1 - m, k - m
                pair, u, v = [c, c + 1], w[r, c], w[r, c + 1]
            else:
                r, c = n - 1 - k + m, m
                pair, u, v = [r - 1, r], w[r, c], w[r - 1, c]
            if abs(u) < 1e-13:
                continue
            refl = abs(v) ** 2 / (abs(u) ** 2 + abs(v) ** 2)
            sr, st = math.sqrt(refl), math.sqrt(1.0 - refl)
            mix = np.array([[sr, st], [st, -sr]])
            bs = ("bs", tuple(pair), refl)
            if k % 2 == 0:  # w <- w R: phase column c, then mix; R^-1 = ps, then bs
                theta = float(np.angle(-u / v)) if v else 0.0
                w[:, c] *= np.exp(-1j * theta)
                w[:, pair] = w[:, pair] @ mix
                right += [*phase(c, theta), bs]
            else:  # w <- L w: phase row r-1, then mix; L^-1 = bs, then ps
                theta = float(np.angle(v / u)) if v else 0.0
                w[r - 1] *= np.exp(-1j * theta)
                w[pair] = mix @ w[pair]
                left[:0] = [bs, *phase(r - 1, theta)]
    diagonal = [op for k in range(n) for op in phase(k, float(np.angle(w[k, k])))]
    return right + diagonal + left


# ---------------------------------------------------------------------------
# Lowering to a cluster program
# ---------------------------------------------------------------------------


class _Builder:
    """Accumulates nodes, edges, schedule and gate records column by column.

    A pad step applies a Fourier transform, so each wire also carries the
    number of pad Fourier transforms (mod 4) that its next real gate still
    has to undo.  ``kappa1`` pins the free parameter of every four-step gate.
    """

    def __init__(self, n: int, kappa1: float = None):
        self.n = n
        self.kappa1 = kappa1
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
        """``steps`` kappa = 0 steps: F^steps, owed by the wire's next real gate."""
        self._chain_steps(wire, (0.0,) * steps)
        self.pending[wire] = (self.pending[wire] + steps) % 4
        self.records.append(
            GateRecord("pad", (wire,), self.column, {"kappas": [0.0] * steps})
        )

    def _settle(self, gates: dict, wires) -> dict:
        """``gates`` plus an identity gate on each of ``wires`` that has no
        gate and owes a count."""
        owing = [w for w in wires if w not in gates and self.pending[w]]
        return {**gates, **dict.fromkeys(owing, np.eye(2))}

    def one_mode_column(self, gates: dict) -> None:
        """gates: wire -> 2x2 matrix; other wires pad.

        Each gate first undoes its wire's pending pad Fourier transforms.  An
        empty ``gates`` emits nothing.
        """
        if not gates:
            return
        for wire in range(self.n):
            if wire not in gates:
                self._pad(wire, 4)  # M(0)^4 = F^4 = identity exactly
                continue
            desired = SymplecticMap(1, gates[wire])
            comp = self.pending[wire]
            if comp:
                desired = compose(desired, fourier_power(-comp))
            self.pending[wire] = 0
            params = decompose_four_step(desired, kappa1=self.kappa1)
            self._chain_steps(wire, params.kappas)
            meta = {"kappas": [float(k) for k in params.kappas]}
            if comp:
                meta["fourier_compensation"] = comp
            meta["free_kappa1"] = params.free_param
            self.records.append(GateRecord("four-step", (wire,), self.column, meta))
        self.column += 1

    def bs_column(self, gates: dict, splitters: list) -> None:
        """The one-mode column ``gates``, then a column of disjoint beam
        splitters ``[(pair, R), ...]``, each as three connection gates, while
        the idle wires pad.

        Equal pending counts on both wires of a pair commute through its
        splitter.  If ``gates`` would leave them unequal, the column also
        gets an identity gate on each wire of the pair that still owes a
        count.
        """
        for pair, _ in splitters:
            owed = [0 if w in gates else self.pending[w] for w in pair]
            if owed[0] != owed[1]:
                gates = self._settle(gates, pair)
        self.one_mode_column(gates)
        for pair, reflectivity in splitters:
            i, j = pair
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
        busy = {w for pair, _ in splitters for w in pair}
        for wire in range(self.n):
            if wire not in busy:
                self._pad(wire, 3)
        self.column += 1

    def finish(self, gates: dict, target: SymplecticMap) -> MeasurementProgram:
        """The last one-mode column ``gates``, with an identity gate on each
        other wire that owes a count, and the program."""
        if self.column == 0 and not gates:
            # No gates at all (e.g. a multi-mode identity): keep every wire's
            # output distinct from its input with identity chains.
            gates = dict.fromkeys(range(self.n), np.eye(2))
        self.one_mode_column(self._settle(gates, range(self.n)))
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


def _gate_sequence(target: SymplecticMap) -> list:
    """Wire-level ops, ("onemode", wire, matrix) or ("bs", pair, R), in
    application order: the mesh of the first passive, the squeezers, the
    mesh of the second passive."""
    if target.n == 1:
        return [("onemode", 0, target.matrix)]
    factors = bloch_messiah(target)
    squeezers = [
        ("onemode", wire, squeeze(r).matrix)
        for wire, r in enumerate(factors.squeezings)
        if abs(r) > SQUEEZE_SKIP_TOL
    ]
    return reck_decompose(factors.passive_in) + squeezers + reck_decompose(factors.passive_out)


def compile(target: SymplecticMap, kappa1: float = None):
    """Compile an n-mode symplectic target into a measurement program.

    Returns (MeasurementProgram, SynthesisReport).  One-mode targets lower
    directly to a single four-step chain; larger targets go through
    Bloch-Messiah and a rectangular splitter mesh per passive.  ``kappa1``
    pins the free parameter of the four-step synthesis for one-mode targets.

    Splitters are packed by wire level: each goes to the first splitter
    column in which both its wires are free, so a column holds disjoint
    pairs, and the two meshes need at most 2n splitter columns.  The
    one-mode ops on a wire between two of its splitters are composed into
    one gate, placed in the one-mode column just before the wire's next
    splitter, or in the last column.

    Wires idling through a column are padded with measured kappa = 0 chains.
    A pad step applies a Fourier transform, so pads inside four-step columns
    (F^4 = 1) are silent, while the F^3 of a beam-splitter column is folded
    into the next real gate on that wire.  Equal leftover powers on both
    wires commute through a beam splitter; a wire left owing a different
    power, or owing one at the end, gets an identity gate in the column
    before.

    The program's one check is its exact replay, which also yields the
    feedforward: ``replay_residual`` is max|replay - target| over the
    matrix entries, and a residual above ``REPLAY_TOL`` raises CompileError
    naming the worst entry.
    """
    require_symplectic(target, tol=1e-8)
    n = target.n
    if kappa1 is not None and n != 1:
        raise ValueError(f"kappa1 pins a one-mode synthesis; the target has {n} modes")
    builder = _Builder(n, kappa1)
    gates = {}  # wire -> its one-mode ops since its last splitter, composed
    columns = []  # per splitter column: (the one-mode gates before it, its splitters)
    level = [0] * n  # the first splitter column in which each wire is free
    for kind, wires, value in _gate_sequence(target):
        if kind == "onemode":
            gates[wires] = value @ gates[wires] if wires in gates else value
            continue
        layer = max(level[w] for w in wires)
        if layer == len(columns):
            columns.append(({}, []))
        before, splitters = columns[layer]
        for w in wires:
            if w in gates:
                before[w] = gates.pop(w)
            level[w] = layer + 1
        splitters.append((wires, value))
    for before, splitters in columns:
        builder.bs_column(before, splitters)
    program = builder.finish(gates, target)

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
