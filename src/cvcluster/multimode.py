"""Compilation of n-mode Gaussian maps to cluster measurement programs.

Pipeline: Bloch-Messiah reduction (passive * single-mode squeezers * passive),
a rectangular nearest-neighbour mesh of phase-free beam splitters and phase
shifters for each passive, then lowering: every one-mode gate becomes a
four-step measurement chain (4 ancillas), every beam splitter a cascade of
three three-mode connection gates (9 ancillas), and the disjoint splitters
of a mesh layer share one column.  Wires are kept step-aligned with measured
pad chains; the Fourier transform each pad step applies is folded into the
next real gate on that wire.

Each four-step gate chooses its free kappa1 to minimize its own share of the
program's excess noise tr(N N^T), which depends only on the gate's kappas
and on W = D^T D, where D is the ideal map from the gate's output to the
program's outputs.  D does not depend on any free choice, so the gates'
choices are independent and together minimize tr(N N^T) over every kappa1.
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
from .single_mode import chain_excess, decompose_four_step
from .symplectic import (
    SYMPLECTIC_TOL,
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
    positive-definite symplectic and O orthogonal-symplectic, both from one
    SVD S = Q diag(sigma) R^T: P = Q diag(sigma) Q^T and O = Q R^T (S S^T
    and a solve against P would square S's condition number).  Then it
    diagonalizes P in an orthogonal-symplectic eigenbasis; the eigenvalues
    come in reciprocal pairs e^{+-r_i}.
    """
    require_symplectic(target)
    n = target.n
    q, sigma, rt = np.linalg.svd(target.matrix)
    p = (q * sigma) @ q.T
    o = q @ rt
    vplus, rs = _symplectic_pair_basis(p, n)
    j = symplectic_form(n)
    k = np.column_stack([vplus, -j @ vplus])
    u = SymplecticMap(n, k)
    v = SymplecticMap(n, k.T @ o)
    return BlochMessiahFactors(passive_out=u, squeezings=tuple(rs), passive_in=v)


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
    n, mat = passive.n, passive.matrix
    j = symplectic_form(n)
    # Orthogonal and commuting with J (A = D, B = -C), hence symplectic.
    off = np.concatenate([mat.T @ mat - np.eye(2 * n), mat @ j - j @ mat])
    violation = float(np.max(np.abs(off)))
    if not violation <= SYMPLECTIC_TOL:
        raise ValueError(
            f"map is not passive: M^T M = I or M J = J M fails by {violation:.3e}"
            f" (tolerance {SYMPLECTIC_TOL:.1e})"
        )

    def phase(mode: int, theta: float) -> list:
        if abs(theta) > PHASE_SKIP_TOL:
            return [("onemode", mode, rotation(theta).matrix)]
        return []

    w = mat[:n, :n] + 1j * mat[n:, :n]  # the unitary A + iC
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

    ``downstream`` is T P^-1, where T is the target and P the ideal map of
    the steps emitted so far: its (w, n + w) columns are the map D from
    wire w's current state to the program's outputs.  Each emission on k
    wires updates 2k of its columns.
    """

    def __init__(self, target: SymplecticMap, kappa1: float = None):
        self.n = n = target.n
        self.kappa1 = kappa1
        self.downstream = target.matrix.copy()
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

    def _advance(self, wires, inverse: np.ndarray) -> np.ndarray:
        """Account in ``downstream`` for a block B on ``wires``, applied after
        the steps so far and given by its ``inverse`` in (x..., p...) order:
        P <- B P, so T P^-1 <- T P^-1 B^-1.  Returns the wires' new columns."""
        idx = [*wires, *(self.n + w for w in wires)]
        self.downstream[:, idx] = cols = self.downstream[:, idx] @ inverse
        return cols

    def _pad(self, wire: int, steps: int) -> None:
        """``steps`` kappa = 0 steps: F^steps, owed by the wire's next real gate."""
        self._chain_steps(wire, (0.0,) * steps)
        if steps % 4:
            self._advance((wire,), fourier_power(-steps).matrix)
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
            (a, b), (c, d) = desired.matrix.tolist()
            cols = self._advance((wire,), np.array([[d, -b], [-c, a]]))  # det 1
            (w11, w12), (_, w22) = (cols.T @ cols).tolist()
            params = decompose_four_step(desired, kappa1=self.kappa1, weight=(w11, w12, w22))
            self._chain_steps(wire, params.kappas)
            meta = {"kappas": [float(k) for k in params.kappas]}
            if comp:
                meta["fourier_compensation"] = comp
            meta["free_kappa1"] = params.free_param
            meta["excess"] = chain_excess(params.kappas, (w11, w12, w22))
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
                heads = self.heads[i], self.heads[j]
                self._chain_steps(i, (params.kappa1,))
                self._chain_steps(j, (params.kappa2,))
                ctrl = self._new_node()  # measured along x + eta3 p
                self.edges += [(heads[0], ctrl), (heads[1], ctrl)]
                self.schedule.append(ScheduleEntry(ctrl, float(np.arctan2(1.0, params.eta3))))
                self.total_proxy += 1.0 + params.eta3 ** 2
                record = {
                    "step": step,
                    "reflectivity": float(reflectivity),
                    "kappa1": float(params.kappa1),
                    "kappa2": float(params.kappa2),
                    "eta3": float(params.eta3),
                }
                self.records.append(GateRecord("connection", pair, self.column, record))
            # M_R + M_R on (x_i, x_j, p_i, p_j) (``beam_splitter_matrix``),
            # its own inverse.
            t, u = math.sqrt(reflectivity), math.sqrt(1.0 - reflectivity)
            self._advance(pair, np.array(
                [[t, u, 0.0, 0.0], [u, -t, 0.0, 0.0], [0.0, 0.0, t, u], [0.0, 0.0, u, -t]]
            ))
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
    naming the worst entry.  The returned program keeps that replay, so a
    later ``exact_replay`` of it runs no second pass.
    """
    require_symplectic(target)
    n = target.n
    if kappa1 is not None and n != 1:
        raise ValueError(f"kappa1 pins a one-mode synthesis; the target has {n} modes")
    builder = _Builder(target, kappa1)
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
    bare = builder.finish(gates, target)

    check = exact_replay(bare)
    diff = np.abs(check.matrix - target.matrix)
    residual = float(diff.max())
    if residual > REPLAY_TOL:
        worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(diff)), diff.shape))
        raise CompileError(
            f"noise-free replay misses the target by {residual:.3e} at entry "
            f"{worst} (> {REPLAY_TOL})"
        )
    program = replace(bare, feedforward=check.feedforward_rules())
    # The replay reads the graph and the schedule, never the rules, so the
    # check is the returned program's replay too (``MeasurementProgram.replay``).
    program.__dict__["replay"] = check
    report = SynthesisReport(
        ancilla_count=len(program.graph.nodes) - n,
        step_params=builder.records,
        noise_proxy=builder.total_proxy,
        replay_residual=residual,
    )
    return program, report
