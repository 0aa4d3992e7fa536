"""Intermediate representation of compiled measurement programs.

A program is a cluster graph (squeezed ancilla nodes linked by QND edges,
plus input/output ports), an ordered homodyne schedule, outcome-proportional
feedforward displacement rules, and the embedded compile target for
self-contained verification.
"""

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ProgramError
from .symplectic import SymplecticMap

ROLE_ANCILLA = "ancilla"
ROLE_INPUT = "input-port"
ROLE_OUTPUT = "output-port"
ROLES = (ROLE_ANCILLA, ROLE_INPUT, ROLE_OUTPUT)

COUPLING_QND = "qnd"
COUPLING_TELEPORT = "teleport"
COUPLINGS = (COUPLING_QND, COUPLING_TELEPORT)


class Node(NamedTuple):
    """A cluster node.

    ``coupling`` is set on input ports only (how the runtime input mode
    attaches: by QND gate per edge, or by a Bell measurement with the single
    edge partner).  ``port`` carries the wire index for input/output ports.
    """

    id: int
    role: str
    coupling: str = None
    port: int = None


@dataclass(frozen=True)  # not a NamedTuple: callers dataclasses.replace entries
class ScheduleEntry:
    node_id: int
    angle: float  # homodyne angle theta; measured quadrature x sin + p cos


class FeedforwardRule(NamedTuple):
    source_id: int  # measured node whose outcome drives the displacement
    target_id: int  # surviving node receiving it
    gain_x: float
    gain_p: float


@dataclass(frozen=True)
class ClusterGraph:
    nodes: tuple
    edges: tuple  # unordered id pairs; unit-weight QND couplings

    def node_map(self) -> dict:
        return {node.id: node for node in self.nodes}

    def input_ports(self) -> list:
        ports = [n for n in self.nodes if n.role == ROLE_INPUT]
        return sorted(ports, key=lambda n: n.port)

    def output_ports(self) -> list:
        ports = [n for n in self.nodes if n.role == ROLE_OUTPUT]
        return sorted(ports, key=lambda n: n.port)

    def ancilla_nodes(self) -> list:
        """All squeezed-vacuum nodes: ancillas and output ports, graph order."""
        return [n for n in self.nodes if n.role != ROLE_INPUT]

    def neighbours(self, node_id: int) -> list:
        out = []
        for u, v in self.edges:
            if u == node_id:
                out.append(v)
            elif v == node_id:
                out.append(u)
        return out

    def validate(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ProgramError("node ids are not unique")
        known = set(ids)
        for n in self.nodes:
            if n.role not in ROLES:
                raise ProgramError(f"node {n.id}: unknown role {n.role!r}")
            if n.role != ROLE_INPUT and n.coupling is not None:
                raise ProgramError(f"{n.role} {n.id} has a coupling descriptor; only input ports take one")
            if n.role == ROLE_ANCILLA and n.port is not None:
                raise ProgramError(f"ancilla {n.id} has a port index; only ports take one")
            if n.role == ROLE_INPUT:
                if n.coupling not in COUPLINGS:
                    raise ProgramError(
                        f"input-port {n.id} lacks a coupling descriptor"
                    )
                if n.port is None:
                    raise ProgramError(f"input-port {n.id} lacks a port index")
                if n.coupling == COUPLING_TELEPORT and len(self.neighbours(n.id)) != 1:
                    raise ProgramError(
                        f"teleport port {n.id} must have exactly one Bell partner edge"
                    )
            elif n.role == ROLE_OUTPUT and n.port is None:
                raise ProgramError(f"output-port {n.id} lacks a port index")
        for u, v in self.edges:
            if u == v:
                raise ProgramError(f"self-loop on node {u}")
            if u not in known or v not in known:
                raise ProgramError(f"edge ({u}, {v}) references unknown node")
        for ports, tag in ((self.input_ports(), "input"), (self.output_ports(), "output")):
            indices = [p.port for p in ports]
            if indices != list(range(len(indices))):
                raise ProgramError(f"{tag} port indices must cover 0..k-1 uniquely")


@dataclass(frozen=True)
class MeasurementProgram:
    """Compiled homodyne program over a cluster graph."""

    graph: ClusterGraph
    schedule: tuple  # ScheduleEntry, measurement order
    feedforward: tuple  # FeedforwardRule
    target: SymplecticMap  # embedded compile target (ground truth)

    @property
    def n(self) -> int:
        return len(self.graph.input_ports())

    @cached_property
    def tape(self):
        """The program's frontier schedule (``executor.record``, read out
        at its output ports), built once, after ``validate``, in blocks of
        ``executor.TAPE_BLOCK`` homodynes: the blocks of its cluster
        structure, shared with every program of that graph and schedule
        order, and the sines and cosines of its own angles.  A
        ``dataclasses.replace``d program builds its own."""
        from .executor import record  # the executor imports this module

        self.validate()
        return record(self.graph, self.schedule, [port.id for port in self.graph.output_ports()])

    @cached_property
    def replay(self):
        """The program's exact replay (``executor.exact_replay``), run once,
        after ``validate``, and shared read-only by every caller.  A program
        from ``compile`` already holds the replay that checked it; a
        ``dataclasses.replace``d or loaded program runs its own on first
        use, and a pass that raises keeps nothing.  The pass runs the
        events that its cluster structure's frontier logged once."""
        from .executor import _replay  # the executor imports this module

        self.validate()
        return _replay(self)

    def plan(self, r: float, cov: np.ndarray):
        """The ``tape``'s conditioned covariance at squeezing r for the
        input covariance ``cov`` (``simulator.covariance_plan``).

        Outcomes only displace later modes, so every shot on such an input
        shares it.  One plan is kept, keyed by r and the bytes of ``cov``,
        until a call with another key replaces it; a pass that raises keeps
        nothing, and a ``dataclasses.replace``d program starts without one.
        """
        from .simulator import covariance_plan  # the simulator imports this module

        key = (r, cov.tobytes())
        entry = self.__dict__.get("_plan")
        if entry is None or entry[0] != key:
            entry = (key, covariance_plan(self.tape, r, cov))
            self.__dict__["_plan"] = entry
        return entry[1]

    @cached_property
    def gain_table(self) -> np.ndarray:
        """The feedforward as an m-by-2n read-only table, built after
        ``validate``: row k is the output displacement (x-then-p, port
        order) per unit outcome of measurement k, in schedule order.
        Repeated rules add up in rule order."""
        self.validate()
        n = self.n
        table = np.zeros((len(self.schedule), 2 * n))
        if self.feedforward:
            measured = {entry.node_id: k for k, entry in enumerate(self.schedule)}
            port = {p.id: p.port for p in self.graph.output_ports()}
            source, target, gain_x, gain_p = zip(*self.feedforward)
            row = np.array([measured[s] for s in source])
            col = np.array([port[t] for t in target])
            # ufunc.at adds repeated (source, target) rules in rule order.
            np.add.at(table, (row, col), gain_x)
            np.add.at(table, (row, n + col), gain_p)
        table.flags.writeable = False
        return table

    def validate(self) -> None:
        """Check the program's structure, raising ProgramError at the first
        fault.  The checks run once per program object: a program that
        passed keeps that, so ``replay``, ``tape``, ``gain_table`` and
        ``serialize.load_program`` share one pass, and one that failed
        keeps nothing and raises the same error again."""
        if "_valid" in self.__dict__:
            return
        self.graph.validate()
        if len(self.graph.input_ports()) != len(self.graph.output_ports()):
            raise ProgramError("input and output port counts differ")
        if self.target.n != self.n:
            raise ProgramError(
                f"target acts on {self.target.n} modes but program has {self.n} ports"
            )
        measured = [s.node_id for s in self.schedule]
        if len(set(measured)) != len(measured):
            raise ProgramError("a node is scheduled more than once")
        expected = {n.id for n in self.graph.nodes if n.role != ROLE_OUTPUT}
        got = set(measured)
        if got != expected:
            missing = expected - got
            extra = got - expected
            raise ProgramError(
                f"schedule mismatch: missing nodes {sorted(missing)}, "
                f"unexpected nodes {sorted(extra)}"
            )
        surviving = {n.id for n in self.graph.output_ports()}
        rules = self.feedforward
        if got.issuperset(map(itemgetter(0), rules)) and surviving.issuperset(
            map(itemgetter(1), rules)
        ):
            self.__dict__["_valid"] = True
            return
        for rule in rules:  # name the first offending rule
            if rule.source_id not in got:
                raise ProgramError(
                    f"feedforward source {rule.source_id} is not a scheduled node"
                )
            if rule.target_id not in surviving:
                raise ProgramError(
                    f"feedforward target {rule.target_id} is not a surviving node"
                )


@dataclass(frozen=True)
class GateRecord:
    """One synthesized gate in a compiled program (for the report)."""

    kind: str  # "four-step" | "two-mode"
    wires: tuple
    column: int
    params: dict


@dataclass
class SynthesisReport:
    """Per-compilation metadata: parameters, census, and residuals.

    ``noise_proxy`` is the sum of (1 + gain^2) over every homodyne, the
    figure the free parameters once minimized.  It is reported only: each
    gate now minimizes its exact excess, which its record holds as
    ``params["excess"]``.
    """

    ancilla_count: int
    step_params: list = field(default_factory=list)
    noise_proxy: float = 0.0
    replay_residual: float = 0.0

