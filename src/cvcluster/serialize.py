"""Versioned JSON serialization of programs, targets, states and reports.

Documents are written compact, without indentation or spaces, and read
whatever their whitespace.  They are strict: unknown fields and non-finite
numbers (NaN and Infinity, which Python's json reads) are rejected with
their path, and a version tag mismatch is an explicit incompatibility
error.  Floats use Python's shortest round-trip representation (lossless,
17 significant digits where needed).

A program's node, edge, schedule and rule lists grow with its ancilla count,
so ``cluster-program/3`` stores each as an object of equal-length columns, one
per field: ``graph.nodes.role[k]`` is the role of node k, ``graph.edges.u[k]``
and ``graph.edges.v[k]`` the endpoints of edge k, ``schedule.angle[k]`` the
angle of measurement k.  A node column holds ``null`` where the node has no
such field.  Each column is checked at once; only a column that fails is
walked entry by entry, to name its first bad entry.
"""

import json
import math

import numpy as np

from .errors import SchemaError, VersionError
from .ir import (
    ClusterGraph,
    FeedforwardRule,
    MeasurementProgram,
    Node,
    ScheduleEntry,
    SynthesisReport,
)
from .symplectic import SymplecticMap

PROGRAM_VERSION = "cluster-program/3"
TARGET_VERSION = "symplectic-target/1"
STATE_VERSION = "gaussian-state/1"
REPORT_VERSION = "synthesis-report/1"
RESULT_VERSION = "simulation-result/1"


def _check_keys(doc: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    allowed = required | optional
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path}.{key}", "missing required field")


def _check_version(doc: dict, expected: str, path: str):
    version = doc.get("version")
    if version != expected:
        raise VersionError(
            f"{path}.version",
            f"incompatible format version {version!r}; this build reads {expected!r}",
        )


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, "expected a finite number")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _columns(value, path: str, checks: dict) -> list:
    """The columns of the object at ``path``, lists of equal length, each
    checked by its entry of ``checks``."""
    _check_keys(value, path, set(checks))
    columns = []
    for name, check in checks.items():
        column, column_path = value[name], f"{path}.{name}"
        if not isinstance(column, list):
            raise SchemaError(column_path, "expected a list")
        if columns and len(column) != len(columns[0]):
            raise SchemaError(column_path, f"expected {len(columns[0])} entries")
        columns.append(check(column, column_path))
    return columns


def _typed(types: set, expected: str):
    """A column check: every entry of the column is of one of ``types``
    (exactly, so a bool is not an int)."""
    def check(values: list, path: str) -> list:
        if not set(map(type, values)) <= types:
            i = next(i for i, v in enumerate(values) if type(v) not in types)
            raise SchemaError(
                f"{path}[{i}]", f"expected {expected}, got {type(values[i]).__name__}"
            )
        return values
    return check


_integers = _typed({int}, "an integer")


def _numbers(values: list, path: str) -> list:
    """``values``, the column at ``path``, as floats; each must be a finite
    number."""
    try:
        if set(map(type, values)) <= {int, float}:  # no bool, str or None
            column = np.array(values, dtype=float)
            if np.isfinite(column).all():
                return column.tolist()
    except OverflowError:  # an integer literal beyond the float range
        pass
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _vector(value, size: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != size:
        raise SchemaError(path, f"expected {size} entries")
    return np.array(_numbers(value, path))


def _matrix(value, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(path, f"expected {rows} rows")
    return np.array([_vector(row, cols, f"{path}[{i}]") for i, row in enumerate(value)])


# --- symplectic maps -------------------------------------------------------

def map_to_dict(smap: SymplecticMap) -> dict:
    return {
        "n": smap.n,
        "matrix": smap.matrix.tolist(),
        "displacement": smap.displacement.tolist(),
    }


def map_from_dict(doc: dict, path: str) -> SymplecticMap:
    _check_keys(doc, path, {"n", "matrix"}, {"displacement"})
    n = _integer(doc["n"], f"{path}.n")
    if n < 1:
        raise SchemaError(f"{path}.n", "mode count must be >= 1")
    matrix = _matrix(doc["matrix"], 2 * n, 2 * n, f"{path}.matrix")
    displacement = None
    if "displacement" in doc:
        displacement = _vector(doc["displacement"], 2 * n, f"{path}.displacement")
    return SymplecticMap(n, matrix, displacement)


# --- programs --------------------------------------------------------------

_NODE_COLUMNS = {  # Node's field order
    "id": _integers,
    "role": _typed({str}, "a string"),
    "coupling": _typed({str, type(None)}, "a string"),
    "port": _typed({int, type(None)}, "an integer"),
}
_EDGE_COLUMNS = {"u": _integers, "v": _integers}
_SCHEDULE_COLUMNS = {"nodeId": _integers, "angle": _numbers}
_RULE_COLUMNS = {  # FeedforwardRule's field order
    "sourceNodeId": _integers,
    "targetNodeId": _integers,
    "gainX": _numbers,
    "gainP": _numbers,
}


def _to_columns(records, names) -> dict:
    """The tuples ``records``, in the field order of ``names``, as one list
    per name."""
    columns = zip(*records) if records else [()] * len(names)
    return {name: list(column) for name, column in zip(names, columns)}


def program_to_dict(program: MeasurementProgram) -> dict:
    return {
        "version": PROGRAM_VERSION,
        "graph": {
            "nodes": _to_columns(program.graph.nodes, _NODE_COLUMNS),
            "edges": _to_columns(program.graph.edges, _EDGE_COLUMNS),
        },
        "schedule": _to_columns(
            [(s.node_id, s.angle) for s in program.schedule], _SCHEDULE_COLUMNS
        ),
        "feedforward": _to_columns(program.feedforward, _RULE_COLUMNS),
        "targetMap": map_to_dict(program.target),
    }


def program_from_dict(doc: dict) -> MeasurementProgram:
    _check_keys(doc, "program", {"version", "graph", "schedule", "feedforward", "targetMap"})
    _check_version(doc, PROGRAM_VERSION, "program")
    gdoc = doc["graph"]
    _check_keys(gdoc, "graph", {"nodes", "edges"})
    nodes = _columns(gdoc["nodes"], "graph.nodes", _NODE_COLUMNS)
    edges = _columns(gdoc["edges"], "graph.edges", _EDGE_COLUMNS)
    schedule = _columns(doc["schedule"], "schedule", _SCHEDULE_COLUMNS)
    feedforward = _columns(doc["feedforward"], "feedforward", _RULE_COLUMNS)
    program = MeasurementProgram(
        graph=ClusterGraph(nodes=tuple(map(Node, *nodes)), edges=tuple(zip(*edges))),
        schedule=tuple(map(ScheduleEntry, *schedule)),
        feedforward=tuple(map(FeedforwardRule, *feedforward)),
        target=map_from_dict(doc["targetMap"], "targetMap"),
    )
    program.validate()
    return program


# --- targets, states, reports ---------------------------------------------

def target_to_dict(smap: SymplecticMap) -> dict:
    doc = {"version": TARGET_VERSION}
    doc.update(map_to_dict(smap))
    return doc


def target_from_dict(doc: dict) -> SymplecticMap:
    _check_keys(doc, "target", {"version", "n", "matrix"}, {"displacement"})
    _check_version(doc, TARGET_VERSION, "target")
    inner = {k: v for k, v in doc.items() if k != "version"}
    return map_from_dict(inner, "target")


def state_to_dict(state) -> dict:
    """The document of a ``simulator.GaussianState``."""
    return {
        "version": STATE_VERSION,
        "n": state.n,
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }


def report_to_dict(report: SynthesisReport) -> dict:
    return {
        "version": REPORT_VERSION,
        "ancillaCount": report.ancilla_count,
        "noiseProxy": report.noise_proxy,
        "replayResidual": report.replay_residual,
        "stepParams": [
            {
                "kind": rec.kind,
                "wires": list(rec.wires),
                "column": rec.column,
                "params": rec.params,
            }
            for rec in report.step_params
        ],
    }


# --- files ------------------------------------------------------------------

def dumps(doc: dict) -> str:
    """Compact JSON, without indentation or spaces; a non-finite number raises
    ValueError, as the reader would reject it."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def save(doc: dict, path: str) -> None:
    text = dumps(doc)  # before the file is opened, so a refused doc writes nothing
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise json.JSONDecodeError("document nests too deeply", text, 0) from None


def save_program(program: MeasurementProgram, path: str) -> None:
    save(program_to_dict(program), path)


def load_program(path: str) -> MeasurementProgram:
    return program_from_dict(load(path))


def save_target(smap: SymplecticMap, path: str) -> None:
    save(target_to_dict(smap), path)


def load_target(path: str) -> SymplecticMap:
    return target_from_dict(load(path))


def write_sweep_csv(rows: list, path) -> None:
    """Rows of (db, effective_map_error, excess_trace) with a header line."""
    lines = ["db,effective_map_error,excess_trace"]
    lines += [f"{db!r},{err!r},{tr!r}" for db, err, tr in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
