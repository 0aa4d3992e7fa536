"""Structural validation of graphs and programs."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from cvcluster import (
    VACUUM_QUADRATURE_VARIANCE,
    ProgramError,
    compile,
    identity,
    random_symplectic,
)
from cvcluster.ir import (
    COUPLING_QND,
    ClusterGraph,
    FeedforwardRule,
    MeasurementProgram,
    Node,
    ROLE_ANCILLA,
    ROLE_INPUT,
    ROLE_OUTPUT,
    ScheduleEntry,
)


def small_program() -> MeasurementProgram:
    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_QND, port=0),
        Node(1, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1),))
    return MeasurementProgram(
        graph=graph,
        schedule=(ScheduleEntry(0, 0.0),),
        feedforward=(),
        target=identity(1),
    )


def test_convention_constants():
    assert VACUUM_QUADRATURE_VARIANCE == 0.25


def test_valid_program_passes():
    small_program().validate()


def test_self_loop_rejected():
    nodes = (Node(0, ROLE_ANCILLA),)
    with pytest.raises(ProgramError, match="self-loop"):
        ClusterGraph(nodes=nodes, edges=((0, 0),)).validate()


def test_duplicate_ids_rejected():
    nodes = (Node(0, ROLE_ANCILLA), Node(0, ROLE_ANCILLA))
    with pytest.raises(ProgramError, match="unique"):
        ClusterGraph(nodes=nodes, edges=()).validate()


def test_input_port_requires_coupling():
    nodes = (Node(0, ROLE_INPUT, port=0), Node(1, ROLE_OUTPUT, port=0))
    with pytest.raises(ProgramError, match="coupling"):
        ClusterGraph(nodes=nodes, edges=((0, 1),)).validate()


def test_teleport_port_needs_exactly_one_partner():
    from cvcluster.ir import COUPLING_TELEPORT

    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_TELEPORT, port=0),
        Node(1, ROLE_ANCILLA),
        Node(2, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ProgramError, match="Bell partner"):
        graph.validate()


def test_duplicate_schedule_entry_rejected():
    program = small_program()
    bad = dataclasses.replace(
        program, schedule=(ScheduleEntry(0, 0.0), ScheduleEntry(0, 0.1))
    )
    with pytest.raises(ProgramError, match="more than once"):
        bad.validate()


def test_unmeasured_node_rejected():
    program = small_program()
    bad = dataclasses.replace(program, schedule=())
    with pytest.raises(ProgramError, match="missing nodes"):
        bad.validate()


def test_output_port_must_not_be_scheduled():
    program = small_program()
    bad = dataclasses.replace(
        program, schedule=(ScheduleEntry(0, 0.0), ScheduleEntry(1, 0.0))
    )
    with pytest.raises(ProgramError, match="unexpected"):
        bad.validate()


def test_feedforward_source_must_be_scheduled():
    program = small_program()
    bad = dataclasses.replace(
        program,
        feedforward=(FeedforwardRule(source_id=1, target_id=1, gain_x=1.0, gain_p=0.0),),
    )
    with pytest.raises(ProgramError, match="source"):
        bad.validate()


def test_feedforward_target_must_survive():
    program = small_program()
    bad = dataclasses.replace(
        program,
        feedforward=(FeedforwardRule(source_id=0, target_id=0, gain_x=1.0, gain_p=0.0),),
    )
    with pytest.raises(ProgramError, match="surviving"):
        bad.validate()


@pytest.mark.parametrize(
    "rules, message",
    [
        (((1, 1),), "feedforward source 1 is not a scheduled node"),
        (((0, 0),), "feedforward target 0 is not a surviving node"),
        (((1, 0),), "feedforward source 1 is not a scheduled node"),
        (((0, 1), (7, 1), (5, 1)), "feedforward source 7 is not a scheduled node"),
        (((0, 1), (0, 7), (0, 5)), "feedforward target 7 is not a surviving node"),
        (((0, 1), (0, 0), (1, 1)), "feedforward target 0 is not a surviving node"),
        (((0, 1), (1, 1), (0, 0)), "feedforward source 1 is not a scheduled node"),
    ],
    ids=[
        "source",
        "target",
        "source-before-target",
        "first-of-two-sources",
        "first-of-two-targets",
        "target-rule-first",
        "source-rule-first",
    ],
)
def test_feedforward_errors_name_the_first_bad_rule(rules, message):
    program = dataclasses.replace(
        small_program(),
        feedforward=tuple(FeedforwardRule(s, t, 1.0, 0.0) for s, t in rules),
    )
    with pytest.raises(ProgramError, match=f"^{message}$"):
        program.validate()


def test_target_mode_count_must_match_ports():
    program = small_program()
    bad = dataclasses.replace(program, target=identity(2))
    with pytest.raises(ProgramError, match="ports"):
        bad.validate()


def test_gate_census_shape():
    _, report = compile(random_symplectic(2, 19))
    census = Counter(record.kind for record in report.step_params)
    assert census == {"two-mode": 1}  # n(n - 1)/2 at n = 2; no four-step gate


def two_port_graph(*replacements) -> ClusterGraph:
    """Two input ports, each linked to one of two output ports; each node in
    ``replacements`` takes the place of the node with its id."""
    nodes = [
        Node(0, ROLE_INPUT, coupling=COUPLING_QND, port=0),
        Node(1, ROLE_INPUT, coupling=COUPLING_QND, port=1),
        Node(2, ROLE_OUTPUT, port=0),
        Node(3, ROLE_OUTPUT, port=1),
    ]
    for node in replacements:
        nodes[node.id] = node
    return ClusterGraph(nodes=tuple(nodes), edges=((0, 2), (1, 3)))


@pytest.mark.parametrize(
    "graph, message",
    [
        (two_port_graph(Node(2, "detector", port=0)), "node 2: unknown role 'detector'"),
        (two_port_graph(Node(1, ROLE_INPUT, coupling=COUPLING_QND)), "input-port 1 lacks a port index"),
        (two_port_graph(Node(3, ROLE_OUTPUT)), "output-port 3 lacks a port index"),
        (
            ClusterGraph(nodes=two_port_graph().nodes, edges=((0, 2), (1, 7))),
            "edge (1, 7) references unknown node",
        ),
        (
            two_port_graph(Node(1, ROLE_INPUT, coupling=COUPLING_QND, port=2)),
            "input port indices must cover 0..k-1 uniquely",
        ),
        (two_port_graph(Node(3, ROLE_OUTPUT, port=0)), "output port indices must cover 0..k-1 uniquely"),
    ],
    ids=["unknown-role", "input-port-index", "output-port-index", "unknown-endpoint",
         "input-port-gap", "output-port-repeat"],
)
def test_graph_validation_errors(graph, message):
    with pytest.raises(ProgramError) as err:
        graph.validate()
    assert str(err.value) == message


def test_port_counts_must_match():
    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_QND, port=0),
        Node(1, ROLE_INPUT, coupling=COUPLING_QND, port=1),
        Node(2, ROLE_OUTPUT, port=0),
    )
    program = MeasurementProgram(
        graph=ClusterGraph(nodes=nodes, edges=((0, 2), (1, 2))),
        schedule=(ScheduleEntry(0, 0.0), ScheduleEntry(1, 0.0)),
        feedforward=(),
        target=identity(2),
    )
    with pytest.raises(ProgramError) as err:
        program.validate()
    assert str(err.value) == "input and output port counts differ"


def loop_gain_table(program: MeasurementProgram) -> np.ndarray:
    """The ``gain_table``, summed rule by rule into rows in schedule order."""
    n = program.n
    port = {p.id: p.port for p in program.graph.output_ports()}
    table = np.zeros((len(program.schedule), 2 * n))
    for k, entry in enumerate(program.schedule):
        for rule in program.feedforward:
            if rule.source_id == entry.node_id:
                table[k, port[rule.target_id]] += rule.gain_x
                table[k, n + port[rule.target_id]] += rule.gain_p
    return table


def test_feedforward_gains_sum_repeated_rules_in_rule_order():
    # 1e16 + 1 rounds back to 1e16, so rule order gives 1e16 where the
    # reverse order, 1 + 1 + 1e16, gives 1e16 + 2.
    rules = (
        FeedforwardRule(0, 1, 1e16, 0.5),
        FeedforwardRule(0, 1, 1.0, -0.0),
        FeedforwardRule(0, 1, 1.0, 0.25),
    )
    program = dataclasses.replace(small_program(), feedforward=rules)
    assert [entry.node_id for entry in program.schedule] == [0]
    assert program.gain_table.tolist() == [[1e16, 0.75]]
    assert (1.0 + 1.0) + 1e16 == 1e16 + 2
    table = dataclasses.replace(small_program(), feedforward=()).gain_table
    assert table.shape == (1, 2) and not table.any()


@pytest.mark.parametrize("n, seed", [(2, 12), (3, 5), (4, 1)])
def test_feedforward_gains_match_the_rule_loop(n, seed):
    program, _ = compile(random_symplectic(n, seed))
    table, expected = program.gain_table, loop_gain_table(program)
    assert table.shape == (len(program.schedule), 2 * n)
    assert [list(map(float.hex, row)) for row in table.tolist()] == [
        list(map(float.hex, row)) for row in expected.tolist()
    ]


def test_the_gain_table_is_kept_and_read_only():
    program, _ = compile(random_symplectic(2, 12))
    table = program.gain_table
    assert program.gain_table is table
    assert dataclasses.replace(program).gain_table is not table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


def test_schedule_entries_and_rules_are_immutable_records():
    rule = FeedforwardRule(source_id=3, target_id=4, gain_x=0.5, gain_p=-0.25)
    assert rule == FeedforwardRule(3, 4, 0.5, -0.25)
    assert (rule.source_id, rule.target_id, rule.gain_x, rule.gain_p) == (3, 4, 0.5, -0.25)
    entry = ScheduleEntry(node_id=2, angle=0.125)
    assert (entry.node_id, entry.angle) == (2, 0.125)
    for record, name in ((rule, "gain_x"), (entry, "angle")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)


def counting_graph_checks(monkeypatch) -> list:
    """The graphs whose checks run from here on: ``ClusterGraph.validate``
    is the first of ``MeasurementProgram.validate``'s checks."""
    checked = []
    real = ClusterGraph.validate

    def counting(graph):
        checked.append(graph)
        return real(graph)

    monkeypatch.setattr(ClusterGraph, "validate", counting)
    return checked


def test_a_valid_program_runs_its_checks_once(monkeypatch, tmp_path):
    from cvcluster import serialize

    program, _ = compile(random_symplectic(2, 5))
    path = tmp_path / "program.json"
    serialize.save_program(program, str(path))
    checked = counting_graph_checks(monkeypatch)
    loaded = serialize.load_program(str(path))
    assert len(checked) == 1  # load_program checks it
    loaded.replay, loaded.tape, loaded.gain_table
    loaded.validate()
    assert len(checked) == 1
    copy = dataclasses.replace(loaded)
    copy.validate()
    copy.validate()
    assert len(checked) == 2 and checked[1] is copy.graph


def test_a_failing_validate_keeps_nothing(monkeypatch):
    program = dataclasses.replace(
        small_program(), feedforward=(FeedforwardRule(0, 7, 1.0, 0.0),)
    )
    checked = counting_graph_checks(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(ProgramError) as info:
            program.validate()
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "feedforward target 7 is not a surviving node"
    assert len(checked) == 2  # each call ran the checks again
    with pytest.raises(ProgramError, match="^feedforward target 7 "):
        program.gain_table
