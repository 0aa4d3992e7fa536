"""Serialization round trips, schema strictness, and the CLI contract."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvcluster import SchemaError, VersionError, compile, identity, random_symplectic
from cvcluster import serialize
from cvcluster.cli import main
from cvcluster.simulator import db_to_r, run_program, sampled, vacuum
from cvcluster.symplectic import SymplecticMap


@pytest.fixture()
def compiled_program():
    program, _ = compile(random_symplectic(1, 42))
    return program


def test_program_round_trip(compiled_program):
    doc = serialize.program_to_dict(compiled_program)
    text = serialize.dumps(doc)
    back = serialize.program_from_dict(json.loads(text))
    assert back == compiled_program


def test_round_trip_preserves_angles_exactly(compiled_program):
    doc = json.loads(serialize.dumps(serialize.program_to_dict(compiled_program)))
    back = serialize.program_from_dict(doc)
    for a, b in zip(compiled_program.schedule, back.schedule):
        assert a.angle == b.angle  # bitwise: repr round-trip is lossless


def test_unknown_field_rejected(compiled_program):
    doc = serialize.program_to_dict(compiled_program)
    doc["graph"]["nodes"]["colour"] = ["red"] * len(compiled_program.graph.nodes)
    with pytest.raises(SchemaError) as err:
        serialize.program_from_dict(doc)
    assert str(err.value) == "graph.nodes.colour: unknown field"


def test_version_mismatch_rejected(compiled_program):
    doc = serialize.program_to_dict(compiled_program)
    doc["version"] = "cluster-program/999"
    with pytest.raises(VersionError, match="incompatible format version"):
        serialize.program_from_dict(doc)


def _drop(*path):
    """An edit that deletes doc[path[0]]...[path[-1]]."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _set(path, value):
    """An edit that sets doc[path[0]]...[path[-1]] to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "edit, path, message",
    [
        (_set(["graph", "nodes"], 5), "graph.nodes", "expected an object, got int"),
        (_drop("schedule"), "program.schedule", "missing required field"),
        (_set(["schedule", "angle", 1], "0.5"), "schedule.angle[1]", "expected a number, got str"),
        (_set(["schedule", "nodeId", 0], 1.0), "schedule.nodeId[0]", "expected an integer, got float"),
        (_set(["targetMap", "matrix"], [[1.0, 0.0]]), "targetMap.matrix", "expected 2 rows"),
        (_set(["targetMap", "matrix", 1], [0.0, 1.0, 0.0]), "targetMap.matrix[1]", "expected 2 entries"),
        (_set(["targetMap", "displacement"], [0.0]), "targetMap.displacement", "expected 2 entries"),
        (_set(["targetMap", "n"], 0), "targetMap.n", "mode count must be >= 1"),
        (_set(["targetMap", "n"], 1.0), "targetMap.n", "expected an integer, got float"),
        (_set(["graph", "nodes", "id"], {}), "graph.nodes.id", "expected a list"),
        (_set(["graph", "edges", "u"], None), "graph.edges.u", "expected a list"),
        (_set(["schedule"], "all"), "schedule", "expected an object, got str"),
        (_set(["feedforward"], [0]), "feedforward", "expected an object, got list"),
        (_set(["graph", "nodes", "role", 3], 1), "graph.nodes.role[3]", "expected a string, got int"),
        (_set(["graph", "nodes", "coupling", 0], ["qnd"]), "graph.nodes.coupling[0]",
         "expected a string, got list"),
        (_drop("graph", "edges", "v", -1), "graph.edges.v", "expected 4 entries"),
        (_set(["feedforward", "gainX", 3], True), "feedforward.gainX[3]", "expected a number, got bool"),
        (_set(["graph", "edges", "v", 1], True), "graph.edges.v[1]", "expected an integer, got bool"),
        (_drop("feedforward", "gainP"), "feedforward.gainP", "missing required field"),
        (_set(["schedule", "colour"], ["red"] * 4), "schedule.colour", "unknown field"),
        (_set(["feedforward", "targetNodeId"], {}), "feedforward.targetNodeId", "expected a list"),
        (_drop("feedforward", "gainP", -1), "feedforward.gainP", "expected 4 entries"),
        (_set(["schedule", "angle"], [0.0] * 5), "schedule.angle", "expected 4 entries"),
        (_set(["schedule", "nodeId"], 7), "schedule.nodeId", "expected a list"),
        (_set(["graph", "nodes", "port", 2], True), "graph.nodes.port[2]", "expected an integer, got bool"),
        (_set(["graph", "nodes", "port", 1], "0"), "graph.nodes.port[1]", "expected an integer, got str"),
        (_drop("graph", "nodes", "port"), "graph.nodes.port", "missing required field"),
        (_drop("graph", "nodes", "role", 0), "graph.nodes.role", "expected 5 entries"),
        (_set(["graph", "nodes", "id", 4], 4.0), "graph.nodes.id[4]", "expected an integer, got float"),
        (_set(["graph", "edges"], [[0, 1]]), "graph.edges", "expected an object, got list"),
    ],
    ids=[
        "record-not-an-object", "missing-field", "non-number", "non-integer",
        "matrix-rows", "matrix-row-entries", "vector-entries", "no-modes", "float-mode-count",
        "nodes-not-a-list", "edges-not-a-list", "schedule-not-an-object",
        "feedforward-not-an-object", "non-string-role", "non-string-coupling",
        "bad-edge-pair", "bool-gain", "bool-edge-id", "rule-missing-field",
        "schedule-unknown-field", "column-not-a-list", "short-column", "long-column",
        "first-column-not-a-list", "bool-port", "string-port", "missing-node-column",
        "short-node-column", "float-node-id", "edges-as-pairs",
    ],
)
def test_schema_errors_name_their_path(compiled_program, edit, path, message):
    doc = json.loads(serialize.dumps(serialize.program_to_dict(compiled_program)))
    edit(doc)
    with pytest.raises(SchemaError) as err:
        serialize.program_from_dict(doc)
    assert type(err.value) is SchemaError
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


def test_indented_program_file_loads_as_the_compact_one(tmp_path, compiled_program):
    # The reader takes any whitespace; only the whitespace differs.
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    serialize.save_program(compiled_program, str(compact))
    doc = serialize.program_to_dict(compiled_program)
    indented.write_text(json.dumps(doc, indent=2) + "\n")
    text = compact.read_text()
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    assert serialize.load_program(str(indented)) == serialize.load_program(str(compact))
    assert serialize.load_program(str(compact)) == compiled_program


def assert_loads_bit_for_bit(program, path):
    """Save ``program`` to ``path`` and check that it loads back equal, with
    every angle and gain bit for bit and the rules in order."""
    serialize.save_program(program, str(path))
    back = serialize.load_program(str(path))
    assert back == program
    assert [(s.node_id, float.hex(s.angle)) for s in back.schedule] == [
        (s.node_id, float.hex(s.angle)) for s in program.schedule
    ]
    assert [(*rule[:2], *map(float.hex, rule[2:])) for rule in back.feedforward] == [
        (*rule[:2], *map(float.hex, rule[2:])) for rule in program.feedforward
    ]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_saved_program_loads_bit_for_bit(tmp_path_factory, n, seed):
    path = tmp_path_factory.mktemp("round-trip") / "program.json"
    assert_loads_bit_for_bit(compile(random_symplectic(n, seed))[0], path)


def test_n8_program_file_is_columnar(tmp_path):
    # One object per rule made this file 773 564 bytes; schedule and rule
    # columns made it 415 615, and node and edge columns 408 402.
    path = tmp_path / "program.json"
    serialize.save_program(compile(random_symplectic(8, 7))[0], str(path))
    assert path.stat().st_size <= 450_000


def _records(columns: dict) -> list:
    """Equal-length columns as one object per entry, without its nulls."""
    return [
        {key: value for key, value in zip(columns, entry) if value is not None}
        for entry in zip(*columns.values())
    ]


def test_cli_rejects_a_version_1_program(tmp_path, capsys, compiled_program):
    # cluster-program/2 kept one object per node and one id pair per edge;
    # cluster-program/1 also one object per schedule entry and per rule.
    doc = serialize.program_to_dict(compiled_program)
    graph = doc["graph"]
    graph["nodes"] = _records(graph["nodes"])
    graph["edges"] = [list(pair) for pair in zip(graph["edges"]["u"], graph["edges"]["v"])]
    for version in (2, 1):
        if version == 1:
            doc["schedule"] = _records(doc["schedule"])
            doc["feedforward"] = _records(doc["feedforward"])
        doc["version"] = f"cluster-program/{version}"
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionError) as err:
            serialize.load_program(str(path))
        assert err.value.path == "program.version"
        for command in ("verify", "simulate"):
            assert main([command, "--program", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"validation error: program.version: incompatible format version "
                f"'cluster-program/{version}'; this build reads 'cluster-program/3'\n"
            )


def test_target_round_trip(tmp_path):
    target = random_symplectic(2, 3)
    path = tmp_path / "target.json"
    serialize.save_target(target, path)
    back = serialize.load_target(path)
    assert np.array_equal(back.matrix, target.matrix)
    assert np.array_equal(back.displacement, target.displacement)


def write_target(tmp_path, smap, name="target.json"):
    path = tmp_path / name
    serialize.save_target(smap, path)
    return str(path)


def test_cli_compile_verify_pass(tmp_path, capsys):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    assert main(["compile", "--target", target_file, "--out", program_file]) == 0
    report = json.loads(Path(program_file + ".report.json").read_text())
    assert report["ancillaCount"] == 4
    assert report["noiseProxy"] == pytest.approx(4.0)
    program = serialize.load_program(program_file)
    assert all(entry.angle == 0.0 for entry in program.schedule)
    assert main(["verify", "--program", program_file]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_compile_fourier(tmp_path):
    target_file = write_target(tmp_path, SymplecticMap(1, [[0.0, -1.0], [1.0, 0.0]]))
    program_file = str(tmp_path / "prog.json")
    assert main(["compile", "--target", target_file, "--out", program_file]) == 0
    report = json.loads(Path(program_file + ".report.json").read_text())
    assert report["replayResidual"] < 1e-9


def test_cli_compile_rejects_non_symplectic(tmp_path, capsys):
    bad = SymplecticMap(2, np.eye(4) * 1.01)
    target_file = write_target(tmp_path, bad)
    code = main(["compile", "--target", target_file, "--out", str(tmp_path / "p.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "not symplectic" in err
    assert "at entry" in err  # names the worst-violation entry


def test_cli_verify_fails_on_tampered_angle(tmp_path, capsys):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    doc = json.loads(Path(program_file).read_text())
    doc["schedule"]["angle"][1] += 0.1
    with open(program_file, "w") as handle:
        json.dump(doc, handle)
    code = main(["verify", "--program", program_file])
    assert code == 2
    output = capsys.readouterr()
    assert "FAIL" in output.err
    assert "worstEntry" in output.out


def compiled_document(tmp_path, target):
    """A compiled program of ``target`` as a document, and the path it goes to."""
    program_file = str(tmp_path / "prog.json")
    assert main(["compile", "--target", write_target(tmp_path, target), "--out", program_file]) == 0
    return json.loads(Path(program_file).read_text()), program_file


@pytest.mark.parametrize("tamper", ["raised-gain", "dropped-rule"])
def test_cli_verify_checks_the_feedforward(tmp_path, capsys, tamper):
    # The pinned-zero map never reads the gains; verify compares them with the
    # exact outcome response and names the worst (source node, output port).
    doc, program_file = compiled_document(tmp_path, random_symplectic(2, 1))
    columns = doc["feedforward"]
    rule = {name: column[0] for name, column in columns.items()}
    if tamper == "raised-gain":
        columns["gainX"][0] += 5.0
    else:
        for column in columns.values():
            del column[0]
    expected = abs(rule["gainX"]) if tamper == "dropped-rule" else 5.0
    Path(program_file).write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--program", program_file]) == 2
    output = capsys.readouterr()
    report = json.loads(output.out)
    assert report["pass"] is False
    assert report["effectiveMapError"] < 1e-4
    assert report["feedforwardError"] == pytest.approx(expected, rel=1e-12)
    program = serialize.program_from_dict(doc)
    port = {node.id: node.port for node in program.graph.output_ports()}
    worst = {"sourceNodeId": rule["sourceNodeId"], "port": port[rule["targetNodeId"]]}
    assert report["worstFeedforward"] == worst
    assert "FAIL: effective-map error" in output.err
    assert f"feedforward error {expected:.3e} at source node {rule['sourceNodeId']}" in output.err


def test_cli_verify_reports_an_exact_feedforward(tmp_path, capsys):
    _, program_file = compiled_document(tmp_path, random_symplectic(2, 1))
    report_file = tmp_path / "report.json"
    assert main(["verify", "--program", program_file, "--out", str(report_file)]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads(report_file.read_text())
    assert report["feedforwardError"] <= 1e-12
    assert report["pass"] is True


@pytest.mark.parametrize(
    "field, value",
    [
        (("schedule", "angle", 3), float("nan")),
        (("feedforward", "gainP", 0), float("inf")),
        (("targetMap", "matrix", 0, 1), float("-inf")),
        (("feedforward", "gainX", 1), 10 ** 400),
    ],
    ids=["nan-angle", "inf-gain", "minus-inf-target", "huge-integer-gain"],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, field, value):
    doc, program_file = compiled_document(tmp_path, random_symplectic(2, 1))
    entry = doc
    for key in field[:-1]:
        entry = entry[key]
    entry[field[-1]] = value
    Path(program_file).write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("verify", "simulate"):
        assert main([command, "--program", program_file]) == 1
        path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in field)
        assert f"{path.lstrip('.')}: expected a finite number" in capsys.readouterr().err


def test_cli_simulate_deterministic(tmp_path):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    result_a = str(tmp_path / "a.json")
    result_b = str(tmp_path / "b.json")
    for out in (result_a, result_b):
        code = main(
            [
                "simulate", "--program", program_file, "--db", "10",
                "--policy", "sampled", "--seed", "7", "--shots", "3",
                "--out", out,
            ]
        )
        assert code == 0
    assert Path(result_a).read_text() == Path(result_b).read_text()
    doc = json.loads(Path(result_a).read_text())
    assert len(doc["outcomes"]) == 3
    assert doc["output"]["version"] == "gaussian-state/1"


def test_cli_simulate_shots_are_separate_runs(tmp_path):
    # Every shot replays one conditioned covariance; each mean is that of a
    # run of its own, and the reported covariance is the pinned run's.
    program_file = str(tmp_path / "prog.json")
    serialize.save_program(compile(random_symplectic(2, 4))[0], program_file)
    out = str(tmp_path / "res.json")
    command = ["simulate", "--program", program_file, "--db", "13", "--out", out]
    assert main([*command, "--policy", "sampled", "--seed", "5", "--shots", "4"]) == 0
    doc = json.loads(Path(out).read_text())
    program, r = serialize.load_program(program_file), db_to_r(13.0)
    means = [run_program(program, vacuum(2), r, sampled(5 + k))[0].mean.tolist() for k in range(4)]
    assert doc["perShotMeans"] == means
    pinned, _ = run_program(serialize.load_program(program_file), vacuum(2), r)
    assert doc["output"]["cov"] == pinned.cov.tolist()


def test_cli_simulate_pinned_identity(tmp_path):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    result = str(tmp_path / "res.json")
    assert main(
        ["simulate", "--program", program_file, "--db", "130", "--out", result]
    ) == 0
    doc = json.loads(Path(result).read_text())
    mean = np.array(doc["output"]["mean"])
    cov = np.array(doc["output"]["cov"])
    assert np.max(np.abs(mean)) < 1e-6
    assert np.max(np.abs(cov - np.eye(2) / 4)) < 1e-6


def test_cli_simulate_rejects_zero_shots(tmp_path, capsys):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    code = main(
        [
            "simulate", "--program", program_file,
            "--policy", "sampled", "--shots", "0",
        ]
    )
    assert code == 1
    assert "shots" in capsys.readouterr().err


def test_cli_sweep(tmp_path):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    csv_file = str(tmp_path / "sweep.csv")
    code = main(
        ["sweep", "--program", program_file, "--db", "5,10,15,20", "--out", csv_file]
    )
    assert code == 0
    lines = Path(csv_file).read_text().strip().splitlines()
    assert lines[0] == "db,effective_map_error,excess_trace"
    rows = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
    assert [row[0] for row in rows] == [5.0, 10.0, 15.0, 20.0]
    traces = [row[2] for row in rows]
    assert all(a > b for a, b in zip(traces, traces[1:]))
    errors = [row[1] for row in rows]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.05


@pytest.mark.parametrize(
    "target, free_param, message",
    [
        (random_symplectic(2, 3), "5", "kappa1 pins a one-mode synthesis; the target has 2 modes"),
        (random_symplectic(1, 3), "nan", "kappa1=nan is not finite"),
        (random_symplectic(1, 3), "inf", "kappa1=inf is not finite"),
        (SymplecticMap(1, np.diag([-0.5, -2.0])), "1e-9", "kappa1=1e-09 makes kappa3 vanish"),
    ],
    ids=["two-mode", "nan", "inf", "pole"],
)
def test_cli_compile_rejects_bad_free_param(tmp_path, capsys, target, free_param, message):
    target_file = write_target(tmp_path, target)
    program_file = tmp_path / "prog.json"
    code = main(["compile", "--target", target_file, "--out", str(program_file),
                 "--free-param", free_param])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not program_file.exists()


def test_cli_rejects_an_unparsable_db(tmp_path, capsys):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    capsys.readouterr()
    assert main(["simulate", "--program", program_file, "--db", "abc"]) == 1
    assert "argument --db: cannot parse squeezing 'abc'" in capsys.readouterr().err


def _csv_rows(text: str) -> list:
    return [line.split(",") for line in text.splitlines()]


@pytest.mark.parametrize(
    "command, options, parse",
    [
        ("simulate", ["--policy", "sampled", "--seed", "3", "--shots", "2"], json.loads),
        ("sweep", ["--db", "5,10"], _csv_rows),
    ],
    ids=["simulate-json", "sweep-csv"],
)
def test_cli_prints_what_out_would_write(tmp_path, capsys, command, options, parse):
    target_file = write_target(tmp_path, random_symplectic(1, 5))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    out_file = tmp_path / "out"
    assert main([command, "--program", program_file, *options, "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main([command, "--program", program_file, *options]) == 0
    assert parse(capsys.readouterr().out) == parse(out_file.read_text())


@pytest.mark.parametrize(
    "command, db",
    [("simulate", "nan"), ("verify", "nan"), ("verify", "-inf"), ("sweep", "nan,10")],
)
def test_cli_rejects_non_finite_db(tmp_path, capsys, command, db):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    capsys.readouterr()
    out_file = tmp_path / "out"
    code = main([command, "--program", program_file, f"--db={db}", "--out", str(out_file)])
    assert code == 1
    err = capsys.readouterr().err
    assert "argument --db" in err and "is not finite" in err
    assert not out_file.exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-4"])
def test_cli_verify_rejects_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys, tol):
    # with --tol inf, an identity program that misses by ~0.66 at 3 dB would pass
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    capsys.readouterr()
    out_file = tmp_path / "report.json"
    code = main(["verify", "--program", program_file, "--db", "3", f"--tol={tol}",
                 "--out", str(out_file)])
    assert code == 1
    err = capsys.readouterr().err
    assert "argument --tol" in err and "is not a finite number > 0" in err
    assert not out_file.exists()


def test_cli_compile_refuses_a_wrong_lowering(tmp_path, capsys, monkeypatch):
    import cvcluster.multimode as multimode
    from cvcluster import decompose_four_step, squeeze

    wrong = decompose_four_step(identity(1))
    monkeypatch.setattr(multimode, "decompose_four_step", lambda *args, **kwargs: wrong)
    target_file = write_target(tmp_path, squeeze(0.5))
    program_file = tmp_path / "prog.json"
    assert main(["compile", "--target", target_file, "--out", str(program_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: noise-free replay misses the target by")
    assert "at entry" in err
    assert not program_file.exists()
    assert not (tmp_path / "prog.json.report.json").exists()


def test_cli_sweep_rejects_empty_list(tmp_path, capsys):
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    assert main(["sweep", "--program", program_file, "--db", ","]) == 1
    assert "empty" in capsys.readouterr().err


def test_import_loads_no_test_dependency():
    # Run time needs numpy alone; scipy, hypothesis and pytest are the test
    # extra of pyproject.toml.
    import subprocess
    import sys
    from pathlib import Path

    import cvcluster

    code = (
        "import sys, cvcluster, cvcluster.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in {'scipy', 'hypothesis', 'pytest', '_pytest'}))"
    )
    env = {"PYTHONPATH": str(Path(cvcluster.__file__).parents[1]), "PATH": ""}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_missing_file_is_io_error(tmp_path, capsys):
    assert main(["verify", "--program", str(tmp_path / "nope.json")]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("target, out", [("t.json/x.json", "p.json"), ("t.json", "t.json/p.json")])
def test_cli_path_through_a_file_is_io_error(tmp_path, capsys, target, out):
    # t.json is a regular file, so either path fails with NotADirectoryError.
    write_target(tmp_path, identity(1), "t.json")
    assert main(["compile", "--target", str(tmp_path / target), "--out", str(tmp_path / out)]) == 3
    assert "i/o error: " in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("command", ["verify --program", "compile --target"])
def test_cli_undecodable_document_is_io_error(tmp_path, capsys, command):
    # Bytes that are not UTF-8 fail as malformed JSON does, not as a
    # validation error.
    doc = tmp_path / "doc.json"
    doc.write_bytes(b"\xff\xfe")
    out = ["--out", str(tmp_path / "out.json")] if command.startswith("compile") else []
    assert main([*command.split(), str(doc), *out]) == 3
    assert "i/o error: cannot parse JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify --program", "compile --target"])
def test_cli_deeply_nested_document_is_io_error(tmp_path, capsys, command):
    # json's decoder recurses once per level; the RecursionError is reported
    # as malformed JSON is.
    doc = tmp_path / "doc.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)
    out = ["--out", str(tmp_path / "out.json")] if command.startswith("compile") else []
    assert main([*command.split(), str(doc), *out]) == 3
    assert "i/o error: cannot parse JSON" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.fixture()
def two_mode_program_file(tmp_path):
    path = str(tmp_path / "prog.json")
    serialize.save_program(compile(random_symplectic(2, 3))[0], path)
    return path


@pytest.mark.parametrize("db", ["3083", "3100"])
@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_cli_squeezing_beyond_double_range_is_a_validation_error(
    tmp_path, capsys, two_mode_program_file, command, db
):
    # The moments of this program overflow above 3082.55 dB, where e^{2r}
    # itself leaves the double range (measured by bisection).  Each command
    # names the squeezing, writes nothing, and warns nothing (warnings are
    # errors in this suite).
    out = tmp_path / "out"
    assert main([command, "--program", two_mode_program_file, "--db", db, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"validation error: ancilla squeezing of {db} dB" in err
    assert "overflows the Gaussian moments" in err
    assert not out.exists()


def test_cli_verify_passes_at_1500_db(capsys, two_mode_program_file):
    assert main(["verify", "--program", two_mode_program_file, "--db", "1500"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_passes_at_2000_db(capsys, two_mode_program_file):
    # No conditioning step multiplies two antisqueezed variances, so the
    # moments stay finite well past the e^{4r}/16 of a rank-1 Schur update.
    assert main(["verify", "--program", two_mode_program_file, "--db", "2000"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_documents_refuse_non_finite_numbers(tmp_path):
    # The writer refuses what the reader would reject, and creates no file.
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize.dumps({"db": float("nan")})
    path = tmp_path / "result.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize.save({"mean": [0.0, float("inf")]}, str(path))
    assert not path.exists()


def test_cli_schema_error_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": "cluster-program/3", "mystery": 1}')
    assert main(["verify", "--program", str(bad)]) == 1
    assert "validation error" in capsys.readouterr().err


def test_cli_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_cli_simulate_rejects_degenerate_teleport(tmp_path, capsys):
    import dataclasses

    from cvcluster import identity as identity_map
    from cvcluster.ir import (
        COUPLING_TELEPORT,
        ClusterGraph,
        MeasurementProgram,
        Node,
        ROLE_ANCILLA,
        ROLE_INPUT,
        ROLE_OUTPUT,
        ScheduleEntry,
    )

    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_TELEPORT, port=0),
        Node(1, ROLE_ANCILLA),
        Node(2, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1), (1, 2)))
    # Bell angles theta0 = pi/2, theta1 = 0: theta_minus degenerate
    program = MeasurementProgram(
        graph=graph,
        schedule=(ScheduleEntry(0, 0.0), ScheduleEntry(1, np.pi / 2)),
        feedforward=(),
        target=identity_map(1),
    )
    path = str(tmp_path / "degenerate.json")
    serialize.save_program(program, path)
    assert main(["simulate", "--program", path]) == 1
    assert "degenerate" in capsys.readouterr().err


def test_cli_teleport_program_end_to_end(tmp_path, capsys):
    # a hand-built teleport-coupled identity survives the full cycle:
    # serialize -> validate -> simulate (sampled) -> verify at 130 dB
    import dataclasses

    from cvcluster import identity as identity_map
    from cvcluster import exact_replay
    from cvcluster.ir import (
        COUPLING_TELEPORT,
        ClusterGraph,
        MeasurementProgram,
        Node,
        ROLE_ANCILLA,
        ROLE_INPUT,
        ROLE_OUTPUT,
        ScheduleEntry,
    )

    nodes = (
        Node(0, ROLE_INPUT, coupling=COUPLING_TELEPORT, port=0),
        Node(1, ROLE_ANCILLA),
        Node(2, ROLE_OUTPUT, port=0),
    )
    graph = ClusterGraph(nodes=nodes, edges=((0, 1), (1, 2)))
    program = MeasurementProgram(
        graph=graph,
        schedule=(ScheduleEntry(0, np.pi / 2), ScheduleEntry(1, np.pi / 2)),
        feedforward=(),
        target=identity_map(1),
    )
    program = dataclasses.replace(program, feedforward=exact_replay(program).feedforward_rules())
    path = str(tmp_path / "teleport.json")
    assert_loads_bit_for_bit(program, path)
    result = str(tmp_path / "sim.json")
    assert main(
        ["simulate", "--program", path, "--db", "10", "--policy", "sampled",
         "--seed", "2", "--shots", "5", "--out", result]
    ) == 0
    assert main(["verify", "--program", path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_compile_six_by_six(tmp_path):
    target_file = write_target(tmp_path, random_symplectic(3, 66))
    program_file = str(tmp_path / "prog.json")
    assert main(["compile", "--target", target_file, "--out", program_file]) == 0
    report = json.loads(Path(program_file + ".report.json").read_text())
    expected = sum(
        3 * len(rec["params"]["connections"]) if rec["kind"] == "two-mode"
        else len(rec["params"]["kappas"])
        for rec in report["stepParams"]
    )
    assert report["ancillaCount"] == expected
    program = serialize.load_program(program_file)
    assert program.n == 3


round_off_targets = pytest.mark.parametrize(
    "target",
    [SymplecticMap(1, np.diag([2.0, 0.5])), SymplecticMap(1, [[0.0, -1.0], [1.0, 0.0]])],
    ids=["squeeze-ln2", "fourier"],
)


@round_off_targets
def test_cli_verify_excess_trace_is_exact_at_default_db(tmp_path, target):
    # At the default 130 dB the excess is far below the simulator's
    # covariance round-off floor; the report carries the exact value.
    from cvcluster import db_to_r, exact_replay
    from cvcluster.cli import DEFAULT_VERIFY_DB

    target_file = write_target(tmp_path, target)
    program_file = str(tmp_path / "prog.json")
    report_file = str(tmp_path / "report.json")
    main(["compile", "--target", target_file, "--out", program_file])
    assert main(["verify", "--program", program_file, "--out", report_file]) == 0
    doc = json.loads(Path(report_file).read_text())
    program = serialize.load_program(program_file)
    exact = np.trace(exact_replay(program).excess_covariance(db_to_r(DEFAULT_VERIFY_DB)))
    assert doc["db"] == DEFAULT_VERIFY_DB
    assert doc["excessTrace"] >= 0.0
    assert doc["excessTrace"] == pytest.approx(exact, rel=0, abs=1e-12)


@round_off_targets
def test_cli_sweep_excess_trace_is_exact_at_high_db(tmp_path, target):
    # At 100 and 130 dB the simulated excess is covariance round-off and can
    # be negative; the column carries the exact value.
    from cvcluster import db_to_r, exact_replay

    target_file = write_target(tmp_path, target)
    program_file = str(tmp_path / "prog.json")
    csv_file = str(tmp_path / "sweep.csv")
    main(["compile", "--target", target_file, "--out", program_file])
    assert main(["sweep", "--program", program_file, "--db", "100,130", "--out", csv_file]) == 0
    program = serialize.load_program(program_file)
    for line in Path(csv_file).read_text().splitlines()[1:]:
        db, _, trace = (float(tok) for tok in line.split(","))
        exact = np.trace(exact_replay(program).excess_covariance(db_to_r(db)))
        assert trace >= 0.0
        assert trace == pytest.approx(exact, rel=1e-12, abs=0)


def test_cli_verify_low_squeezing_reports_error(tmp_path, capsys):
    # at 10 dB the identity chain misses the target by ~0.19: reported, not hidden
    target_file = write_target(tmp_path, identity(1))
    program_file = str(tmp_path / "prog.json")
    main(["compile", "--target", target_file, "--out", program_file])
    capsys.readouterr()
    code = main(["verify", "--program", program_file, "--db", "10"])
    assert code == 2
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert doc["effectiveMapError"] > 0.1
    assert doc["pass"] is False


def test_bulk_verify_random_targets():
    # cmd_verify(compile(T)) passes for 50 seeded targets, n in {1, 2, 3},
    # at the 130 dB default within the 60 s budget.
    import time

    from cvcluster import compile as compile_map
    from cvcluster import db_to_r, extract_effective_map

    start = time.monotonic()
    count = 0
    for n, repeats in ((1, 17), (2, 17), (3, 16)):
        for _ in range(repeats):
            target = random_symplectic(n, 900 + count)
            program, _ = compile_map(target)
            effective, _ = extract_effective_map(program, db_to_r(130.0))
            error = np.max(np.abs(effective.matrix - target.matrix))
            assert error < 1e-4
            count += 1
    elapsed = time.monotonic() - start
    assert count == 50
    assert elapsed < 60.0
