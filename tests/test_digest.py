"""tools/digest.py: a set's digest sees one bit of one angle and the
order of the gate records, a lattice digest sees one edge but no output
label, a set's output cost is its mean excess and worst replay residual,
and an A/A run of HEAD agrees with itself."""

import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cvcluster import compile, db_to_r, random_symplectic
from cvcluster.ir import ScheduleEntry

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import digest  # noqa: E402


def test_one_ulp_of_one_angle_changes_the_digest():
    compiled = [compile(random_symplectic(n, 3)) for n in (1, 2)]
    assert digest.digest(compiled) == digest.digest([compile(random_symplectic(n, 3)) for n in (1, 2)])
    program, report = compiled[1]
    first = program.schedule[0]
    nudged = ScheduleEntry(first.node_id, math.nextafter(first.angle, math.inf))
    compiled[1] = replace(program, schedule=(nudged, *program.schedule[1:])), report
    assert digest.digest(compiled) != digest.digest([compile(random_symplectic(n, 3)) for n in (1, 2)])
    program, report = compile(random_symplectic(3, 3))
    before = digest.digest([(program, report)])
    report.step_params[:2] = report.step_params[1::-1]  # the same records, two swapped
    assert digest.digest([(program, report)]) != before


def test_a_lattice_ignores_output_labels_and_sees_one_edge():
    programs = [compile(random_symplectic(3, seed))[0] for seed in (1, 2)]
    first, second = (p.graph.output_ports() for p in programs)
    assert [node.id for node in first] != [node.id for node in second]  # other labels
    [shared] = digest.lattices(programs).values()
    assert shared != digest.SEVERAL
    graph = programs[1].graph
    programs[1] = replace(programs[1], graph=replace(graph, edges=graph.edges[1:] + graph.edges[:1]))
    assert digest.lattices(programs) == {"lattice n=3": digest.SEVERAL}


def test_a_sets_cost_is_its_mean_excess_and_worst_residual():
    compiled = [compile(random_symplectic(n, 3)) for n in (1, 2, 3)]
    excess = [np.trace(p.replay.excess_covariance(db_to_r(10.0))) for p, _ in compiled]
    cost = digest.cost(compiled)
    assert cost["excess"] == pytest.approx(np.mean(excess), rel=1e-12)
    assert cost["residual"] == max(report.replay_residual for _, report in compiled)
    assert 0.0 < cost["residual"] < 1e-12


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="needs a git checkout"
)
def test_head_against_itself_prints_every_set_and_exits_0(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), "HEAD", "HEAD"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    names = ["perfbench onemode", "perfbench compile_wide", "perfbench simulate", "criterion 7", "random_symplectic"]
    names += ["special targets"]
    names += [f"lattice n={n}" for n in range(2, 9)]
    lines = done.stdout.splitlines()
    assert [line[:22].rstrip() for line in lines[::2]] == names
    for first, second in zip(lines[::2], lines[1::2]):
        # the digest, then for a set (not a lattice) its cost, then the revision
        fields = [line[22:].split() for line in (first, second)]
        assert fields[0] == fields[1]
        digest_, *cost, revision = fields[0]
        assert len(digest_) == 64 and revision == "HEAD"
        if first.startswith("lattice"):
            assert cost == []
        else:
            assert cost[0::2] == ["excess", "residual"]
            assert float(cost[1]) > 0.0 and 0.0 < float(cost[3]) < 1e-12
    assert "DIFFERS" not in done.stdout and digest.SEVERAL not in done.stdout
    assert list(tmp_path.iterdir()) == []  # it writes only in its own temporary directory
