"""Print one SHA-256 per set of compiled programs, to show that a change
leaves the compiler's output bit for bit as it was, and each set's output
cost, to show what a change that does alter it buys.

    python3 tools/digest.py                 # the working tree's digests
    python3 tools/digest.py BASE            # BASE against the working tree
    python3 tools/digest.py BASE CHANGE     # two revisions

A set's digest is that of its programs (``serialize.program_to_dict``) and
their reports (``serialize.report_to_dict``) as one sorted-key JSON list, so
equal digests mean equal graphs, schedules and feedforward rules, with every
angle and gain equal to the last bit (JSON writes the shortest repr that
reads back the same float), and equal gate records: their order, columns,
Fourier variants, connection gains and excess shares.  The sets:

- ``perfbench <workload>``: the fixed reference targets of each benchmark
  workload, read through ``perfbench/workloads.make_target``;
- ``criterion 7``: the acceptance suite's 200 targets,
  ``random_symplectic(n, 7000 + k)`` for n = 1..4, 50 each;
- ``random_symplectic``: ``random_symplectic(n, s)`` for n = 2..8, s = 0..9;
- ``special targets``: identities, embedded squeezers and splitters, whose
  triangles have trivial steps and may force a Fourier power onto a wire's
  four-step tail, two splitter products, and ``random_symplectic(12, 7)``
  and ``(16, 1)`` above the lattice range;
- ``lattice n=N``: the cluster that the ten ``random_symplectic(N, s)``
  programs share: their nodes without the output ports' labels, their edges
  and their measured order.  If two of them differ it reads
  ``several lattices``, and the script exits 1.

Next to each set's digest stand its programs' mean excess trace
tr(N N^T) at 10 dB (``excess``) and their worst noise-free replay residual
(``residual``), as ``compile`` reports it.

A revision is exported with ``git archive`` into a temporary directory,
which is removed afterwards; each tree's programs are compiled in a fresh
interpreter that imports that tree's ``src`` and ``perfbench``, with this
script's target sets.  With a revision given it prints both sides' digests
and exits 1 if any set's differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ENV = {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SEVERAL = "several lattices"
sys.path.insert(0, str(ROOT / "tools"))

from ab import export  # noqa: E402


def digest(compiled) -> str:
    """SHA-256 of ``compiled``, a list of ``compile``'s (program, report)
    pairs, as one sorted-key JSON list of their dicts."""
    from cvcluster.serialize import program_to_dict, report_to_dict

    text = json.dumps([[program_to_dict(p), report_to_dict(r)] for p, r in compiled], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def cost(compiled) -> dict:
    """The mean 10-dB excess trace and the worst replay residual of
    ``compiled``, a list of ``compile``'s (program, report) pairs."""
    from cvcluster import db_to_r

    r = db_to_r(10.0)
    excess = [float(np.trace(program.replay.excess_covariance(r))) for program, _ in compiled]
    return {"excess": sum(excess) / len(excess), "residual": max(report.replay_residual for _, report in compiled)}


def lattice(program) -> tuple:
    """A program's cluster without its output labels: each node's id, role
    and input port, the edges and the measured order."""
    nodes = [(node.id, node.role, node.port if node.role == "input-port" else None) for node in program.graph.nodes]
    return nodes, program.graph.edges, [entry.node_id for entry in program.schedule]


def lattices(programs) -> dict:
    """Per n of ``programs``, the digest of the cluster they all share, or
    ``several lattices``."""
    by_n = {}
    for program in programs:
        text = json.dumps(lattice(program))
        by_n.setdefault(program.n, set()).add(hashlib.sha256(text.encode()).hexdigest())
    return {f"lattice n={n}": found.pop() if len(found) == 1 else SEVERAL for n, found in by_n.items()}


def target_sets() -> dict:
    """Each set's name and targets, from the cvcluster and perfbench on
    ``sys.path``."""
    import workloads
    from cvcluster import beam_splitter_matrix, compose, embed, identity, random_symplectic, rotation, squeeze

    sets = {
        f"perfbench {name}": [workloads.make_target(w, [], i)[0] for i in range(w.reference_targets)]
        for name, w in workloads.WORKLOADS.items()
    }
    sets["criterion 7"] = [random_symplectic(n, 7000 + 50 * (n - 1) + k) for n in (1, 2, 3, 4) for k in range(50)]
    sets["random_symplectic"] = [random_symplectic(n, s) for n in range(2, 9) for s in range(10)]
    splitter = beam_splitter_matrix(0.5)
    sets["special targets"] = [
        identity(2),
        identity(3),
        embed(squeeze(0.8), 2, [0]),
        embed(squeeze(0.8), 2, [1]),
        embed(squeeze(0.8), 3, [1]),
        embed(splitter, 3, [0, 1]),
        beam_splitter_matrix(1.0),
        compose(embed(beam_splitter_matrix(0.3), 3, [1, 2]), embed(splitter, 3, [0, 1])),
        compose(
            embed(beam_splitter_matrix(0.3), 4, [1, 2]),
            compose(embed(rotation(0.4), 4, [3]), embed(splitter, 4, [0, 1])),
        ),
        random_symplectic(12, 7),
        random_symplectic(16, 1),
    ]
    return sets


def tree_digests(tree: Path) -> dict:
    """Each set's digest and output cost (lattices: digest only), compiled
    by the tree ``tree`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--tree", str(tree)],
        env={**os.environ, **ENV}, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"digests of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def line(value: dict) -> str:
    """A set's digest, then its output cost if it has one."""
    if "excess" not in value:
        return value["digest"]
    return f"{value['digest']}  excess {value['excess']:.6f}  residual {value['residual']:.1e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revisions", nargs="*", metavar="REV", help="BASE, or BASE and CHANGE")
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)  # the child's own mode
    args = parser.parse_args(argv)
    if args.tree is not None:
        sys.path[:0] = [str(args.tree / "src"), str(args.tree / "perfbench")]
        import cvcluster

        if not Path(cvcluster.__file__).resolve().is_relative_to(args.tree.resolve()):
            raise RuntimeError(f"cvcluster was imported from {cvcluster.__file__}, not from {args.tree}")
        from cvcluster import compile

        compiled = {name: [compile(t) for t in targets] for name, targets in target_sets().items()}
        sets = {name: {"digest": digest(pairs), **cost(pairs)} for name, pairs in compiled.items()}
        shared = lattices([p for p, _ in compiled["random_symplectic"]])
        print(json.dumps({**sets, **{name: {"digest": value} for name, value in shared.items()}}))
        return 0
    if len(args.revisions) > 2:
        parser.error("give at most two revisions")

    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        sides = [(rev, tree_digests(export(rev, Path(tmp) / f"side{i}"))) for i, rev in enumerate(args.revisions)]
    if len(args.revisions) < 2:
        sides.append(("working tree", tree_digests(ROOT)))
    (base, a), *rest = sides
    differ = any(SEVERAL in (value["digest"] for value in sets.values()) for _, sets in sides)
    for name in a:
        print(f"{name:<22} {line(a[name])}  {base}")
        for other, b in rest:
            same = name in b and b[name]["digest"] == a[name]["digest"]
            differ |= not same
            print(f"{'':<22} {line(b[name]) if name in b else '(missing)'}  {other}{'' if same else '  DIFFERS'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
