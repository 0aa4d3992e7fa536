"""Command-line front end: compile, simulate, verify, sweep.

Exit codes: 0 success, 1 validation failure (bad input document, bad flags,
non-symplectic target), 2 verification failure (a map error above --tol, or a
compile whose exact replay misses its target), 3 I/O error.
"""

import argparse
import json
import sys

import numpy as np

from . import multimode, serialize, simulator
from .errors import CompileError
from .executor import exact_replay
from .simulator import PINNED_ZERO, db_to_r, run_program, sampled, vacuum

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3

DEFAULT_VERIFY_DB = 130.0     # makes finite-squeezing map error negligible
DEFAULT_REALISTIC_DB = 10.0   # strong lab squeezing, for simulation runs
DEFAULT_VERIFY_TOL = 1e-4


def _checked_float(name: str, accept, rule: str):
    """Argument type: one float that ``accept`` holds for, else "<name> '<text>' <rule>"."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {name} {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{name} {text!r} {rule}")
        return value

    return parse


_finite_db = _checked_float("squeezing", np.isfinite, "dB is not finite")
_tolerance = _checked_float(
    "tolerance", lambda value: np.isfinite(value) and value > 0.0, "is not a finite number > 0"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvcluster",
        description=(
            "Compile n-mode Gaussian unitaries to cluster-state homodyne "
            "programs and simulate them at finite squeezing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a symplectic target file")
    p_compile.add_argument("--target", required=True, help="target JSON file")
    p_compile.add_argument("--out", required=True, help="program JSON output file")
    p_compile.add_argument(
        "--free-param",
        type=float,
        default=None,
        help="pin the free kappa1 of a one-mode four-step synthesis",
    )

    p_sim = sub.add_parser("simulate", help="run a program on vacuum inputs")
    p_sim.add_argument("--program", required=True)
    p_sim.add_argument("--db", type=_finite_db, default=DEFAULT_REALISTIC_DB,
                       help="ancilla squeezing in dB (default 10, strong lab squeezing)")
    p_sim.add_argument("--policy", choices=["pinned", "sampled"], default="pinned")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--shots", type=int, default=1)
    p_sim.add_argument("--out", default=None, help="result JSON (default stdout)")

    p_verify = sub.add_parser("verify", help="check a program against its target")
    p_verify.add_argument("--program", required=True)
    p_verify.add_argument("--db", type=_finite_db, default=DEFAULT_VERIFY_DB)
    p_verify.add_argument("--tol", type=_tolerance, default=DEFAULT_VERIFY_TOL)
    p_verify.add_argument("--out", default=None, help="report JSON (default stdout)")

    p_sweep = sub.add_parser("sweep", help="squeezing sweep of map error and excess")
    p_sweep.add_argument("--program", required=True)
    p_sweep.add_argument("--db", required=True,
                         type=lambda text: [_finite_db(t) for t in text.split(",") if t.strip()],
                         help="comma-separated squeezing list in dB")
    p_sweep.add_argument("--out", default=None, help="CSV output (default stdout)")
    return parser


def cmd_compile(args) -> int:
    target = serialize.load_target(args.target)
    try:
        program, report = multimode.compile(target, kappa1=args.free_param)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    serialize.save_program(program, args.out)
    serialize.save(serialize.report_to_dict(report), args.out + ".report.json")
    print(
        f"compiled {target.n}-mode target: {report.ancilla_count} ancillas, "
        f"noise proxy {report.noise_proxy:.6g}, "
        f"replay residual {report.replay_residual:.3e}"
    )
    print(f"program written to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    program = serialize.load_program(args.program)
    if args.policy == "sampled" and args.shots < 1:
        print("error: sampled policy requires shots >= 1", file=sys.stderr)
        return EXIT_VALIDATION
    # Pre-flight on the exact linear algebra: rejects degenerate teleport
    # angles and other measurements that resolve no ancilla noise.
    exact_replay(program)
    pinned = args.policy == "pinned"
    policies = [PINNED_ZERO] if pinned else [sampled(args.seed + k) for k in range(args.shots)]
    r = db_to_r(args.db)
    records, means = [], []
    for policy in policies:
        state, outcomes = run_program(program, vacuum(program.n), r, policy)
        records.append({str(k): v for k, v in outcomes.items()})
        means.append(state.mean)
    result = {
        "version": serialize.RESULT_VERSION,
        "db": args.db,
        "policy": args.policy,
        "seed": None if pinned else args.seed,
        "shots": len(policies),
        "outcomes": records,
    }
    if not pinned:
        result["perShotMeans"] = [m.tolist() for m in means]
    # the covariance does not depend on the outcomes
    output = simulator.GaussianState(np.mean(means, axis=0), state.cov)
    result["output"] = serialize.state_to_dict(output)
    if args.out:
        serialize.save(result, args.out)
        print(f"simulation result written to {args.out}")
    else:
        print(serialize.dumps(result))
    return EXIT_OK


def cmd_verify(args) -> int:
    program = serialize.load_program(args.program)
    r = db_to_r(args.db)
    effective = simulator.effective_map(program, r)
    diff = np.abs(effective.matrix - program.target.matrix)
    error = float(diff.max())
    worst = tuple(int(i) for i in np.unravel_index(int(np.argmax(diff)), diff.shape))
    # The pinned-zero map never reads the feedforward: the gains are checked
    # against the exact outcome response instead.  At the default 130 dB the
    # simulator's excess is below its covariance round-off floor (eps *
    # e^{2r}); the replay's closed form is exact.
    replay = exact_replay(program)
    ff_error, (source, port) = replay.feedforward_error(program.gain_table)
    excess_trace = float(np.trace(replay.excess_covariance(r)))
    passed = error < args.tol and ff_error < args.tol
    report = {
        "version": "verification-report/1",
        "db": args.db,
        "tolerance": args.tol,
        "effectiveMapError": error,
        "worstEntry": list(worst),
        "feedforwardError": ff_error,
        "worstFeedforward": {"sourceNodeId": source, "port": port},
        "excessTrace": excess_trace,
        "pass": passed,
    }
    if args.out:
        serialize.save(report, args.out)
    else:
        print(serialize.dumps(report))
    status = "PASS" if passed else "FAIL"
    print(
        f"{status}: effective-map error {error:.3e} at entry {worst}, "
        f"feedforward error {ff_error:.3e} at source node {source} -> port {port} "
        f"(tolerance {args.tol:.1e}, {args.db} dB)",
        file=sys.stderr if not passed else sys.stdout,
    )
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_sweep(args) -> int:
    program = serialize.load_program(args.program)
    if not args.db:
        print("error: empty squeezing list", file=sys.stderr)
        return EXIT_VALIDATION
    # Above ~70 dB the simulated excess is covariance round-off (eps * e^{2r});
    # the replay's N N^T e^{-2r}/4 is exact at every squeezing.
    replay = exact_replay(program)
    rows = []
    for db in args.db:
        r = db_to_r(db)
        effective = simulator.effective_map(program, r)
        error = float(np.max(np.abs(effective.matrix - program.target.matrix)))
        rows.append((db, error, float(np.trace(replay.excess_covariance(r)))))
    if args.out:
        serialize.write_sweep_csv(rows, args.out)
        print(f"sweep written to {args.out}")
    else:
        serialize.write_sweep_csv(rows, sys.stdout)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    handlers = {
        "compile": cmd_compile,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"i/o error: cannot parse JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
