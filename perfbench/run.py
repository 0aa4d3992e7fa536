"""Seeded compile -> verify -> simulate benchmark of cvcluster.

Run from the repository root:

    python3 perfbench/run.py --workload onemode --seed 1 --seconds 20 --trace 0

Workloads (sizes and reasons are in BENCHMARK.json and workloads.py):
``onemode``, ``compile_wide`` and ``simulate``.  Each run is one process and a
closed loop: one target at a time, the next one starts when the previous one
is done and checked.

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs the same targets twice, untraced and then traced, reports the per-layer
metrics and the tracing overhead, and writes the spans to
``perfbench/_out/``.  ``--quick`` shrinks every workload for the benchmark's
own tests.

Standard output: one JSON line with run details (environment, caps, failures,
tail latency), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units are
those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: BLAS threads: one process on a small shared machine measures steadiest
#: single-threaded; the count is capped at the CPUs this process may use.
BLAS_THREADS = 1
#: Calibration kernel units (calibration.py) run right after each set-up.
SETUP_KERNEL_UNITS = 10
#: Failure messages printed in the detail line (all are counted).
MAX_LISTED_FAILURES = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("onemode", "compile_wide", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def _declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _timed_setups(args) -> list:
    """(wall time, kernel time) of SETUP_REPEATS fresh interpreters doing the
    run's set-up: import cvcluster, generate and check the reference targets,
    run one warm-up target.  The calibration kernel runs right after each."""
    import calibration

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        wall_s = time.perf_counter() - start
        samples.append((wall_s, calibration.kernel_seconds(SETUP_KERNEL_UNITS)))
    return samples


def _quartiles(values: list):
    if len(values) < 2:
        return values or None
    return statistics.quantiles(values, n=4)


def _end_to_end(workloads, timed, reference, setups) -> dict:
    """End-to-end metrics; times are at the reference host speed
    (calibration.py), each scaled by the kernel time measured right after it."""
    import calibration

    times = workloads.calibrated_seconds(timed)
    metrics = {
        "setup_s": statistics.median(calibration.scale(*sample) for sample in setups),
        "targets_per_s": len(times) / sum(times),
        "target_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(workloads.output_cost(reference))
    return metrics


def _per_layer(tracer, traced, untraced) -> dict:
    """Per-layer metrics of the traced phase, per target unless named otherwise."""
    spans = tracer.totals()
    k = len(traced)

    def per_target(name, key):
        return spans[name][key] / k

    def ratio(a, b):
        return a / b if b else 0.0

    selects = spans["single_mode.select_free_kappa1"]["calls"]
    theta_selects = spans["teleport.select_free_theta0"]["calls"]
    extracts = spans["simulator.extract_effective_map"]["calls"]
    matched = min(len(traced), len(untraced))
    untraced_s = sum(o.seconds for o in untraced[:matched]) / matched
    traced_s = sum(o.seconds for o in traced[:matched]) / matched
    return {
        "single_mode.select_free_kappa1.calls": per_target("single_mode.select_free_kappa1", "calls"),
        "single_mode.select_free_kappa1.self_s": per_target("single_mode.select_free_kappa1", "self_s"),
        "single_mode.noise_proxy.calls": tracer.count("single_mode.noise_proxy") / k,
        "single_mode.evals_per_select": ratio(
            tracer.count("single_mode.noise_proxy", "single_mode.select_free_kappa1"), selects
        ),
        "teleport.select_free_theta0.calls": per_target("teleport.select_free_theta0", "calls"),
        "teleport.select_free_theta0.self_s": per_target("teleport.select_free_theta0", "self_s"),
        "teleport.telep_noise_proxy.calls": tracer.count("teleport.telep_noise_proxy") / k,
        "teleport.evals_per_select": ratio(
            tracer.count("teleport.telep_noise_proxy", "teleport.select_free_theta0"), theta_selects
        ),
        "multimode.bloch_messiah.s": per_target("multimode.bloch_messiah", "s"),
        "multimode.reck_decompose.s": per_target("multimode.reck_decompose", "s"),
        "multimode.compile.self_s": per_target("multimode.compile", "self_s"),
        "multimode.columns": statistics.fmean(o.columns for o in traced),
        "multimode.pad_ancilla_share": 100.0 * ratio(
            sum(o.pad_ancillas for o in traced), sum(o.ancillas for o in traced)
        ),
        "multimode.noise_proxy": statistics.fmean(o.noise_proxy for o in traced),
        "multimode.replay_residual_max": max(o.replay_residual for o in traced),
        "executor.exact_replay.calls": per_target("executor.exact_replay", "calls"),
        "executor.exact_replay.s": per_target("executor.exact_replay", "s"),
        "executor.rows_mb_computed": tracer.max_rows_bytes / 1e6,
        "simulator.run_program.calls": per_target("simulator.run_program", "calls"),
        "simulator.run_program.self_s": per_target("simulator.run_program", "self_s"),
        "simulator.homodyne_measure.calls": per_target("simulator.homodyne_measure", "calls"),
        "simulator.homodyne_measure.s": per_target("simulator.homodyne_measure", "s"),
        "simulator.max_state_modes": tracer.max_state_modes,
        "simulator.extract_effective_map.s": per_target("simulator.extract_effective_map", "s"),
        "simulator.runs_per_extract": ratio(
            tracer.child_calls("simulator.run_program", "simulator.extract_effective_map"), extracts
        ),
        "serialize.save_program.s": per_target("serialize.save_program", "s"),
        "serialize.load_program.s": per_target("serialize.load_program", "s"),
        "serialize.program_mb": statistics.fmean(o.program_mb for o in traced),
        "ir.validate.calls": per_target("ir.MeasurementProgram.validate", "calls"),
        "ir.validate.s": per_target("ir.MeasurementProgram.validate", "s"),
        "trace.untraced_target_s": untraced_s,
        "trace.traced_target_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    threads = str(min(BLAS_THREADS, _cpus()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if not (ROOT / "src" / "cvcluster").is_dir():
        print(f"perfbench: no cvcluster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cvcluster
    import numpy
    import scipy

    if not Path(cvcluster.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported cvcluster from {cvcluster.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    table = workloads.QUICK_WORKLOADS if args.quick else workloads.WORKLOADS
    wl = table[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.setup_only:
            workloads.setup(wl, args.seed, workdir)
            return 0
        start = time.perf_counter()
        deadline = start + args.seconds + wl.cap_s
        setups = [] if args.trace else _timed_setups(args)
        workloads.setup(wl, args.seed, workdir)
        ctx = workloads.Context(workdir)
        trace_file = None
        if args.trace == 0:
            reference = workloads.run_reference(wl, deadline, ctx)
            timed = workloads.run_workload(wl, args.seed, args.seconds, deadline, ctx, calibrate=True)
            runs = [reference, timed]
            metrics = _end_to_end(workloads, timed, reference, setups)
            units = _declared_units("end_to_end")
        else:
            # The same seeded targets twice: untraced, then traced.
            half = args.seconds / 2.0
            untraced = workloads.run_workload(wl, args.seed, half, deadline, ctx)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = workloads.run_workload(wl, args.seed, half, deadline, replace(ctx, tracer=tracer))
            finally:
                tracer.uninstall()
            runs = [untraced, traced]
            metrics = _per_layer(tracer, traced, untraced)
            units = _declared_units("per_layer")
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    outcomes = [o for run in runs for o in run]
    failures = [f for o in outcomes for f in o.failures]
    failed = sum(1 for o in outcomes if o.failures)
    over_cap = wall > args.seconds + wl.cap_s or (
        args.trace == 0 and len(reference) < wl.reference_targets
    )
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if over_cap:
        print(f"perfbench: OVER CAP {wall:.1f} s > {args.seconds} s + cap {wl.cap_s} s", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "n": wl.n,
        "nproc": _cpus(),
        "blas_threads": _blas_threads_in_use(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "calibration_reference_s": workloads.calibration.REFERENCE_S,
        "setup_wall_s": [wall_s for wall_s, _ in setups],
        "setup_kernel_s": [kernel_s for _, kernel_s in setups],
        "kernel_s_quartiles": _quartiles([o.kernel_s for o in runs[-1] if o.kernel_s is not None]),
        "wall_s": wall,
        "cap_s": wl.cap_s,
        "over_cap": over_cap,
        "timed_targets": len(runs[-1]),
        "reference_targets": wl.reference_targets if args.trace == 0 else 0,
        "fail_ratio": failed / len(outcomes),
        "failures": failures[:MAX_LISTED_FAILURES],
        "wall_targets_per_s": len(runs[-1]) / sum(o.seconds for o in runs[-1]),
        "wall_target_p50_s": statistics.median(o.seconds for o in runs[-1]),
        "target_tail_s": workloads.tail([o.seconds for o in runs[-1]]),
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not over_cap,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
