"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload mc_report --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``entqkd`` is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped but the reconstruction recorder; ``--trace 1`` runs each
round untraced and then traced, and reports the per-layer metrics.
The last line of standard output is the result object; run records and
spans go to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("mc_report", "gain_sweep", "state_eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no /proc: the count stays unknown
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": has_numba, "nproc": os.cpu_count(),
            "blas_threads": blas_threads(), "machine": platform.machine()}


def setup_once(workload) -> float:
    """A fresh interpreter importing entqkd, then the workload's input generation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import entqkd"], cwd=ROOT, env=env, check=True)
    workload.prepare()
    return perf_counter() - t0


def run_round(workload, k: int, tracer=None):
    rnd = workload.run_round(k, tracer)
    workload.check_round(rnd)
    # checked outputs are dropped so memory does not grow with the run
    rnd.payload = None
    if tracer is None:
        rnd.mle_log = []
    return rnd


def run_untraced(workload, seconds: float):
    """Whole rounds until their timed spans add up to ``seconds``."""
    rounds, timed = [], 0.0
    while timed < seconds:
        rounds.append(run_round(workload, len(rounds)))
        timed += rounds[-1].seconds
    return rounds, timed


def run_traced(workload, seconds: float, tracer, package, modules):
    """Each round twice, untraced then traced, until the untraced ones add up to ``seconds``.

    Alternating keeps slow spells of the machine from landing on one side
    of the overhead comparison.
    """
    plain, traced = [], []
    untraced_s = traced_s = 0.0
    while untraced_s < seconds:
        k = len(plain)
        plain.append(run_round(workload, k))
        untraced_s += plain[-1].seconds
        tracer.install(package, modules)
        try:
            traced.append(run_round(workload, k, tracer))
        finally:
            tracer.uninstall()
        traced_s += traced[-1].seconds
    return plain, traced, untraced_s, traced_s


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def end_to_end(rounds, timed: float, setup_s: float) -> dict:
    """Throughput, memory, setup and per-operation latency of untraced rounds.

    Workloads that time each operation repeat the same operations every
    round; an operation's latency is its mean over the rounds, so the
    percentiles rank operations rather than slow spells of the machine.
    The others run their operations inside one library call, and each
    round gives its mean per operation.  The 99th percentile needs ten
    samples beyond it; with fewer than 1000 latencies the median stands in.
    """
    import numpy as np
    ops = sum(r.ops for r in rounds)
    if rounds[0].latencies_ms is not None:
        latencies = np.mean([r.latencies_ms for r in rounds], axis=0)
    else:
        latencies = [r.seconds * 1e3 / r.ops for r in rounds]
    tail = 99 if len(latencies) >= 1000 else 50
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / timed, "op/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "state_ms_p50": (percentile(latencies, 50), "ms"),
        "state_ms_p99": (percentile(latencies, tail), "ms"),
    }


def per_layer(view, rounds, untraced_s: float, traced_s: float) -> dict:
    import oracle
    ops = sum(r.ops for r in rounds)
    log = [entry for r in rounds for entry in r.mle_log]
    iterations = [result.iterations for _, result in log]
    mle = view.durations("tomography.mle_reconstruct")

    def mean_ms(name):
        d = view.durations(name)
        return float(d.mean() * 1e3) if len(d) else 0.0

    return {
        "tomography.mle_calls_per_op": (len(mle) / ops, "call/op"),
        "tomography.mle_ms_p50": (percentile(mle * 1e3, 50), "ms"),
        "tomography.mle_ms_max": (float(mle.max() * 1e3) if len(mle) else 0.0, "ms"),
        "tomography.mle_iterations_mean": (statistics.fmean(iterations) if log else 0.0, "count"),
        "tomography.mle_iterations_max": (max(iterations, default=0), "count"),
        "tomography.mle_us_per_iteration": (
            float(mle.sum() * 1e6 / sum(iterations)) if log else 0.0, "us"),
        "tomography.mle_unconverged": (sum(not res.converged for _, res in log), "count"),
        "tomography.mle_gap_max": (
            max((oracle.duality_gap(f, res.rho) for f, res in log), default=0.0), "1"),
        "tomography.mc_self_ms": (
            view.self_time("tomography.monte_carlo_uncertainty") * 1e3 / ops, "ms"),
        "tomography.synthesize_ms_p50": (
            percentile(view.durations("tomography.synthesize_frequencies") * 1e3, 50), "ms"),
        "spdc.click_probabilities_calls_per_op": (
            view.count("spdc.click_probabilities") / ops, "call/op"),
        "spdc.click_probabilities_self_ms": (
            view.self_time("spdc.click_probabilities") * 1e3 / ops, "ms"),
        "states.partial_trace_calls_per_op": (view.count("states.partial_trace") / ops, "call/op"),
        "states.validate_calls_per_op": (
            view.count("states.validate_density_matrix") / ops, "call/op"),
        "states.validate_self_ms": (
            view.self_time("states.validate_density_matrix") * 1e3 / ops, "ms"),
        "states.correlation_analysis_calls_per_op": (
            view.count("states.correlation_analysis") / ops, "call/op"),
        "states.correlation_analysis_us_p50": (
            percentile(view.durations("states.correlation_analysis") * 1e6, 50), "us"),
        "metrics.chsh_qber_us_p50": (
            percentile(view.durations("metrics.chsh_max", "metrics.qber_min") * 1e6, 50), "us"),
        "bases.optimal_bases_us_p50": (
            percentile(view.durations("bases.optimal_bases") * 1e6, 50), "us"),
        "bases.verify_bases_us_p50": (
            percentile(view.durations("bases.verify_bases") * 1e6, 50), "us"),
        "bases.waveplate_angles_us_p50": (
            percentile(view.durations("bases.waveplate_angles") * 1e6, 50), "us"),
        "spdc.model_curve_ms": (mean_ms("spdc.model_curve"), "ms"),
        "optimize.optimize_gain_ms": (mean_ms("optimize.optimize_gain"), "ms"),
        "optimize.qd_threshold_ms": (mean_ms("optimize.qd_threshold"), "ms"),
        "refdata.check_reference_table_ms": (mean_ms("refdata.check_reference_table"), "ms"),
        "cli.self_ms": (view.self_time_prefix("cli.") * 1e3 / ops, "ms"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1.0) * 100.0, "%"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entqkd" / "__init__.py").is_file():
        print(f"error: no entqkd package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS: one thread
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import entqkd
    if Path(entqkd.__file__).resolve().parent != (SRC / "entqkd").resolve():
        print(f"error: imported entqkd from {entqkd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import SpanView, Tracer

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = workloads.MleRecorder()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, recorder)
    setup_s = statistics.median(setup_once(workload) for _ in range(SETUP_REPEATS))

    if args.trace:
        tracer = Tracer()
        modules = [getattr(entqkd, name) for name in
                   ("states", "metrics", "spdc", "tomography", "optimize", "bases",
                    "refdata", "dataio", "numeric", "cli")]
        plain, traced, untraced_s, traced_s = run_traced(
            workload, args.seconds / 2.0, tracer, entqkd, modules)
        rounds = plain + traced
        figures = per_layer(SpanView(tracer), traced, untraced_s, traced_s)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        rounds, timed = run_untraced(workload, args.seconds)
        figures = end_to_end(rounds, timed, setup_s)
    workload.finish()

    env = environment()
    result = {
        "correct": not workload.errors,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "environment": env,
              "mle_iterations": sum(r.mle_iterations for r in rounds),
              "errors": workload.errors[:50], **result}
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for message in workload.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
