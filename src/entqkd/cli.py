"""Command-line interface.

Subcommands
-----------
reconstruct  MLE state and QKD metrics from a dataset file, JSON report.
model        Rate-versus-gain curve as CSV (closed form, or via full
             tomography + MLE when a single-pair state file is given).
optimize     Optimal and critical gain for given transmittances, JSON.
bases        Optimal measurement bases and waveplate dials for a state.
compare      CSV series contrasting the CW source bound with ideal and
             noisy single-pair sources.
table-check  Internal-consistency check of the bundled reference table.

Exit codes: 0 success, 1 ``table-check`` found an inconsistent row,
2 invalid input (a malformed table file among it; an error about an
input file starts with the file's name), 3 a reconstruction did not
converge (``reconstruct`` still writes its report; ``model`` and
``compare`` write no CSV).  All outputs are deterministic given the
flags and seed.

Each command parses its flags, makes one library call and writes what
it returns; the comparison series come from
``optimize.comparison_series`` and the basis block from
``bases.basis_report``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__, bases, dataio, metrics, optimize, refdata, spdc, tomography
from .numeric import check_range
from .states import bell_state, werner_mix

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

_DEFAULT_GRID = "0.001:0.2:120"
_DEFAULT_S_TARGET = 2.815
_DEFAULT_ETA = 1.0
_DEFAULT_COMPARE_ETA = 0.16


def _parse_grid(spec: str, log: bool) -> np.ndarray:
    try:
        start_s, stop_s, steps_s = spec.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError as exc:
        raise ValueError(f"grid must look like start:stop:steps, got {spec!r}") from exc
    # the grid holds gains n_bar >= 0; a log grid needs n_bar > 0
    check_range(f"--nbar-grid {spec!r} start", start, 0.0, open_lo=log)
    check_range(f"--nbar-grid {spec!r} stop", stop, 0.0)
    if steps < 1:
        raise ValueError(f"grid needs at least 1 step, got {steps}")
    if not stop > start:
        raise ValueError(f"grid needs start < stop, got {spec!r}")
    return (np.geomspace if log else np.linspace)(start, stop, steps)


def _checked_int(requirement: str, ok):
    """argparse type: an integer n with ok(n), else an error naming the requirement."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


def _resolve_etas(args, default: float) -> tuple[float, float]:
    """(eta_a, eta_b) from the flags; ``default`` for both arms when none is given."""
    if args.eta is not None:
        if args.eta_a is not None or args.eta_b is not None:
            raise ValueError("--eta conflicts with --eta-a/--eta-b")
        eta_a = eta_b = args.eta
    elif args.eta_a is None and args.eta_b is None:
        eta_a = eta_b = default
    else:
        eta_a = args.eta_a if args.eta_a is not None else 1.0
        eta_b = args.eta_b if args.eta_b is not None else 1.0
    check_range("eta_a", eta_a, 0.0, 1.0, open_lo=True)
    check_range("eta_b", eta_b, 0.0, 1.0, open_lo=True)
    return eta_a, eta_b


def _write_text(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_reconstruct(args) -> int:
    ds = dataio.load_dataset(args.dataset)
    result = tomography.mle_reconstruct(ds.counts.astype(float), ds.settings)
    r_c = tomography.coincidence_rate_from_counts(ds)
    qkd = metrics.QkdMetrics.from_state(result.rho, r_c)

    uncertainty = None
    if args.mc:
        mc_report = tomography.monte_carlo_uncertainty(ds, args.mc, args.seed)
        uncertainty = mc_report.to_json_dict()

    report = {
        "dataset": {
            "path": str(args.dataset),
            "tau_s": ds.tau_s,
            "duration_s": ds.duration_s,
            "n_windows": ds.n_windows,
            "total_counts": int(ds.counts.sum()),
        },
        "reconstruction": {
            "converged": result.converged,
            "stop": result.stop,
            "iterations": result.iterations,
            "gap": result.gap,
            "log_likelihood": result.log_likelihood,
            "rho": dataio.density_matrix_to_json(result.rho),
        },
        "metrics": qkd.to_json_dict(),
        "uncertainty": uncertainty,
        "bases": bases.basis_report(result.rho, args.ordering),
        "provenance": {
            "tool": "entqkd",
            "version": __version__,
            "mc_samples": args.mc,
            "seed": args.seed if args.mc else None,
        },
    }
    _write_text(dataio.canonical_json(report), args.out)
    if not result.converged:
        print(f"warning: reconstruction did not converge: stop {result.stop!r} at gap "
              f"{result.gap:.3e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_model(args) -> int:
    eta_a, eta_b = _resolve_etas(args, _DEFAULT_ETA)
    grid = _parse_grid(args.nbar_grid, args.log)
    if args.rho0_file is not None:
        rho0 = dataio.load_density_matrix(args.rho0_file)
        points = tomography.mle_curve(rho0, eta_a, eta_b, grid)
    else:
        points = spdc.model_curve(eta_a, eta_b, grid)
    _write_text(dataio.model_points_to_csv(points), args.out)
    return EXIT_OK


def cmd_optimize(args) -> int:
    eta_a, eta_b = _resolve_etas(args, _DEFAULT_ETA)
    optimum = optimize.optimize_gain(eta_a, eta_b)
    payload = {
        "eta_a": eta_a,
        "eta_b": eta_b,
        "n_bar_opt": optimum.n_bar_opt,
        "r_key_opt": optimum.r_key_opt,
        "n_bar_critical": optimize.critical_gain(eta_a, eta_b),
    }
    _write_text(dataio.canonical_json(payload), args.out)
    return EXIT_OK


def cmd_bases(args) -> int:
    if args.rho0_file is not None:
        state = dataio.load_density_matrix(args.rho0_file)
    else:
        state = bell_state(args.bell)
    table = bases.basis_report(state, args.ordering)
    if table is None:
        print("error: state has no correlations, no optimal basis exists", file=sys.stderr)
        return EXIT_INPUT
    lines = [f"ordering: {table['ordering']}",
             f"{'basis':<6} {'x1':>10} {'x2':>10} {'x3':>10} {'theta_H [deg]':>14} {'theta_Q [deg]':>14}"]
    for row in table["settings"]:
        x1, x2, x3 = row["bloch"]
        lines.append(f"{row['label']:<6} {x1:>10.6f} {x2:>10.6f} {x3:>10.6f} "
                     f"{row['theta_h_deg']:>14.4f} {row['theta_q_deg']:>14.4f}")
    lines.append(f"achieved: S = {table['achieved_S']:.6f}, Q = {table['achieved_Q']:.6f}")
    _write_text("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    eta_a, eta_b = _resolve_etas(args, _DEFAULT_COMPARE_ETA)
    grid = _parse_grid(args.nbar_grid, True)
    if args.rho0_file is not None:
        rho0 = dataio.load_density_matrix(args.rho0_file)
    else:
        s_target = check_range("--s-target", args.s_target, 0.0, metrics.TSIRELSON)
        rho0 = werner_mix(bell_state("phi+"), 1.0 - s_target / metrics.TSIRELSON)

    series = optimize.comparison_series(rho0, eta_a, eta_b, grid)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, (header, rows) in series.items():
        _write_text(dataio.csv_text(header, rows), os.path.join(args.out_dir, f"{name}.csv"))

    print(f"wrote comparison series to {args.out_dir}")
    return EXIT_OK


def cmd_table_check(args) -> int:
    rows = refdata.load_reference_table(args.table_file)
    checks = refdata.check_reference_table(rows)
    failures = 0
    for chk in checks:
        status = "PASS" if chk.ok else "FAIL"
        print(f"{status} tau={chk.tau_ns:7.1f} ns  "
              f"r_dw {chk.r_dw_computed:.4f} vs {chk.r_dw_printed:.2f} "
              f"(tol {chk.r_dw_tolerance:.4f})  "
              f"R_key {chk.r_key_computed:.3e} vs {chk.r_key_printed:.3e} "
              f"(tol {chk.r_key_tolerance:.3e})")
        if not chk.ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} rows consistent")
    return EXIT_OK if failures == 0 else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entqkd",
        description="QKD figures of merit for photonic entanglement sources")
    parser.add_argument("--version", action="version", version=f"entqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eta_flags(p, default):
        p.add_argument("--eta", type=float, default=None,
                       help=f"symmetric transmittance for both arms (default {default} "
                            "when no transmittance flag is given)")
        p.add_argument("--eta-a", type=float, default=None,
                       help="Alice-arm transmittance (1.0 when only --eta-b is given)")
        p.add_argument("--eta-b", type=float, default=None,
                       help="Bob-arm transmittance (1.0 when only --eta-a is given)")

    p = sub.add_parser("reconstruct", help="MLE reconstruction and QKD report")
    p.add_argument("dataset", help="dataset JSON file")
    p.add_argument("--mc", type=_checked_int("0 or an integer of at least 2",
                                             lambda n: n == 0 or n >= 2),
                   default=0, metavar="N", help="Monte-Carlo samples for uncertainties (0 = skip)")
    p.add_argument("--seed", type=_checked_int("a nonnegative integer", lambda n: n >= 0),
                   default=0, help="master seed for Monte-Carlo")
    p.add_argument("--ordering", choices=bases.ORDERINGS, default="alice_first")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("model", help="rate-versus-gain curve as CSV")
    add_eta_flags(p, _DEFAULT_ETA)
    p.add_argument("--nbar-grid", default=_DEFAULT_GRID, metavar="START:STOP:STEPS")
    p.add_argument("--log", action="store_true", help="logarithmic gain grid")
    p.add_argument("--rho0-file", default=None,
                   help="single-pair state JSON; runs the full tomography+MLE pipeline")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("optimize", help="optimal and critical gain")
    add_eta_flags(p, _DEFAULT_ETA)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bases", help="optimal bases and waveplate dials")
    state = p.add_mutually_exclusive_group()
    state.add_argument("--rho0-file", default=None, help="state JSON file")
    state.add_argument("--bell", choices=("phi+", "phi-", "psi+", "psi-"), default="phi+",
                       help="use a Bell state (default phi+) when no file is given")
    p.add_argument("--ordering", choices=bases.ORDERINGS, default="alice_first")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bases)

    p = sub.add_parser("compare", help="CW bound vs single-pair sources, CSV series")
    add_eta_flags(p, _DEFAULT_COMPARE_ETA)
    p.add_argument("--nbar-grid", default="1e-4:0.2:80", metavar="START:STOP:STEPS")
    state = p.add_mutually_exclusive_group()
    state.add_argument("--s-target", type=float, default=_DEFAULT_S_TARGET,
                       help="CHSH value the default surrogate single-pair state matches")
    state.add_argument("--rho0-file", default=None, help="explicit single-pair state JSON")
    p.add_argument("--out-dir", default="compare_out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table-check", help="reference-table consistency check")
    p.add_argument("table_file", nargs="?", default=None,
                   help="table JSON (default: bundled copy)")
    p.set_defaults(func=cmd_table_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args leaves a parser unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on every call, so a command wrapped after the parser
    # was built is the one that runs
    command = globals()[args.func.__name__]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except tomography.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
