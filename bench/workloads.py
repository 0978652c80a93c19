"""The three benchmark workloads: inputs from the seed, one round of operations, checks.

Every workload drives ``entqkd`` through its public entry points
(``entqkd.cli.main`` and the library functions) and checks every output
against ``oracle`` or against a property the method must have.  A round
is the unit a run repeats; its operations are timed, its checks run
outside the timed span.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle

import entqkd
from entqkd import bases, cli, metrics, tomography


@dataclass
class Round:
    ops: int
    failed: int
    seconds: float
    #: latency in ms of each operation, in the same order every round, when
    #: operations are timed one by one; None when they run inside one call
    latencies_ms: list | None
    payload: object = None
    mle_log: list = field(default_factory=list)
    mle_iterations: int = 0


class MleRecorder:
    """Keeps the input and result of every ``mle_reconstruct`` call.

    It only appends to a list; the duality gap of each reconstruction is
    computed later, outside the timed span.
    """

    def __init__(self):
        self.log: list = []
        original = tomography.mle_reconstruct
        log = self.log

        @functools.wraps(original)
        def recorded(frequencies, settings, *args, **kwargs):
            result = original(frequencies, settings, *args, **kwargs)
            log.append((np.array(frequencies, dtype=float), result))
            return result

        for mod in (entqkd, tomography):
            if getattr(mod, "mle_reconstruct") is original:
                setattr(mod, "mle_reconstruct", recorded)


def _close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def _rho_json(rho: np.ndarray) -> dict:
    return {"re": rho.real.tolist(), "im": rho.imag.tolist()}


def _call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _read_csv(text: str) -> np.ndarray:
    lines = text.strip().split("\n")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, recorder: MleRecorder):
        self.seed = seed % 2 ** 64  # numpy seeds must be nonnegative
        self.workdir = workdir
        self.recorder = recorder
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(f"{self.name}: {message}")

    def _cli_round(self, calls, tracer, ops: int) -> Round:
        start = len(self.recorder.log)
        results = []
        t0 = perf_counter()
        for argv in calls:
            if tracer is not None:
                tracer.next_op()
            results.append(_call_cli(argv))
        seconds = perf_counter() - t0
        log = self.recorder.log[start:]
        del self.recorder.log[start:]
        return Round(ops=ops, failed=0, seconds=seconds, latencies_ms=None, payload=results,
                     mle_log=log, mle_iterations=sum(res.iterations for _, res in log))

    def finish(self) -> None:
        """Checks that run once, after the measured rounds."""


class McReport(Workload):
    """Repeated ``reconstruct --mc`` on the criterion-12 dataset."""

    name = "mc_report"
    samples = 40
    #: the criterion-12 source: Werner surrogate of S = 2.815 at n_bar = 0.01,
    #: eta_A = eta_B = 0.16, 5e7 windows of 1 ns, counts drawn with seed 1212
    s_target, n_bar, eta = 2.815, 0.01, 0.16
    tau_s, n_windows, dataset_seed = 1e-9, 5.0e7, 1212
    #: upper limit on lambda_max(R) - 1 for every reconstruction; the
    #: default stopping rule reaches 4e-8 to 1.3e-5 on this dataset
    gap_tol = 1e-4

    def prepare(self) -> None:
        kappa0 = 1.0 - self.s_target / oracle.TSIRELSON
        rho0 = oracle.werner_mix(oracle.projector(oracle.phi_plus_ket()), kappa0)
        probs = oracle.coincidence_probabilities(rho0, self.n_bar, self.eta, self.eta)
        self.counts = np.random.default_rng(self.dataset_seed).poisson(probs * self.n_windows)
        self.duration_s = self.tau_s * self.n_windows
        dataset = {"tau_s": self.tau_s, "duration_s": self.duration_s,
                   "measurements": [{"a": a, "b": b, "count": int(c)}
                                    for (a, b), c in zip(oracle.PAIRS, self.counts)]}
        self.dataset_path = self.workdir / "dataset.json"
        self.dataset_path.write_text(json.dumps(dataset), encoding="utf-8")
        self.report_path = self.workdir / "report.json"
        self.last = None

    def mc_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def argv(self, k: int) -> list[str]:
        return ["reconstruct", str(self.dataset_path), "--mc", str(self.samples),
                "--seed", str(self.mc_seed(k)), "--out", str(self.report_path)]

    def run_round(self, k: int, tracer) -> Round:
        rnd = self._cli_round([self.argv(k)], tracer, self.samples)
        rnd.payload = (k, rnd.payload[0][0], self.report_path.read_bytes())
        return rnd

    def _state_figures(self, rho, counts) -> tuple[float, float, float, float]:
        s, q = oracle.chsh_qber(rho)
        r_dw = oracle.devetak_winter(s, q)
        return s, q, r_dw, r_dw * oracle.rate_from_counts(counts, self.duration_s / self.tau_s)

    def check_round(self, rnd: Round) -> None:
        k, code, raw = rnd.payload
        self.last = (k, raw)
        if code != 0:
            self.fail(f"round {k}: exit code {code}")
            return
        report = json.loads(raw)
        rec = report["reconstruction"]
        rho = np.array(rec["rho"]["re"]) + 1j * np.array(rec["rho"]["im"])
        if not rec["converged"]:
            self.fail(f"round {k}: base reconstruction not converged")
        s, q, r_dw, r_key = self._state_figures(rho, self.counts)
        r_c = oracle.rate_from_counts(self.counts, self.duration_s / self.tau_s)
        got = report["metrics"]
        for key, want in (("S", s), ("Q", q), ("r_dw", r_dw), ("r_c", r_c), ("R_key", r_key)):
            if not _close(got[key], want, abs_tol=0.0):
                self.fail(f"round {k}: metrics.{key} {got[key]!r} vs oracle {want!r}")

        table = report["bases"]
        if not (_close(table["achieved_S"], s) and _close(table["achieved_Q"], q)):
            self.fail(f"round {k}: bases achieve S, Q = {table['achieved_S']}, "
                      f"{table['achieved_Q']} vs oracle {s}, {q}")
        vec = {row["label"]: np.array(row["bloch"]) for row in table["settings"]}
        s_b, q_b = oracle.chsh_of_bases(oracle.correlation_tensor(rho), vec["A0"], vec["A1"],
                                        vec["A2"], vec["B1"], vec["B2"], alice_first=True)
        if not (_close(s_b, s) and _close(q_b, q)):
            self.fail(f"round {k}: reported Bloch vectors give S, Q = {s_b}, {q_b}")
        for row in table["settings"]:
            # dials are printed to 1e-4 degrees, about 2e-6 rad
            proj = oracle.analyzer_projector(math.radians(row["theta_q_deg"]),
                                             math.radians(row["theta_h_deg"]))
            if np.max(np.abs(proj - oracle.bloch_projector(row["bloch"]))) > 1e-5:
                self.fail(f"round {k}: dials of {row['label']} miss the projector")

        log = rnd.mle_log
        if len(log) != self.samples + 2:
            self.fail(f"round {k}: {len(log)} reconstructions, expected {self.samples + 2}")
            return
        for i, (freqs, result) in enumerate(log):
            gap = oracle.duality_gap(freqs, result.rho)
            if not gap <= self.gap_tol:
                self.fail(f"round {k}: reconstruction {i} has duality gap {gap:.3e} "
                          f"> {self.gap_tol:.0e}")
        if not (np.array_equal(log[0][0], self.counts) and np.array_equal(log[1][0], self.counts)):
            self.fail(f"round {k}: first two reconstructions are not of the dataset")
        values = np.array([self._state_figures(result.rho, freqs) for freqs, result in log[2:]])
        means, stds = values.mean(axis=0), values.std(axis=0, ddof=1)
        unc = report["uncertainty"]
        for j, key in enumerate(("S", "Q", "r_dw", "R_key")):
            if not (_close(unc[key]["mean"], means[j], 1e-7)
                    and _close(unc[key]["std"], stds[j], 1e-6)):
                self.fail(f"round {k}: uncertainty.{key} {unc[key]} vs oracle over the "
                          f"samples mean {means[j]!r}, std {stds[j]!r}")
            if not unc[key]["std"] > 0.0:
                self.fail(f"round {k}: uncertainty.{key}.std is not above 0")
        if unc["samples"] != self.samples or unc["seed"] != self.mc_seed(k):
            self.fail(f"round {k}: uncertainty block names samples {unc['samples']}, "
                      f"seed {unc['seed']}")

    def finish(self) -> None:
        k, raw = self.last
        code, _ = _call_cli(self.argv(k))
        if code != 0 or self.report_path.read_bytes() != raw:
            self.fail(f"round {k}: repeating the call with the same seed changed the report")


class GainSweep(Workload):
    """compare, two model --rho0-file curves, optimize and table-check."""

    name = "gain_sweep"
    model_grid = (1e-3, 0.15, 40)
    compare_grid = (1e-4, 0.2, 80)
    compare_s_target, compare_eta = 2.815, 0.16
    optimize_pairs = 3
    #: an MLE from exact frequencies reproduces the closed-form chain to
    #: about 1e-5 in S and 2e-6 in Q; the surrogate curve is held to this
    curve_tol = 1e-4

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 2])

        def unequal_etas():
            pair = [rng.uniform(0.5, 0.95), rng.uniform(0.05, 0.45)]
            return pair if rng.random() < 0.5 else pair[::-1]

        conc = rng.uniform(0.80, 0.98)
        dephased = oracle.projector(oracle.phi_plus_ket())
        dephased[0, 3] *= conc
        dephased[3, 0] *= conc

        theta = rng.uniform(0.3, 0.65)
        ua, ub = oracle.random_unitary(rng), oracle.random_unitary(rng)
        local = np.kron(ua, ub)
        ket = local @ np.array([math.cos(theta), 0, 0, math.sin(theta)], dtype=complex)
        biased = np.kron(ua @ oracle.projector(oracle.KETS["H"]) @ ua.conj().T, np.eye(2) / 2)
        weight, white = rng.uniform(0.75, 0.85), rng.uniform(0.08, 0.12)
        # full rank, so the reconstruction does not crawl along the boundary
        mixed = (weight * oracle.projector(ket) + (1.0 - weight - white) * biased
                 + white * np.eye(4) / 4.0)

        self.models = []
        for label, rho in (("dephased", dephased), ("mixed", mixed)):
            path = self.workdir / f"rho0_{label}.json"
            path.write_text(json.dumps(_rho_json(rho)), encoding="utf-8")
            self.models.append((label, rho, unequal_etas(), path))
        self.pairs = [(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
                      for _ in range(self.optimize_pairs)]
        self.compare_dir = self.workdir / "compare"
        self._refs = None

    def calls(self) -> list[list[str]]:
        lo, hi, n = self.model_grid
        out = [["compare", "--out-dir", str(self.compare_dir)]]
        for label, _, (eta_a, eta_b), path in self.models:
            out.append(["model", "--eta-a", repr(eta_a), "--eta-b", repr(eta_b),
                        "--nbar-grid", f"{lo!r}:{hi!r}:{n}", "--log",
                        "--rho0-file", str(path), "--out", str(self.workdir / f"{label}.csv")])
        for i, (eta_a, eta_b) in enumerate(self.pairs):
            out.append(["optimize", "--eta-a", repr(eta_a), "--eta-b", repr(eta_b),
                        "--out", str(self.workdir / f"optimize_{i}.json")])
        out.append(["table-check"])
        return out

    def run_round(self, k: int, tracer) -> Round:
        ops = self.compare_grid[2] + len(self.models) * self.model_grid[2]
        rnd = self._cli_round(self.calls(), tracer, ops)
        files = {p.name: p.read_text(encoding="utf-8")
                 for p in (*self.compare_dir.iterdir(), *self.workdir.glob("*.csv"),
                           *self.workdir.glob("optimize_*.json"))}
        rnd.payload = (k, rnd.payload, files)
        return rnd

    def refs(self) -> dict:
        """Oracle values, computed once per run since every round repeats the inputs."""
        if self._refs is None:
            kappa_white = 2.0 * (1.0 - 0.95) / 3.0
            optima = {}
            for pair in [(1.0, 1.0), *self.pairs]:
                n_opt = oracle.maximize(lambda n: oracle.bell_key_rate(n, *pair), 1e-6, 0.2)
                optima[pair] = (n_opt, oracle.bell_key_rate(n_opt, *pair))
            self._refs = {
                "r_dw_dephasing": oracle.devetak_winter(2.0 * math.sqrt(1.0 + 0.95 ** 2), 0.0),
                "r_dw_white": oracle.devetak_winter(*oracle.werner_closed_form(kappa_white)),
                "optima": optima,
                "s0": {label: oracle.chsh_qber(rho) for label, rho, _, _ in self.models},
            }
        return self._refs

    def _check_curve(self, k: int, label: str, rows: np.ndarray, grid, eta_a, eta_b) -> None:
        n_bar, kappa, s, q, r_dw, r_c, r_key = rows.T
        if rows.shape[0] != len(grid) or not np.allclose(n_bar, grid, rtol=1e-14, atol=0):
            self.fail(f"round {k}: {label} gain column is not the requested grid")
            return
        for i, n in enumerate(n_bar):
            want_rc = oracle.bell_coincidence_rate(n, eta_a, eta_b)
            if not _close(r_c[i], want_rc, abs_tol=0.0):
                self.fail(f"round {k}: {label} r_c {r_c[i]!r} vs series {want_rc!r} at n={n}")
            if not _close(r_dw[i], oracle.devetak_winter(s[i], q[i]), 1e-8, 1e-10):
                self.fail(f"round {k}: {label} r_dw {r_dw[i]!r} is not r_DW(S, Q) at n={n}")
            if not _close(r_key[i], r_dw[i] * r_c[i], abs_tol=0.0):
                self.fail(f"round {k}: {label} R_key != r_dw * r_c at n={n}")
            if not _close(kappa[i], 1.0 - s[i] / oracle.TSIRELSON):
                self.fail(f"round {k}: {label} kappa is not 1 - S/(2 sqrt 2) at n={n}")
        if np.any(np.diff(s) > 1e-9):
            self.fail(f"round {k}: {label} S increases with n_bar")

    def check_round(self, rnd: Round) -> None:
        k, results, files = rnd.payload
        refs = self.refs()
        for argv, (code, _) in zip(self.calls(), results):
            if code != 0:
                self.fail(f"round {k}: {argv[0]} exit code {code}")

        lo, hi, n = self.compare_grid
        grid = np.geomspace(lo, hi, n)
        ideal = _read_csv(files["spdc_ideal.csv"])
        self._check_curve(k, "spdc_ideal", ideal, grid, 1.0, 1.0)
        for n_bar, kappa, s, q, _, _, _ in ideal:
            want = oracle.kappa_printed(n_bar, 1.0, 1.0)
            s_want, q_want = oracle.werner_closed_form(want)
            if not (_close(kappa, want, 1e-8) and _close(s, s_want) and _close(q, q_want)):
                self.fail(f"round {k}: spdc_ideal closed-form columns miss at n={n_bar}")

        lossy = _read_csv(files["spdc_model.csv"])
        self._check_curve(k, "spdc_model", lossy, grid, self.compare_eta, self.compare_eta)
        kappa0 = 1.0 - self.compare_s_target / oracle.TSIRELSON
        for n_bar, kappa, s, q, _, _, _ in lossy:
            total = 1.0 - (1.0 - kappa0) * (1.0 - oracle.kappa_printed(
                n_bar, self.compare_eta, self.compare_eta))
            s_want, q_want = oracle.werner_closed_form(total)
            if abs(s - s_want) > self.curve_tol or abs(q - q_want) > self.curve_tol:
                self.fail(f"round {k}: surrogate curve S, Q = {s}, {q} off "
                          f"2.815(1 - kappa) = {s_want}, {q_want} at n={n_bar}")

        lo, hi, n = self.model_grid
        grid = np.geomspace(lo, hi, n)
        for label, _, (eta_a, eta_b), _ in self.models:
            rows = _read_csv(files[f"{label}.csv"])
            self._check_curve(k, label, rows, grid, eta_a, eta_b)
            s0, q0 = refs["s0"][label]
            if rows.shape[0] and (np.any(rows[:, 2] > s0 + 1e-9)
                                  or abs(rows[0, 2] - s0) > 20.0 * lo * s0):
                self.fail(f"round {k}: {label} S leaves (S0 - noise, S0] for S0 = {s0}")

        markers = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
                   for line in files["thresholds.csv"].strip().split("\n")[1:]}
        n_opt, _ = refs["optima"][(1.0, 1.0)]
        want = {"spdc_bound": oracle.bell_coincidence_rate(n_opt, 1.0, 1.0),
                "threshold_dephasing_c95": 0.029 / refs["r_dw_dephasing"],
                "threshold_white_c95": 0.029 / refs["r_dw_white"]}
        for key, r_c in want.items():
            got = markers.get(key)
            rel = 1e-5 if key == "spdc_bound" else 1e-9
            if got is None or not _close(got[0], r_c, rel) or got[1] != 0.029:
                self.fail(f"round {k}: thresholds.csv {key} = {got} vs oracle r_c {r_c!r}")

        lines = [line.split(",") for line in files["single_pair_lines.csv"].strip().split("\n")[1:]]
        slopes = {"ideal_single_pair": 1.0, "dephasing_c95": refs["r_dw_dephasing"],
                  "white_c95": refs["r_dw_white"]}
        if len(lines) != 3 * 60 or any(
                not _close(float(r_key), slopes[src] * float(r_c), abs_tol=0.0)
                for src, r_c, r_key in lines):
            self.fail(f"round {k}: single_pair_lines.csv is not R_key = r_DW r_C")
        if len(files["reference_points.csv"].strip().split("\n")) != 21:
            self.fail(f"round {k}: reference_points.csv does not hold 20 rows")

        for i, pair in enumerate(self.pairs):
            got = json.loads(files[f"optimize_{i}.json"])
            n_opt, r_opt = refs["optima"][pair]
            n_crit = got["n_bar_critical"]

            def raw(n):
                return oracle.devetak_winter_raw(*oracle.werner_closed_form(
                    oracle.kappa_printed(n, *pair)))

            if abs(got["n_bar_opt"] - n_opt) > 1e-6 or not _close(got["r_key_opt"], r_opt, 1e-8):
                self.fail(f"round {k}: optimize {pair}: {got['n_bar_opt']}, {got['r_key_opt']} "
                          f"vs dense-grid maximizer {n_opt}, {r_opt}")
            if not (raw(n_crit - 1e-6) > 0.0 > raw(n_crit + 1e-6)):
                self.fail(f"round {k}: optimize {pair}: critical gain {n_crit} is not the "
                          "sign change of the rate")

        code, text = results[-1]
        out_lines = text.strip().split("\n")
        if code != 0 or out_lines[-1] != "20/20 rows consistent" or \
                sum(line.startswith("PASS") for line in out_lines) != 20:
            self.fail(f"round {k}: table-check reported {out_lines[-1]!r}")


class StateEval(Workload):
    """S, Q and r_DW, both basis orderings and the five waveplate dials per state."""

    name = "state_eval"
    #: 1002 states a round, so the 99th percentile has ten states beyond it
    per_kind = 334
    #: the rotated |phi+> block is one fixed draw, the same for every seed:
    #: some of its states trip the qber_min roundoff fault, and a fixed
    #: draw fails the same operations in every run
    pure_seed = 20201015
    expected_fault = "QBER must lie in [0, 0.5], got -"

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        pure_rng = np.random.default_rng(self.pure_seed)
        phi = oracle.projector(oracle.phi_plus_ket())
        states = []
        for _ in range(self.per_kind):
            local = np.kron(oracle.random_unitary(rng), oracle.random_unitary(rng))
            kappa = rng.uniform(0.02, 0.6)
            states.append(("werner", local @ oracle.werner_mix(phi, kappa) @ local.conj().T,
                           ("werner", kappa)))
            local = np.kron(oracle.random_unitary(rng), oracle.random_unitary(rng))
            base = oracle.random_state(rng, int(rng.integers(2, 5)))
            states.append(("mixed", local @ base @ local.conj().T, ("mixed", base)))
            local = np.kron(oracle.random_unitary(pure_rng), oracle.random_unitary(pure_rng))
            ket = local @ oracle.phi_plus_ket()
            states.append(("pure", oracle.projector(ket), ("pure", ket)))
        self.states = states
        self.rates = rng.uniform(1e-5, 1e-2, size=len(states))
        self._refs = None
        self._dials_checked = {}
        self.failing = None

    def refs(self) -> list[tuple[float, float, np.ndarray]]:
        """(S, Q, T) per state: S and Q from the closed forms, or for the
        random states from the unrotated state; T of the rotated state."""
        if self._refs is None:
            out = []
            for _, rho, (kind, arg) in self.states:
                if kind == "werner":
                    s, q = oracle.werner_closed_form(arg)
                elif kind == "mixed":
                    s, q = oracle.chsh_qber(arg)
                else:
                    s, q = oracle.pure_closed_form(arg)
                out.append((s, q, oracle.correlation_tensor(rho)))
            self._refs = out
        return self._refs

    def _dial_ok(self, vec, dial) -> bool:
        # rounds repeat their inputs, so most outputs were checked before
        key = (dial.theta_q, dial.theta_h, *vec)
        if key not in self._dials_checked:
            self._dials_checked[key] = np.max(np.abs(
                oracle.analyzer_projector(dial.theta_q, dial.theta_h)
                - oracle.bloch_projector(vec))) <= 1e-9
        return self._dials_checked[key]

    @staticmethod
    def evaluate(rho: np.ndarray, r_c: float) -> dict:
        """One operation; every call runs even when an earlier one raises.

        Exceptions are kept, without their tracebacks, for the checks to
        classify; a traceback would tie each round's outputs into a
        reference cycle and make memory grow with the run.
        """
        out = {}
        try:
            out["qkd"] = metrics.QkdMetrics.from_state(rho, r_c)
        except Exception as exc:
            out["qkd"] = exc.with_traceback(None)
        for ordering in bases.ORDERINGS:
            try:
                basis_set = bases.optimal_bases(rho, ordering)
            except Exception as exc:
                out[ordering] = exc.with_traceback(None)
                continue
            try:
                achieved = bases.verify_bases(rho, basis_set)
            except Exception as exc:
                achieved = exc.with_traceback(None)
            dials = []
            for _, vec in basis_set.labeled():
                try:
                    dials.append(bases.waveplate_angles(vec))
                except Exception as exc:
                    dials.append(exc.with_traceback(None))
            out[ordering] = (basis_set, achieved, dials)
        return out

    def run_round(self, k: int, tracer) -> Round:
        outputs, latencies = [], []
        t_round = perf_counter()
        for (_, rho, _), r_c in zip(self.states, self.rates):
            if tracer is not None:
                tracer.next_op()
            t0 = perf_counter()
            outputs.append(self.evaluate(rho, r_c))
            latencies.append((perf_counter() - t0) * 1e3)
        seconds = perf_counter() - t_round
        failed = sum(any(isinstance(v, Exception) for v in _flatten(out)) for out in outputs)
        return Round(ops=len(self.states), failed=failed, seconds=seconds,
                     latencies_ms=latencies, payload=(k, outputs))

    def check_round(self, rnd: Round) -> None:
        k, outputs = rnd.payload
        failing = []
        for i, ((kind, _, _), r_c, (s, q, tensor), out) in enumerate(
                zip(self.states, self.rates, self.refs(), outputs)):
            qkd = out["qkd"]
            if isinstance(qkd, Exception):
                if kind == "pure" and isinstance(qkd, ValueError) \
                        and str(qkd).startswith(self.expected_fault):
                    failing.append(i)
                else:
                    self.fail(f"round {k}: state {i} ({kind}): unexpected {qkd!r}")
            else:
                r_dw = oracle.devetak_winter(s, q)
                if not (_close(qkd.s, s) and _close(qkd.q, q) and _close(qkd.r_dw, r_dw, 1e-8)
                        and qkd.r_c == r_c and _close(qkd.r_key, qkd.r_dw * r_c)):
                    self.fail(f"round {k}: state {i} ({kind}): S, Q, r_dw = {qkd.s}, {qkd.q}, "
                              f"{qkd.r_dw} vs oracle {s}, {q}, {r_dw}")
            for ordering in bases.ORDERINGS:
                res = out[ordering]
                if isinstance(res, Exception):
                    self.fail(f"round {k}: state {i} ({kind}) {ordering}: {res!r}")
                    continue
                basis_set, achieved, dials = res
                vecs = [vec for _, vec in basis_set.labeled()]
                s_b, q_b = oracle.chsh_of_bases(tensor, *vecs,
                                                alice_first=ordering == "alice_first")
                if isinstance(achieved, Exception) or not (
                        _close(achieved[0], s) and _close(achieved[1], q)
                        and _close(s_b, s) and _close(q_b, q)):
                    self.fail(f"round {k}: state {i} ({kind}) {ordering}: bases give "
                              f"{achieved}, oracle on the bases {s_b}, {q_b}, want {s}, {q}")
                for vec, dial in zip(vecs, dials):
                    if isinstance(dial, Exception) or not self._dial_ok(vec, dial):
                        self.fail(f"round {k}: state {i} ({kind}) {ordering}: dials {dial} "
                                  f"miss the projector of {vec}")
        if self.failing is None:
            self.failing = failing
        elif failing != self.failing:
            self.fail(f"round {k}: failing states {failing} differ from round 0 {self.failing}")


def _flatten(out: dict):
    for value in out.values():
        if isinstance(value, tuple):
            _, achieved, dials = value
            yield achieved
            yield from dials
        else:
            yield value


WORKLOADS = {cls.name: cls for cls in (McReport, GainSweep, StateEval)}
