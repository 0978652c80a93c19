"""Show that the benchmark's checks catch small errors in the program's outputs.

    python3 bench/selfcheck.py

Runs one round of each workload, confirms that the unmodified outputs
pass every check, then applies one perturbation at a time to a copy of
the outputs (S off by 1e-6, a reconstruction stopped after 20
iterations, a waveplate dial off by 1e-6 rad, ...) and confirms that
each is caught.  Exits 1 if any perturbation passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from entqkd import bases, tomography  # noqa: E402


def _edit_json(raw: bytes, edit) -> bytes:
    obj = json.loads(raw)
    edit(obj)
    return json.dumps(obj).encode()


def _edit_csv(text: str, row: int, col: int, edit) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = repr(edit(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def mc_report_mutations(settings):
    def report(edit):
        def mutate(rnd):
            k, code, raw = rnd.payload
            rnd.payload = (k, code, _edit_json(raw, edit))
        return mutate

    def early_stop(rnd):
        freqs, _ = rnd.mle_log[5]
        rnd.mle_log[5] = (freqs, tomography.mle_reconstruct(freqs, settings, max_iterations=20))

    return {
        "report S + 1e-6": report(
            lambda r: r["metrics"].__setitem__("S", r["metrics"]["S"] + 1e-6)),
        "report r_c x (1 + 1e-9)": report(
            lambda r: r["metrics"].__setitem__("r_c", r["metrics"]["r_c"] * (1 + 1e-9))),
        "MC mean of S + 1e-6": report(lambda r: r["uncertainty"]["S"].__setitem__(
            "mean", r["uncertainty"]["S"]["mean"] + 1e-6)),
        "basis A1 rotated by 1e-6": report(
            lambda r: r["bases"]["settings"][1]["bloch"].__setitem__(
                0, r["bases"]["settings"][1]["bloch"][0] + 1e-6)),
        "one MC reconstruction stopped after 20 iterations": early_stop,
    }


def state_eval_mutations(workload, rnd):
    first = next(i for i, out in enumerate(rnd.payload[1])
                 if not isinstance(out["qkd"], Exception))
    werner = next(i for i, (kind, _, _) in enumerate(workload.states) if kind == "werner")

    def output(i, edit):
        def mutate(rnd):
            edit(rnd.payload[1][i])
        return mutate

    def shift_dial(out):
        basis_set, achieved, dials = out["alice_first"]
        dials[2] = bases.WaveplateSetting(theta_q=dials[2].theta_q, theta_h=dials[2].theta_h + 1e-6)

    def shift_verify(out):
        basis_set, (s, q), dials = out["bob_first"]
        out["bob_first"] = (basis_set, (s + 1e-6, q), dials)

    return {
        "from_state S + 1e-6": output(first, lambda out: out.__setitem__(
            "qkd", dataclasses.replace(out["qkd"], s=out["qkd"].s + 1e-6))),
        "from_state Q + 1e-9": output(first, lambda out: out.__setitem__(
            "qkd", dataclasses.replace(out["qkd"], q=out["qkd"].q + 1e-9))),
        "waveplate dial off by 1e-6 rad": output(first, shift_dial),
        "verify_bases S + 1e-6 (bob_first)": output(first, shift_verify),
        "qber_min fault on a Werner state": output(werner, lambda out: out.__setitem__(
            "qkd", ValueError("QBER must lie in [0, 0.5], got -1e-16"))),
    }


def gain_sweep_mutations():
    def file(name, row, col, edit):
        def mutate(rnd):
            rnd.payload[2][name] = _edit_csv(rnd.payload[2][name], row, col, edit)
        return mutate

    def optimum(rnd):
        files = rnd.payload[2]
        files["optimize_0.json"] = _edit_json(
            files["optimize_0.json"].encode(),
            lambda r: r.__setitem__("n_bar_opt", r["n_bar_opt"] + 5e-6)).decode()

    def table(rnd):
        k, results, files = rnd.payload
        code, text = results[-1]
        results[-1] = (code, text.replace("20/20", "19/20"))

    return {
        "closed-form kappa x (1 + 1e-6)": file("spdc_ideal.csv", 10, 1, lambda v: v * (1 + 1e-6)),
        "surrogate S + 1e-6": file("spdc_model.csv", 20, 2, lambda v: v + 1e-6),
        "model r_c x (1 + 1e-6)": file("mixed.csv", 5, 5, lambda v: v * (1 + 1e-6)),
        "threshold r_c x (1 + 1e-6)": file("thresholds.csv", 1, 1, lambda v: v * (1 + 1e-6)),
        "optimum n_bar + 5e-6": optimum,
        "table-check 19/20": table,
    }


def main() -> int:
    missed = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        recorder = workloads.MleRecorder()
        for cls in (workloads.McReport, workloads.GainSweep, workloads.StateEval):
            workdir = Path(tmp) / cls.name
            workdir.mkdir()
            workload = cls(seed=1, workdir=workdir, recorder=recorder)
            workload.prepare()
            rnd = workload.run_round(0, None)
            workload.check_round(rnd)
            if workload.errors:
                print(f"{cls.name}: unmodified outputs fail: {workload.errors[:3]}")
                return 1
            if cls is workloads.McReport:
                mutations = mc_report_mutations(tomography.TomographySettings.canonical())
            elif cls is workloads.GainSweep:
                mutations = gain_sweep_mutations()
            else:
                mutations = state_eval_mutations(workload, rnd)
            for label, mutate in mutations.items():
                bad = copy.deepcopy(rnd)
                mutate(bad)
                workload.check_round(bad)
                caught = bool(workload.errors)
                print(f"{cls.name}: {label}: {'caught' if caught else 'MISSED'}")
                if not caught:
                    missed.append(f"{cls.name}: {label}")
                workload.errors.clear()
            if cls is workloads.McReport:
                k, raw = workload.last
                workload.last = (k, raw + b" ")
                workload.finish()
                print(f"mc_report: report differs from its repeat: "
                      f"{'caught' if workload.errors else 'MISSED'}")
                if not workload.errors:
                    missed.append("mc_report: determinism")
    print(f"{len(missed)} perturbations missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
