#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a tiny cohort (40 buildings, 4 folds, 16-unit hidden layers, 5
epochs) through the same calls the workloads make: generate, train,
evaluate and predict. All checks must pass on these outputs. Then, case by
case, one output value is corrupted and the check that covers it must
fail. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import checks as c
import run


def corrupt(value: float) -> float:
    """A change far above the 1e-9 agreement the checks demand, also on a
    zero-floored value."""
    return value + 1e-4 * (abs(value) + 1.0)


def main() -> int:
    cli = run.import_cli()
    workload = run.Workload("selftest", 40, 1,
                            {"k_folds": 4, "max_epochs": 5, "hidden_dims": [16, 16]},
                            evaluates=2, predicts=5, epoch_cap_binds=True)
    work = run.OUT / f"selftest-{os.getpid()}"
    bench = run.Bench(cli, workload, seed=0, work=work)
    try:
        with bench.capture:
            for index in range(2):
                bench.round(index)
        if bench.failed:
            print(f"selftest: {bench.failed} program calls failed")
            return 1
        run.check_outputs(bench)
        print("selftest: all checks pass on uncorrupted outputs")
        setup = bench.setup_done
        return run_cases(bench.rec, bench.cohort, setup.run_dir, setup.checkpoint)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_cases(rec, cohort, run_dir, checkpoint) -> int:
    states, energy = rec.evaluate_rows
    outputs = {n: json.loads(text) for n, text in rec.predict_outputs.items()}
    first = next(iter(outputs))
    cap = 5

    def results_with(edit):
        results = copy.deepcopy(rec.results)
        edit(results)
        return results

    def folds_with(edit):
        folds = copy.deepcopy(rec.folds)
        edit(folds)
        return folds

    def set_item(target, key, value):
        target[key] = value

    agg = lambda r: r["aggregate"]["variables"]["energy_consumption"]  # noqa: E731
    fold0 = lambda r: r["folds"][0]["metrics"]["energy_consumption"]  # noqa: E731

    def swap_index(r):
        r["folds"][0]["test_indices"][0] = r["folds"][1]["test_indices"][0]

    def bump_array(a, index):
        a[index] = corrupt(a[index])

    def predict_with(path, key):
        out = copy.deepcopy(outputs)
        target = out[first]
        for part in path:
            target = target[part]
        target[key] = corrupt(target[key])
        return out

    cases = [
        ("fold test sets cover every building once",
         lambda: c.check_fold_cover(results_with(swap_index), cohort.n)),
        ("checkpoint reproduces a fold's test predictions",
         lambda: c.check_fold_predictions(cohort, run_dir, rec.results, folds_with(
             lambda f: bump_array(f[0].predictions_physical, (0, 2))))),
        ("fold reconstructed energy equals the oracle",
         lambda: c.check_fold_predictions(cohort, run_dir, rec.results, folds_with(
             lambda f: bump_array(f[0].reconstructed_energy, 0)))),
        ("fold energy R2 matches numpy",
         lambda: c.check_fold_predictions(cohort, run_dir, results_with(
             lambda r: set_item(fold0(r), "r_squared", corrupt(fold0(r)["r_squared"]))),
             rec.folds)),
        ("aggregate energy NRMSE matches numpy",
         lambda: c.check_fold_predictions(cohort, run_dir, results_with(
             lambda r: set_item(agg(r)["nrmse"], "mean", corrupt(agg(r)["nrmse"]["mean"]))),
             rec.folds)),
        ("every fold reaches the epoch cap",
         lambda: c.check_epochs(results_with(
             lambda r: set_item(r["folds"][0]["history"], "stop_epoch", cap - 1)), cap)),
        ("criterion 07 R2 bar", lambda: c.check_bar(0.849, 0.05)),
        ("criterion 07 NRMSE bar", lambda: c.check_bar(0.95, 0.101)),
        ("identical calls give identical output",
         lambda: c.check_repeatable("results.json", [rec.results_hashes[0], "0" * 64])),
        ("evaluate states match the checkpoint",
         lambda: c.check_evaluate(cohort, checkpoint, _bumped(states, (3, 1)), energy,
                                  rec.evaluate_report)),
        ("evaluate energy equals the oracle",
         lambda: c.check_evaluate(cohort, checkpoint, states, _bumped(energy, 3),
                                  rec.evaluate_report)),
        ("evaluate energy R2 matches numpy",
         lambda: c.check_evaluate(cohort, checkpoint, states, energy, _report_with(
             rec.evaluate_report, "r_squared"))),
        ("evaluate energy NRMSE matches numpy",
         lambda: c.check_evaluate(cohort, checkpoint, states, energy, _report_with(
             rec.evaluate_report, "nrmse"))),
        ("predict state equals the evaluate row",
         lambda: c.check_predictions(cohort, checkpoint, states, energy,
                                     predict_with(("state", "u_values"), "Walls"))),
        ("predict energy equals the evaluate row and the oracle",
         lambda: c.check_predictions(cohort, checkpoint, states, energy,
                                     predict_with(("breakdown",), "energy_consumption"))),
    ]
    bad = 0
    for name, case in cases:
        try:
            case()
        except c.CheckFailed as exc:
            print(f"selftest: ok, caught: {name}: {exc}")
        else:
            bad += 1
            print(f"selftest: MISSED: {name}")
    print(f"selftest: {len(cases) - bad} of {len(cases)} corruptions caught")
    return 1 if bad else 0


def _bumped(array, index):
    out = array.copy()
    out[index] = corrupt(out[index])
    return out


def _report_with(report, key):
    out = copy.deepcopy(report)
    out["energy_consumption"][key] = corrupt(out["energy_consumption"][key])
    return out


if __name__ == "__main__":
    sys.exit(main())
