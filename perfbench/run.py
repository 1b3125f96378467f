#!/usr/bin/env python3
"""epc-pinn benchmark: run one workload in this process, print one JSON line.

    python3 perfbench/run.py --workload cv1000-t2 --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; epc-pinn is imported from ./src. Every
program call goes through epc_pinn.cli.main in this process, as
`epc-pinn <command>` would run it, with its output captured. The last line
of standard output is {"correct", "attempted", "failed", "metrics"}:
--trace 0 gives the end-to-end metrics, with every timing scaled to the
reference box's speed (speed.py); --trace 1 the per-layer metrics of a
separate traced run, whose spans go to .perfbench-out/. Workloads, seeds
and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

COHORT_SEED = 2024  # criterion 07's generator seed, shared by every training cohort
HELDOUT_SEED = 2025  # score5k's held-out cohort
TRAIN_SEED = 0
SETUPS = 3  # score5k set-ups per run; setup_s is their median
PREDICT_BUILDINGS = 100  # distinct buildings in the predict stream

# The timed end-to-end metrics and their units; each is the median over the
# run's calls, scaled to the reference speed (speed.py).
TIMED = {"setup_s": "s", "train_wall_s": "s", "train_rows_per_s": "1/s",
         "evaluate_buildings_per_s": "1/s", "predict_p50_ms": "ms"}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # buildings in the training cohort
    fold_threads: int  # EPC_PINN_THREADS for `train`
    train: dict  # the config file's "train" section
    evaluates: int  # evaluate calls per round
    predicts: int  # predict calls per round, after the evaluates
    heldout: int = 0  # score a held-out cohort of this size; 0: score the training cohort
    epoch_cap_binds: bool = False  # checked: every fold runs to max_epochs
    criterion_07: bool = False  # checked: energy R2 >= 0.85, NRMSE <= 0.10


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv1000-t2", 1000, 2, {"max_epochs": 12}, evaluates=3, predicts=40,
                 epoch_cap_binds=True, criterion_07=True),
        Workload("riga256-t1", 256, 1, {"max_epochs": 60}, evaluates=3, predicts=20),
        Workload("score5k", 256, 1, {"max_epochs": 60}, evaluates=1, predicts=100,
                 heldout=5000),
    )
}


def import_cli():
    src = ROOT / "src"
    if not (src / "epc_pinn" / "cli.py").is_file():
        sys.exit(f"perfbench: no epc-pinn sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    from epc_pinn import cli

    return cli


def blas_threads() -> int | None:
    """OpenBLAS's thread count as this process sees it (numpy's bundled
    scipy-openblas), or None where that library is not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Capture:
    """Keeps the last value returned by the cli-level calls whose results
    the checks need but the commands do not write out: the cross-validation
    result of `train` and the batch states and energies of `evaluate`.
    One extra Python frame per call; no timing."""

    NAMES = ("cross_validate", "predict_physical", "reconstruct_energy")

    def __init__(self, cli) -> None:
        self.cli = cli
        self.last: dict[str, object] = {}
        self._saved = {name: getattr(cli, name) for name in self.NAMES}

    def __enter__(self) -> "Capture":
        for name, fn in self._saved.items():
            setattr(self.cli, name, self._keep(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(self.cli, name, fn)

    def _keep(self, name, fn):
        def wrapper(*args, **kwargs):
            result = self.last[name] = fn(*args, **kwargs)
            return result

        return wrapper


@dataclass
class Setup:
    base: Path
    cohort: Path  # training cohort
    config: Path
    scored: Path  # cohort that evaluate and predict score
    run_dir: Path  # where `train` writes; fold_00.json is the scored checkpoint

    @property
    def checkpoint(self) -> Path:
        return self.run_dir / "fold_00.json"


@dataclass
class FoldOutput:
    """What the checks need of one fold of the last `train`; the rest of
    the cross-validation result, models included, is dropped at once."""

    predictions_physical: np.ndarray
    reconstructed_energy: np.ndarray


@dataclass
class Record:
    """Everything the run measured, plus the outputs the checks need."""

    # end-to-end metric -> (spans, measured value) per sample; the spans are
    # the (start, end) of the program calls the value was measured over
    timings: dict[str, list[tuple[list, float]]] = field(default_factory=dict)
    cohort_hashes: list[str] = field(default_factory=list)
    results_hashes: list[str] = field(default_factory=list)
    results: dict | None = None
    folds: list[FoldOutput] | None = None
    evaluate_hashes: list[str] = field(default_factory=list)
    evaluate_report: dict | None = None
    evaluate_rows: tuple | None = None  # (states, energy) of the last evaluate
    predict_outputs: dict[str, str] = field(default_factory=dict)  # first output per building
    predict_digests: dict[str, set[str]] = field(default_factory=dict)  # distinct outputs

    def time(self, metric: str, spans: list, value: float) -> None:
        self.timings.setdefault(metric, []).append((spans, value))

    def values(self, metric: str) -> list[float]:
        return [value for _, value in self.timings.get(metric, [])]


class Bench:
    def __init__(self, cli, workload: Workload, seed: int, work: Path) -> None:
        self.cli = cli
        self.w = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.capture = Capture(cli)
        self.rec = Record()
        self.meter = speed.Meter()
        self.tracing = False
        self.setup_done: Setup | None = None  # the latest set-up
        self.cohort = None  # checks.Cohort of the training cohort
        self.scored = None  # checks.Cohort of the scored cohort
        self.buildings: list[tuple[str, Path]] = []

    def call(self, *argv: str) -> tuple[float, float, str] | None:
        """Run `epc-pinn argv` in process; (start, end, stdout), or None if
        it exited non-zero."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        end = time.perf_counter()
        if code != 0:
            self.failed += 1
            print(f"perfbench: epc-pinn {' '.join(argv)} exited {code}: {err.getvalue().strip()}",
                  file=sys.stderr)
            return None
        return start, end, out.getvalue()

    def setup(self, index: int) -> Setup:
        """Generate the training cohort; score5k also trains its checkpoint
        and draws the held-out cohort. Timed into setup_s."""
        base = self.work / f"setup{index}"
        held = bool(self.w.heldout)
        setup = Setup(base, base / "cohort", base / "train.json",
                      base / "heldout" if held else base / "cohort",
                      base / "model" if held else base / "run")
        base.mkdir(parents=True)
        setup.config.write_text(json.dumps({"train": self.w.train}))
        spans = [self.generate(COHORT_SEED, self.w.n, setup.cohort)]
        if held:
            spans.append(self.train(setup))
            spans.append(self.generate(HELDOUT_SEED, self.w.heldout, setup.scored))
        spans = [span for span in spans if span is not None]
        self.rec.time("setup_s", spans, sum(end - start for start, end in spans))
        digest = hashlib.sha256()
        for csv_path in sorted(setup.cohort.glob("*.csv")) + sorted(setup.scored.glob("*.csv")):
            digest.update(sha(csv_path).encode())
        self.rec.cohort_hashes.append(digest.hexdigest())
        if self.setup_done is not None:
            shutil.rmtree(self.setup_done.base, ignore_errors=True)
        self.setup_done = setup
        if self.scored is None:
            self.scored = checks.read_cohort(setup.scored)
            self.cohort = checks.read_cohort(setup.cohort) if held else self.scored
            self.write_buildings(min(PREDICT_BUILDINGS, self.scored.n))
        return setup

    def generate(self, seed: int, n: int, out: Path) -> tuple[float, float] | None:
        done = self.call("generate", "--seed", str(seed), "--n", str(n), "--out", str(out))
        self.meter.sample(3)
        return done and done[:2]

    def train(self, setup: Setup) -> tuple[float, float] | None:
        os.environ["EPC_PINN_THREADS"] = str(self.w.fold_threads)
        done = self.call("train", "--config", str(setup.config), "--seed", str(TRAIN_SEED),
                         "--data", str(setup.cohort), "--out", str(setup.run_dir))
        self.meter.sample(3)
        if done is None:
            return None
        cv = self.capture.last.pop("cross_validate")
        rows = sum(len(f.train_indices) * f.history.stop_epoch for f in cv.folds)
        span = done[:2]
        start, end = span
        self.rec.time("train_wall_s", [span], end - start)
        self.rec.time("train_rows_per_s", [span], rows / (end - start))
        self.rec.folds = [FoldOutput(f.predictions_physical, f.reconstructed_energy)
                          for f in cv.folds]
        del cv
        results = setup.run_dir / "results.json"
        self.rec.results_hashes.append(sha(results))
        self.rec.results = json.loads(results.read_text())
        return span

    def score(self, setup: Setup, offset: int) -> None:
        """evaluate calls on the scored cohort, then single-building predict
        calls, each sent when the previous one has returned."""
        report = self.work / "evaluate.json"
        for _ in range(self.w.evaluates):
            done = self.call("evaluate", "--checkpoint", str(setup.checkpoint),
                             "--data", str(setup.scored), "--out", str(report))
            if done is None:
                continue
            start, end, _ = done
            self.rec.time("evaluate_buildings_per_s", [(start, end)], self.scored.n / (end - start))
            self.rec.evaluate_hashes.append(sha(report))
            self.rec.evaluate_report = json.loads(report.read_text())
            self.rec.evaluate_rows = (self.capture.last.pop("predict_physical"),
                                      self.capture.last.pop("reconstruct_energy"))
            self.meter.sample()
        for k in range(self.w.predicts):
            number, path = self.buildings[(offset + k) % len(self.buildings)]
            done = self.call("predict", "--checkpoint", str(setup.checkpoint),
                             "--building", str(path))
            if done is None:
                continue
            start, end, text = done
            if not self.tracing:
                self.rec.time("predict_p50_ms", [(start, end)], (end - start) * 1000.0)
            self.rec.predict_outputs.setdefault(number, text)
            self.rec.predict_digests.setdefault(number, set()).add(
                hashlib.sha256(text.encode()).hexdigest())
            if k % 10 == 9:
                self.meter.sample()

    def round(self, index: int) -> float:
        """One round of the workload; returns its wall time. A training
        round is a whole session: generate, train, evaluate, predict. A
        score5k round is one evaluate and the predict stream."""
        start = time.perf_counter()
        if self.w.heldout:
            self.score(self.setup_done, 0)
        else:
            setup = self.setup(index)
            self.train(setup)
            self.score(setup, index * self.w.predicts)
        return time.perf_counter() - start

    def write_buildings(self, count: int) -> None:
        """The predict stream: `count` distinct buildings of the scored
        cohort, drawn and ordered by the run's seed."""
        picks = np.random.default_rng(self.seed).choice(self.scored.n, size=count, replace=False)
        folder = self.work / "buildings"
        folder.mkdir()
        for i in picks:
            number = self.scored.cadastre[i]
            path = folder / f"{number}.json"
            path.write_text(json.dumps(self.scored.building(number)))
            self.buildings.append((number, path))


def check_outputs(bench: Bench) -> None:
    rec, setup = bench.rec, bench.setup_done
    checks.check_repeatable("generated cohort files", rec.cohort_hashes)
    checks.check_repeatable("results.json", rec.results_hashes)
    checks.check_fold_cover(rec.results, bench.cohort.n)
    checks.check_fold_predictions(bench.cohort, setup.run_dir, rec.results, rec.folds)
    energy = rec.results["aggregate"]["variables"]["energy_consumption"]
    if bench.w.epoch_cap_binds:
        checks.check_epochs(rec.results, bench.w.train["max_epochs"])
    if bench.w.criterion_07:
        checks.check_bar(energy["r_squared"]["mean"], energy["nrmse"]["mean"])
    checks.check_repeatable("evaluate --out", rec.evaluate_hashes)
    for number, digests in rec.predict_digests.items():
        checks.check_repeatable(f"predict {number} output", sorted(digests))
    states, energy_rows = rec.evaluate_rows
    checks.check_evaluate(bench.scored, setup.checkpoint, states, energy_rows, rec.evaluate_report)
    outputs = {number: json.loads(text) for number, text in rec.predict_outputs.items()}
    checks.check_predictions(bench.scored, setup.checkpoint, states, energy_rows, outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    w = WORKLOADS[args.workload]
    print(f"perfbench: {w.name} seed {args.seed} trace {args.trace}: fold threads "
          f"{w.fold_threads}, OpenBLAS threads {blas_threads()} (OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})", file=sys.stderr)
    work = OUT / f"work-{w.name}-{args.seed}-{os.getpid()}"
    bench = Bench(cli, w, args.seed, work)
    try:
        with bench.capture:
            result = run(bench, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(bench: Bench, args) -> dict:
    w, rec = bench.w, bench.rec
    tracer = tracing.Tracer() if args.trace else None

    @contextlib.contextmanager
    def traced():
        bench.tracing = True
        try:
            with tracer:
                yield
        finally:
            bench.tracing = False

    setup_spans = []
    deadline = time.perf_counter() + args.seconds
    if w.heldout:  # score5k sets up before its rounds; a training round sets up itself
        for i in range(1 if tracer else SETUPS):
            with traced() if tracer else contextlib.nullcontext():
                bench.setup(i)
        if tracer:
            setup_spans = tracer.take()

    plain_rounds, traced_rounds, round_spans = [], [], []
    index = SETUPS if w.heldout else 0
    while True:
        plain_rounds.append(bench.round(index))
        print(f"perfbench: round {index}: {plain_rounds[-1]:.3f} s", file=sys.stderr)
        index += 1
        if tracer:
            with traced():
                traced_rounds.append(bench.round(index))
            index += 1
            round_spans += tracer.take()
        if time.perf_counter() >= deadline:
            break

    correct = True
    try:
        check_outputs(bench)
    except checks.CheckFailed as exc:
        correct = False
        print(f"perfbench: check failed: {exc}", file=sys.stderr)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    if tracer:
        metrics = tracing.layer_metrics([(setup_spans, 1.0),
                                         (round_spans, 1.0 / len(traced_rounds))])
        metrics["cli.predict_p90_ms"] = metric(tracing.percentile(rec.values("predict_p50_ms"), 90),
                                               "ms")
        plain = statistics.median(plain_rounds)
        metrics["trace.untraced_s"] = metric(plain, "s")
        metrics["trace.overhead_s"] = metric(statistics.median(traced_rounds) - plain, "s")
        write_trace(args, setup_spans, round_spans)
    else:
        energy = (rec.evaluate_report["energy_consumption"] if w.heldout else
                  {k: v["mean"] for k, v in
                   rec.results["aggregate"]["variables"]["energy_consumption"].items()})
        median = statistics.median
        meter = bench.meter
        print(f"perfbench: speed kernel {meter.mean_s() * 1e3:.3f} ms mean of "
              f"{len(meter.starts)}, factor {speed.REFERENCE_S / meter.mean_s():.4f}; measured "
              + ", ".join(f"{name} {median(rec.values(name)):.6g}" for name in TIMED),
              file=sys.stderr)
        metrics = {}
        for name, unit in TIMED.items():
            # a time is scaled by the box's speed around its calls; a rate by the inverse
            scaled = [value / meter.factor(spans) if unit == "1/s" else value * meter.factor(spans)
                      for spans, value in rec.timings[name]]
            metrics[name] = metric(median(scaled), unit)
        metrics.update({
            "energy_r2": metric(energy["r_squared"], "ratio"),
            "energy_nrmse": metric(energy["nrmse"], "ratio"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB"),
        })
    return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def write_trace(args, *parts) -> None:
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans = [
        {"phase": phase, "name": s.name, "thread": s.thread, "id": s.id, "parent": s.parent,
         "start": s.start, "end": s.end, "amount": s.amount}
        for phase, spans in zip(("setup", "rounds"), parts) for s in spans
    ]
    path.write_text(json.dumps(spans))
    print(f"perfbench: {len(spans)} spans written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
