"""Spans around the calls into each epc-pinn layer, and the per-layer
metrics derived from them.

Nothing in the program changes. A Tracer replaces the module attributes
that epc-pinn's own callers look up at call time (for example
epc_pinn.train.forward, which train_fold calls) with wrappers that record
one span per call: name, thread, start, end and parent, the parent being
the span open on the same thread when the call began. Spans of fold
threads therefore start without a parent. Spans stay in memory; the run
writes them out when it ends. Removing the wrappers restores the
original attributes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int | None
    amount: int  # rows or bytes for layers that have such a count, else 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rows(arg) -> int:
    shape = getattr(arg, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) > 1 else 1


# (span name, attributes wrapped as "module:attribute", count of the call)
TARGETS = (
    ("synth.generate_cohort", ("synth:generate_cohort",), None),
    ("physics.energy_consumption", ("synth:energy_consumption", "cli:energy_consumption"), None),
    ("physics.energy_consumption_batch",
     ("loss:energy_consumption_batch", "train:energy_consumption_batch"),
     lambda a, k, r: _rows(a[0] if a else k["states"])),
    ("data.load_cohort", ("data:load_cohort",), None),
    ("data.load_dataset", ("data:load_dataset",), lambda a, k, r: len(r)),
    ("data.join_on_cadastre", ("data:join_on_cadastre",), None),
    ("data.build_matrices", ("data:build_matrices",), None),
    ("train.cross_validate", ("cli:cross_validate",), None),
    ("train.train_fold", ("train:train_fold",), None),
    ("nn.forward", ("train:forward",), lambda a, k, r: _rows(a[1])),
    ("nn.backward", ("train:backward",), lambda a, k, r: _rows(a[2])),
    ("nn.adam_step", ("train:adam_step",), None),
    ("nn.EarlyStopState.step", ("nn:EarlyStopState.step",), None),
    ("loss.enhanced_loss", ("train:enhanced_loss",),
     lambda a, k, r: _rows(k["predictions_scaled"] if "predictions_scaled" in k else a[0])),
    ("train.predict_physical", ("cli:predict_physical", "train:predict_physical"), None),
    ("train.reconstruct_energy", ("cli:reconstruct_energy", "train:reconstruct_energy"), None),
    ("metrics.fold_report", ("cli:fold_report", "train:fold_report"), None),
    ("train.save_run_outputs", ("cli:save_run_outputs",), None),
    ("nn.save_checkpoint", ("train:save_checkpoint",),
     lambda a, k, r: os.path.getsize(a[1] if len(a) > 1 else k["path"])),
    ("nn.load_checkpoint", ("cli:load_checkpoint",), None),
    ("cli.cmd_generate", ("cli:cmd_generate",), None),
    ("cli.cmd_train", ("cli:cmd_train",), None),
    ("cli.cmd_evaluate", ("cli:cmd_evaluate",), None),
    ("cli.cmd_predict", ("cli:cmd_predict",), None),
)


def _owner(target: str):
    module, _, attr = target.partition(":")
    owner = importlib.import_module(f"epc_pinn.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                amount = count(args, kwargs, result) if done and count else 0
                tracer.spans.append(Span(span_id, name, threading.get_ident(),
                                         start, end, parent, amount))

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, targets, count in TARGETS:
            for target in targets:
                owner, attr = _owner(target)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
        t["calls"] += 1
        t["s"] += span.seconds
        t["self_s"] += span.seconds - child_time.get(span.id, 0.0)
        t["amount"] += span.amount
    return totals


# Per-layer metrics: (metric name, span name, field of the totals, unit).
LAYER_METRICS = (
    ("synth.generate_cohort.s", "synth.generate_cohort", "s", "s"),
    ("physics.energy_consumption.calls", "physics.energy_consumption", "calls", "count"),
    ("physics.energy_consumption.s", "physics.energy_consumption", "s", "s"),
    ("physics.energy_consumption_batch.calls", "physics.energy_consumption_batch", "calls", "count"),
    ("physics.energy_consumption_batch.rows", "physics.energy_consumption_batch", "amount", "count"),
    ("physics.energy_consumption_batch.s", "physics.energy_consumption_batch", "s", "s"),
    ("data.load_dataset.rows", "data.load_dataset", "amount", "count"),
    ("data.load_dataset.s", "data.load_dataset", "s", "s"),
    ("data.join_on_cadastre.s", "data.join_on_cadastre", "s", "s"),
    ("data.build_matrices.s", "data.build_matrices", "s", "s"),
    ("nn.forward.calls", "nn.forward", "calls", "count"),
    ("nn.forward.rows", "nn.forward", "amount", "count"),
    ("nn.forward.s", "nn.forward", "s", "s"),
    ("nn.backward.calls", "nn.backward", "calls", "count"),
    ("nn.backward.s", "nn.backward", "s", "s"),
    ("nn.adam_step.calls", "nn.adam_step", "calls", "count"),
    ("nn.adam_step.s", "nn.adam_step", "s", "s"),
    ("nn.EarlyStopState.step.calls", "nn.EarlyStopState.step", "calls", "count"),
    ("nn.EarlyStopState.step.s", "nn.EarlyStopState.step", "s", "s"),
    ("loss.enhanced_loss.calls", "loss.enhanced_loss", "calls", "count"),
    ("loss.enhanced_loss.rows", "loss.enhanced_loss", "amount", "count"),
    ("loss.enhanced_loss.self_s", "loss.enhanced_loss", "self_s", "s"),
    ("train.train_fold.calls", "train.train_fold", "calls", "count"),
    ("train.train_fold.s", "train.train_fold", "s", "s"),
    ("train.train_fold.self_s", "train.train_fold", "self_s", "s"),
    ("train.epochs", "nn.EarlyStopState.step", "calls", "count"),
    ("train.update_rows", "nn.backward", "amount", "count"),
    ("nn.save_checkpoint.calls", "nn.save_checkpoint", "calls", "count"),
    ("nn.save_checkpoint.bytes", "nn.save_checkpoint", "amount", "bytes"),
    ("nn.save_checkpoint.s", "nn.save_checkpoint", "s", "s"),
    ("train.save_run_outputs.s", "train.save_run_outputs", "s", "s"),
    ("nn.load_checkpoint.calls", "nn.load_checkpoint", "calls", "count"),
    ("nn.load_checkpoint.s", "nn.load_checkpoint", "s", "s"),
    ("cli.cmd_predict.self_s", "cli.cmd_predict", "self_s", "s"),
    ("train.predict_physical.s", "train.predict_physical", "s", "s"),
    ("train.reconstruct_energy.s", "train.reconstruct_energy", "s", "s"),
    ("metrics.fold_report.s", "metrics.fold_report", "s", "s"),
    ("cli.cmd_evaluate.self_s", "cli.cmd_evaluate", "self_s", "s"),
)


def layer_metrics(parts: list[tuple[list[Span], float]]) -> dict[str, dict]:
    """Per-layer metrics over weighted span sets.

    Each part is (spans, weight); a part holding n traced rounds gets
    weight 1/n, so every figure describes one set-up plus one round of
    the workload. Busy times add up across fold threads.
    """
    combined: dict[str, dict[str, float]] = {}
    for spans, weight in parts:
        for name, t in _totals(spans).items():
            c = combined.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
            for key, value in t.items():
                c[key] += value * weight
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0}
    metrics = {}
    for metric, span_name, field, unit in LAYER_METRICS:
        value = combined.get(span_name, empty)[field]
        if unit in ("count", "bytes"):
            value = round(value, 6)
        metrics[metric] = {"value": value, "unit": unit}
    folds = combined.get("train.train_fold", empty)["s"]
    wall = combined.get("train.cross_validate", empty)["s"]
    metrics["train.fold_parallelism"] = {"value": folds / wall if wall else 0.0,
                                         "unit": "ratio"}
    return metrics


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]
