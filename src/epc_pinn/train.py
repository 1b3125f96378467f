"""Cross-validated training orchestration.

One outer k-fold split over the joined samples; within each fold the
non-test pool is split again into training and validation parts, the
three scalers (inputs, 12 targets, energy) are fitted on the training
part only, and the network trains with the two-term loss. The validation
loss drives one plateau tracker (nn.EarlyStopState), which cuts the
learning rate and stops the fold; the best snapshot is restored before
the fold's test predictions are made and scored. A fold records its
training indices, which alone fit the scalers, and which sample indices
fed parameter updates, so leakage is checkable after the fact.

cross_validate is the one gate of a training run, for the train command
and for library callers alike. Before any fold trains it checks that
every building type has a time constant, that the loss is finite at the
cohort's audit targets, that every fold has two test rows and that every
fold's test rows are scorable: a target or the measured energy that takes
one value there would leave its R^2 undefined. The fold reports and their
aggregate are the metrics dicts that results.json holds; the
final-training and best-validation loss summaries are computed when the
payload is built.

One helper, _loss_over, derives the per-row loss inputs (scaled targets,
useful areas, time constants, scaled measured energy) from a set of rows
and two scalers, so the gate scores the very loss a fold trains on. A
fold derives them once, training rows then validation rows. Each epoch
runs one forward pass per batch, then one over the validation rows, whose
loss is computed without gradient.

Everything is deterministic given the config seed: the fold partition,
the per-fold splits, initialization and batch shuffling all derive their
seeds from (seed, fold index, stream index). Folds train on min(k_folds,
CPUs the process may use) workers, the calling thread among them, so
taskset limits them; results are identical for any count. While they
train, OpenBLAS runs on one thread, however many workers there are.

A FoldResult carries its FoldCheckpoint, built once when the scalers are
fitted: the fold index, the three scalers and the physics constants. Its
TrainHistory is built once, complete, after the best snapshot is restored.
save_run_outputs writes results.json, with each fold's history,
report.txt and one checkpoint per fold, in the format that only this
module reads and writes: JSON with the layer sizes in the clear, the flat
parameters as base64 little-endian float64 bytes and the FoldCheckpoint
as "extra". load_checkpoint reads it with config.from_json in one pass,
so a malformed field is named by its key path, and checks every width.
"""

from __future__ import annotations

import base64
import ctypes
import functools
import glob
import os
import threading
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import JsonConfig, from_json
from .data import N_FEATURES, MinMaxScaler, TrainingArrays, kfold_split, train_val_split
from .errors import ConfigError, DataError, TrainingError
from .loss import enhanced_loss
from .metrics import (
    aggregate_folds,
    check_scorable,
    fold_report,
    format_report_table,
    mean_std,
)
from .nn import (
    ACTIVATION,
    AdamState,
    EarlyStopState,
    MlpModel,
    adam_step,
    atomic_write,
    backward,
    forward,
    init_model,
    parameter_total,
    read_json,
    write_json,
)
from .physics import STATE_DIM, PhysicsConstants, energy_consumption_batch


@dataclass
class TrainConfig(JsonConfig):
    k_folds: int = 10
    val_fraction: float = 0.15
    learning_rate: float = 0.001
    scheduler_patience: int = 5
    scheduler_factor: float = 0.1
    min_lr: float = 1e-7
    early_stop_patience: int = 8
    max_epochs: int = 500
    # A training part of up to batch_size rows takes one full-batch update per
    # epoch; a larger one runs in minibatches, so patience counts enough updates.
    batch_size: int = 256
    hidden_dims: tuple[int, ...] = (256, 256)
    seed: int = 0
    physics_weight: float = 1.0
    constants: PhysicsConstants = field(default_factory=PhysicsConstants)

    def __post_init__(self) -> None:
        for name, low in (("k_folds", 2), ("scheduler_patience", 1), ("early_stop_patience", 1),
                          ("max_epochs", 1), ("batch_size", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 < self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be in (0, inf), got {self.learning_rate}")
        if not 0 <= self.min_lr <= self.learning_rate:
            raise ConfigError(f"min_lr must be in [0, learning_rate {self.learning_rate}], "
                              f"got {self.min_lr}")
        if not 0 < self.scheduler_factor < 1:
            raise ConfigError(f"scheduler_factor must be in (0, 1), got {self.scheduler_factor}")
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"bad hidden_dims {self.hidden_dims}")
        if not 0 <= self.physics_weight < np.inf:
            raise ConfigError(f"physics_weight must be in [0, inf), got {self.physics_weight}")


@dataclass
class TrainHistory(JsonConfig):
    """Per-epoch traces; list lengths equal the number of epochs run."""

    train_loss: list[float]
    val_loss: list[float]
    learning_rate: list[float]
    stop_epoch: int
    best_val_loss: float
    best_epoch: int


@dataclass
class FoldCheckpoint(JsonConfig):
    """The extra payload of a fold checkpoint: what predict and evaluate
    need besides the network to score a building."""

    fold: int
    input_scaler: MinMaxScaler
    target_scaler: MinMaxScaler
    energy_scaler: MinMaxScaler
    constants: PhysicsConstants


CHECKPOINT_DTYPE = "<f8"  # little-endian float64, fixed for portability
# The values every checkpoint holds, and loading requires.
_FIXED = {"format_version": 1, "dtype": CHECKPOINT_DTYPE, "activation": ACTIVATION}


@dataclass
class _CheckpointFile:
    """A checkpoint file, as save_checkpoint writes it."""

    format_version: int
    layer_dims: tuple[int, ...]
    activation: str
    dtype: str
    parameters_b64: str
    extra: FoldCheckpoint


def save_checkpoint(model: MlpModel, path: str | Path, fold: FoldCheckpoint) -> None:
    """Write the network and its fold's FoldCheckpoint as one JSON file."""
    encoded = base64.b64encode(model.vector.astype(CHECKPOINT_DTYPE).tobytes()).decode("ascii")
    write_json(path, {**_FIXED, "layer_dims": list(model.layer_dims),
                      "parameters_b64": encoded, "extra": fold.to_dict()})


def load_checkpoint(path: str | Path) -> tuple[MlpModel, FoldCheckpoint]:
    """The network and FoldCheckpoint of a save_checkpoint file. Checked in
    order, each fault a DataError naming the file: the fields' types, the
    fixed values, layer dims, parameter encoding, byte count, finiteness,
    then the widths of the scalers, the network and the energy scaler."""
    try:
        payload = from_json(_CheckpointFile, read_json(path, "checkpoint"))
    except ConfigError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from None
    for key in ("format_version", "dtype", "activation"):
        if getattr(payload, key) != _FIXED[key]:
            raise DataError(f"checkpoint {path} has unsupported {key} {getattr(payload, key)!r}")
    dims = payload.layer_dims
    if len(dims) < 2 or min(dims) < 1:
        raise DataError(f"checkpoint {path} has invalid layer_dims {list(dims)!r}")
    try:
        raw = base64.b64decode(payload.parameters_b64, validate=True)
    except ValueError as exc:
        raise DataError(f"checkpoint {path} has corrupt parameter encoding") from exc
    needed = parameter_total(dims) * np.dtype(CHECKPOINT_DTYPE).itemsize
    if len(raw) != needed:
        raise DataError(f"checkpoint {path} holds {len(raw)} bytes of parameters, "
                        f"model needs {needed}")
    flat = np.frombuffer(raw, dtype=CHECKPOINT_DTYPE).astype(float)
    if not np.isfinite(flat).all():
        raise DataError(f"checkpoint {path} holds non-finite parameters")
    fold = payload.extra
    for name, width, expected, side in (("input_scaler", dims[0], N_FEATURES, "inputs"),
                                        ("target_scaler", dims[-1], STATE_DIM, "outputs")):
        columns = getattr(fold, name).divisor.size
        if columns != width:
            raise DataError(f"checkpoint {path}: {name} has {columns} columns, the model {width}")
        if width != expected:
            raise DataError(f"checkpoint {path}: the model has {width} {side}, expected {expected}")
    if (columns := fold.energy_scaler.divisor.size) != 1:
        raise DataError(f"checkpoint {path}: energy_scaler has {columns} columns, expected 1")
    return MlpModel(layer_dims=dims, vector=flat), fold


@dataclass(eq=False)
class FoldResult:
    model: MlpModel
    checkpoint: FoldCheckpoint  # the fold index, its scalers and the constants
    history: TrainHistory
    test_indices: np.ndarray
    train_indices: np.ndarray  # the only rows the scalers were fitted on
    val_indices: np.ndarray
    update_indices: np.ndarray  # every sample index that fed a parameter update
    predictions_physical: np.ndarray  # (n_test, 12), clamped at 0
    reconstructed_energy: np.ndarray  # (n_test,)
    report: dict  # fold_report of the test rows


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def predict_physical(model: MlpModel, fold: FoldCheckpoint, features: np.ndarray) -> np.ndarray:
    """Scaled forward pass mapped back to clamped physical units, (n, 12)."""
    scaled, _ = forward(model, fold.input_scaler.transform(np.atleast_2d(features)))
    return np.maximum(fold.target_scaler.inverse_transform(scaled), 0.0)


def reconstruct_energy(
    states_physical: np.ndarray,
    useful_area: np.ndarray,
    building_types: list[str],
    consts: PhysicsConstants,
) -> np.ndarray:
    """Annual energy for clamped physical state rows, (n,)."""
    taus = consts.time_constants_of(building_types)
    return energy_consumption_batch(
        states_physical, np.asarray(useful_area, dtype=float), taus, consts
    ).energy_consumption


def _loss_over(arrays: TrainingArrays, rows: np.ndarray, target_scaler: MinMaxScaler,
               energy_scaler: MinMaxScaler, config: TrainConfig):
    """The training loss over arrays' rows. Their scaled targets, useful
    areas, time constants and scaled measured energy are derived once; the
    returned loss_at(pred, part, with_gradient) is enhanced_loss of the
    scaled predictions pred for part of those rows (all by default).
    time_constants_of's ConfigError names an unknown building type."""
    z = target_scaler.transform(arrays.targets[rows])
    areas = arrays.useful_area[rows]
    taus = config.constants.time_constants_of(arrays.building_types)[rows]
    measured = energy_scaler.transform(arrays.measured_energy[rows])

    def loss_at(pred, part=slice(None), with_gradient=True):
        return enhanced_loss(pred, z[part], areas[part], taus[part], measured[part], target_scaler,
                             energy_scaler, config.constants, config.physics_weight, with_gradient)

    return loss_at


def _checked_folds(arrays: TrainingArrays, config: TrainConfig) -> list[np.ndarray]:
    """The k test folds of arrays, once the gate of every training run
    holds, checked in this order:

    - every building type has a time constant (time_constants_of's
      ConfigError names the first unknown type in sorted order);
    - the loss, with its gradient, is finite at the cohort's audit targets
      under scalers fitted on the whole cohort (a DataError names the
      first building; no numpy warning is raised);
    - there are two rows per fold (ConfigError), or a test fold's R^2 is
      undefined;
    - every fold's test rows are scorable (check_scorable).
    """
    target_scaler = MinMaxScaler.fit(arrays.targets)
    loss_at = _loss_over(arrays, np.arange(arrays.n), target_scaler,
                         MinMaxScaler.fit(arrays.measured_energy), config)
    try:
        loss_at(target_scaler.transform(arrays.targets))
    except TrainingError as exc:
        raise DataError(f"the training loss at the audit targets is not finite for building "
                        f"{arrays.cadastre_numbers[exc.row]}") from None
    if arrays.n < 2 * config.k_folds:
        raise ConfigError(
            f"need at least 2 * k_folds = {2 * config.k_folds} samples, got {arrays.n}"
        )
    folds = kfold_split(arrays.n, config.k_folds, seed=config.seed)
    for i, test_indices in enumerate(folds):
        check_scorable(arrays.targets[test_indices], arrays.measured_energy[test_indices],
                       f"fold {i}")
    return folds


def train_fold(
    arrays: TrainingArrays,
    test_indices: np.ndarray,
    config: TrainConfig,
    fold_index: int = 0,
) -> FoldResult:
    """Train one fold and score its test set.

    test_indices select this fold's held-out rows of arrays; the
    remaining rows form the train/validation pool.
    """
    test_indices = np.asarray(test_indices, dtype=int)
    mask = np.ones(arrays.n, dtype=bool)
    mask[test_indices] = False
    pool = np.flatnonzero(mask)
    if pool.shape[0] < 2:
        raise ConfigError(
            f"fold {fold_index}: need at least 2 non-test samples, got {pool.shape[0]}"
        )
    split_seed = _derive_seed(config.seed, fold_index, 0)
    init_seed = _derive_seed(config.seed, fold_index, 1)
    shuffle_seed = _derive_seed(config.seed, fold_index, 2)
    train_idx, val_idx = train_val_split(pool, config.val_fraction, split_seed)

    fold = FoldCheckpoint(fold_index, MinMaxScaler.fit(arrays.features[train_idx]),
                          MinMaxScaler.fit(arrays.targets[train_idx]),
                          MinMaxScaler.fit(arrays.measured_energy[train_idx]), config.constants)

    n_train = train_idx.shape[0]
    fit_idx = np.concatenate([train_idx, val_idx])
    x_fit = fold.input_scaler.transform(arrays.features[fit_idx])
    loss_at = _loss_over(arrays, fit_idx, fold.target_scaler, fold.energy_scaler, config)

    model = init_model((arrays.features.shape[1], *config.hidden_dims, STATE_DIM), init_seed)
    optimizer = AdamState(learning_rate=config.learning_rate)
    stopper = EarlyStopState(patience=config.early_stop_patience,
                             lr_patience=config.scheduler_patience,
                             lr_factor=config.scheduler_factor, min_lr=config.min_lr)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    train_losses, val_losses, learning_rates = [], [], []
    updated = np.zeros(arrays.n, dtype=bool)

    try:
        for epoch in range(config.max_epochs):
            if config.batch_size >= n_train:
                order = np.arange(n_train)
            else:
                order = shuffle_rng.permutation(n_train)
            weighted = 0.0
            for start in range(0, n_train, config.batch_size):
                rows = order[start : start + config.batch_size]
                pred, cache = forward(model, x_fit[rows])
                value = loss_at(pred, rows)
                grads = backward(model, cache, value.gradient_wrt_predictions)
                adam_step(model, grads, optimizer, context=f"epoch {epoch}")
                weighted += value.total * pred.shape[0]
                updated[train_idx[rows]] = True
                del pred, cache, value, grads  # freed before the next forward allocates
            train_loss = weighted / n_train

            val_loss = loss_at(forward(model, x_fit[n_train:])[0], np.s_[n_train:],
                               with_gradient=False).total

            stop = stopper.step(val_loss, model, epoch, optimizer)
            train_losses.append(float(train_loss))
            val_losses.append(float(val_loss))
            learning_rates.append(float(optimizer.learning_rate))
            if stop:
                break
    except TrainingError as exc:
        raise TrainingError(f"fold {fold_index}: {exc}") from exc

    stopper.restore_best(model)
    history = TrainHistory(train_losses, val_losses, learning_rates, len(train_losses),
                           float(stopper.best), stopper.best_epoch)

    predictions = predict_physical(model, fold, arrays.features[test_indices])
    energy = reconstruct_energy(predictions, arrays.useful_area[test_indices],
                                [arrays.building_types[i] for i in test_indices],
                                config.constants)
    report = fold_report(arrays.targets[test_indices], predictions,
                         arrays.measured_energy[test_indices], energy)
    return FoldResult(
        model=model,
        checkpoint=fold,
        history=history,
        test_indices=test_indices,
        train_indices=train_idx,
        val_indices=val_idx,
        update_indices=np.flatnonzero(updated),
        predictions_physical=predictions,
        reconstructed_energy=energy,
        report=report,
    )


@functools.cache
def _openblas_thread_api():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or
    None where that library or its symbols are not found."""
    pattern = os.path.join(
        os.path.dirname(np.__file__), "..", "numpy.libs", "libscipy_openblas*.so*"
    )
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


# The OpenBLAS pool is process-wide, so the count of open caps is too.
_blas_cap_lock = threading.Lock()
_blas_cap_users = 0
_blas_cap_saved = 0


@contextmanager
def _single_threaded_blas():
    """Run OpenBLAS on one thread inside the block, so fold threads do not
    each fan out over its pool; the previous count comes back on exit.
    Overlapping blocks share one cap, lifted when the last one exits."""
    global _blas_cap_users, _blas_cap_saved
    api = _openblas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    with _blas_cap_lock:
        if _blas_cap_users == 0:
            _blas_cap_saved = get()
            set_(1)
        _blas_cap_users += 1
    try:
        yield
    finally:
        with _blas_cap_lock:
            _blas_cap_users -= 1
            if _blas_cap_users == 0:
                set_(_blas_cap_saved)


@dataclass(eq=False)
class CrossValidationResult:
    folds: list[FoldResult]
    aggregate: dict  # aggregate_folds of the fold reports


def cross_validate(arrays: TrainingArrays, config: TrainConfig) -> CrossValidationResult:
    """Check the cohort, train all folds on min(k_folds, usable CPUs)
    workers (the calling thread and helper threads taking folds from one
    queue) and aggregate their reports.

    Before any fold starts, _checked_folds runs the checks of every
    training run; the train command runs none of its own between loading
    the cohort and this call.

    The folds run OpenBLAS single-threaded, however many workers there
    are. After a failure or an interrupt no queued fold starts,
    and the interrupt or the lowest failed fold is raised. Every result
    depends only on the data and the config seed, never on the workers.
    """
    folds = _checked_folds(arrays, config)
    # The CPUs the process may run on, which taskset narrows.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.k_folds, cpus or 1)
    queue, results, failures = deque(enumerate(folds)), [None] * len(folds), {}

    def drain() -> None:
        with suppress(IndexError):  # popleft on the emptied queue
            while True:
                i, test_indices = queue.popleft()
                try:
                    results[i] = train_fold(arrays, test_indices, config, i)
                except Exception as exc:
                    failures[i] = exc
                    queue.clear()

    helpers = [threading.Thread(target=drain) for _ in range(workers - 1)]
    with _single_threaded_blas():
        for helper in helpers:
            helper.start()
        try:
            drain()
        finally:
            queue.clear()  # after a failure or an interrupt no queued fold starts
            for helper in helpers:
                helper.join()
    if failures:
        raise failures[min(failures)]
    return CrossValidationResult(results, aggregate_folds([r.report for r in results]))


def results_payload(result: CrossValidationResult, config: TrainConfig) -> dict:
    """JSON-ready summary of a cross-validation run. Contains nothing
    time- or machine-dependent, so identical runs serialize identically."""
    return {
        "config": config.to_dict(),
        "aggregate": result.aggregate,
        "final_train_loss": mean_std([r.history.train_loss[-1] for r in result.folds]),
        "best_val_loss": mean_std([r.history.best_val_loss for r in result.folds]),
        "folds": [
            {
                "fold": r.checkpoint.fold,
                "test_indices": [int(i) for i in r.test_indices],
                "history": r.history.to_dict(),
                "metrics": r.report,
            }
            for r in result.folds
        ],
    }


def save_run_outputs(
    result: CrossValidationResult, config: TrainConfig, out_dir: str | Path
) -> dict[str, Path]:
    """Write results.json, report.txt and one checkpoint per fold, each
    through a temporary file, so none is ever left half written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = results_payload(result, config)
    results_path = out_dir / "results.json"
    write_json(results_path, payload)
    report_path = out_dir / "report.txt"
    final, best = payload["final_train_loss"], payload["best_val_loss"]
    with atomic_write(report_path) as handle:
        handle.write(
            format_report_table(payload["aggregate"])
            + f"\nfolds: {len(payload['folds'])}\n"
            + f"final training loss: {final['mean']:.4f} ± {final['std']:.4f}\n"
            + f"best validation loss: {best['mean']:.4f} ± {best['std']:.4f}\n"
        )
    paths = {"results": results_path, "report": report_path}
    for r in result.folds:
        name = f"fold_{r.checkpoint.fold:02d}"
        paths[name] = out_dir / f"{name}.json"
        save_checkpoint(r.model, paths[name], r.checkpoint)
    return paths
