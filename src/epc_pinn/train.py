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

Before any fold trains, every fold's test rows are checked to be
scorable: a target or the measured energy that takes one value there
would leave its R^2 undefined. The fold reports and their aggregate are
the metrics dicts that results.json holds; the final-training and
best-validation loss summaries are computed when the payload is built.

The loss inputs are derived once per fold, training rows then validation
rows. Each epoch runs one forward pass per batch, then one over the
validation rows, whose loss is computed without gradient.

Everything is deterministic given the config seed: the fold partition,
the per-fold splits, initialization and batch shuffling all derive their
seeds from (seed, fold index, stream index).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import JsonConfig
from .data import MinMaxScaler, TrainingArrays, kfold_split, train_val_split
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
    AdamState,
    EarlyStopState,
    MlpModel,
    adam_step,
    backward,
    forward,
    init_model,
    atomic_write,
    save_checkpoint,
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
class TrainHistory:
    """Per-epoch traces; list lengths equal the number of epochs run."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    stop_epoch: int = 0
    best_val_loss: float = np.inf
    best_epoch: int = -1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class FoldResult:
    fold_index: int
    model: MlpModel
    input_scaler: MinMaxScaler
    target_scaler: MinMaxScaler
    energy_scaler: MinMaxScaler
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


def predict_physical(
    model: MlpModel,
    input_scaler: MinMaxScaler,
    target_scaler: MinMaxScaler,
    features: np.ndarray,
) -> np.ndarray:
    """Scaled forward pass mapped back to clamped physical units, (n, 12)."""
    scaled, _ = forward(model, input_scaler.transform(np.atleast_2d(features)))
    return np.maximum(target_scaler.inverse_transform(scaled), 0.0)


def reconstruct_energy(
    states_physical: np.ndarray,
    useful_area: np.ndarray,
    building_types: list[str],
    consts: PhysicsConstants,
) -> np.ndarray:
    """Annual energy for clamped physical state rows, (n,)."""
    taus = np.array([consts.time_constant_for(t) for t in building_types])
    return energy_consumption_batch(
        states_physical, np.asarray(useful_area, dtype=float), taus, consts
    ).energy_consumption


def check_loss_is_finite(arrays: TrainingArrays, config: TrainConfig) -> None:
    """Raise DataError naming the first building if the loss, with its
    gradient, is not finite at the cohort's audit targets under scalers
    fitted on the whole cohort; no numpy warning is raised."""
    target_scaler = MinMaxScaler().fit(arrays.targets)
    energy_scaler = MinMaxScaler().fit(arrays.measured_energy)
    z = target_scaler.transform(arrays.targets)
    measured = energy_scaler.transform(arrays.measured_energy)
    taus = np.array([config.constants.time_constant_for(t) for t in arrays.building_types])
    try:
        with np.errstate(all="ignore"):
            enhanced_loss(z, z, arrays.useful_area, taus, measured, target_scaler,
                          energy_scaler, config.constants, config.physics_weight)
    except TrainingError as exc:
        raise DataError(f"the training loss at the audit targets is not finite for building "
                        f"{arrays.cadastre_numbers[exc.row]}") from None


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

    input_scaler = MinMaxScaler().fit(arrays.features[train_idx])
    target_scaler = MinMaxScaler().fit(arrays.targets[train_idx])
    energy_scaler = MinMaxScaler().fit(arrays.measured_energy[train_idx])

    building_types = np.array(arrays.building_types)
    n_train = train_idx.shape[0]
    fit_idx = np.concatenate([train_idx, val_idx])
    x_fit = input_scaler.transform(arrays.features[fit_idx])
    z_fit = target_scaler.transform(arrays.targets[fit_idx])
    areas = arrays.useful_area[fit_idx]
    taus = np.array([config.constants.time_constant_for(t) for t in building_types[fit_idx]])
    measured = energy_scaler.transform(arrays.measured_energy[fit_idx])

    def loss_at(pred, rows, with_gradient=True):
        return enhanced_loss(
            predictions_scaled=pred,
            targets_scaled=z_fit[rows],
            useful_area=areas[rows],
            time_constants=taus[rows],
            measured_scaled=measured[rows],
            target_scaler=target_scaler,
            energy_scaler=energy_scaler,
            consts=config.constants,
            physics_weight=config.physics_weight,
            with_gradient=with_gradient,
        )

    model = init_model((arrays.features.shape[1], *config.hidden_dims, STATE_DIM), init_seed)
    optimizer = AdamState(learning_rate=config.learning_rate)
    stopper = EarlyStopState(patience=config.early_stop_patience,
                             lr_patience=config.scheduler_patience,
                             lr_factor=config.scheduler_factor, min_lr=config.min_lr)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    history = TrainHistory()
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
            train_loss = weighted / n_train

            val_pred, _ = forward(model, x_fit[n_train:])
            val_loss = loss_at(val_pred, np.s_[n_train:], with_gradient=False).total

            stop = stopper.step(val_loss, model, epoch, optimizer)
            history.train_loss.append(float(train_loss))
            history.val_loss.append(float(val_loss))
            history.learning_rate.append(float(optimizer.learning_rate))
            if stop:
                break
    except TrainingError as exc:
        raise TrainingError(f"fold {fold_index}: {exc}") from exc

    stopper.restore_best(model)
    history.stop_epoch = len(history.train_loss)
    history.best_val_loss = float(stopper.best)
    history.best_epoch = stopper.best_epoch

    predictions = predict_physical(
        model, input_scaler, target_scaler, arrays.features[test_indices]
    )
    energy = reconstruct_energy(
        predictions,
        arrays.useful_area[test_indices],
        list(building_types[test_indices]),
        config.constants,
    )
    report = fold_report(
        arrays.targets[test_indices],
        predictions,
        arrays.measured_energy[test_indices],
        energy,
    )
    return FoldResult(
        fold_index=fold_index,
        model=model,
        input_scaler=input_scaler,
        target_scaler=target_scaler,
        energy_scaler=energy_scaler,
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


def cross_validate(
    arrays: TrainingArrays, config: TrainConfig, max_workers: int = 1
) -> CrossValidationResult:
    """Check every fold's test rows are scorable, run all folds
    (optionally in parallel threads) and aggregate their reports.

    Parallel folds run OpenBLAS single-threaded, since fold threads are
    the one source of parallelism. The fold partition, and therefore
    every result, depends only on the data and the config seed, never on
    max_workers.
    """
    # Each test fold needs two rows, or its R^2 is undefined.
    if arrays.n < 2 * config.k_folds:
        raise ConfigError(
            f"need at least 2 * k_folds = {2 * config.k_folds} samples, got {arrays.n}"
        )
    folds = kfold_split(arrays.n, config.k_folds, seed=config.seed)
    for i, test_indices in enumerate(folds):
        check_scorable(arrays.targets[test_indices], arrays.measured_energy[test_indices],
                       f"fold {i}")
    if max_workers > 1:
        with _single_threaded_blas():
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                futures = [
                    pool.submit(train_fold, arrays, test_indices, config, i)
                    for i, test_indices in enumerate(folds)
                ]
                # After the first failure, or an interrupt, drop the folds
                # still queued instead of training them, then raise the
                # interrupt or the failure of the lowest fold that ran.
                try:
                    wait(futures, return_when=FIRST_EXCEPTION)
                finally:
                    for f in futures:
                        f.cancel()
                results = [f.result() for f in futures if not f.cancelled()]
    else:
        results = [
            train_fold(arrays, test_indices, config, i)
            for i, test_indices in enumerate(folds)
        ]
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
                "fold": r.fold_index,
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
        checkpoint_path = out_dir / f"fold_{r.fold_index:02d}.json"
        save_checkpoint(
            r.model,
            checkpoint_path,
            extra={
                "fold": r.fold_index,
                "input_scaler": r.input_scaler.to_dict(),
                "target_scaler": r.target_scaler.to_dict(),
                "energy_scaler": r.energy_scaler.to_dict(),
                "constants": config.constants.to_dict(),
            },
        )
        paths[f"fold_{r.fold_index:02d}"] = checkpoint_path
    return paths
