"""Unit tests for the cross-validated training orchestration.

Small cohorts and small hidden layers keep these fast; what matters here
is the bookkeeping: deterministic splits and histories, scalers fitted on
training rows only, test rows never feeding a parameter update, the best
snapshot being restored, and byte-identical serialized results.
"""

import json
import sys
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from epc_pinn.config import from_json
from epc_pinn.data import (
    MinMaxScaler,
    TrainingArrays,
    build_matrices,
    load_cohort,
    train_val_split,
)
from epc_pinn.errors import ConfigError, DataError, TrainingError
from epc_pinn.loss import enhanced_loss
from epc_pinn.metrics import REPORT_VARIABLES
from epc_pinn.nn import (
    AdamState,
    EarlyStopState,
    adam_step,
    backward,
    forward,
    init_model,
)
from epc_pinn.physics import COMPONENTS, PhysicsConstants
from epc_pinn.synth import GeneratorConfig, generate_cohort, reference_energy
from epc_pinn import train
from epc_pinn.train import (
    TrainConfig,
    cross_validate,
    predict_physical,
    reconstruct_energy,
    results_payload,
    save_run_outputs,
    train_fold,
)


@pytest.fixture(scope="module")
def arrays(clean_cohort_dir):
    samples, _ = load_cohort(clean_cohort_dir)
    return build_matrices(samples)


def quick_config(**overrides):
    """Small network and few epochs; bookkeeping identical to defaults."""
    settings = dict(hidden_dims=(16, 16), max_epochs=5, seed=0)
    settings.update(overrides)
    return TrainConfig(**settings)


def subset(arrays, n):
    """The first n samples of arrays."""
    return TrainingArrays(
        cadastre_numbers=arrays.cadastre_numbers[:n],
        features=arrays.features[:n],
        targets=arrays.targets[:n],
        measured_energy=arrays.measured_energy[:n],
        useful_area=arrays.useful_area[:n],
        building_types=arrays.building_types[:n],
    )


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.k_folds == 10
        assert config.val_fraction == 0.15
        assert config.batch_size == 256
        assert config.hidden_dims == (256, 256)
        # The whole schedule: nn's Adam and plateau tracker have no defaults.
        assert (config.learning_rate, config.scheduler_patience, config.scheduler_factor,
                config.min_lr, config.early_stop_patience, config.max_epochs) == (
            0.001, 5, 0.1, 1e-7, 8, 500)

    def test_bad_values_are_config_errors(self):
        with pytest.raises(ConfigError):
            TrainConfig(k_folds=1)
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(scheduler_factor=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(physics_weight=-0.1)

    @pytest.mark.parametrize("name", ["learning_rate", "min_lr", "physics_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rates_and_weight_are_config_errors(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})

    def test_dict_roundtrip(self):
        config = TrainConfig(k_folds=5, batch_size=32, hidden_dims=(64, 64), seed=9)
        restored = from_json(TrainConfig, config.to_dict())
        assert restored.to_dict() == config.to_dict()

    def test_unknown_key_is_config_error(self):
        with pytest.raises(ConfigError):
            from_json(TrainConfig, {"momentum": 0.9})


class TestTrainFold:
    def test_history_lengths_match_epochs(self, arrays):
        config = quick_config(max_epochs=3)
        fold = train_fold(arrays, np.arange(4), config)
        assert len(fold.history.train_loss) == 3
        assert len(fold.history.val_loss) == 3
        assert len(fold.history.learning_rate) == 3
        assert fold.history.stop_epoch == 3

    def test_learning_rate_trace_never_increases(self, arrays):
        config = quick_config(max_epochs=60)
        fold = train_fold(arrays, np.arange(4), config)
        rates = fold.history.learning_rate
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert rates[0] == config.learning_rate

    def test_best_val_loss_is_the_minimum(self, arrays):
        config = quick_config(max_epochs=40)
        fold = train_fold(arrays, np.arange(4), config)
        assert fold.history.best_val_loss == pytest.approx(
            min(fold.history.val_loss), rel=1e-15
        )
        assert fold.history.val_loss[fold.history.best_epoch] == pytest.approx(
            fold.history.best_val_loss, rel=1e-15
        )

    def test_indices_partition_the_cohort(self, arrays):
        test_indices = np.arange(4)
        fold = train_fold(arrays, test_indices, quick_config())
        groups = [fold.test_indices, fold.train_indices, fold.val_indices]
        combined = sorted(np.concatenate(groups).tolist())
        assert combined == list(range(arrays.n))
        for a in range(3):
            for b in range(a + 1, 3):
                assert set(groups[a].tolist()).isdisjoint(groups[b].tolist())

    def test_test_rows_never_reach_updates_or_scalers(self, arrays):
        fold = train_fold(arrays, np.arange(4), quick_config())
        test_set = set(fold.test_indices.tolist())
        assert test_set.isdisjoint(fold.update_indices.tolist())
        assert test_set.isdisjoint(fold.train_indices.tolist())
        assert set(fold.val_indices.tolist()).isdisjoint(fold.update_indices.tolist())
        assert set(fold.update_indices.tolist()) == set(fold.train_indices.tolist())

    def test_scalers_were_fitted_on_the_training_rows_only(self, arrays):
        fold = train_fold(arrays, np.arange(4), quick_config())
        scalers = fold.checkpoint
        assert MinMaxScaler.fit(arrays.features[fold.train_indices]) == scalers.input_scaler
        assert MinMaxScaler.fit(arrays.targets[fold.train_indices]) == scalers.target_scaler
        assert (MinMaxScaler.fit(arrays.measured_energy[fold.train_indices])
                == scalers.energy_scaler)

    def test_deterministic_given_the_seed(self, arrays):
        config = quick_config(max_epochs=8)
        a = train_fold(arrays, np.arange(4), config)
        b = train_fold(arrays, np.arange(4), config)
        assert a.history.train_loss == b.history.train_loss
        assert a.history.val_loss == b.history.val_loss
        assert np.array_equal(a.predictions_physical, b.predictions_physical)
        assert np.array_equal(a.reconstructed_energy, b.reconstructed_energy)

    def test_seed_changes_the_run(self, arrays):
        a = train_fold(arrays, np.arange(4), quick_config(seed=0))
        b = train_fold(arrays, np.arange(4), quick_config(seed=1))
        assert a.history.train_loss != b.history.train_loss

    def test_predictions_are_clamped_nonnegative(self, arrays):
        fold = train_fold(arrays, np.arange(4), quick_config(max_epochs=1))
        assert np.all(fold.predictions_physical >= 0.0)
        assert np.all(fold.reconstructed_energy >= 0.0)

    def test_report_covers_all_variables(self, arrays):
        fold = train_fold(arrays, np.arange(4), quick_config())
        assert tuple(fold.report) == REPORT_VARIABLES

    def test_small_noise_free_cohort_converges(self, tmp_path):
        """50 noise-free buildings, batch size 8 (so each epoch makes
        several updates): the best validation loss must fall below 0.01,
        i.e. the network learns the envelope from the features."""
        generate_cohort(
            GeneratorConfig(
                n_buildings=50, seed=77, consumption_noise=0.0, audit_noise=0.0
            ),
            tmp_path,
        )
        samples, _ = load_cohort(tmp_path)
        arrays50 = build_matrices(samples)
        config = TrainConfig(batch_size=8, seed=0)
        fold = train_fold(arrays50, np.arange(5), config)
        assert fold.history.best_val_loss < 0.01

    def test_non_finite_data_is_a_training_error_naming_the_fold(self, arrays):
        """An inf measured value in a validation row slips past the
        scalers (fitted on training rows only) and must surface from the
        loss as a TrainingError carrying the fold index."""
        config = quick_config()
        clean = train_fold(arrays, np.arange(4), config, fold_index=3)
        victim = int(clean.val_indices[0])
        poisoned = TrainingArrays(
            cadastre_numbers=arrays.cadastre_numbers,
            features=arrays.features,
            targets=arrays.targets,
            measured_energy=arrays.measured_energy.copy(),
            useful_area=arrays.useful_area,
            building_types=arrays.building_types,
        )
        poisoned.measured_energy[victim] = np.inf
        with pytest.raises(TrainingError, match="fold 3"):
            train_fold(poisoned, np.arange(4), config, fold_index=3)

    def test_a_step_frees_its_arrays_before_the_next_forward(self, arrays, monkeypatch):
        """Every prediction, forward cache and gradient a step made is dead
        when the next forward starts, minibatch and validation passes
        alike, so a fold never holds two steps' arrays at once."""
        refs, alive = [], []

        def recording_forward(model, inputs):
            alive.append(sum(ref() is not None for ref in refs))
            pred, cache = forward(model, inputs)
            refs.extend([weakref.ref(pred), weakref.ref(cache)])
            return pred, cache

        def recording_backward(model, cache, output_grad):
            grads = backward(model, cache, output_grad)
            refs.extend([weakref.ref(grads), weakref.ref(grads.vector)])
            return grads

        monkeypatch.setattr(train, "forward", recording_forward)
        monkeypatch.setattr(train, "backward", recording_backward)
        fold = train_fold(arrays, np.arange(4), quick_config(max_epochs=3, batch_size=8))
        n_steps = -(-fold.train_indices.shape[0] // 8)
        # Each epoch: n_steps minibatch forwards and one validation forward;
        # then the test rows' forward.
        assert len(alive) == 3 * (n_steps + 1) + 1
        assert alive == [0] * len(alive)

    def test_too_small_pool_is_config_error(self, arrays):
        with pytest.raises(ConfigError):
            train_fold(arrays, np.arange(arrays.n - 1), quick_config())

    def test_unknown_building_type_is_config_error_before_training(
        self, arrays, monkeypatch
    ):
        """The time constants are looked up once per fold, before the
        first forward pass, so an unknown type trains nothing."""
        types = list(arrays.building_types)
        types[-1] = "straw"
        strange = TrainingArrays(
            cadastre_numbers=arrays.cadastre_numbers,
            features=arrays.features,
            targets=arrays.targets,
            measured_energy=arrays.measured_energy,
            useful_area=arrays.useful_area,
            building_types=types,
        )
        calls = []
        monkeypatch.setattr(train, "forward", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="straw"):
            train_fold(strange, np.arange(4), quick_config())
        assert calls == []


class TwoCounters:
    """The validation schedule written out apart from nn, as a scheduler
    and an early stopper side by side, each with its own count of epochs
    since the last improvement (loss < best). The scheduler's count
    restarts at each cut; a cut comes before a stop on the same epoch."""

    def __init__(self, patience, lr_patience, lr_factor, min_lr):
        self.patience, self.lr_patience = patience, lr_patience
        self.lr_factor, self.min_lr = lr_factor, min_lr
        self.best, self.stop_count, self.lr_count = np.inf, 0, 0
        self.best_epoch, self.snapshot = -1, None

    def step(self, loss, model, epoch, optimizer):
        if loss < self.best:
            self.best, self.stop_count, self.lr_count = loss, 0, 0
            self.best_epoch, self.snapshot = epoch, model.vector.copy()
            return False
        self.stop_count += 1
        self.lr_count += 1
        if self.lr_count >= self.lr_patience:
            optimizer.learning_rate = max(optimizer.learning_rate * self.lr_factor, self.min_lr)
            self.lr_count = 0
        return self.stop_count >= self.patience


def reference_epochs(arrays, test_indices, config, fold_index=0):
    """train_fold's epoch loop written out with separate passes: a forward
    pass per batch and one over the validation rows, the validation loss
    with its gradient, tau and the scaled measured energy derived on
    every loss call, and the schedule kept by TwoCounters. Returns the
    history lists, the early-stop snapshot and the parameters before the
    snapshot is restored."""
    mask = np.ones(arrays.n, dtype=bool)
    mask[test_indices] = False
    split_seed, init_seed, shuffle_seed = (
        train._derive_seed(config.seed, fold_index, stream) for stream in range(3)
    )
    train_idx, val_idx = train_val_split(
        np.flatnonzero(mask), config.val_fraction, split_seed
    )
    input_scaler = MinMaxScaler.fit(arrays.features[train_idx])
    target_scaler = MinMaxScaler.fit(arrays.targets[train_idx])
    energy_scaler = MinMaxScaler.fit(arrays.measured_energy[train_idx])
    x_train = input_scaler.transform(arrays.features[train_idx])
    z_train = target_scaler.transform(arrays.targets[train_idx])
    x_val = input_scaler.transform(arrays.features[val_idx])
    z_val = target_scaler.transform(arrays.targets[val_idx])

    def loss_at(pred, targets, sample_idx):
        taus = np.array(
            [config.constants.time_constant_for(arrays.building_types[i]) for i in sample_idx]
        )
        return enhanced_loss(
            pred, targets, arrays.useful_area[sample_idx], taus,
            energy_scaler.transform(arrays.measured_energy[sample_idx]),
            target_scaler, energy_scaler, config.constants, config.physics_weight,
        )

    model = init_model((arrays.features.shape[1], *config.hidden_dims, 12), init_seed)
    optimizer = AdamState(learning_rate=config.learning_rate)
    schedule = TwoCounters(config.early_stop_patience, config.scheduler_patience,
                           config.scheduler_factor, config.min_lr)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    n_train = train_idx.shape[0]
    batch_size = config.batch_size
    history = {"train_loss": [], "val_loss": [], "learning_rate": []}
    for epoch in range(config.max_epochs):
        if batch_size >= n_train:
            batches = [np.arange(n_train)]
        else:
            order = shuffle_rng.permutation(n_train)
            batches = [order[i : i + batch_size] for i in range(0, n_train, batch_size)]
        weighted = 0.0
        for rows in batches:
            pred, cache = forward(model, x_train[rows])
            value = loss_at(pred, z_train[rows], train_idx[rows])
            adam_step(model, backward(model, cache, value.gradient_wrt_predictions), optimizer)
            weighted += value.total * rows.shape[0]
        val_pred, _ = forward(model, x_val)
        val_loss = loss_at(val_pred, z_val, val_idx).total
        stop = schedule.step(val_loss, model, epoch, optimizer)
        history["train_loss"].append(float(weighted / n_train))
        history["val_loss"].append(float(val_loss))
        history["learning_rate"].append(float(optimizer.learning_rate))
        if stop:
            break
    return history, schedule.snapshot, model.vector.copy()


@pytest.mark.parametrize(
    "overrides",
    [
        # full batch, with the scheduler and early stopping both firing
        dict(hidden_dims=(32, 32), max_epochs=40, scheduler_patience=2,
             early_stop_patience=4, learning_rate=0.05),
        # minibatches of 8 rows
        dict(hidden_dims=(32, 32), max_epochs=6, batch_size=8),
        # full batch with a 1-row validation part
        dict(hidden_dims=(32, 32), max_epochs=20, val_fraction=0.02),
    ],
    ids=["full-batch", "minibatch", "one-val-row"],
)
def test_train_fold_matches_the_separate_pass_reference(arrays, monkeypatch, overrides):
    """Bitwise-equal histories, early-stop snapshot and final parameters."""
    seen = {}

    class RecordingStop(EarlyStopState):
        def restore_best(self, model):
            seen["snapshot"] = self.best_parameters.copy()
            seen["final"] = model.vector.copy()
            super().restore_best(model)

    monkeypatch.setattr(train, "EarlyStopState", RecordingStop)
    config = quick_config(**overrides)
    fold = train_fold(arrays, np.arange(4), config)
    history, snapshot, final = reference_epochs(arrays, np.arange(4), config)
    assert fold.history.train_loss == history["train_loss"]
    assert fold.history.val_loss == history["val_loss"]
    assert fold.history.learning_rate == history["learning_rate"]
    assert seen["snapshot"].tobytes() == snapshot.tobytes()
    assert seen["final"].tobytes() == final.tobytes()
    assert fold.model.vector.tobytes() == snapshot.tobytes()


def test_plateau_tracker_matches_the_two_counter_reference():
    """Over loss sequences with ties and NaN, and patiences in either
    order, EarlyStopState gives TwoCounters' learning-rate trace, stop
    epoch and best epoch."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(
        losses=st.lists(st.sampled_from([0.5, 0.6, 0.7, 1.0, float("nan")]), max_size=80),
        patience=st.integers(1, 12),
        lr_patience=st.integers(1, 12),
        lr_factor=st.sampled_from([0.1, 0.5]),
        min_lr=st.sampled_from([0.0, 1e-5, 1e-4]),
    )
    def check(losses, patience, lr_patience, lr_factor, min_lr):
        model = init_model((1, 1), seed=0)
        runs = []
        for tracker in (EarlyStopState(patience, lr_patience, lr_factor, min_lr),
                        TwoCounters(patience, lr_patience, lr_factor, min_lr)):
            optimizer = AdamState(learning_rate=0.001)
            rates = []
            for epoch, loss in enumerate(losses):
                stop = tracker.step(loss, model, epoch, optimizer)
                rates.append(optimizer.learning_rate)
                if stop:
                    break
            runs.append((rates, tracker.best_epoch))  # len(rates) is the stop epoch
        assert runs[0] == runs[1]

    check()


class TestPredictionHelpers:
    def test_predict_physical_clamps(self, arrays):
        fold = train_fold(arrays, np.arange(4), quick_config(max_epochs=1))
        out = predict_physical(fold.model, fold.checkpoint, arrays.features[:7])
        assert out.shape == (7, 12)
        assert np.all(out >= 0.0)

    def test_reconstruct_energy_matches_scalar_physics(self, arrays):
        consts = PhysicsConstants()
        rows = arrays.targets[:6]
        energy = reconstruct_energy(
            rows, arrays.useful_area[:6], arrays.building_types[:6], consts
        )
        for i, row in enumerate(rows):
            scalar = reference_energy(
                {name: (a, a * u) for name, a, u in zip(COMPONENTS, row[:5], row[5:10])},
                row[10], row[11], arrays.useful_area[i],
                consts.time_constant_for(arrays.building_types[i]),
            )
            assert energy[i] == pytest.approx(scalar, rel=1e-12)


class TestCrossValidate:
    def test_folds_partition_the_samples(self, arrays):
        result = cross_validate(arrays, quick_config(max_epochs=2))
        assert len(result.folds) == 10
        joined = np.concatenate([f.test_indices for f in result.folds])
        assert sorted(joined.tolist()) == list(range(arrays.n))

    def test_aggregate_and_losses_are_consistent(self, arrays):
        config = quick_config(max_epochs=2)
        result = cross_validate(arrays, config)
        assert result.aggregate["n_folds"] == 10
        assert tuple(result.aggregate["variables"]) == REPORT_VARIABLES
        payload = results_payload(result, config)
        finals = [f.history.train_loss[-1] for f in result.folds]
        assert payload["final_train_loss"]["mean"] == pytest.approx(np.mean(finals))
        assert payload["final_train_loss"]["std"] == pytest.approx(np.std(finals))
        bests = [f.history.best_val_loss for f in result.folds]
        assert payload["best_val_loss"]["mean"] == pytest.approx(np.mean(bests))

    def test_payload_is_deterministic(self, arrays):
        config = quick_config(max_epochs=3)
        a = results_payload(cross_validate(arrays, config), config)
        b = results_payload(cross_validate(arrays, config), config)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_parallel_folds_change_nothing(self, arrays, usable_cpus):
        config = quick_config(max_epochs=3)
        usable_cpus(1)
        serial = results_payload(cross_validate(arrays, config), config)
        usable_cpus(4)
        threaded = results_payload(cross_validate(arrays, config), config)
        assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)

    def test_too_few_samples_is_config_error(self, arrays):
        with pytest.raises(ConfigError):
            cross_validate(subset(arrays, 5), quick_config())

    def test_fewer_than_two_rows_per_fold_fails_before_training(
        self, arrays, monkeypatch, usable_cpus
    ):
        """n=15 with 10 folds leaves single-row test folds, whose R^2 is
        undefined; the run must stop before any fold trains."""
        calls = []
        monkeypatch.setattr(train, "train_fold", lambda *a: calls.append(a))
        usable_cpus(2)
        with pytest.raises(ConfigError, match="2 \\* k_folds"):
            cross_validate(subset(arrays, 15), quick_config())
        assert calls == []
        # 2 * k_folds rows are enough.
        monkeypatch.undo()
        assert len(cross_validate(subset(arrays, 20), quick_config(max_epochs=1)).folds) == 10

    def test_a_failed_fold_cancels_the_queued_folds(self, arrays, monkeypatch, usable_cpus):
        """With 2 workers, fold 0 failing once fold 1 has started stops the
        run while fold 1 still trains: at most the fold that replaced
        fold 0 starts, never the rest of the queue."""
        started, second = [], threading.Event()

        def fold(arrays, test_indices, config, fold_index):
            started.append(fold_index)
            if fold_index == 0:
                assert second.wait(timeout=30)
                raise TrainingError("fold 0: non-finite gradient")
            second.set()
            time.sleep(1.0)

        monkeypatch.setattr(train, "train_fold", fold)
        usable_cpus(2)
        with pytest.raises(TrainingError, match="fold 0"):
            cross_validate(arrays, quick_config())
        assert sorted(started) in ([0, 1], [0, 1, 2])

    def test_the_lowest_failed_fold_is_raised(self, arrays, monkeypatch, usable_cpus):
        """Fold 2 fails first, fold 1 while it still ran: fold 1 is raised."""
        two_failed = threading.Event()

        def fold(arrays, test_indices, config, fold_index):
            if fold_index == 2:
                two_failed.set()
                raise TrainingError("fold 2: non-finite gradient")
            if fold_index == 1:
                assert two_failed.wait(timeout=30)
                raise TrainingError("fold 1: non-finite gradient")
            time.sleep(0.05)

        monkeypatch.setattr(train, "train_fold", fold)
        usable_cpus(3)
        with pytest.raises(TrainingError, match="fold 1"):
            cross_validate(arrays, quick_config())

    def test_every_fold_trains_once_under_contention(self, arrays, monkeypatch, usable_cpus):
        """Eight workers, more than the cores, drain twenty folds with a
        shortened switch interval: each fold trains once, in its own slot."""
        trained = []

        def fold(arrays, test_indices, config, fold_index):
            trained.append(fold_index)
            time.sleep(0)
            metrics = {"r_squared": 0.5, "rmse": 1.0, "nrmse": 0.1}
            return SimpleNamespace(index=fold_index, report={"x": metrics})

        monkeypatch.setattr(train, "train_fold", fold)
        usable_cpus(8)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                trained.clear()
                result = cross_validate(arrays, quick_config(k_folds=20))
                assert sorted(trained) == list(range(20))
                assert [f.index for f in result.folds] == list(range(20))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads  # every helper was joined

    @pytest.mark.parametrize("cpus, helpers", [(1, 0), (3, 2), (64, 9)])
    def test_the_default_pool_is_the_usable_cpus_up_to_k_folds(
        self, arrays, monkeypatch, usable_cpus, cpus, helpers
    ):
        started = []
        start = threading.Thread.start
        usable_cpus(cpus)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread)))
        assert len(cross_validate(arrays, quick_config(max_epochs=1)).folds) == 10
        assert len(started) == helpers

    def test_without_an_affinity_call_the_pool_is_every_cpu(self, arrays, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.delattr(train.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(train.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread)))
        assert len(cross_validate(arrays, quick_config(max_epochs=1)).folds) == 10
        assert len(started) == 1


class TestTheGate:
    """cross_validate, called as a library, runs the train command's checks
    before any fold starts, with the command's error text."""

    @pytest.fixture
    def started(self, monkeypatch):
        folds = []
        monkeypatch.setattr(train, "train_fold", lambda *args: folds.append(args))
        return folds

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hours", [1e300, 1e306])
    def test_a_loss_that_overflows_is_a_data_error_naming_the_first_building(
        self, arrays, started, hours
    ):
        """At 1e300 the balance is finite and the square of the scaled
        residual is not; at 1e306 the balance itself overflows."""
        config = quick_config(constants=PhysicsConstants(hours_per_day=hours))
        with pytest.raises(DataError) as caught:
            cross_validate(arrays, config)
        assert str(caught.value) == ("the training loss at the audit targets is not finite "
                                     f"for building {arrays.cadastre_numbers[0]}")
        assert started == []

    def test_a_missing_time_constant_is_a_config_error_naming_the_type(self, arrays, started):
        assert "light" in arrays.building_types
        config = quick_config(constants=PhysicsConstants(time_constants={"heavy": 3.0}))
        with pytest.raises(ConfigError) as caught:
            cross_validate(arrays, config)
        assert str(caught.value) == "unknown building type 'light'; known types: heavy"
        assert started == []


BLAS_API = train._openblas_thread_api()


@pytest.mark.skipif(BLAS_API is None, reason="numpy's OpenBLAS thread control not found")
class TestBlasThreadCap:
    """Folds run OpenBLAS on one thread, in parallel and serially alike,
    and the previous count always comes back."""

    @pytest.fixture
    def blas_threads(self):
        get, set_ = BLAS_API
        before = get()
        set_(2)  # a pool wider than the cap, also on one-core machines
        yield get
        set_(before)

    @pytest.fixture
    def seen(self, monkeypatch, blas_threads):
        """Thread counts observed by each fold as it starts."""
        counts = []
        real = train.train_fold

        def recording(*args):
            counts.append(blas_threads())
            return real(*args)

        monkeypatch.setattr(train, "train_fold", recording)
        return counts

    def test_parallel_folds_see_one_thread(self, arrays, seen, blas_threads, usable_cpus):
        usable_cpus(2)
        cross_validate(arrays, quick_config(max_epochs=1))
        assert seen == [1] * 10
        assert blas_threads() == 2

    def test_count_is_restored_when_a_fold_raises(
        self, arrays, monkeypatch, blas_threads, usable_cpus
    ):
        def failing(arrays, test_indices, config, fold_index):
            assert blas_threads() == 1
            raise TrainingError(f"fold {fold_index}: non-finite gradient")

        monkeypatch.setattr(train, "train_fold", failing)
        usable_cpus(2)
        with pytest.raises(TrainingError, match="fold 0"):
            cross_validate(arrays, quick_config())
        assert blas_threads() == 2

    def test_interrupt_drops_the_queued_folds(
        self, arrays, monkeypatch, blas_threads, usable_cpus
    ):
        """Ctrl-C while two folds train lands in the calling thread's fold:
        the helper's fold finishes, no queued fold starts, and the previous
        thread count comes back."""
        started, both_running, finished = [], threading.Event(), []

        def fold(arrays, test_indices, config, fold_index):
            started.append(fold_index)
            if len(started) == 2:
                both_running.set()
            if threading.current_thread() is threading.main_thread():
                assert both_running.wait(timeout=30)
                raise KeyboardInterrupt
            time.sleep(0.2)
            finished.append(fold_index)

        monkeypatch.setattr(train, "train_fold", fold)
        usable_cpus(2)
        with pytest.raises(KeyboardInterrupt):
            cross_validate(arrays, quick_config())
        assert sorted(started) == [0, 1]
        assert len(finished) == 1
        assert blas_threads() == 2

    def test_serial_folds_see_one_thread(self, arrays, seen, blas_threads, usable_cpus):
        usable_cpus(1)
        cross_validate(arrays, quick_config(max_epochs=1))
        assert seen == [1] * 10
        assert blas_threads() == 2

    def test_concurrent_caps_keep_the_count(self, blas_threads):
        """Threads entering and leaving the cap at random interleavings
        always see one thread inside, and leave the pool as it was."""
        inside = []
        start = threading.Barrier(8)

        def worker():
            start.wait(timeout=30)
            for _ in range(500):
                with train._single_threaded_blas():
                    time.sleep(0)  # let the other threads enter and leave
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert inside == [1] * 4000
        assert blas_threads() == 2

    def test_missing_thread_control_is_a_no_op(
        self, arrays, monkeypatch, blas_threads, usable_cpus
    ):
        monkeypatch.setattr(train, "_openblas_thread_api", lambda: None)
        config = quick_config(max_epochs=1)
        usable_cpus(2)
        threaded = results_payload(cross_validate(arrays, config), config)
        usable_cpus(1)
        serial = results_payload(cross_validate(arrays, config), config)
        assert threaded == serial
        assert blas_threads() == 2


class TestSaveRunOutputs:
    def test_writes_results_report_and_checkpoints(self, arrays, tmp_path):
        config = quick_config(max_epochs=2)
        result = cross_validate(arrays, config)
        paths = save_run_outputs(result, config, tmp_path)
        assert (tmp_path / "results.json").exists()
        assert (tmp_path / "report.txt").exists()
        for i in range(10):
            assert (tmp_path / f"fold_{i:02d}.json").exists()
        payload = json.loads(paths["results"].read_text())
        assert payload["config"]["k_folds"] == 10
        assert len(payload["folds"]) == 10
        report_text = paths["report"].read_text(encoding="utf-8")
        assert "energy_consumption" in report_text
        assert "±" in report_text

    def test_checkpoints_carry_scalers_and_constants(self, arrays, tmp_path):
        """Each fold_XX.json reads back as the fold's FoldCheckpoint and a
        model with its parameters to the bit."""
        config = quick_config(max_epochs=2, k_folds=3)
        result = cross_validate(arrays, config)
        save_run_outputs(result, config, tmp_path)
        for i, r in enumerate(result.folds):
            model, fold = train.load_checkpoint(tmp_path / f"fold_{i:02d}.json")
            assert fold == r.checkpoint
            assert fold.fold == i
            assert model.layer_dims == (17, 16, 16, 12)
            assert model.vector.tobytes() == r.model.vector.tobytes()
            assert fold.constants == config.constants

    def test_checkpoint_extra_keeps_the_hand_written_layout(self, arrays, tmp_path):
        """The extra payload, which perfbench decodes by hand, is the one
        save_run_outputs wrote as a literal dict, to the byte."""
        config = quick_config(max_epochs=1)
        result = cross_validate(arrays, config)
        save_run_outputs(result, config, tmp_path)

        def bounds(scaler):
            return {"data_min": [float(v) for v in scaler.data_min],
                    "data_max": [float(v) for v in scaler.data_max]}

        for i, r in enumerate(result.folds):
            extra = json.loads((tmp_path / f"fold_{i:02d}.json").read_text())["extra"]
            expected = {
                "fold": i,
                "input_scaler": bounds(r.checkpoint.input_scaler),
                "target_scaler": bounds(r.checkpoint.target_scaler),
                "energy_scaler": bounds(r.checkpoint.energy_scaler),
                "constants": config.constants.to_dict(),
            }
            assert json.dumps(extra, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_failed_write_leaves_no_partial_file(self, arrays, tmp_path, monkeypatch):
        """Serialization that raises midway leaves the earlier results.json
        as it was and no temporary file behind."""
        config = quick_config(max_epochs=1)
        result = cross_validate(arrays, config)
        save_run_outputs(result, config, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(
            train, "results_payload", lambda result, config: {"a": 1, "b": object()}
        )
        with pytest.raises(TypeError):
            save_run_outputs(result, config, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_two_identical_runs_serialize_identically(self, arrays, tmp_path):
        config = quick_config(max_epochs=2)
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        save_run_outputs(cross_validate(arrays, config), config, a_dir)
        save_run_outputs(cross_validate(arrays, config), config, b_dir)
        assert (a_dir / "results.json").read_bytes() == (b_dir / "results.json").read_bytes()
        assert (a_dir / "fold_04.json").read_bytes() == (b_dir / "fold_04.json").read_bytes()
