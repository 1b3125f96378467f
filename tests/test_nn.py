"""Unit tests for the dense network, backprop, Adam, the plateau tracker
and the fold checkpoint file that train writes and reads.

The backward pass is verified against central finite differences, Adam
against its closed-form first steps (constant gradient keeps both bias
corrections at exactly 1), and the plateau tracker's learning-rate cuts
and early stop against hand-counted call traces.
"""

import numpy as np
import pytest

from epc_pinn.data import N_FEATURES, MinMaxScaler
from epc_pinn.errors import ConfigError, DataError, DimensionError, TrainingError, UsageError
from epc_pinn.nn import (
    AdamState,
    EarlyStopState,
    Gradients,
    adam_step,
    backward,
    forward,
    init_model,
    write_json,
)
from epc_pinn.physics import STATE_DIM, PhysicsConstants
from epc_pinn.train import FoldCheckpoint, load_checkpoint, save_checkpoint


def fold_checkpoint(seed=0, fold=0):
    """A FoldCheckpoint whose scalers fit a network of N_FEATURES inputs
    and STATE_DIM outputs, fitted on random rows."""
    rng = np.random.default_rng(seed)
    return FoldCheckpoint(fold, MinMaxScaler.fit(rng.normal(size=(5, N_FEATURES))),
                          MinMaxScaler.fit(rng.normal(size=(5, STATE_DIM))),
                          MinMaxScaler.fit(rng.normal(size=5)), PhysicsConstants())


def mse_output_grad(pred, y):
    """d(mean squared error)/d(pred), elementwise."""
    return 2.0 * (pred - y) / pred.size


class TestInitModel:
    def test_parameter_count_production_dims(self):
        """17 inputs, two hidden layers of 256, 12 outputs:
        17*256 + 256 = 4608, 256*256 + 256 = 65792, 256*12 + 12 = 3084,
        total 73484 parameters."""
        model = init_model((17, 256, 256, 12), seed=0)
        assert model.vector.size == 73484

    def test_same_seed_same_weights(self):
        a = init_model((4, 8, 2), seed=7)
        b = init_model((4, 8, 2), seed=7)
        for pa, pb in zip(a.arrays(), b.arrays()):
            assert np.array_equal(pa, pb)

    def test_different_seed_different_weights(self):
        a = init_model((4, 8, 2), seed=7)
        b = init_model((4, 8, 2), seed=8)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_weight_bounds_and_zero_biases(self):
        """Weights are uniform in (-sqrt(1/fan_in), sqrt(1/fan_in)); for
        fan_in 16 that bound is 0.25. Biases start at zero."""
        model = init_model((16, 32, 4), seed=3)
        assert np.all(np.abs(model.weights[0]) <= 0.25)
        assert np.all(np.abs(model.weights[1]) <= np.sqrt(1.0 / 32.0))
        for b in model.biases:
            assert np.all(b == 0.0)

    def test_weight_shapes_are_fan_in_by_fan_out(self):
        model = init_model((5, 7, 3), seed=0)
        assert model.weights[0].shape == (5, 7)
        assert model.weights[1].shape == (7, 3)
        assert model.biases[0].shape == (7,)
        assert model.biases[1].shape == (3,)

    def test_too_few_dims_is_config_error(self):
        with pytest.raises(ConfigError):
            init_model((5,), seed=0)

    def test_zero_width_layer_is_config_error(self):
        with pytest.raises(ConfigError):
            init_model((5, 0, 2), seed=0)


class TestForward:
    def test_hand_computed_two_layer(self):
        """x = [1, 2], W0 = [[1, -1], [2, 0]], b0 = [0, 1]:
        z0 = [1 + 4, -1 + 0 + 1] = [5, 0], relu keeps [5, 0];
        W1 = [[1], [1]], b1 = [0.5]: output = 5 + 0 + 0.5 = 5.5."""
        model = init_model((2, 2, 1), seed=0)
        model.weights[0][...] = [[1.0, -1.0], [2.0, 0.0]]
        model.biases[0][...] = [0.0, 1.0]
        model.weights[1][...] = [[1.0], [1.0]]
        model.biases[1][...] = [0.5]
        model.version += 1
        out, _ = forward(model, np.array([[1.0, 2.0]]))
        assert out == pytest.approx(np.array([[5.5]]))

    def test_relu_clips_hidden_negatives(self):
        """A hidden pre-activation of -4 contributes nothing downstream."""
        model = init_model((1, 1, 1), seed=0)
        model.weights[0][...] = [[1.0]]
        model.biases[0][...] = [-5.0]
        model.weights[1][...] = [[3.0]]
        model.biases[1][...] = [0.25]
        model.version += 1
        out, _ = forward(model, np.array([[1.0]]))
        assert out == pytest.approx(np.array([[0.25]]))

    def test_output_layer_is_identity(self):
        """Negative outputs pass through unclipped."""
        model = init_model((1, 1), seed=0)
        model.weights[0][...] = [[-2.0]]
        model.version += 1
        out, _ = forward(model, np.array([[3.0]]))
        assert out == pytest.approx(np.array([[-6.0]]))

    def test_matches_scalar_loop(self):
        """Batch matmul agrees with a plain per-neuron Python loop."""
        model = init_model((3, 4, 2), seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 3))
        out, _ = forward(model, x)
        for i in range(8):
            h = list(x[i])
            for l, (w, b) in enumerate(zip(model.weights, model.biases)):
                z = [
                    sum(h[k] * w[k, j] for k in range(len(h))) + b[j]
                    for j in range(b.shape[0])
                ]
                if l < model.n_layers - 1:
                    z = [max(v, 0.0) for v in z]
                h = z
            assert out[i] == pytest.approx(np.array(h), abs=1e-12)

    def test_single_vector_promoted_to_batch(self):
        model = init_model((3, 2), seed=1)
        out, _ = forward(model, np.zeros(3))
        assert out.shape == (1, 2)

    def test_rows_are_independent(self):
        """A row's output does not depend on its batch neighbors (up to
        matmul summation-order noise)."""
        model = init_model((4, 6, 3), seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5, 4))
        batch_out, _ = forward(model, x)
        for i in range(5):
            single, _ = forward(model, x[i : i + 1])
            assert single[0] == pytest.approx(batch_out[i], abs=1e-12)

    def test_wrong_width_is_dimension_error(self):
        model = init_model((4, 2), seed=0)
        with pytest.raises(DimensionError, match="4"):
            forward(model, np.zeros((3, 5)))


class TestBackward:
    def test_linear_hand_check(self):
        """One identity layer, pred = x w + b. With rows x = 2, 3 and an
        output gradient of 1 per row: dL/dw = 2 + 3 = 5, dL/db = 2."""
        model = init_model((1, 1), seed=0)
        model.weights[0][...] = [[1.5]]
        model.version += 1
        _, cache = forward(model, np.array([[2.0], [3.0]]))
        grads = backward(model, cache, np.array([[1.0], [1.0]]))
        assert grads.weights[0] == pytest.approx(np.array([[5.0]]))
        assert grads.biases[0] == pytest.approx(np.array([2.0]))

    def test_relu_blocks_gradient(self):
        """With the hidden unit shut off (pre-activation -4), nothing can
        reach the first layer's parameters."""
        model = init_model((1, 1, 1), seed=0)
        model.weights[0][...] = [[1.0]]
        model.biases[0][...] = [-5.0]
        model.weights[1][...] = [[3.0]]
        model.version += 1
        _, cache = forward(model, np.array([[1.0]]))
        grads = backward(model, cache, np.array([[1.0]]))
        assert np.all(grads.weights[0] == 0.0)
        assert np.all(grads.biases[0] == 0.0)
        assert np.all(grads.biases[1] == np.array([1.0]))

    def test_zero_output_grad_gives_zero_grads(self):
        model = init_model((3, 5, 2), seed=2)
        x = np.random.default_rng(3).normal(size=(4, 3))
        _, cache = forward(model, x)
        grads = backward(model, cache, np.zeros((4, 2)))
        for g in grads.arrays():
            assert np.all(g == 0.0)

    def test_batch_gradient_is_sum_of_rows(self):
        """Backprop of a batch equals the sum of per-row backprops."""
        model = init_model((3, 4, 2), seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        g = rng.normal(size=(6, 2))
        _, cache = forward(model, x)
        batch_grads = backward(model, cache, g)
        summed = [np.zeros_like(p) for p in batch_grads.arrays()]
        for i in range(6):
            _, row_cache = forward(model, x[i : i + 1])
            row_grads = backward(model, row_cache, g[i : i + 1])
            for acc, rg in zip(summed, row_grads.arrays()):
                acc += rg
        for bg, acc in zip(batch_grads.arrays(), summed):
            assert bg == pytest.approx(acc, abs=1e-12)

    def test_matches_finite_differences(self):
        """MSE loss on a (3, 4, 2) model, 5 samples: every parameter
        partial within 1e-6 of central differences at step 1e-6."""
        model = init_model((3, 4, 2), seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2))
        pred, cache = forward(model, x)
        grads = backward(model, cache, mse_output_grad(pred, y))

        def loss():
            out, _ = forward(model, x)
            return float(np.mean((out - y) ** 2))

        step = 1e-6
        for p, g in zip(model.arrays(), grads.arrays()):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for j in range(flat_p.size):
                keep = flat_p[j]
                flat_p[j] = keep + step
                model.version += 1
                up = loss()
                flat_p[j] = keep - step
                model.version += 1
                down = loss()
                flat_p[j] = keep
                model.version += 1
                fd = (up - down) / (2.0 * step)
                assert abs(fd - flat_g[j]) <= 1e-6 * max(1.0, abs(flat_g[j]))

    def test_stale_cache_is_usage_error(self):
        model = init_model((2, 3, 1), seed=0)
        x = np.ones((2, 2))
        pred, cache = forward(model, x)
        grads = backward(model, cache, np.ones((2, 1)))
        adam_step(model, grads, AdamState(learning_rate=0.001))
        with pytest.raises(UsageError, match="stale"):
            backward(model, cache, np.ones((2, 1)))

    def test_wrong_output_grad_shape_is_dimension_error(self):
        model = init_model((2, 3, 1), seed=0)
        _, cache = forward(model, np.ones((2, 2)))
        with pytest.raises(DimensionError):
            backward(model, cache, np.ones((3, 1)))


def one_parameter_model():
    """(1, 1) model with its weight and bias set to zero."""
    model = init_model((1, 1), seed=0)
    model.weights[0][...] = 0.0
    model.version += 1
    return model


def unit_gradients(model):
    return Gradients(layer_dims=model.layer_dims, vector=np.ones_like(model.vector))


class TestAdam:
    def test_first_step_closed_form(self):
        """With gradient 1 from zero: m = 0.1, v = 0.001, both bias
        corrections equal their accumulator exactly, so
        step = lr * 1 / (1 + eps) and the parameter lands at
        -0.001 / (1 + 1e-8)."""
        model = one_parameter_model()
        state = AdamState(learning_rate=0.001)
        adam_step(model, unit_gradients(model), state)
        expected = -0.001 / (1.0 + 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
        assert model.biases[0][0] == pytest.approx(expected, rel=1e-12)
        assert state.t == 1

    def test_constant_gradient_steps_stay_equal(self):
        """A constant gradient keeps m_hat = v_hat = 1 at every step, so
        after k steps the parameter is -k * lr / (1 + eps)."""
        model = one_parameter_model()
        state = AdamState(learning_rate=0.001)
        for _ in range(2):
            adam_step(model, unit_gradients(model), state)
        expected = -2.0 * 0.001 / (1.0 + 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
        for _ in range(3):
            adam_step(model, unit_gradients(model), state)
        expected = -5.0 * 0.001 / (1.0 + 1e-8)
        assert model.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_learning_rate_is_honored(self):
        model = one_parameter_model()
        state = AdamState(learning_rate=0.05)
        adam_step(model, unit_gradients(model), state)
        assert model.weights[0][0, 0] == pytest.approx(-0.05 / (1.0 + 1e-8), rel=1e-12)

    def test_sign_follows_gradient(self):
        """A negative gradient moves the parameter up."""
        model = one_parameter_model()
        grads = unit_gradients(model)
        grads.weights[0][...] = -1.0
        grads.biases[0][...] = -1.0
        adam_step(model, grads, AdamState(learning_rate=0.001))
        assert model.weights[0][0, 0] > 0.0

    def test_update_bumps_model_version(self):
        model = one_parameter_model()
        before = model.version
        adam_step(model, unit_gradients(model), AdamState(learning_rate=0.001))
        assert model.version == before + 1

    def test_non_finite_gradient_is_training_error_with_context(self):
        model = one_parameter_model()
        grads = unit_gradients(model)
        grads.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingError, match="epoch 3"):
            adam_step(model, grads, AdamState(learning_rate=0.001), context="epoch 3")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [1e200, -2e154])
    def test_second_moment_overflow_is_training_error_with_context(self, entry):
        """The square of 1e200 overflows v itself; that of -2e154 fits in
        v but not in v over its first bias correction. Either would give
        the parameter a step of 0 and freeze it, so it raises, naming the
        entry and the context, with no numpy warning."""
        model = one_parameter_model()
        grads = unit_gradients(model)
        grads.weights[0][0, 0] = entry
        with pytest.raises(TrainingError) as caught:
            adam_step(model, grads, AdamState(learning_rate=0.001), context="epoch 4")
        assert str(caught.value) == (
            f"gradient entry {entry:.3g} overflows Adam's second moment (epoch 4)")

    @pytest.mark.filterwarnings("error")
    def test_a_gradient_of_1e154_still_steps(self):
        """v over its bias correction is 1e308 at a gradient of 1e154,
        still finite, so the first step keeps its closed form lr."""
        model = one_parameter_model()
        grads = unit_gradients(model)
        grads.weights[0][0, 0] = 1e154
        adam_step(model, grads, AdamState(learning_rate=0.001))
        assert model.weights[0][0, 0] == pytest.approx(-0.001, rel=1e-12)

    def test_gradient_layout_mismatch_is_dimension_error(self):
        model = init_model((2, 3, 1), seed=0)
        bad = Gradients(layer_dims=(2, 3), vector=np.zeros(9))
        with pytest.raises(DimensionError):
            adam_step(model, bad, AdamState(learning_rate=0.001))

    def test_gradient_vector_of_wrong_length_is_dimension_error(self):
        with pytest.raises(DimensionError, match="13"):
            Gradients(layer_dims=(2, 3, 1), vector=np.zeros(12))


def reference_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam, one parameter array at a time."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, m_l, v_l in zip(params, grads, m, v):
        m_l[...] = beta1 * m_l + (1.0 - beta1) * g
        v_l[...] = beta2 * v_l + (1.0 - beta2) * g * g
        p -= lr * (m_l / bc1) / (np.sqrt(v_l / bc2) + eps)


def reference_backward(model, cache, output_grad):
    """Per-layer backprop into freshly allocated arrays, (W0, b0, W1, ...).
    The ReLU mask comes from the recomputed pre-activation of each layer."""
    grads = [None] * (2 * model.n_layers)
    delta = output_grad
    for l in range(model.n_layers - 1, -1, -1):
        if l < model.n_layers - 1:
            pre_activation = cache.activations[l] @ model.weights[l] + model.biases[l]
            delta = delta * (pre_activation > 0)
        grads[2 * l] = cache.activations[l].T @ delta
        grads[2 * l + 1] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l].T
    return grads


def concatenated(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestFlatLayout:
    """All parameters (and all gradients) live in one contiguous vector,
    and the fused vector updates equal per-array references bit for bit."""

    @staticmethod
    def assert_views_tile_the_vector(owner, arrays):
        vector = owner.vector
        assert vector.ndim == 1 and vector.dtype == np.float64
        assert vector.flags.c_contiguous and vector.flags.writeable
        for a in arrays:
            assert np.shares_memory(a, vector)
        # Distinct values written through the vector come back through the
        # arrays in (W0, b0, W1, b1, ...) order, covering every element once.
        vector[...] = np.arange(vector.size, dtype=float)
        assert np.array_equal(concatenated(arrays), np.arange(vector.size))
        arrays[0][...] = -1.0
        assert np.all(vector[: arrays[0].size] == -1.0)

    def test_init_model_parameters_are_views(self):
        model = init_model((5, 7, 3), seed=0)
        assert model.vector.size == 5 * 7 + 7 + 7 * 3 + 3
        self.assert_views_tile_the_vector(model, model.arrays())

    def test_loaded_parameters_are_views(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(init_model((N_FEATURES, 6, 6, STATE_DIM), seed=2), path, fold_checkpoint())
        restored, _ = load_checkpoint(path)
        self.assert_views_tile_the_vector(restored, restored.arrays())

    def test_gradients_are_views(self):
        model = init_model((3, 4, 2), seed=1)
        _, cache = forward(model, np.ones((2, 3)))
        grads = backward(model, cache, np.ones((2, 2)))
        assert grads.vector.shape == model.vector.shape
        self.assert_views_tile_the_vector(grads, grads.arrays())

    def test_set_parameters_shape_mismatch_is_dimension_error(self):
        model = init_model((2, 3, 1), seed=0)
        with pytest.raises(DimensionError):
            model.set_parameters(np.zeros(model.vector.size + 1))

    def test_backward_matches_per_array_reference_bitwise(self):
        model = init_model((17, 64, 32, 12), seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 17))
        g = rng.normal(size=(40, 12))
        _, cache = forward(model, x)
        grads = backward(model, cache, g)
        expected = reference_backward(model, cache, g)
        assert len(grads.arrays()) == len(expected)
        for got, want in zip(grads.arrays(), expected):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_fused_adam_matches_per_array_reference_bitwise(self):
        """60 steps of randomized gradients spanning 1e-8 to 1e4 in
        magnitude (and exact zeros), with the learning rate cut midway:
        parameters and both moments stay bitwise equal."""
        model = init_model((17, 32, 16, 12), seed=5)
        reference = [p.copy() for p in model.arrays()]
        ref_m = [np.zeros_like(p) for p in reference]
        ref_v = [np.zeros_like(p) for p in reference]
        state = AdamState(learning_rate=0.003)
        rng = np.random.default_rng(6)
        for t in range(1, 61):
            if t == 31:
                state.learning_rate = 3e-4
            scale = 10.0 ** rng.uniform(-8, 4, size=model.vector.size)
            vector = rng.normal(size=model.vector.size) * scale
            vector[rng.random(model.vector.size) < 0.05] = 0.0
            grads = Gradients(layer_dims=model.layer_dims, vector=vector)
            adam_step(model, grads, state)
            reference_adam_step(reference, grads.arrays(), ref_m, ref_v, t, state.learning_rate)
            assert model.vector.tobytes() == concatenated(reference).tobytes()
            assert state.m.tobytes() == concatenated(ref_m).tobytes()
            assert state.v.tobytes() == concatenated(ref_v).tobytes()
        assert state.t == 60

    def test_non_finite_parameter_after_update_is_training_error(self):
        model = one_parameter_model()
        model.vector[0] = np.inf
        with pytest.raises(TrainingError, match="parameter after Adam update.*epoch 7"):
            adam_step(model, unit_gradients(model), AdamState(learning_rate=0.001), context="epoch 7")

    def test_restore_best_is_bitwise_and_independent_of_later_updates(self):
        model = init_model((6, 8, 3), seed=7)
        state = AdamState(learning_rate=0.001)
        stopper = plateau()
        rng = np.random.default_rng(8)

        def step():
            vector = rng.normal(size=model.vector.size)
            adam_step(model, Gradients(model.layer_dims, vector), state)

        for _ in range(3):
            step()
        stopper.step(0.5, model, 3, state)
        snapshot = model.vector.tobytes()
        for epoch in range(4, 8):
            step()
            stopper.step(0.9, model, epoch, state)
        assert model.vector.tobytes() != snapshot
        assert stopper.best_parameters.tobytes() == snapshot
        vector = model.vector
        stopper.restore_best(model)
        assert model.vector is vector  # restored in place, views still valid
        assert model.vector.tobytes() == snapshot
        assert concatenated(model.arrays()).tobytes() == snapshot


def plateau(patience=8, lr_patience=5, lr_factor=0.1, min_lr=1e-7):
    """A plateau tracker with the schedule that these tests count by hand."""
    return EarlyStopState(patience, lr_patience, lr_factor, min_lr)


def lr_trace(stopper, losses, learning_rate=0.001):
    """(stop flags, learning rate after each call) of stopper over losses."""
    optimizer = AdamState(learning_rate=learning_rate)
    model = init_model((2, 2), seed=0)
    stops, rates = [], []
    for epoch, loss in enumerate(losses):
        stops.append(stopper.step(loss, model, epoch, optimizer))
        rates.append(optimizer.learning_rate)
    return stops, rates


def cut_calls(rates, learning_rate=0.001):
    """1-based calls after which the learning rate fell."""
    before = [learning_rate, *rates[:-1]]
    return [call for call, (a, b) in enumerate(zip(before, rates), 1) if b < a]


class TestPlateauScheduler:
    """The learning-rate cut of the plateau tracker."""

    def test_improving_losses_keep_the_rate(self):
        stops, rates = lr_trace(plateau(), (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4))
        assert not any(stops)
        assert rates == [0.001] * 7

    def test_constant_loss_reduces_at_sixth_and_eleventh_call(self):
        """Call 1 improves on +inf; calls 2..6 are non-improving, so the
        5th bad call (call 6 overall) triggers the first reduction to
        1e-4; the 10th bad call (call 11) triggers the second, to 1e-5.
        Training would stop at call 9, the 8th bad call."""
        stops, rates = lr_trace(plateau(), [1.0] * 11)
        assert cut_calls(rates) == [6, 11]
        assert rates[-1] == pytest.approx(1e-5, rel=1e-12)
        assert stops.index(True) == 8

    def test_rate_floors_at_min_lr(self):
        stopper = plateau(patience=100, lr_patience=1)
        _, rates = lr_trace(stopper, [1.0] * 21)
        assert rates[-1] == 1e-7

    def test_improvement_resets_the_counter(self):
        stopper = plateau()
        _, rates = lr_trace(stopper, (1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5))
        assert cut_calls(rates) == [10]
        assert rates[-2] == 0.001

    def test_best_is_not_reset_by_a_reduction(self):
        """A loss that only recovers to its old best after a reduction is
        still non-improving; the plateau keeps decaying the rate."""
        stopper = plateau(lr_patience=2)
        _, rates = lr_trace(stopper, (0.5, 0.6, 0.6, 0.5, 0.5))
        assert cut_calls(rates) == [3, 5]
        assert stopper.best == 0.5 and stopper.best_epoch == 0

    def test_cut_on_the_stop_epoch_is_applied(self):
        """With patience twice lr_patience, the second cut falls on the
        stop call (call 11, the 10th bad one) and is applied before the
        stop is returned."""
        stopper = plateau(patience=10, lr_patience=5)
        stops, rates = lr_trace(stopper, [1.0] * 11)
        assert stops == [False] * 10 + [True]
        assert cut_calls(rates) == [6, 11]
        assert rates[-1] == pytest.approx(1e-5, rel=1e-12)


class TestEarlyStop:
    def test_decreasing_losses_never_stop(self):
        stops, _ = lr_trace(plateau(), [float(x) for x in np.linspace(1.0, 0.1, 30)])
        assert stops == [False] * 30

    def test_constant_loss_stops_at_ninth_call(self):
        """Call 1 improves on +inf; the 8th consecutive non-improving
        call is call 9 overall and returns True."""
        stops, _ = lr_trace(plateau(), [1.0] * 9)
        assert stops == [False] * 8 + [True]

    def test_improvement_resets_the_counter(self):
        stops, _ = lr_trace(plateau(), [1.0] * 8 + [0.5] * 9)
        assert stops == [False] * 16 + [True]

    def test_restore_best_rolls_parameters_back(self):
        """The snapshot taken at the best epoch survives later updates."""
        model = init_model((2, 3, 1), seed=1)
        stopper = plateau()
        stopper.step(0.5, model, 0, AdamState(learning_rate=0.001))
        best = [p.copy() for p in model.arrays()]
        adam_step(model, unit_gradients(model), AdamState(learning_rate=0.001))
        stopper.step(0.7, model, 1, AdamState(learning_rate=0.001))
        assert not np.array_equal(model.weights[0], best[0])
        stopper.restore_best(model)
        for p, snap in zip(model.arrays(), best):
            assert np.array_equal(p, snap)
        assert stopper.best_epoch == 0

    def test_restore_bumps_version(self):
        model = init_model((2, 2), seed=0)
        stopper = plateau()
        stopper.step(0.5, model, 0, AdamState(learning_rate=0.001))
        before = model.version
        stopper.restore_best(model)
        assert model.version == before + 1


class TestCheckpoint:
    def test_roundtrip_is_exact(self, tmp_path):
        model = init_model((N_FEATURES, 6, STATE_DIM), seed=12)
        path = tmp_path / "model.json"
        save_checkpoint(model, path, fold_checkpoint(seed=3, fold=4))
        restored, fold = load_checkpoint(path)
        assert restored.layer_dims == model.layer_dims
        assert '"activation": "relu"' in path.read_text()
        for a, b in zip(model.arrays(), restored.arrays()):
            assert np.array_equal(a, b)
        assert fold == fold_checkpoint(seed=3, fold=4)

    def test_roundtrip_is_exact_for_any_widths_and_scalers(self, tmp_path):
        """For random hidden widths, parameters and scaler bounds, the
        network and FoldCheckpoint read back equal to the bit."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        bounds = st.floats(-1e307, 1e307)  # hi - lo stays finite

        @hypothesis.given(
            hidden=st.lists(st.integers(1, 8), max_size=3),
            seed=st.integers(0, 2**32 - 1),
            scalers=st.tuples(*(st.lists(st.tuples(bounds, bounds), min_size=k, max_size=k)
                                for k in (N_FEATURES, STATE_DIM, 1))),
            fold_index=st.integers(0, 99),
        )
        def check(hidden, seed, scalers, fold_index):
            model = init_model((N_FEATURES, *hidden, STATE_DIM), seed=seed)
            rng = np.random.default_rng(seed)
            model.vector[...] = rng.normal(size=model.vector.size) * 10.0 ** rng.uniform(
                -300, 300, size=model.vector.size)
            fitted = [MinMaxScaler.fit(np.array(pairs).T) for pairs in scalers]
            fold = FoldCheckpoint(fold_index, *fitted, PhysicsConstants())
            path = tmp_path / "model.json"
            save_checkpoint(model, path, fold)
            restored, restored_fold = load_checkpoint(path)
            assert restored.layer_dims == model.layer_dims
            assert restored.vector.tobytes() == model.vector.tobytes()
            assert restored_fold == fold

        check()

    def test_restored_model_predicts_identically(self, tmp_path):
        model = init_model((N_FEATURES, 8, STATE_DIM), seed=13)
        x = np.random.default_rng(14).normal(size=(6, N_FEATURES))
        expected, _ = forward(model, x)
        path = tmp_path / "model.json"
        save_checkpoint(model, path, fold_checkpoint())
        restored, _ = load_checkpoint(path)
        out, _ = forward(restored, x)
        assert np.array_equal(out, expected)

    def test_invalid_json_is_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_checkpoint(path)

    def test_missing_field_is_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1}')
        with pytest.raises(DataError, match="layer_dims"):
            load_checkpoint(path)

    def test_missing_extra_is_data_error(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(init_model((N_FEATURES, STATE_DIM), seed=0), path, fold_checkpoint())
        payload = json.loads(path.read_text())
        del payload["extra"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError) as raised:
            load_checkpoint(path)
        assert str(raised.value) == f"checkpoint {path}: missing key(s): extra"

    def test_unsupported_version_is_data_error(self, tmp_path):
        model = init_model((N_FEATURES, STATE_DIM), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(model, path, fold_checkpoint())
        payload = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(payload)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("layer_dims", [2], "layer_dims"),
            ("layer_dims", [2, 0], "layer_dims"),
            ("layer_dims", [2, "2"], "layer_dims"),
            ("layer_dims", "2,2", "layer_dims"),
            ("activation", "tanh", "activation"),
            ("format_version", True, "format_version: expected an integer, got True"),
            ("parameters_b64", 5, "parameters_b64: expected a string, got 5"),
            ("extra", [1], "extra: expected an object, got \\[1\\]"),
            ("comment", "x", "unknown key\\(s\\): comment"),
        ],
    )
    def test_invalid_architecture_is_data_error(self, tmp_path, field, value, message):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(init_model((N_FEATURES, STATE_DIM), seed=0), path, fold_checkpoint())
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_json_value_raises_and_writes_nothing(self, tmp_path, value):
        """NaN and Infinity are not JSON: write_json raises on them and
        leaves neither the target nor a temporary file; an existing target
        keeps its bytes."""
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_json(path, {"metrics": {"rmse": [1.0, value]}})
        assert list(tmp_path.iterdir()) == []
        write_json(path, {"metrics": {"rmse": [1.0]}})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_json(path, {"metrics": {"rmse": [value]}})
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_truncated_parameters_is_data_error(self, tmp_path):
        import base64
        import json

        model = init_model((N_FEATURES, STATE_DIM), seed=0)
        path = tmp_path / "model.json"
        save_checkpoint(model, path, fold_checkpoint())
        payload = json.loads(path.read_text())
        raw = base64.b64decode(payload["parameters_b64"])
        payload["parameters_b64"] = base64.b64encode(raw[:-8]).decode("ascii")
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="parameters"):
            load_checkpoint(path)


class TestFullModelGradient:
    def test_production_shaped_loss_gradient(self):
        """A (4, 8, 8, 12) model with 5 samples under MSE: chain backprop
        through both hidden layers and compare all 220 parameter partials
        against central differences at 1e-5 relative."""
        model = init_model((4, 8, 8, 12), seed=21)
        rng = np.random.default_rng(22)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 12))
        pred, cache = forward(model, x)
        grads = backward(model, cache, mse_output_grad(pred, y))

        def loss():
            out, _ = forward(model, x)
            return float(np.mean((out - y) ** 2))

        step = 1e-6
        worst = 0.0
        for p, g in zip(model.arrays(), grads.arrays()):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for j in range(flat_p.size):
                keep = flat_p[j]
                flat_p[j] = keep + step
                model.version += 1
                up = loss()
                flat_p[j] = keep - step
                model.version += 1
                down = loss()
                flat_p[j] = keep
                model.version += 1
                fd = (up - down) / (2.0 * step)
                worst = max(worst, abs(fd - flat_g[j]) / max(1.0, abs(flat_g[j])))
        assert worst <= 1e-5


def test_improving_snapshots_reuse_one_buffer():
    """Each improvement copies into the buffer of the first snapshot."""
    model = init_model((2, 3, 1), seed=1)
    stopper = plateau()
    stopper.step(0.5, model, 0, AdamState(learning_rate=0.001))
    buffer = stopper.best_parameters
    adam_step(model, unit_gradients(model), AdamState(learning_rate=0.001))
    stopper.step(0.4, model, 1, AdamState(learning_rate=0.001))
    assert stopper.best_parameters is buffer
    assert buffer.tobytes() == model.vector.tobytes()


def test_backward_matches_central_differences_on_random_networks():
    """Random small ReLU networks under MSE, away from the ReLU kinks:
    every parameter partial within 1e-6 of central differences."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(
        dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(dims, rows, seed):
        model = init_model(dims, seed=seed)
        rng = np.random.default_rng(seed)
        model.biases[0][...] = rng.uniform(-0.5, 0.5, size=dims[1])
        model.version += 1
        x = rng.uniform(-2.0, 2.0, size=(rows, dims[0]))
        y = rng.normal(size=(rows, dims[-1]))
        pred, cache = forward(model, x)
        hidden = [
            a @ w + b
            for a, w, b in zip(cache.activations[:-2], model.weights, model.biases)
        ]
        hypothesis.assume(all(np.abs(z).min() > 1e-3 for z in hidden))
        grads = backward(model, cache, mse_output_grad(pred, y))
        step = 1e-6
        for j in range(model.vector.size):
            keep = model.vector[j]
            model.vector[j] = keep + step
            up = float(np.mean((forward(model, x)[0] - y) ** 2))
            model.vector[j] = keep - step
            down = float(np.mean((forward(model, x)[0] - y) ** 2))
            model.vector[j] = keep
            fd = (up - down) / (2.0 * step)
            assert abs(fd - grads.vector[j]) <= 1e-6 * max(1.0, abs(grads.vector[j]))

    check()
