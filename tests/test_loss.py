"""Unit tests for the two-term training loss.

The data term is checked by hand, the physics term by construction
(measured energy set to the model's own reconstruction makes it vanish),
and the full gradient with respect to the scaled predictions against
central finite differences through scaling, clamping and the energy
balance.
"""

import numpy as np
import pytest

from epc_pinn.data import MinMaxScaler
from epc_pinn.errors import DimensionError, TrainingError
from epc_pinn.loss import enhanced_loss, mse
from epc_pinn.physics import PhysicsConstants, energy_consumption_batch


def make_batch(n, seed):
    """Physically plausible targets with self-consistent measured energy."""
    rng = np.random.default_rng(seed)
    targets_physical = np.column_stack(
        [
            rng.uniform(50.0, 200.0, size=(n, 5)),
            rng.uniform(0.2, 2.5, size=(n, 5)),
            rng.uniform(0.3, 1.5, size=n),
            rng.uniform(5.0, 25.0, size=n),
        ]
    )
    useful_area = rng.uniform(200.0, 2000.0, size=n)
    building_types = ["heavy" if rng.uniform() < 0.5 else "light" for _ in range(n)]
    consts = PhysicsConstants()
    taus = np.array([consts.time_constant_for(t) for t in building_types])
    measured = energy_consumption_batch(
        targets_physical, useful_area, taus, consts
    ).energy_consumption
    target_scaler = MinMaxScaler.fit(targets_physical)
    energy_scaler = MinMaxScaler.fit(measured)
    return {
        "targets_physical": targets_physical,
        "targets_scaled": target_scaler.transform(targets_physical),
        "useful_area": useful_area,
        "building_types": building_types,
        "taus": taus,
        "measured": measured,
        "target_scaler": target_scaler,
        "energy_scaler": energy_scaler,
        "consts": consts,
    }


def evaluate(batch, predictions_scaled, measured=None, weight=1.0, with_gradient=True):
    """enhanced_loss on batch; measured is in kWh/yr (default: the batch's)."""
    measured = batch["measured"] if measured is None else measured
    return enhanced_loss(
        predictions_scaled=predictions_scaled,
        targets_scaled=batch["targets_scaled"],
        useful_area=batch["useful_area"],
        time_constants=batch["taus"],
        measured_scaled=batch["energy_scaler"].transform(measured),
        target_scaler=batch["target_scaler"],
        energy_scaler=batch["energy_scaler"],
        consts=batch["consts"],
        physics_weight=weight,
        with_gradient=with_gradient,
    )


class TestMse:
    def test_identical_arrays_give_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert mse(x, x) == 0.0

    def test_hand_value(self):
        """([0, 2] vs [1, 1]): ((0-1)^2 + (2-1)^2) / 2 = 1.0."""
        assert mse(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        assert mse(a, b) == pytest.approx(mse(b, a), rel=1e-15)

    def test_shape_mismatch_is_dimension_error(self):
        with pytest.raises(DimensionError):
            mse(np.zeros(3), np.zeros(4))


class TestEnhancedLoss:
    def test_perfect_prediction_is_zero(self):
        """Predicting the scaled targets exactly, with the measured energy
        equal to the physics reconstruction of those targets: both terms
        vanish and the gradient is (numerically) zero."""
        batch = make_batch(8, seed=41)
        value = evaluate(batch, batch["targets_scaled"].copy())
        assert value.mse_z == 0.0
        assert value.mse_y == pytest.approx(0.0, abs=1e-18)
        assert value.total == pytest.approx(0.0, abs=1e-18)
        assert np.all(np.abs(value.gradient_wrt_predictions) < 1e-9)

    def test_data_term_hand_value(self):
        """One sample, one scaled entry off by 0.5, physics weight 0:
        mse_z = 0.5^2 / 12 and the matching gradient entry is
        2 * 0.5 / 12 = 1/12."""
        batch = make_batch(1, seed=42)
        pred = batch["targets_scaled"].copy()
        pred[0, 0] += 0.5
        value = evaluate(batch, pred, weight=0.0)
        assert value.mse_z == pytest.approx(0.25 / 12.0, rel=1e-12)
        assert value.total == pytest.approx(value.mse_z, rel=1e-12)
        assert value.gradient_wrt_predictions[0, 0] == pytest.approx(
            1.0 / 12.0, rel=1e-12
        )
        assert np.all(value.gradient_wrt_predictions[0, 1:] == 0.0)

    def test_energy_term_vanishes_by_construction(self):
        """Whatever the predictions, setting the measured energy to their
        own reconstruction zeroes the physics term exactly."""
        batch = make_batch(6, seed=43)
        rng = np.random.default_rng(44)
        pred = batch["targets_scaled"] + rng.uniform(-0.05, 0.05, size=(6, 12))
        physical = np.maximum(batch["target_scaler"].inverse_transform(pred), 0.0)
        taus = np.array(
            [batch["consts"].time_constant_for(t) for t in batch["building_types"]]
        )
        reconstruction = energy_consumption_batch(
            physical, batch["useful_area"], taus, batch["consts"]
        ).energy_consumption
        value = evaluate(batch, pred, measured=reconstruction)
        assert value.mse_y == 0.0
        assert value.total == pytest.approx(value.mse_z, rel=1e-12)

    def test_total_is_weighted_sum(self):
        batch = make_batch(5, seed=45)
        rng = np.random.default_rng(46)
        pred = batch["targets_scaled"] + rng.uniform(-0.1, 0.1, size=(5, 12))
        measured = batch["measured"] * 1.07
        value = evaluate(batch, pred, measured=measured, weight=2.5)
        assert value.mse_y > 0.0
        assert value.total == pytest.approx(
            value.mse_z + 2.5 * value.mse_y, rel=1e-14
        )

    def test_zero_weight_ignores_measured_energy(self):
        batch = make_batch(4, seed=47)
        pred = batch["targets_scaled"] * 0.9
        a = evaluate(batch, pred, weight=0.0)
        b = evaluate(batch, pred, measured=batch["measured"] * 3.0, weight=0.0)
        assert a.total == pytest.approx(b.total, rel=1e-15)
        assert a.gradient_wrt_predictions == pytest.approx(
            b.gradient_wrt_predictions, abs=1e-15
        )

    def test_gradient_matches_finite_differences(self):
        """Full chain (scaled prediction -> physical -> energy -> scaled
        energy -> loss) for 5 buildings: each of the 60 partials within
        1e-4 relative of central differences at step 1e-6."""
        batch = make_batch(5, seed=48)
        rng = np.random.default_rng(49)
        pred = batch["targets_scaled"] + rng.uniform(-0.04, 0.04, size=(5, 12))
        measured = batch["measured"] * (1.0 + rng.uniform(-0.1, 0.1, size=5))
        value = evaluate(batch, pred, measured=measured)
        step = 1e-6
        for i in range(5):
            for j in range(12):
                up = pred.copy()
                up[i, j] += step
                down = pred.copy()
                down[i, j] -= step
                fd = (
                    evaluate(batch, up, measured=measured).total
                    - evaluate(batch, down, measured=measured).total
                ) / (2.0 * step)
                analytic = value.gradient_wrt_predictions[i, j]
                assert abs(fd - analytic) <= 1e-4 * max(1.0, abs(analytic))

    def test_clamped_row_keeps_only_the_data_gradient(self):
        """A row predicted so low that every physical entry clamps to zero
        contributes no physics gradient: its gradient row equals the pure
        data term 2 (pred - target) / size."""
        batch = make_batch(3, seed=50)
        pred = batch["targets_scaled"].copy()
        pred[1, :] = -5.0
        value = evaluate(batch, pred)
        expected_row = 2.0 * (pred[1] - batch["targets_scaled"][1]) / pred.size
        assert value.gradient_wrt_predictions[1] == pytest.approx(
            expected_row, rel=1e-12
        )
        assert value.mse_y > 0.0

    def test_shape_mismatch_is_dimension_error(self):
        batch = make_batch(3, seed=52)
        with pytest.raises(DimensionError):
            evaluate(batch, batch["targets_scaled"][:, :11])

    def test_wrong_time_constant_count_is_dimension_error(self):
        batch = make_batch(3, seed=53)
        with pytest.raises(DimensionError):
            enhanced_loss(
                predictions_scaled=batch["targets_scaled"],
                targets_scaled=batch["targets_scaled"],
                useful_area=batch["useful_area"],
                time_constants=batch["taus"][:2],
                measured_scaled=batch["energy_scaler"].transform(batch["measured"]),
                target_scaler=batch["target_scaler"],
                energy_scaler=batch["energy_scaler"],
                consts=batch["consts"],
            )

    def test_non_finite_measured_energy_is_training_error(self):
        batch = make_batch(3, seed=55)
        measured = batch["measured"].copy()
        measured[2] = np.inf
        with pytest.raises(TrainingError, match="row"):
            evaluate(batch, batch["targets_scaled"], measured=measured)


def test_value_without_gradient_is_bitwise_the_same():
    """with_gradient=False returns the same total, mse_z and mse_y bit for
    bit, and raises the same TrainingError (same row) on non-finite
    predictions or measured energy."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def outcome(batch, pred, measured, weight, with_gradient):
        try:
            value = evaluate(batch, pred, measured, weight, with_gradient)
        except TrainingError as exc:
            return ("error", str(exc))
        return ("value", value.total.hex(), value.mse_z.hex(), value.mse_y.hex())

    @hypothesis.given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([0.0, 0.05, 1.0, 5.0]),
        weight=st.sampled_from([0.0, 1.0, 2.5]),
        poison=st.sampled_from([None, "pred", "measured"]),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        row=st.integers(0, 7),
    )
    def check(n, seed, spread, weight, poison, bad, row):
        batch = make_batch(n, seed)
        rng = np.random.default_rng(seed)
        pred = batch["targets_scaled"] + rng.uniform(-spread, spread, size=(n, 12))
        measured = batch["measured"] * rng.uniform(0.8, 1.2, size=n)
        if poison == "pred":
            pred[row % n, rng.integers(12)] = bad
        elif poison == "measured":
            measured[row % n] = bad
        with_grad = outcome(batch, pred, measured, weight, True)
        assert outcome(batch, pred, measured, weight, False) == with_grad
        assert (with_grad[0] == "error") == (poison is not None)

    check()


def test_gradient_matches_central_differences_near_the_kinks():
    """Hypothesis-drawn batches whose rows sit near, but not on, a kink:
    gains far above losses (consumption near its zero floor), physical
    entries just either side of the clamp at zero, or the gains/losses
    ratio r just inside or just outside the |r - 1| <= eps band. Each
    partial matches a central difference within 1e-3, relative to the
    larger of the partial and 1e-3 of the largest one; each row's step
    keeps the row on its side of its kink."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    reference = make_batch(20, seed=60)  # scalers, constants and energy range
    target_scaler, energy_scaler = reference["target_scaler"], reference["energy_scaler"]
    consts = reference["consts"]
    eps = consts.near_one_epsilon
    steps = {"floor": 1e-6, "band": 1e-7, "near band": 1e-6, "clamp": 1e-7}

    def loss(pred, targets, useful_area, taus, measured, with_gradient=False):
        return enhanced_loss(pred, targets, useful_area, taus, measured, target_scaler,
                             energy_scaler, consts, with_gradient=with_gradient)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        rows=st.lists(st.tuples(st.sampled_from(list(steps)), st.floats(0.0, 1.0),
                                st.sampled_from([-1.0, 1.0])), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(rows, seed):
        rng = np.random.default_rng(seed)
        n = len(rows)
        physical = np.column_stack([rng.uniform(50.0, 200.0, (n, 5)),
                                    rng.uniform(0.2, 2.5, (n, 5)),
                                    rng.uniform(0.3, 1.5, n), np.zeros(n)])
        useful_area = rng.uniform(200.0, 2000.0, n)
        taus = rng.choice([consts.time_constant_for(t) for t in ("heavy", "light")], n)
        ratios = np.full(n, 0.5)
        for i, (kind, u, sign) in enumerate(rows):
            if kind == "clamp":  # some entries 1e-4 to 1e-2 of their range off zero
                picked = rng.choice(12, size=int(rng.integers(1, 7)), replace=False)
                physical[i, picked] = sign * 1e-4 * 100.0**u * target_scaler.divisor[picked]
            elif kind == "floor":
                ratios[i] = 5.0 + 45.0 * u
            elif kind == "band":
                ratios[i] = 1.0 + (u - 0.5) * eps
            else:
                ratios[i] = 1.0 + sign * (100.0 + 900.0 * u) * eps
        losses = energy_consumption_batch(
            np.maximum(physical, 0.0), useful_area, taus, consts).heat_loss_total
        gains_set = physical[:, 11] == 0.0  # a clamp row may have placed the gains
        physical[gains_set, 11] = ratios[gains_set] * losses[gains_set] / useful_area[gains_set]
        pred = target_scaler.transform(physical)
        args = (target_scaler.transform(physical * rng.uniform(0.9, 1.1, physical.shape)),
                useful_area, taus,
                energy_scaler.transform(rng.uniform(reference["measured"].min(),
                                                    reference["measured"].max(), n)))
        gradient = loss(pred, *args, with_gradient=True).gradient_wrt_predictions
        floor = 1e-3 * np.abs(gradient).max()
        for i, (kind, _, _) in enumerate(rows):
            step = steps[kind]
            for j in range(12):
                up, down = pred.copy(), pred.copy()
                up[i, j] += step
                down[i, j] -= step
                fd = (loss(up, *args).total - loss(down, *args).total) / (2.0 * step)
                assert abs(fd - gradient[i, j]) <= 1e-3 * max(abs(gradient[i, j]), floor)

    check()
