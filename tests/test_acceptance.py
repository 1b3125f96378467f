"""Release gate for the package: ten independent checks, one per test.

Each test covers one acceptance criterion and is self-contained, so a
failure points directly at the broken area:

  01  physics engine agrees with an independently coded scalar reference
  02  hand-checked worked example for the full energy balance
  03  the heat gain usage factor itself (value at zero, continuity, shape)
  04  analytic gradients match finite differences at three levels
  05  optimizer and plateau-tracker traces match closed forms
  06  the network can overfit a tiny noise-free cohort
  07  cross-validated generalization on a large synthetic cohort
  08  metric implementations against hand arithmetic
  09  bitwise deterministic training runs through the command line
  10  no test-fold sample leaks into scaler fitting or weight updates

Run with -s to see one summary line per criterion; under plain -v the
test names themselves serve as the pass/fail report.
"""

import json
import time

import numpy as np
import pytest

from epc_pinn.cli import main
from epc_pinn.data import MinMaxScaler, build_matrices, load_cohort
from epc_pinn.errors import UndefinedMetricError
from epc_pinn.loss import enhanced_loss
from epc_pinn.metrics import nrmse, r_squared, rmse
from epc_pinn.nn import (
    AdamState,
    EarlyStopState,
    adam_step,
    backward,
    forward,
    init_model,
)
from epc_pinn.physics import (
    AIR_EXCHANGE_INDEX,
    AREA_SLICE,
    COMPONENTS,
    HEAT_GAINS_INDEX,
    U_SLICE,
    _usage_factor_and_slopes,
    energy_consumption,
    energy_consumption_batch,
)
from epc_pinn.synth import GeneratorConfig, generate_cohort, reference_energy
from epc_pinn.train import TrainConfig, cross_validate


def report(number, message):
    print(f"criterion {number:02d} PASS: {message}")


def random_state(rng):
    """A plausible envelope state away from degenerate corners: five
    areas, five U-values, the air exchange rate, the heat gains."""
    return np.concatenate([rng.uniform(50.0, 200.0, size=5), rng.uniform(0.2, 2.5, size=5),
                           [rng.uniform(0.3, 1.5), rng.uniform(5.0, 25.0)]])


def generate_arrays(tmp_dir, n, seed, noise):
    config = GeneratorConfig(
        n_buildings=n,
        seed=seed,
        consumption_noise=noise,
        audit_noise=noise and 0.02,
    )
    generate_cohort(config, tmp_dir)
    samples, dropped = load_cohort(tmp_dir)
    assert dropped == []
    return build_matrices(samples)


class TestAcceptance:
    def test_criterion_01_physics_matches_scalar_reference(self, constants):
        """1000 random states through the vectorized engine and the
        scalar reference implementation agree to 1e-9 relative."""
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        worst = 0.0
        for i in range(1000):
            state = random_state(rng)
            useful_area = rng.uniform(200.0, 2000.0)
            building_type = "heavy" if i % 2 == 0 else "light"
            model_value = energy_consumption(
                state[None], [useful_area], [building_type], constants
            ).energy_consumption[0]
            areas, u_values = state[AREA_SLICE], state[U_SLICE]
            reference = reference_energy(
                components={
                    name: (areas[j], areas[j] * u_values[j])
                    for j, name in enumerate(COMPONENTS)
                },
                air_exchange_rate=state[AIR_EXCHANGE_INDEX],
                specific_heat_gains=state[HEAT_GAINS_INDEX],
                useful_area=useful_area,
                tau=constants.time_constant_for(building_type),
            )
            worst = max(worst, abs(model_value - reference) / abs(reference))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-9
        assert elapsed < 1.0
        report(1, f"max relative error {worst:.3e} over 1000 states "
                  f"in {elapsed:.2f} s")

    def test_criterion_02_worked_example_balance(self, constants):
        """One 100 m2 component at U 0.5, no ventilation, gains 20 W/m2,
        light building. By hand: envelope 100*0.5*18.9*4.608 = 4354.56,
        bridges 3% = 130.6368, losses 4485.1968, gains 20*100 = 2000,
        r = 2000/4485.1968, usage factor 1/(1+r) for tau 1, consumption
        4485.1968 - 2000/(1+r) = 3101.9861008273856."""
        state = np.zeros(12)
        state[[0, 5, 11]] = 100.0, 0.5, 20.0  # basement/slab area and U-value, gains
        breakdown = energy_consumption(state[None], [100.0], ["light"], constants).row_dict(0)
        assert breakdown["envelope_total"] == pytest.approx(4354.56)
        assert breakdown["thermal_bridges"] == pytest.approx(130.6368)
        assert breakdown["ventilation"] == 0.0
        assert breakdown["heat_loss_total"] == pytest.approx(4485.1968)
        assert breakdown["heat_gains_total"] == pytest.approx(2000.0)
        ratio = 2000.0 / 4485.1968
        expected = 4485.1968 - 2000.0 / (1.0 + ratio)
        assert expected == pytest.approx(3101.9861008273856, abs=1e-9)
        assert breakdown["energy_consumption"] == pytest.approx(expected, abs=1e-3)
        report(2, f"energy consumption {breakdown['energy_consumption']:.4f} "
                  f"kWh/yr matches the hand-derived chain")

    def test_criterion_03_usage_factor_properties(self, constants):
        """hguf(0) is exactly 1, the removable singularity at r=1 is
        filled with tau/(tau+1) to 1e-6, and the factor is strictly
        decreasing in the gains/losses ratio."""
        grid = np.arange(0.0, 10.0 + 0.005, 0.01)

        def usage_factor(ratios, tau):
            ratios = np.atleast_1d(np.asarray(ratios, dtype=float))
            f, _, _ = _usage_factor_and_slopes(ratios, np.full(ratios.shape, tau),
                                               constants.near_one_epsilon, slopes=False)
            return f

        for tau in (0.5, 1.0, 2.0, 3.0):
            assert usage_factor(0.0, tau)[0] == 1.0
            limit = tau / (tau + 1.0)
            near_one = usage_factor([1.0 - 5e-7, 1.0, 1.0 + 5e-7], tau)
            assert np.all(np.abs(near_one - limit) <= 1e-6)
            assert np.all(np.diff(usage_factor(grid, tau)) < 0.0)
        report(3, "value at zero, continuity at one and strict monotone "
                  "decrease hold for tau in {0.5, 1, 2, 3}")

    def test_criterion_04_gradient_suites(self, constants):
        """Analytic gradients against central finite differences for the
        physics engine (1e-5), the bare network (1e-6) and the full loss
        chain (1e-4), all inside a 10 s budget."""
        started = time.perf_counter()

        # (a) physics, 100 interior states: skip states within 1e-3 of
        # the r=1 branch switch, where finite differences straddle the
        # series-limit branch and measure the wrong slope.
        rng = np.random.default_rng(5)
        accepted = 0
        worst_physics = 0.0
        while accepted < 100:
            state = random_state(rng)
            useful_area = float(rng.uniform(200.0, 2000.0))
            building_type = "heavy" if accepted % 2 == 0 else "light"
            tau = [constants.time_constant_for(building_type)]
            breakdown = energy_consumption_batch(
                state[None], [useful_area], tau, constants, with_gradient=True)
            ratio = breakdown.heat_gains_total[0] / breakdown.heat_loss_total[0]
            if abs(ratio - 1.0) < 1e-3 or breakdown.energy_consumption[0] < 1.0:
                continue
            accepted += 1
            analytic = breakdown.gradient[0]
            for j in range(state.size):
                step = 1e-6 * max(1.0, abs(state[j]))
                plus = state.copy()
                minus = state.copy()
                plus[j] += step
                minus[j] -= step
                numeric = (
                    energy_consumption(
                        plus[None], [useful_area], [building_type], constants,
                    ).energy_consumption[0]
                    - energy_consumption(
                        minus[None], [useful_area], [building_type], constants,
                    ).energy_consumption[0]
                ) / (2.0 * step)
                err = abs(analytic[j] - numeric) / max(1.0, abs(analytic[j]))
                worst_physics = max(worst_physics, err)
        assert worst_physics <= 1e-5

        # (b) network backward on a [2, 3, 2] model under mean squared
        # error over all output entries.
        model = init_model((2, 3, 2), seed=3)
        x = np.random.default_rng(4).normal(size=(4, 2))
        y = np.random.default_rng(6).normal(size=(4, 2))

        def network_loss():
            out, _ = forward(model, x)
            return float(np.mean((out - y) ** 2))

        out, cache = forward(model, x)
        grads = backward(model, cache, 2.0 * (out - y) / out.size)
        worst_network = 0.0
        for attr in ("weights", "biases"):
            for param, analytic_block in zip(
                getattr(model, attr), getattr(grads, attr)
            ):
                it = np.nditer(param, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    original = param[idx]
                    param[idx] = original + 1e-6
                    model.version += 1
                    plus = network_loss()
                    param[idx] = original - 1e-6
                    model.version += 1
                    minus = network_loss()
                    param[idx] = original
                    model.version += 1
                    numeric = (plus - minus) / 2e-6
                    err = abs(analytic_block[idx] - numeric)
                    worst_network = max(worst_network, err)
        assert worst_network <= 1e-6

        # (c) full loss chain on a 5-row batch: scaling, clamping, the
        # energy balance and both loss terms.
        rng = np.random.default_rng(11)
        targets = np.column_stack(
            [
                rng.uniform(50.0, 200.0, size=(5, 5)),
                rng.uniform(0.2, 2.5, size=(5, 5)),
                rng.uniform(0.3, 1.5, size=5),
                rng.uniform(5.0, 25.0, size=5),
            ]
        )
        useful_area = rng.uniform(200.0, 2000.0, size=5)
        building_types = ["heavy", "light", "heavy", "light", "heavy"]
        taus = np.array([constants.time_constant_for(t) for t in building_types])
        measured = energy_consumption_batch(
            targets, useful_area, taus, constants
        ).energy_consumption
        target_scaler = MinMaxScaler.fit(targets)
        energy_scaler = MinMaxScaler.fit(measured)
        predictions = target_scaler.transform(targets) + 0.1 * rng.normal(size=(5, 12))

        measured_scaled = energy_scaler.transform(measured)

        def chain_loss(pred):
            return enhanced_loss(
                pred, target_scaler.transform(targets), useful_area,
                taus, measured_scaled, target_scaler, energy_scaler,
                constants,
            ).total

        analytic_chain = enhanced_loss(
            predictions, target_scaler.transform(targets), useful_area,
            taus, measured_scaled, target_scaler, energy_scaler, constants,
        ).gradient_wrt_predictions
        worst_chain = 0.0
        for i in range(5):
            for j in range(12):
                plus = predictions.copy()
                minus = predictions.copy()
                plus[i, j] += 1e-6
                minus[i, j] -= 1e-6
                numeric = (chain_loss(plus) - chain_loss(minus)) / 2e-6
                err = abs(analytic_chain[i, j] - numeric) / max(
                    1.0, abs(analytic_chain[i, j])
                )
                worst_chain = max(worst_chain, err)
        assert worst_chain <= 1e-4

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        report(4, f"worst errors physics {worst_physics:.2e}, network "
                  f"{worst_network:.2e}, chain {worst_chain:.2e} "
                  f"in {elapsed:.1f} s")

    def test_criterion_05_optimizer_traces(self):
        """Closed-form checks: one Adam step on a zero parameter with
        unit gradient moves it to -lr/(1+eps); under a constant loss the
        plateau tracker trims the learning rate tenfold at call 6
        (lr_patience 5) and again at 11, and with patience 8 first
        signals the stop at call 9."""
        model = init_model((1, 1), seed=0)
        out, cache = forward(model, np.array([[1.0]]))
        grads = backward(model, cache, np.array([[1.0]]))
        state = AdamState(learning_rate=0.001)
        adam_step(model, grads, state)
        first_step = float(model.biases[0][0])
        assert first_step == pytest.approx(-0.001 / (1.0 + 1e-8), rel=1e-12)
        assert first_step == pytest.approx(-0.000999999, abs=1e-8)

        optimizer = AdamState(learning_rate=0.001)
        stopper = EarlyStopState(patience=8, lr_patience=5, lr_factor=0.1, min_lr=1e-7)
        probe = init_model((1, 1), seed=0)
        reduced_at, fired_at = [], []
        for call in range(1, 12):
            rate = optimizer.learning_rate
            if stopper.step(1.0, probe, call, optimizer):
                fired_at.append(call)
            if optimizer.learning_rate < rate:
                reduced_at.append(call)
        assert reduced_at == [6, 11]
        assert optimizer.learning_rate == pytest.approx(1e-5)
        assert fired_at[0] == 9
        report(5, "Adam first step, rate reductions at calls 6 and "
                  "11, early stop at call 9")

    def test_criterion_06_overfits_tiny_cohort(self, tmp_path, constants):
        """Full-batch training on 10 noise-free buildings drives the
        combined loss below 1e-3 well inside 2000 epochs."""
        arrays = generate_arrays(tmp_path, n=10, seed=21, noise=0.0)
        input_scaler = MinMaxScaler.fit(arrays.features)
        target_scaler = MinMaxScaler.fit(arrays.targets)
        energy_scaler = MinMaxScaler.fit(arrays.measured_energy)
        x = input_scaler.transform(arrays.features)
        z = target_scaler.transform(arrays.targets)
        taus = np.array(
            [constants.time_constant_for(t) for t in arrays.building_types]
        )
        measured_scaled = energy_scaler.transform(arrays.measured_energy)

        model = init_model((17, 256, 256, 12), seed=0)
        state = AdamState(learning_rate=0.001)
        reached = None
        for epoch in range(1, 2001):
            predictions, cache = forward(model, x)
            value = enhanced_loss(
                predictions, z, arrays.useful_area, taus,
                measured_scaled, target_scaler, energy_scaler,
                constants,
            )
            if value.total < 1e-3:
                reached = epoch
                break
            grads = backward(model, cache, value.gradient_wrt_predictions)
            adam_step(model, grads, state, context=f"epoch {epoch}")
        assert reached is not None
        report(6, f"loss {value.total:.2e} after {reached} epochs")

    def test_criterion_07_generalizes_on_synthetic_cohort(self, tmp_path, usable_cpus):
        """10-fold cross-validation on a 1000-building cohort with 5%
        consumption and 2% audit noise must reach reconstructed-energy
        R^2 >= 0.85 and NRMSE <= 0.10; a zero-noise control run must
        reach R^2 >= 0.95. Budget: five minutes. Folds train on four
        workers: cross_validate sees four usable CPUs."""
        usable_cpus(4)
        started = time.perf_counter()
        config = TrainConfig(seed=0)

        noisy = generate_arrays(tmp_path / "noisy", n=1000, seed=2024, noise=0.05)
        noisy_result = cross_validate(noisy, config)
        noisy_energy = noisy_result.aggregate["variables"]["energy_consumption"]
        assert noisy_energy["r_squared"]["mean"] >= 0.85
        assert noisy_energy["nrmse"]["mean"] <= 0.10

        clean = generate_arrays(tmp_path / "clean", n=1000, seed=2024, noise=0.0)
        clean_result = cross_validate(clean, config)
        clean_energy = clean_result.aggregate["variables"]["energy_consumption"]
        assert clean_energy["r_squared"]["mean"] >= 0.95

        elapsed = time.perf_counter() - started
        assert elapsed <= 300.0
        report(7, f"noisy R^2 {noisy_energy['r_squared']['mean']:.4f}, NRMSE "
                  f"{noisy_energy['nrmse']['mean']:.4f}; clean R^2 "
                  f"{clean_energy['r_squared']['mean']:.4f} in {elapsed:.0f} s")

    def test_criterion_08_metric_hand_checks(self):
        """true=[0,2], pred=[1,1]: residual and total sums of squares
        are both 2 so R^2=0; RMSE=1; range is 2 so NRMSE=0.5. A constant
        true vector leaves R^2 and NRMSE undefined."""
        y_true = np.array([0.0, 2.0])
        y_pred = np.array([1.0, 1.0])
        assert r_squared(y_true, y_pred) == pytest.approx(0.0)
        assert rmse(y_true, y_pred) == pytest.approx(1.0)
        assert nrmse(y_true, y_pred) == pytest.approx(0.5)
        constant = np.array([3.0, 3.0, 3.0])
        with pytest.raises(UndefinedMetricError):
            r_squared(constant, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(UndefinedMetricError):
            nrmse(constant, np.array([1.0, 2.0, 3.0]))
        report(8, "R^2, RMSE, NRMSE hand values and undefined cases")

    def test_criterion_09_training_is_bitwise_deterministic(
        self, clean_cohort_dir, tmp_path
    ):
        """Two command-line training runs with the same config and seed
        write byte-identical results.json files."""
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"train": {"hidden_dims": [32, 32], "max_epochs": 15}})
        )
        payloads = []
        for run_dir in (tmp_path / "first", tmp_path / "second"):
            code = main(
                [
                    "train",
                    "--config", str(config_path),
                    "--seed", "7",
                    "--data", str(clean_cohort_dir),
                    "--out", str(run_dir),
                ]
            )
            assert code == 0
            payloads.append((run_dir / "results.json").read_bytes())
        assert payloads[0] == payloads[1]
        report(9, f"two runs, identical results.json ({len(payloads[0])} bytes)")

    def test_criterion_10_no_test_fold_leakage(self, clean_cohort_dir):
        """In every fold the held-out indices are disjoint from both the
        training rows (the scaler-fit set) and the weight-update set, and
        refitting a scaler on the training rows reproduces the stored
        bounds."""
        samples, _ = load_cohort(clean_cohort_dir)
        arrays = build_matrices(samples)
        config = TrainConfig(hidden_dims=(16, 16), max_epochs=3, seed=0)
        result = cross_validate(arrays, config)
        for fold in result.folds:
            test = set(fold.test_indices.tolist())
            assert test.isdisjoint(fold.train_indices.tolist())
            assert test.isdisjoint(fold.update_indices.tolist())
            assert set(fold.val_indices.tolist()).isdisjoint(
                fold.update_indices.tolist()
            )
            assert (MinMaxScaler.fit(arrays.features[fold.train_indices])
                    == fold.checkpoint.input_scaler)
        report(10, "held-out indices never reach scaler fits or updates "
                   "in any of the 10 folds")
