"""Unit tests for the regression metrics and their cross-fold aggregation.

Each metric is checked by hand on tiny vectors, undefined cases must
raise rather than return NaN, and the aggregation must use the
population (not sample) standard deviation.
"""

import numpy as np
import pytest

from epc_pinn.errors import (
    ConfigError,
    DataError,
    DimensionError,
    UndefinedMetricError,
    UsageError,
)
from epc_pinn.metrics import (
    ENERGY_VARIABLE,
    REPORT_VARIABLES,
    TARGET_VARIABLES,
    aggregate_folds,
    check_scorable,
    fold_report,
    format_metrics_table,
    format_report_table,
    nrmse,
    r_squared,
    rmse,
    variable_metrics,
)


class TestRSquared:
    def test_perfect_prediction_is_one(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == pytest.approx(1.0)

    def test_mean_prediction_is_zero(self):
        """Truth [0, 2], prediction [1, 1] (the mean): SS_res = 2 equals
        SS_tot = 2, so R2 = 0."""
        assert r_squared(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_worse_than_mean_is_negative(self):
        """Truth [0, 2], prediction [2, 0]: SS_res = 8 against SS_tot = 2
        gives R2 = 1 - 4 = -3."""
        assert r_squared(np.array([0.0, 2.0]), np.array([2.0, 0.0])) == pytest.approx(-3.0)

    def test_constant_truth_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            r_squared(np.array([5.0, 5.0, 5.0]), np.array([4.0, 5.0, 6.0]))

    def test_constant_truth_with_a_rounded_mean_is_undefined(self):
        """Three 0.1s average to 0.1 plus a rounding error, which leaves
        SS_tot at about 6e-34 rather than 0."""
        with pytest.raises(UndefinedMetricError, match="constant truth vector"):
            r_squared(np.full(3, 0.1), np.array([0.1, 0.2, 0.3]))

    def test_single_value_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            r_squared(np.array([1.0]), np.array([1.0]))

    def test_length_mismatch_is_dimension_error(self):
        with pytest.raises(DimensionError):
            r_squared(np.zeros(3), np.zeros(4))

    def test_empty_is_dimension_error(self):
        with pytest.raises(DimensionError):
            r_squared(np.array([]), np.array([]))


class TestRmse:
    def test_zero_for_equal_arrays(self):
        y = np.array([1.0, -2.0, 3.0])
        assert rmse(y, y) == 0.0

    def test_hand_value(self):
        """Errors (-1, 1): sqrt((1 + 1) / 2) = 1.0."""
        assert rmse(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_three_four_zero(self):
        """Errors (3, 4, 0): sqrt(25 / 3) = 2.8868."""
        assert rmse(np.array([0.0, 0.0, 0.0]), np.array([3.0, 4.0, 0.0])) == pytest.approx(
            np.sqrt(25.0 / 3.0)
        )

    def test_never_negative(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            a = rng.normal(size=7)
            b = rng.normal(size=7)
            assert rmse(a, b) >= 0.0


class TestNrmse:
    def test_hand_value(self):
        """RMSE 1 over range 2: NRMSE = 0.5."""
        assert nrmse(np.array([0.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_scale_invariant(self):
        """Multiplying truth and prediction by 1000 scales RMSE and range
        alike, leaving NRMSE unchanged."""
        true = np.array([1.0, 3.0, 7.0])
        pred = np.array([1.5, 2.0, 8.0])
        assert nrmse(true * 1000.0, pred * 1000.0) == pytest.approx(
            nrmse(true, pred), rel=1e-12
        )

    def test_shift_invariant(self):
        """Adding the same offset to truth and prediction changes neither
        the errors nor the range."""
        true = np.array([1.0, 3.0, 7.0])
        pred = np.array([1.5, 2.0, 8.0])
        assert nrmse(true + 500.0, pred + 500.0) == pytest.approx(
            nrmse(true, pred), rel=1e-9
        )

    def test_zero_range_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            nrmse(np.array([2.0, 2.0]), np.array([1.0, 3.0]))


class TestVariableMetrics:
    def test_records_the_observed_range(self):
        vm = variable_metrics(np.array([2.0, 8.0, 5.0]), np.array([2.0, 8.0, 5.0]))
        assert list(vm) == ["r_squared", "rmse", "nrmse", "y_max", "y_min"]
        assert vm["y_max"] == 8.0
        assert vm["y_min"] == 2.0
        assert vm["r_squared"] == pytest.approx(1.0)
        assert vm["rmse"] == 0.0


class TestFoldReport:
    def make_arrays(self, n=20, seed=91):
        rng = np.random.default_rng(seed)
        true = rng.uniform(1.0, 10.0, size=(n, 12))
        pred = true + rng.normal(0.0, 0.1, size=(n, 12))
        e_true = rng.uniform(1e4, 1e5, size=n)
        e_pred = e_true * (1.0 + rng.normal(0.0, 0.02, size=n))
        return true, pred, e_true, e_pred

    def test_covers_all_thirteen_variables_in_order(self):
        true, pred, e_true, e_pred = self.make_arrays()
        report = fold_report(true, pred, e_true, e_pred)
        assert tuple(report) == REPORT_VARIABLES
        assert REPORT_VARIABLES[-1] == ENERGY_VARIABLE
        assert len(TARGET_VARIABLES) == 12

    def test_columns_feed_the_right_rows(self):
        true, pred, e_true, e_pred = self.make_arrays()
        report = fold_report(true, pred, e_true, e_pred)
        for j, name in enumerate(TARGET_VARIABLES):
            assert report[name]["rmse"] == pytest.approx(
                rmse(true[:, j], pred[:, j]), rel=1e-12
            )
        assert report[ENERGY_VARIABLE]["r_squared"] == pytest.approx(
            r_squared(e_true, e_pred), rel=1e-12
        )

    def test_shape_mismatch_is_dimension_error(self):
        true, pred, e_true, e_pred = self.make_arrays()
        with pytest.raises(DimensionError):
            fold_report(true[:, :11], pred[:, :11], e_true, e_pred)

    @pytest.mark.parametrize("column", [3, 11, 12])
    def test_undefined_metric_names_the_variable(self, column):
        true, pred, e_true, e_pred = self.make_arrays()
        if column == 12:
            e_true[:] = 5e4
        else:
            true[:, column] = 15.0
        with pytest.raises(UndefinedMetricError) as caught:
            fold_report(true, pred, e_true, e_pred)
        assert str(caught.value) == (f"{REPORT_VARIABLES[column]}: r_squared is undefined "
                                     "for a constant truth vector")


class TestCheckScorable:
    def test_varying_truth_passes(self):
        rng = np.random.default_rng(97)
        check_scorable(rng.uniform(size=(3, 12)), rng.uniform(size=3), "cohort")

    @pytest.mark.parametrize("columns, named", [
        ([11], "specific_heat_gains"),
        ([12], "energy_consumption"),
        ([7, 2], "area_walls"),
    ])
    def test_first_constant_variable_is_named(self, columns, named):
        rng = np.random.default_rng(98)
        truth = rng.uniform(size=(4, 13))
        truth[:, columns] = 2.5
        with pytest.raises(DataError) as caught:
            check_scorable(truth[:, :12], truth[:, 12], "fold 3")
        assert str(caught.value) == (
            f"fold 3: {named}: r_squared is undefined for a constant truth vector")

    def test_one_row_names_the_first_variable(self):
        with pytest.raises(DataError, match="^d: area_basement_slab: r_squared needs at "
                                            "least two values$"):
            check_scorable(np.ones((1, 12)), np.ones(1), "d")


def report_with(value):
    """A one-variable report whose metrics are simple multiples of value."""
    vm = {"r_squared": value, "rmse": 2.0 * value, "nrmse": value / 2.0,
          "y_max": 1.0, "y_min": 0.0}
    return {"x": vm}


class TestAggregateFolds:
    def test_identical_folds_have_zero_std(self):
        aggregate = aggregate_folds([report_with(0.9)] * 4)
        cell = aggregate["variables"]["x"]["r_squared"]
        assert cell["mean"] == pytest.approx(0.9)
        assert cell["std"] == 0.0
        assert aggregate["n_folds"] == 4

    def test_population_std_of_two_folds(self):
        """R2 of 0.8 and 0.9: mean 0.85, population std 0.05 (the sample
        std would be 0.0707)."""
        aggregate = aggregate_folds([report_with(0.8), report_with(0.9)])
        cells = aggregate["variables"]["x"]
        assert cells["r_squared"]["mean"] == pytest.approx(0.85)
        assert cells["r_squared"]["std"] == pytest.approx(0.05, abs=1e-12)
        assert cells["rmse"]["mean"] == pytest.approx(1.7)
        assert cells["nrmse"]["std"] == pytest.approx(0.025, abs=1e-12)

    def test_single_fold_is_config_error(self):
        with pytest.raises(ConfigError):
            aggregate_folds([report_with(0.9)])

    def test_inconsistent_variables_is_usage_error(self):
        other = {"y": report_with(0.5)["x"]}
        with pytest.raises(UsageError):
            aggregate_folds([report_with(0.9), other])

    def test_dict_payload_structure(self):
        payload = aggregate_folds([report_with(0.8), report_with(0.9)])
        assert list(payload) == ["n_folds", "variables"]
        assert payload["n_folds"] == 2
        assert list(payload["variables"]["x"]) == ["r_squared", "rmse", "nrmse"]
        assert list(payload["variables"]["x"]["r_squared"]) == ["mean", "std"]
        assert payload["variables"]["x"]["r_squared"]["mean"] == pytest.approx(0.85)


class TestFormatting:
    def test_single_report_table(self):
        rng = np.random.default_rng(95)
        true = rng.uniform(1.0, 10.0, size=(15, 12))
        e_true = rng.uniform(1e4, 1e5, size=15)
        report = fold_report(true, true, e_true, e_true)
        table = format_metrics_table(report)
        lines = table.splitlines()
        assert "Variable" in lines[0] and "NRMSE" in lines[0]
        assert lines[2].startswith("area_basement_slab")
        assert lines[-1].startswith("energy_consumption")

    def test_aggregate_table_shows_mean_and_spread(self):
        aggregate = aggregate_folds([report_with(0.8), report_with(0.9)])
        table = format_report_table(aggregate)
        assert "±" in table
        assert "0.8500 ± 0.0500" in table
