"""Unit tests for the regression metrics and their cross-fold aggregation.

Each metric is checked by hand on tiny vectors, undefined cases must
raise rather than return NaN, and the aggregation must use the
population (not sample) standard deviation. Random reports must equal,
bitwise, the per-variable formulas kept here as the reference.
"""

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the test extra
    given = None

from epc_pinn import metrics
from epc_pinn.errors import (
    ConfigError,
    DataError,
    DimensionError,
    UndefinedMetricError,
    UsageError,
)
from epc_pinn.metrics import (
    ENERGY_VARIABLE,
    METRIC_NAMES,
    REPORT_VARIABLES,
    TARGET_VARIABLES,
    aggregate_folds,
    check_scorable,
    fold_report,
    format_metrics_table,
    format_report_table,
    mean_std,
    nrmse,
    r_squared,
    rmse,
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

    def test_records_the_observed_range(self):
        true = np.array([2.0, 8.0, 5.0])
        energy = np.array([3.0, 1.0, 2.0])
        report = fold_report(np.repeat(true[:, None], 12, axis=1), np.full((3, 12), 5.0),
                             energy, energy)
        vm = report["u_walls"]
        assert list(vm) == ["r_squared", "rmse", "nrmse", "y_max", "y_min"]
        assert (vm["y_max"], vm["y_min"]) == (8.0, 2.0)
        assert vm["rmse"] == np.sqrt(6.0)
        assert report[ENERGY_VARIABLE]["r_squared"] == 1.0
        assert report[ENERGY_VARIABLE]["rmse"] == 0.0

    def test_shape_mismatch_is_dimension_error(self):
        true, pred, e_true, e_pred = self.make_arrays()
        with pytest.raises(DimensionError):
            fold_report(true[:, :11], pred[:, :11], e_true, e_pred)
        with pytest.raises(DimensionError, match="^5 energy values for 20 target rows$"):
            fold_report(true, pred, e_true[:5], e_pred[:5])

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


class TestMeanStd:
    def test_population_mean_and_std(self):
        assert mean_std([1.0, 3.0]) == {"mean": 2.0, "std": 1.0}

    def test_overflowing_squares_are_scaled_into_range(self):
        """The squared deviations of 2.0e159 and 2.1e159 overflow; scaled
        by an exact power of two they do not."""
        summary = mean_std([2.0e159, 2.1e159])
        assert summary["mean"] == pytest.approx(2.05e159, rel=1e-15)
        assert summary["std"] == pytest.approx(0.05e159, rel=1e-12)

    def test_an_overflowing_sum_is_scaled_into_range(self):
        summary = mean_std([1.5e308, 1.7e308, -1e308])
        assert summary["mean"] == pytest.approx(2.2 / 3 * 1e308, rel=1e-15)
        assert np.isfinite(summary["std"])

    @pytest.mark.parametrize("exponent", [600, 1000, 1023])
    def test_the_fallback_is_the_plain_result_scaled(self, exponent):
        """Scaling by a power of two is exact, so where the squares (from
        2**513) or the sum (at 2**1023) overflow, the summary is the plain
        one of the unscaled values, scaled by the same power."""
        values = np.random.default_rng(7).uniform(0.5, 1.0, size=10)
        expected = {key: float(np.ldexp(value, exponent))
                    for key, value in mean_std(values).items()}
        assert mean_std(np.ldexp(values, exponent)) == expected

    @pytest.mark.parametrize("values", [[1e300, 1e300, 1e300], [0.1, 0.2, 0.3], [5.0]])
    def test_finite_summaries_are_the_plain_ones(self, values):
        array = np.array(values)
        assert mean_std(values) == {"mean": float(array.mean()), "std": float(array.std())}

    def test_non_finite_values_stay_non_finite(self):
        with np.errstate(invalid="ignore"):
            assert np.isnan(mean_std([1.0, np.nan])["mean"])
            assert mean_std([1.0, np.inf])["mean"] == np.inf


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


# ---------------------------------------------------------------------------
# The kernel against the per-variable formulas


def _finite(name, value):
    if not np.isfinite(value):
        raise UndefinedMetricError(f"{name} is not finite ({value})")
    return value


def reference_r_squared(true, pred):
    if true.shape[0] < 2:
        raise UndefinedMetricError("r_squared needs at least two values")
    with np.errstate(all="ignore"):
        ss_tot = float(np.sum((true - true.mean()) ** 2))
        if ss_tot == 0 or true.max() == true.min():
            raise UndefinedMetricError("r_squared is undefined for a constant truth vector")
        return _finite("r_squared", 1.0 - float(np.sum((true - pred) ** 2)) / ss_tot)


def reference_rmse(true, pred):
    with np.errstate(all="ignore"):
        return _finite("rmse", float(np.sqrt(np.mean((true - pred) ** 2))))


def reference_nrmse(true, pred):
    with np.errstate(all="ignore"):
        span = float(true.max() - true.min())
    if span == 0:
        raise UndefinedMetricError("nrmse is undefined for a zero-range truth vector")
    return _finite("nrmse", reference_rmse(true, pred) / span)


REFERENCES = {"r_squared": reference_r_squared, "rmse": reference_rmse,
              "nrmse": reference_nrmse}


def reference_report(targets_true, targets_pred, energy_true, energy_pred):
    """fold_report by the per-variable formulas, one 1-D column at a time."""
    columns = [(targets_true[:, j], targets_pred[:, j]) for j in range(12)]
    report = {}
    for name, (true, pred) in zip(REPORT_VARIABLES, [*columns, (energy_true, energy_pred)]):
        try:
            report[name] = {metric: f(true, pred) for metric, f in REFERENCES.items()}
        except UndefinedMetricError as exc:
            raise UndefinedMetricError(f"{name}: {exc}") from None
        report[name].update(y_max=float(true.max()), y_min=float(true.min()))
    return report


def outcome(f, *args):
    """f(*args), a float as float.hex, or the type and message of the
    error it raised."""
    try:
        value = f(*args)
    except (UndefinedMetricError, DataError) as exc:
        return type(exc), str(exc)
    return value.hex() if isinstance(value, float) else value


def bits(report):
    """A report with each value as float.hex, which tells -0.0 from 0.0."""
    if not isinstance(report, dict):
        return report
    return {name: {k: v.hex() for k, v in cells.items()} for name, cells in report.items()}


def laid_out(matrix, layout):
    """matrix as a C-ordered, a Fortran-ordered or a strided array."""
    if layout == "strided":
        wide = np.zeros(tuple(2 * d for d in matrix.shape))
        view = wide[tuple(slice(None, None, 2) for _ in matrix.shape)]
        view[...] = matrix
        return view
    return np.asfortranarray(matrix) if layout == "F" else np.ascontiguousarray(matrix)


LAYOUTS = ("C", "F", "strided")
SPECIAL_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300, np.nan, np.inf, -np.inf)

if given is not None:
    @st.composite
    def truth_and_predictions(draw, max_rows=300):
        """(n, 13) truth and predictions, the energy last: random columns
        over many magnitudes, or whole numbers >= 0 with both signed zeros
        (ties at the bounds); some constant, and a few special values."""
        n = draw(st.integers(2, max_rows))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = 10.0 ** rng.uniform(-3.0, 6.0, size=13)
        true = (rng.normal(size=(n, 13)) + rng.normal(size=13)) * scale
        if draw(st.booleans()):
            true = np.round(true / scale)
            true = np.where(true == 0, true, np.abs(true))
        pred = true + rng.normal(size=(n, 13)) * scale * 10.0 ** rng.uniform(-3.0, 0.0, size=13)
        for column in draw(st.lists(st.integers(0, 12), max_size=2)):
            true[:, column] = draw(st.sampled_from([0.1, -0.0, 2.5]))
        for _ in range(draw(st.integers(0, 3))):
            matrix = draw(st.sampled_from([true, pred]))
            row, column = draw(st.integers(0, n - 1)), draw(st.integers(0, 12))
            matrix[row, column] = draw(st.sampled_from(SPECIAL_VALUES))
        return true, pred

    @settings(max_examples=300)
    @given(drawn=truth_and_predictions(), layout=st.sampled_from(LAYOUTS))
    def test_fold_report_is_bitwise_the_per_variable_reference(drawn, layout):
        """Every metric is bitwise equal, and an undefined one raises the
        same message naming the same first variable. y_max and y_min are
        compared by value: which of 0.0 and -0.0 numpy returns as the bound
        of a column holding both depends on the memory layout it reduces,
        so the per-variable formulas gave either. fold_report copies every
        layout into one, so its own bits do not depend on the layout."""
        true, pred = drawn
        args = [laid_out(m, layout) for m in (true[:, :12], pred[:, :12], true[:, 12], pred[:, 12])]
        expected = outcome(reference_report, *args)
        got = outcome(fold_report, *args)
        if isinstance(expected, dict):
            assert got == expected
            for name in REPORT_VARIABLES:
                for metric in METRIC_NAMES:
                    assert got[name][metric].hex() == expected[name][metric].hex()
        else:
            assert got == expected
        for other in LAYOUTS:
            others = [laid_out(m, other) for m in (true[:, :12], pred[:, :12],
                                                   true[:, 12], pred[:, 12])]
            assert bits(outcome(fold_report, *others)) == bits(got)

    @settings(max_examples=300)
    @given(drawn=truth_and_predictions(), layout=st.sampled_from(LAYOUTS))
    def test_check_scorable_is_the_reference_on_the_truth_alone(drawn, layout):
        true, _ = drawn
        targets, energy = laid_out(true[:, :12], layout), laid_out(true[:, 12], layout)
        expected = outcome(reference_report, targets, targets, energy, energy)
        if isinstance(expected, dict):
            check_scorable(targets, energy, "cohort")
        else:
            with pytest.raises(DataError) as caught:
                check_scorable(targets, energy, "cohort")
            assert str(caught.value) == f"cohort: {expected[1]}"

    @settings(max_examples=300)
    @given(drawn=truth_and_predictions(max_rows=20), rows=st.integers(1, 20),
           column=st.integers(0, 12), layout=st.sampled_from(LAYOUTS))
    def test_each_metric_is_the_kernels_one_row_case(drawn, rows, column, layout):
        """r_squared, rmse and nrmse alone, one row included, keep the
        reference's value bits and its first undefined case."""
        true, pred = (laid_out(m[:rows, column], layout) for m in drawn)
        for metric, reference in REFERENCES.items():
            assert outcome(getattr(metrics, metric), true, pred) == outcome(reference, true, pred)
