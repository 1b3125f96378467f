"""Regression metrics per output variable and their cross-fold aggregation.

Metrics are computed in physical units after inverse scaling, per fold on
that fold's test set, then aggregated as mean plus population standard
deviation across folds. The report row order is fixed: the five areas,
the five U-values, air exchange rate, specific heat gains, and last the
reconstructed annual energy consumption, named area_<c> and u_<c> after
physics.COMPONENTS (c lower-cased, "/" as "_"). Reports are the plain
dicts that results.json and evaluate --out hold, and the two table
formatters read.

One kernel, _score_rows, scores every variable at once: each variable is
one row of a C-contiguous (variables, n) matrix and every sum and mean
runs along that contiguous last axis. numpy reduces such a row with the
same pairwise sum as a lone 1-D vector, strided or not, so a report's
values are bitwise those of scoring each variable on its own. Stacking
the variables as columns instead (a Fortran-ordered matrix) sums across
rows in sequence and moves the last bits. Only the sign of a zero y_max
or y_min can differ: numpy's max and min pick 0.0 or -0.0 by the order
they reduce in, which for a lone column depends on its memory layout.
r_squared, rmse and nrmse are the kernel's one-row case.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, DimensionError, UndefinedMetricError, UsageError
from .physics import COMPONENTS, STATE_DIM

# Fixed report order: the 12 envelope quantities in state order, then the energy row.
TARGET_VARIABLES: tuple[str, ...] = tuple(
    f"{kind}_{name.lower().replace('/', '_')}" for kind in ("area", "u") for name in COMPONENTS
) + ("air_exchange_rate", "specific_heat_gains")
ENERGY_VARIABLE = "energy_consumption"
REPORT_VARIABLES: tuple[str, ...] = TARGET_VARIABLES + (ENERGY_VARIABLE,)

METRIC_NAMES: tuple[str, ...] = ("r_squared", "rmse", "nrmse")
# What the kernel returns per row: the metrics, then the truth's range.
SCORE_NAMES: tuple[str, ...] = METRIC_NAMES + ("y_max", "y_min")


def _check_pair(true: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    true = np.asarray(true, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if true.ndim != 1 or pred.ndim != 1:
        raise DimensionError("metrics expect 1-dimensional arrays")
    if true.shape != pred.shape:
        raise DimensionError(f"length mismatch: {true.shape[0]} vs {pred.shape[0]}")
    if true.shape[0] == 0:
        raise DimensionError("metrics need at least one value")
    return true, pred


def _score_rows(true: np.ndarray, pred: np.ndarray, metrics: tuple[str, ...],
                names: tuple[str, ...] | None = None) -> dict[str, np.ndarray]:
    """SCORE_NAMES to their values per row of C-contiguous (variables, n)
    truth and prediction matrices, n >= 1.

    r_squared is 1 - SS_res/SS_tot, undefined for fewer than two values or
    a constant truth, where SS_tot vanishes; constancy is read from the
    range, as a rounded mean leaves SS_tot just above 0. rmse is in the
    rows' own units and nrmse is it over the truth's range. A metric that
    is not finite is undefined too. The first row with an undefined metric
    among metrics raises UndefinedMetricError, prefixed with its name when
    names are given; within a row the checks run in the order below.
    """
    n = true.shape[1]
    with np.errstate(all="ignore"):
        y_max, y_min = true.max(axis=1), true.min(axis=1)
        ss_tot = np.sum((true - true.mean(axis=1)[:, None]) ** 2, axis=1)
        ss_res = np.sum((true - pred) ** 2, axis=1)
        span = y_max - y_min
        scores = {"r_squared": 1.0 - ss_res / ss_tot, "rmse": np.sqrt(ss_res / n)}
        scores["nrmse"] = scores["rmse"] / span
    # Each metric's undefined cases as (metric, failing rows, problem), a
    # row checked in this order; a problem of None is a value that is not
    # finite. nrmse is rmse over the range, so it checks rmse's case too. A
    # zero range implies a constant truth, so checking it before rmse
    # changes nothing when r_squared is checked, and keeps nrmse's order.
    checks = (
        ("r_squared", np.full(len(true), n < 2), "needs at least two values"),
        ("r_squared", (ss_tot == 0) | (y_max == y_min),
         "is undefined for a constant truth vector"),
        ("r_squared", ~np.isfinite(scores["r_squared"]), None),
        ("nrmse", span == 0, "is undefined for a zero-range truth vector"),
        ("rmse", ~np.isfinite(scores["rmse"]), None),
        ("nrmse", ~np.isfinite(scores["nrmse"]), None),
    )
    checked = {*metrics, "rmse"} if "nrmse" in metrics else set(metrics)
    checks = [check for check in checks if check[0] in checked]
    failed = np.stack([rows for _, rows, _ in checks], axis=1)
    if failed.any():
        row = int(np.argmax(failed.any(axis=1)))
        metric, _, problem = checks[int(np.argmax(failed[row]))]
        if problem is None:
            problem = f"is not finite ({float(scores[metric][row])})"
        message = f"{metric} {problem}"
        raise UndefinedMetricError(message if names is None else f"{names[row]}: {message}")
    return {**scores, "y_max": y_max, "y_min": y_min}


def _score_pair(true: np.ndarray, pred: np.ndarray, metric: str) -> float:
    true, pred = _check_pair(true, pred)
    rows = (np.ascontiguousarray(true[None]), np.ascontiguousarray(pred[None]))
    return float(_score_rows(*rows, (metric,))[metric][0])


def r_squared(true: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot.

    Undefined (and raised as such) for fewer than two values or a
    constant truth vector, where SS_tot vanishes; constancy is read from
    the range, as a rounded mean leaves SS_tot just above 0. Like rmse and
    nrmse it raises rather than return a value that is not finite.
    """
    return _score_pair(true, pred, "r_squared")


def rmse(true: np.ndarray, pred: np.ndarray) -> float:
    """Root mean squared error in the arrays' own units."""
    return _score_pair(true, pred, "rmse")


def nrmse(true: np.ndarray, pred: np.ndarray) -> float:
    """RMSE normalized by the range of the true values."""
    return _score_pair(true, pred, "nrmse")


def _report_rows(targets: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """The C-contiguous (13, n) matrix of the targets' columns then the energy."""
    rows = np.empty((STATE_DIM + 1, energy.shape[0]))
    rows[:STATE_DIM] = targets.T
    rows[STATE_DIM] = energy
    return rows


def fold_report(
    targets_true: np.ndarray,
    targets_pred: np.ndarray,
    energy_true: np.ndarray,
    energy_pred: np.ndarray,
) -> dict[str, dict[str, float]]:
    """{"r_squared", "rmse", "nrmse", "y_max", "y_min"} of the 12 physical
    targets plus energy, keyed by variable in report order; an
    UndefinedMetricError names the first variable with an undefined metric."""
    targets_true = np.asarray(targets_true, dtype=float)
    targets_pred = np.asarray(targets_pred, dtype=float)
    if targets_true.shape != targets_pred.shape or targets_true.shape[1:] != (STATE_DIM,):
        raise DimensionError(
            f"expected matching (n, {STATE_DIM}) target matrices, got "
            f"{targets_true.shape} and {targets_pred.shape}"
        )
    energy_true, energy_pred = _check_pair(energy_true, energy_pred)
    if energy_true.shape[0] != targets_true.shape[0]:
        raise DimensionError(f"{energy_true.shape[0]} energy values for "
                             f"{targets_true.shape[0]} target rows")
    scores = _score_rows(_report_rows(targets_true, energy_true),
                         _report_rows(targets_pred, energy_pred),
                         METRIC_NAMES, REPORT_VARIABLES)
    columns = [scores[name].tolist() for name in SCORE_NAMES]
    return {name: dict(zip(SCORE_NAMES, values))
            for name, values in zip(REPORT_VARIABLES, zip(*columns))}


def check_scorable(targets_true: np.ndarray, energy_true: np.ndarray, where: str) -> None:
    """Raise DataError naming where if the truth alone leaves a metric of a
    report variable undefined, whatever the predictions: fewer than two
    values, or one value throughout."""
    try:
        fold_report(targets_true, targets_true, energy_true, energy_true)
    except UndefinedMetricError as exc:
        raise DataError(f"{where}: {exc}") from None


def mean_std(values) -> dict[str, float]:
    """{"mean", "std"} of values, the standard deviation the population one.
    Where finite values overflow either, both are computed on the values
    scaled by a power of two, which is exact, and scaled back."""
    values = np.array(values)
    with np.errstate(over="ignore"):
        mean, std = values.mean(), values.std()
    if not np.isfinite([mean, std]).all() and values.size and np.isfinite(values).all():
        exponent = np.frexp(np.abs(values).max())[1]
        scaled = np.ldexp(values, -exponent)
        mean, std = np.ldexp(scaled.mean(), exponent), np.ldexp(scaled.std(), exponent)
    return {"mean": float(mean), "std": float(std)}


def aggregate_folds(reports: list[dict]) -> dict:
    """{"n_folds", "variables": {variable: {metric: mean_std}}} across
    fold_report dicts."""
    if len(reports) < 2:
        raise ConfigError(f"need at least 2 fold reports, got {len(reports)}")
    names = list(reports[0])
    if any(list(report) != names for report in reports[1:]):
        raise UsageError("fold reports cover inconsistent variable sets")
    return {
        "n_folds": len(reports),
        "variables": {
            name: {metric: mean_std([report[name][metric] for report in reports])
                   for metric in METRIC_NAMES}
            for name in names
        },
    }


def _table(widths: tuple[int, ...], rows) -> str:
    """Fixed-width text table: a Variable, R2, RMSE, NRMSE header, a rule
    and one left-justified line per row of cells."""
    header = ("Variable", "R2", "RMSE", "NRMSE")
    lines = ["".join(v.ljust(w) for v, w in zip(row, widths)) for row in [header, *rows]]
    lines.insert(1, "-" * sum(widths))
    return "\n".join(lines) + "\n"


def format_metrics_table(report: dict) -> str:
    """Fixed-width text table of a fold_report."""
    return _table((22, 12, 16, 12), (
        (name, f"{m['r_squared']:.4f}", f"{m['rmse']:.2f}", f"{m['nrmse']:.4f}")
        for name, m in report.items()
    ))


def format_report_table(aggregate: dict) -> str:
    """Fixed-width text table of an aggregate_folds dict: R2, RMSE, NRMSE
    as mean ± std."""

    def cell(cells: dict, metric: str, decimals: int) -> str:
        c = cells[metric]
        return f"{c['mean']:.{decimals}f} ± {c['std']:.{decimals}f}"

    return _table((22, 20, 24, 20), (
        (name, cell(cells, "r_squared", 4), cell(cells, "rmse", 2), cell(cells, "nrmse", 4))
        for name, cells in aggregate["variables"].items()
    ))
