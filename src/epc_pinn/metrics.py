"""Regression metrics per output variable and their cross-fold aggregation.

Metrics are computed in physical units after inverse scaling, per fold on
that fold's test set, then aggregated as mean plus population standard
deviation across folds. The report row order is fixed: the five areas,
the five U-values, air exchange rate, specific heat gains, and last the
reconstructed annual energy consumption. Reports are the plain dicts that
results.json and evaluate --out hold, and the two table formatters read.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, DimensionError, UndefinedMetricError, UsageError
from .physics import STATE_DIM

# Fixed report order: 12 envelope quantities then the energy row.
TARGET_VARIABLES: tuple[str, ...] = (
    "area_basement_slab",
    "area_roof_attic",
    "area_walls",
    "area_doors",
    "area_windows",
    "u_basement_slab",
    "u_roof_attic",
    "u_walls",
    "u_doors",
    "u_windows",
    "air_exchange_rate",
    "specific_heat_gains",
)
ENERGY_VARIABLE = "energy_consumption"
REPORT_VARIABLES: tuple[str, ...] = TARGET_VARIABLES + (ENERGY_VARIABLE,)

METRIC_NAMES: tuple[str, ...] = ("r_squared", "rmse", "nrmse")


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


def _finite(name: str, value: float) -> float:
    if not np.isfinite(value):
        raise UndefinedMetricError(f"{name} is not finite ({value})")
    return value


def r_squared(true: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot.

    Undefined (and raised as such) for fewer than two values or a
    constant truth vector, where SS_tot vanishes; constancy is read from
    the range, as a rounded mean leaves SS_tot just above 0. Like rmse and
    nrmse it raises rather than return a value that is not finite.
    """
    true, pred = _check_pair(true, pred)
    if true.shape[0] < 2:
        raise UndefinedMetricError("r_squared needs at least two values")
    with np.errstate(all="ignore"):
        ss_tot = float(np.sum((true - true.mean()) ** 2))
        if ss_tot == 0 or true.max() == true.min():
            raise UndefinedMetricError("r_squared is undefined for a constant truth vector")
        ss_res = float(np.sum((true - pred) ** 2))
        return _finite("r_squared", 1.0 - ss_res / ss_tot)


def rmse(true: np.ndarray, pred: np.ndarray) -> float:
    """Root mean squared error in the arrays' own units."""
    true, pred = _check_pair(true, pred)
    with np.errstate(all="ignore"):
        return _finite("rmse", float(np.sqrt(np.mean((true - pred) ** 2))))


def nrmse(true: np.ndarray, pred: np.ndarray) -> float:
    """RMSE normalized by the range of the true values."""
    true, pred = _check_pair(true, pred)
    with np.errstate(all="ignore"):
        span = float(true.max() - true.min())
    if span == 0:
        raise UndefinedMetricError("nrmse is undefined for a zero-range truth vector")
    return _finite("nrmse", rmse(true, pred) / span)


def variable_metrics(true: np.ndarray, pred: np.ndarray) -> dict[str, float]:
    """{"r_squared", "rmse", "nrmse", "y_max", "y_min"} of one variable."""
    true = np.asarray(true, dtype=float)
    return {
        "r_squared": r_squared(true, pred),
        "rmse": rmse(true, pred),
        "nrmse": nrmse(true, pred),
        "y_max": float(true.max()),
        "y_min": float(true.min()),
    }


def fold_report(
    targets_true: np.ndarray,
    targets_pred: np.ndarray,
    energy_true: np.ndarray,
    energy_pred: np.ndarray,
) -> dict[str, dict[str, float]]:
    """variable_metrics of the 12 physical targets plus energy, keyed by
    variable in report order; an UndefinedMetricError names the variable."""
    targets_true = np.asarray(targets_true, dtype=float)
    targets_pred = np.asarray(targets_pred, dtype=float)
    if targets_true.shape != targets_pred.shape or targets_true.shape[1:] != (STATE_DIM,):
        raise DimensionError(
            f"expected matching (n, {STATE_DIM}) target matrices, got "
            f"{targets_true.shape} and {targets_pred.shape}"
        )
    pairs = [(targets_true[:, j], targets_pred[:, j]) for j in range(STATE_DIM)]
    report = {}
    for name, (true, pred) in zip(REPORT_VARIABLES, [*pairs, (energy_true, energy_pred)]):
        try:
            report[name] = variable_metrics(true, pred)
        except UndefinedMetricError as exc:
            raise UndefinedMetricError(f"{name}: {exc}") from None
    return report


def check_scorable(targets_true: np.ndarray, energy_true: np.ndarray, where: str) -> None:
    """Raise DataError naming where if the truth alone leaves a metric of a
    report variable undefined, whatever the predictions: fewer than two
    values, or one value throughout."""
    try:
        fold_report(targets_true, targets_true, energy_true, energy_true)
    except UndefinedMetricError as exc:
        raise DataError(f"{where}: {exc}") from None


def mean_std(values) -> dict[str, float]:
    """{"mean", "std"} of values, the standard deviation the population one."""
    values = np.array(values)
    return {"mean": float(values.mean()), "std": float(values.std())}


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
