"""Regression metrics per output variable and their cross-fold aggregation.

Metrics are computed in physical units after inverse scaling, per fold on
that fold's test set, then aggregated as mean plus population standard
deviation across folds. The report row order is fixed: the five areas,
the five U-values, air exchange rate, specific heat gains, and last the
reconstructed annual energy consumption.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DimensionError, UndefinedMetricError, UsageError
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
    constant truth vector, where SS_tot vanishes. Like rmse and nrmse it
    raises rather than return a value that is not finite.
    """
    true, pred = _check_pair(true, pred)
    if true.shape[0] < 2:
        raise UndefinedMetricError("r_squared needs at least two values")
    with np.errstate(all="ignore"):
        ss_tot = float(np.sum((true - true.mean()) ** 2))
        if ss_tot == 0:
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


@dataclass
class VariableMetrics:
    r_squared: float
    rmse: float
    nrmse: float
    y_max: float
    y_min: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricsReport:
    """Per-variable metrics for one evaluated set, in fixed row order."""

    variables: dict[str, VariableMetrics]

    def to_dict(self) -> dict:
        return {name: vm.to_dict() for name, vm in self.variables.items()}


def variable_metrics(true: np.ndarray, pred: np.ndarray) -> VariableMetrics:
    true = np.asarray(true, dtype=float)
    return VariableMetrics(
        r_squared=r_squared(true, pred),
        rmse=rmse(true, pred),
        nrmse=nrmse(true, pred),
        y_max=float(true.max()),
        y_min=float(true.min()),
    )


def fold_report(
    targets_true: np.ndarray,
    targets_pred: np.ndarray,
    energy_true: np.ndarray,
    energy_pred: np.ndarray,
) -> MetricsReport:
    """Metrics for one fold: the 12 physical targets plus energy."""
    targets_true = np.asarray(targets_true, dtype=float)
    targets_pred = np.asarray(targets_pred, dtype=float)
    if targets_true.shape != targets_pred.shape or targets_true.shape[1:] != (STATE_DIM,):
        raise DimensionError(
            f"expected matching (n, {STATE_DIM}) target matrices, got "
            f"{targets_true.shape} and {targets_pred.shape}"
        )
    variables = {}
    for j, name in enumerate(TARGET_VARIABLES):
        variables[name] = variable_metrics(targets_true[:, j], targets_pred[:, j])
    variables[ENERGY_VARIABLE] = variable_metrics(energy_true, energy_pred)
    return MetricsReport(variables=variables)


@dataclass
class AggregateCell:
    mean: float
    std: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AggregateReport:
    """Cross-fold mean and population standard deviation per cell."""

    n_folds: int
    variables: dict[str, dict[str, AggregateCell]]

    def to_dict(self) -> dict:
        return asdict(self)

    def cell(self, variable: str, metric: str) -> AggregateCell:
        return self.variables[variable][metric]


def aggregate_folds(reports: list[MetricsReport]) -> AggregateReport:
    """Mean and population std of every metric across fold reports."""
    if len(reports) < 2:
        raise ConfigError(f"need at least 2 fold reports, got {len(reports)}")
    names = list(reports[0].variables)
    for report in reports[1:]:
        if list(report.variables) != names:
            raise UsageError("fold reports cover inconsistent variable sets")
    variables: dict[str, dict[str, AggregateCell]] = {}
    for name in names:
        variables[name] = {}
        for metric in METRIC_NAMES:
            values = np.array(
                [getattr(report.variables[name], metric) for report in reports]
            )
            variables[name][metric] = AggregateCell(
                mean=float(values.mean()), std=float(values.std())
            )
    return AggregateReport(n_folds=len(reports), variables=variables)


def _table(widths: tuple[int, ...], rows) -> str:
    """Fixed-width text table: a Variable, R2, RMSE, NRMSE header, a rule
    and one left-justified line per row of cells."""
    header = ("Variable", "R2", "RMSE", "NRMSE")
    lines = ["".join(v.ljust(w) for v, w in zip(row, widths)) for row in [header, *rows]]
    lines.insert(1, "-" * sum(widths))
    return "\n".join(lines) + "\n"


def format_metrics_table(report: MetricsReport) -> str:
    """Fixed-width text table for a single evaluated set."""
    return _table((22, 12, 16, 12), (
        (name, f"{vm.r_squared:.4f}", f"{vm.rmse:.2f}", f"{vm.nrmse:.4f}")
        for name, vm in report.variables.items()
    ))


def format_report_table(aggregate: AggregateReport) -> str:
    """Fixed-width text table: Variable, R2, RMSE, NRMSE as mean ± std."""

    def cell(variable: str, metric: str, decimals: int) -> str:
        c = aggregate.cell(variable, metric)
        return f"{c.mean:.{decimals}f} ± {c.std:.{decimals}f}"

    return _table((22, 20, 24, 20), (
        (name, cell(name, "r_squared", 4), cell(name, "rmse", 2), cell(name, "nrmse", 4))
        for name in aggregate.variables
    ))
