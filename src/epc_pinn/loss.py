"""Two-term training loss: data fit plus physics consistency.

The network predicts the twelve scaled envelope quantities. The first
term is the plain MSE against the scaled targets. For the second term
each prediction row is mapped back to physical units, floored at zero,
pushed through the annual energy balance, rescaled with the energy
scaler, and compared against the scaled measured consumption:

    total = mse(z) + weight * mse(y)

with z the scaled 12-vectors and y the scaled energies. Both terms live
in scaled space so neither dominates by unit choice. The gradient with
respect to the scaled predictions is exact: inverse scaling is affine
(slope = per-column range), the zero floor contributes a zero
subgradient, and the energy balance supplies its own analytic gradient.
Inputs that do not depend on the network are plain per-row arrays, so a
fold derives them once. with_gradient=False returns the same value
without computing any gradient, for validation passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MinMaxScaler
from .errors import DimensionError, TrainingError
from .physics import STATE_DIM, PhysicsConstants, energy_consumption_batch


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of elementwise squared differences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass(eq=False)
class LossValue:
    """One loss evaluation; mse_y is stored unweighted, total applies the
    physics weight (so total = mse_z + mse_y at the default weight 1).
    The gradient is None when it was not asked for."""

    total: float
    mse_z: float
    mse_y: float
    gradient_wrt_predictions: np.ndarray | None  # (n, 12)


def enhanced_loss(
    predictions_scaled: np.ndarray,
    targets_scaled: np.ndarray,
    useful_area: np.ndarray,
    time_constants: np.ndarray,
    measured_scaled: np.ndarray,
    target_scaler: MinMaxScaler,
    energy_scaler: MinMaxScaler,
    consts: PhysicsConstants,
    physics_weight: float = 1.0,
    with_gradient: bool = True,
) -> LossValue:
    """Evaluate the loss, and its gradient if asked, for one batch.

    predictions_scaled/targets_scaled are (n, 12) in scaled units;
    useful_area (n,) in m2, time_constants (n,) the tau of each row's
    building type, and measured_scaled (n,) the measured consumption
    through energy_scaler. The target scaler has the 12 columns, the
    energy scaler one column. Raises TrainingError
    naming the first offending row if the value (or the gradient) is
    non-finite.
    """
    pred = np.asarray(predictions_scaled, dtype=float)
    targets = np.asarray(targets_scaled, dtype=float)
    if pred.ndim != 2 or pred.shape[1] != STATE_DIM:
        raise DimensionError(f"expected predictions of shape (n, {STATE_DIM}), got {pred.shape}")
    if targets.shape != pred.shape:
        raise DimensionError(
            f"targets shape {targets.shape} does not match predictions {pred.shape}"
        )
    n = pred.shape[0]
    useful_area = np.asarray(useful_area, dtype=float)
    taus = np.asarray(time_constants, dtype=float)
    measured_scaled = np.asarray(measured_scaled, dtype=float)
    if any(a.shape != (n,) for a in (useful_area, taus, measured_scaled)):
        raise DimensionError(
            f"useful_area, time_constants and measured_scaled must have shape ({n},), "
            f"got {useful_area.shape}, {taus.shape} and {measured_scaled.shape}"
        )

    mse_z = mse(pred, targets)
    raw_physical = target_scaler.inverse_transform(pred)
    physical = np.maximum(raw_physical, 0.0)
    batch = energy_consumption_batch(
        physical, useful_area, taus, consts, with_gradient=with_gradient
    )
    diff = energy_scaler.transform(batch.energy_consumption) - measured_scaled
    mse_y = float(np.mean(diff**2))
    total = mse_z + physics_weight * mse_y

    gradient = None
    if with_gradient:
        grad_z = 2.0 * (pred - targets) / pred.size
        energy_slope = 1.0 / energy_scaler.divisor[0]
        target_slopes = target_scaler.divisor  # (12,): d(physical)/d(scaled)
        grad_y = (
            (2.0 / n)
            * diff[:, None]
            * energy_slope
            * batch.gradient
            * (raw_physical > 0)  # zero subgradient where the floor bites
            * target_slopes[None, :]
        )
        gradient = grad_z + physics_weight * grad_y

    if not (np.isfinite(total) and (gradient is None or np.all(np.isfinite(gradient)))):
        checked = (batch.energy_consumption[:, None], diff[:, None], pred, gradient)
        finite = [np.isfinite(a).all(axis=1) for a in checked if a is not None]
        row = int(np.argmin(np.all(finite, axis=0)))  # the first row not finite
        raise TrainingError(f"non-finite loss contribution at batch row {row}", row)
    return LossValue(
        total=total, mse_z=mse_z, mse_y=mse_y, gradient_wrt_predictions=gradient
    )
