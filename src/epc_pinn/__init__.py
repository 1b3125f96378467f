"""Decomposed building energy performance prediction.

A small feed-forward network predicts the twelve physical quantities of a
building envelope (five component areas, five U-values, air exchange
rate, specific heat gains) from general registry features. Training adds
a physics term to the loss: the predicted quantities are pushed through a
closed-form annual heating-energy balance and compared against measured
consumption, so the network's outputs stay physically consistent.
"""

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    DomainError,
    EpcPinnError,
    TrainingError,
    UndefinedMetricError,
    UsageError,
)
from .physics import (
    COMPONENTS,
    PhysicsConstants,
    energy_consumption,
    u_value,
)
from .data import JoinedCohort, MinMaxScaler, encode_features, join_on_cadastre
from .loss import LossValue, enhanced_loss, mse
from .nn import MlpModel, forward, init_model, load_checkpoint, save_checkpoint
from .synth import GeneratorConfig, generate_cohort, reference_energy
from .train import TrainConfig, cross_validate, train_fold
from .metrics import aggregate_folds, nrmse, r_squared, rmse

__version__ = "1.0.0"

__all__ = [
    "COMPONENTS",
    "ConfigError",
    "DataError",
    "DimensionError",
    "DomainError",
    "EpcPinnError",
    "GeneratorConfig",
    "JoinedCohort",
    "LossValue",
    "MinMaxScaler",
    "MlpModel",
    "PhysicsConstants",
    "TrainConfig",
    "TrainingError",
    "UndefinedMetricError",
    "UsageError",
    "aggregate_folds",
    "cross_validate",
    "encode_features",
    "energy_consumption",
    "enhanced_loss",
    "forward",
    "generate_cohort",
    "init_model",
    "join_on_cadastre",
    "load_checkpoint",
    "mse",
    "nrmse",
    "r_squared",
    "reference_energy",
    "rmse",
    "save_checkpoint",
    "train_fold",
    "u_value",
]
