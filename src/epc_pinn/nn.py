"""Small fully connected network with hand-rolled backpropagation.

The model maps a feature vector to the twelve envelope quantities through
dense layers with ReLU activations on the hidden layers and an identity
output layer. Everything is plain numpy: forward returns a cache of
intermediate activations, backward consumes it to produce exact parameter
gradients, and Adam with bias correction performs the update. A plateau
scheduler and an early stopper with best-weights snapshotting drive the
training loop.

Checkpoints are JSON: layer sizes and activation in the clear, the flat
parameter vector as base64-encoded little-endian float64 bytes, plus an
arbitrary JSON-serializable extra payload for callers.
"""

from __future__ import annotations

import base64
import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DimensionError, TrainingError, UsageError

ACTIVATIONS = ("relu", "identity")

CHECKPOINT_FORMAT_VERSION = 1
CHECKPOINT_DTYPE = "<f8"  # little-endian float64, fixed for portability


@dataclass(eq=False)
class MlpModel:
    """Dense network parameters.

    weights[l] has shape (fan_in, fan_out) so a batch propagates as
    x @ W + b; biases[l] has shape (fan_out,). version is bumped by any
    in-place parameter mutation and lets forward caches detect staleness.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    version: int = 0

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def parameters(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (W0, b0, W1, b1, ...)."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_parameters(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def set_parameters(self, params: list[np.ndarray]) -> None:
        own = self.parameters()
        if len(params) != len(own):
            raise DimensionError(
                f"expected {len(own)} parameter arrays, got {len(params)}"
            )
        for dst, src in zip(own, params):
            if dst.shape != src.shape:
                raise DimensionError(
                    f"parameter shape mismatch: expected {dst.shape}, got {src.shape}"
                )
            dst[...] = src
        self.version += 1


def init_model(
    layer_dims: tuple[int, ...] | list[int], seed: int, activation: str = "relu"
) -> MlpModel:
    """Build a model with uniform(-sqrt(1/fan_in), sqrt(1/fan_in)) weights
    and zero biases, deterministically from the seed."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer dims must all be >= 1, got {dims}")
    if activation not in ACTIVATIONS:
        raise ConfigError(
            f"unknown activation {activation!r}; choose from {ACTIVATIONS}"
        )
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases, activation=activation)


@dataclass(eq=False)
class ForwardCache:
    """Intermediates of one forward pass, consumed by backward.

    activations[0] is the input batch, activations[l] the output of layer
    l; pre_activations[l] is the affine result of layer l before its
    nonlinearity. model_id/model_version pin the cache to the exact
    parameter state that produced it.
    """

    model_id: int
    model_version: int
    activations: list[np.ndarray]
    pre_activations: list[np.ndarray]


def _apply_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return z


def forward(model: MlpModel, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Propagate a batch (n, input_dim) and keep what backward needs.

    Hidden layers apply the model activation; the final layer is identity
    so the outputs are unbounded regression values.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.layer_dims[0]:
        raise DimensionError(
            f"expected inputs of shape (n, {model.layer_dims[0]}), got {x.shape}"
        )
    activations = [x]
    pre_activations = []
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ w + b
        pre_activations.append(z)
        is_output = l == model.n_layers - 1
        activations.append(z if is_output else _apply_activation(z, model.activation))
    cache = ForwardCache(
        model_id=id(model),
        model_version=model.version,
        activations=activations,
        pre_activations=pre_activations,
    )
    return activations[-1], cache


@dataclass(eq=False)
class Gradients:
    """Parameter gradients mirroring the model layout."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def flat(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def backward(model: MlpModel, cache: ForwardCache, output_grad: np.ndarray) -> Gradients:
    """Backpropagate the loss gradient at the outputs through the network.

    output_grad must match the forward output shape; the result contains
    d(loss)/dW and d(loss)/db for every layer. Raises UsageError if the
    model was mutated after the cache was built.
    """
    if cache.model_id != id(model) or cache.model_version != model.version:
        raise UsageError(
            "forward cache is stale: the model parameters changed since the "
            "cache was built; rerun forward before backward"
        )
    g = np.asarray(output_grad, dtype=float)
    expected = cache.activations[-1].shape
    if g.shape != expected:
        raise DimensionError(
            f"expected output gradient of shape {expected}, got {g.shape}"
        )
    grad_w: list[np.ndarray] = [np.empty(0)] * model.n_layers
    grad_b: list[np.ndarray] = [np.empty(0)] * model.n_layers
    delta = g
    for l in range(model.n_layers - 1, -1, -1):
        if l < model.n_layers - 1 and model.activation == "relu":
            delta = delta * (cache.pre_activations[l] > 0)
        grad_w[l] = cache.activations[l].T @ delta
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l].T
    return Gradients(weights=grad_w, biases=grad_b)


@dataclass(eq=False)
class AdamState:
    """Adam with bias correction; epsilon sits outside the square root:

        step = lr * m_hat / (sqrt(v_hat) + eps)
    """

    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def attach(self, model: MlpModel) -> None:
        self.m = [np.zeros_like(p) for p in model.parameters()]
        self.v = [np.zeros_like(p) for p in model.parameters()]
        self.t = 0


def adam_step(
    model: MlpModel, grads: Gradients, state: AdamState, context: str = ""
) -> None:
    """One in-place Adam update of every model parameter.

    Raises TrainingError if any gradient or any updated parameter is
    non-finite; the context string (e.g. which epoch and batch) is carried
    into the message.
    """
    if not state.m:
        state.attach(model)
    params = model.parameters()
    flat_grads = grads.flat()
    if len(flat_grads) != len(params):
        raise DimensionError(
            f"expected {len(params)} gradient arrays, got {len(flat_grads)}"
        )
    where = f" ({context})" if context else ""
    for g in flat_grads:
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient before Adam update{where}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for p, g, m, v in zip(params, flat_grads, state.m, state.v):
        m[...] = state.beta1 * m + (1.0 - state.beta1) * g
        v[...] = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"non-finite parameter after Adam update{where}")
    model.version += 1


@dataclass(eq=False)
class PlateauSchedulerState:
    """Reduce the learning rate when a monitored loss stops improving.

    A call improves when loss < best - min_delta. After patience
    consecutive non-improving calls the rate is multiplied by factor
    (floored at min_lr) and the counter resets; best is never reset, so a
    long plateau keeps decaying the rate.
    """

    patience: int = 5
    factor: float = 0.1
    min_lr: float = 1e-7
    min_delta: float = 0.0
    best: float = np.inf
    bad_epochs: int = 0

    def step(self, loss: float, optimizer: AdamState) -> bool:
        """Record one epoch's loss; returns True if the rate was reduced."""
        if loss < self.best - self.min_delta:
            self.best = loss
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        if self.bad_epochs >= self.patience:
            optimizer.learning_rate = max(optimizer.learning_rate * self.factor, self.min_lr)
            self.bad_epochs = 0
            return True
        return False


@dataclass(eq=False)
class EarlyStopState:
    """Stop training after patience epochs without improvement, keeping a
    snapshot of the best parameters seen."""

    patience: int = 8
    min_delta: float = 0.0
    best: float = np.inf
    bad_epochs: int = 0
    best_parameters: list[np.ndarray] | None = None
    best_epoch: int = -1

    def step(self, loss: float, model: MlpModel, epoch: int) -> bool:
        """Record one epoch's loss; returns True when training should stop."""
        if loss < self.best - self.min_delta:
            self.best = loss
            self.bad_epochs = 0
            self.best_parameters = model.copy_parameters()
            self.best_epoch = epoch
            return False
        self.bad_epochs += 1
        return self.bad_epochs >= self.patience

    def restore_best(self, model: MlpModel) -> None:
        """Load the snapshot back into the model (no-op if never improved)."""
        if self.best_parameters is not None:
            model.set_parameters(self.best_parameters)


def save_checkpoint(model: MlpModel, path: str | Path, extra: dict | None = None) -> None:
    """Serialize the model (and an optional extra payload) to JSON."""
    flat = np.concatenate([p.ravel() for p in model.parameters()])
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_dims": list(model.layer_dims),
        "activation": model.activation,
        "dtype": CHECKPOINT_DTYPE,
        "parameters_b64": base64.b64encode(
            flat.astype(CHECKPOINT_DTYPE).tobytes()
        ).decode("ascii"),
        "extra": extra if extra is not None else {},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[MlpModel, dict]:
    """Rebuild a model from save_checkpoint output; returns (model, extra)."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"checkpoint {path} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"checkpoint {path} must contain a JSON object")
    for key in ("format_version", "layer_dims", "activation", "dtype", "parameters_b64"):
        if key not in payload:
            raise DataError(f"checkpoint {path} is missing field {key!r}")
    if payload["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"unsupported checkpoint format version {payload['format_version']!r}"
        )
    if payload["dtype"] != CHECKPOINT_DTYPE:
        raise DataError(f"unsupported checkpoint dtype {payload['dtype']!r}")
    dims, activation = payload["layer_dims"], payload["activation"]
    if not (
        isinstance(dims, list)
        and len(dims) >= 2
        and all(type(d) is int and d >= 1 for d in dims)
    ):
        raise DataError(f"checkpoint {path} has invalid layer_dims {dims!r}")
    if activation not in ACTIVATIONS:
        raise DataError(f"checkpoint {path} has unknown activation {activation!r}")
    try:
        raw = base64.b64decode(payload["parameters_b64"], validate=True)
    except (ValueError, TypeError) as exc:
        raise DataError(f"checkpoint {path} has corrupt parameter encoding") from exc
    flat = np.frombuffer(raw, dtype=CHECKPOINT_DTYPE).astype(float)
    shapes = list(zip(dims[:-1], dims[1:]))
    sizes = [n for fan_in, fan_out in shapes for n in (fan_in * fan_out, fan_out)]
    if flat.size != sum(sizes):
        raise DataError(
            f"checkpoint {path} holds {flat.size} parameters, "
            f"model needs {sum(sizes)}"
        )
    # (W0, b0, W1, b1, ...) as views into the one decoded vector.
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    model = MlpModel(
        layer_dims=tuple(dims),
        weights=[w.reshape(shape) for w, shape in zip(parts[0::2], shapes)],
        biases=parts[1::2],
        activation=activation,
    )
    extra = payload.get("extra", {})
    if not isinstance(extra, dict):
        raise DataError(f"checkpoint {path} extra payload must be a JSON object")
    return model, copy.deepcopy(extra)
