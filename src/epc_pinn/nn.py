"""Small fully connected network with hand-rolled backpropagation.

The model maps a feature vector to the twelve envelope quantities through
dense layers with ReLU activations on the hidden layers and an identity
output layer. Everything is plain numpy: forward returns a cache of
intermediate activations, backward consumes it to produce exact parameter
gradients, and Adam with bias correction (beta1, beta2 and epsilon are
constants) performs the update. One plateau tracker on the validation loss
(EarlyStopState) cuts the learning rate, stops training and snapshots the
best weights. The schedule (rate, patiences, cut factor and floor) comes
from the caller, train.TrainConfig.

Every weight and bias is a view into one contiguous float64 vector laid
out (W0, b0, W1, b1, ...), and backward writes into views of one gradient
vector with that layout. Adam is thus one fused in-place update over whole
vectors, with the textbook per-element operations in their order, and the
early-stop snapshot (into one reused buffer) and checkpoint encoding are
single vector copies.

Checkpoints are JSON: layer sizes and activation in the clear, the flat
parameter vector as base64-encoded little-endian float64 bytes, plus an
extra JSON object for callers, which load_checkpoint returns unread.
write_json writes them, as every JSON output, atomically (temporary file,
then rename). Loading reads the top level through config.from_json, so a
malformed field is named by its key, then checks the fixed format values,
the parameter byte count and the parameters' finiteness. Every input
file, CSV or JSON, is read by read_text (read_json adds the JSON decode),
with one wording for a file that is missing, unreadable or not UTF-8.
"""

from __future__ import annotations

import base64
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, TextIO

import numpy as np

from .config import from_json
from .errors import ConfigError, DataError, DimensionError, TrainingError, UsageError

ACTIVATION = "relu"  # of every hidden layer; checkpoints record it

CHECKPOINT_FORMAT_VERSION = 1
CHECKPOINT_DTYPE = "<f8"  # little-endian float64, fixed for portability
# The values every checkpoint holds, and loading requires.
_FIXED = {"format_version": CHECKPOINT_FORMAT_VERSION, "dtype": CHECKPOINT_DTYPE,
          "activation": ACTIVATION}


def _parameter_total(layer_dims: tuple[int, ...]) -> int:
    """Length of the flat parameter vector of a network with these dims."""
    return sum(i * o + o for i, o in zip(layer_dims[:-1], layer_dims[1:]))


@dataclass(eq=False)
class _FlatLayers:
    """weights[l], shape (fan_in, fan_out), and biases[l], shape
    (fan_out,), as views into vector, laid out (W0, b0, W1, b1, ...)."""

    layer_dims: tuple[int, ...]
    vector: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.vector.shape != (_parameter_total(self.layer_dims),):
            raise DimensionError(
                f"layers {self.layer_dims} need {_parameter_total(self.layer_dims)} "
                f"values, got shape {self.vector.shape}"
            )
        self.weights, self.biases, start = [], [], 0
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            stop = start + fan_in * fan_out
            self.weights.append(self.vector[start:stop].reshape(fan_in, fan_out))
            self.biases.append(self.vector[stop : stop + fan_out])
            start = stop + fan_out

    def arrays(self) -> list[np.ndarray]:
        """Every weight and bias view in vector order (W0, b0, W1, b1, ...)."""
        return [a for pair in zip(self.weights, self.biases) for a in pair]


@dataclass(eq=False)
class MlpModel(_FlatLayers):
    """Dense network parameters; a batch propagates as x @ W + b.

    version is bumped by any in-place parameter mutation and lets forward
    caches detect staleness.
    """

    version: int = 0

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def set_parameters(self, vector: np.ndarray) -> None:
        if np.shape(vector) != self.vector.shape:
            raise DimensionError(
                f"expected {self.vector.shape} parameters, got {np.shape(vector)}"
            )
        self.vector[...] = vector
        self.version += 1


def init_model(layer_dims: tuple[int, ...] | list[int], seed: int) -> MlpModel:
    """Build a model with uniform(-sqrt(1/fan_in), sqrt(1/fan_in)) weights
    and zero biases, deterministically from the seed."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"layer dims must all be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    model = MlpModel(layer_dims=dims, vector=np.zeros(_parameter_total(dims)))
    for w in model.weights:
        limit = np.sqrt(1.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


@dataclass(eq=False)
class ForwardCache:
    """Intermediates of one forward pass, consumed by backward.

    activations[0] is the input batch, activations[l] the output of layer
    l (a ReLU output is positive exactly where its input was, so backward
    takes the ReLU mask from it). model_id/model_version pin the cache to
    the exact parameter state that produced it.
    """

    model_id: int
    model_version: int
    activations: list[np.ndarray]


def forward(model: MlpModel, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Propagate a batch (n, input_dim) and keep what backward needs.

    Hidden layers apply ReLU; the final layer is identity so the outputs
    are unbounded regression values.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.layer_dims[0]:
        raise DimensionError(
            f"expected inputs of shape (n, {model.layer_dims[0]}), got {x.shape}"
        )
    activations = [x]
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ w
        z += b
        if l < model.n_layers - 1:
            np.maximum(z, 0.0, out=z)
        activations.append(z)
    cache = ForwardCache(
        model_id=id(model), model_version=model.version, activations=activations
    )
    return activations[-1], cache


@dataclass(eq=False)
class Gradients(_FlatLayers):
    """Parameter gradients in the model layout."""


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
    grads = Gradients(layer_dims=model.layer_dims, vector=np.empty_like(model.vector))
    delta = g
    for l in range(model.n_layers - 1, -1, -1):
        if l < model.n_layers - 1:
            # delta is a fresh product here, never the caller's output_grad.
            delta *= cache.activations[l + 1] > 0
        np.matmul(cache.activations[l].T, delta, out=grads.weights[l])
        np.sum(delta, axis=0, out=grads.biases[l])
        if l > 0:
            # OpenBLAS is slow on the strided transpose of the narrow output
            # layer; a contiguous copy gives the same product.
            w_t = model.weights[l].T
            delta = delta @ (np.ascontiguousarray(w_t) if l == model.n_layers - 1 else w_t)
    return grads


# Adam's beta1, beta2 and epsilon, the same for every run.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass(eq=False)
class AdamState:
    """Adam with bias correction; epsilon sits outside the square root:

        step = lr * m_hat / (sqrt(v_hat) + eps)

    beta1, beta2 and epsilon are module constants; the learning rate
    comes from the caller (TrainConfig). m, v and the two scratch rows are
    flat, allocated on the first step.
    """

    learning_rate: float
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = field(default=None, repr=False)

    def attach(self, model: MlpModel) -> None:
        self.m = np.zeros_like(model.vector)
        self.v = np.zeros_like(model.vector)
        self.scratch = np.empty((2, model.vector.size))
        self.t = 0


def adam_step(
    model: MlpModel, grads: Gradients, state: AdamState, context: str = ""
) -> None:
    """One in-place Adam update of every model parameter.

    Raises TrainingError if any gradient or any updated parameter is
    non-finite; the context string (e.g. which epoch and batch) is carried
    into the message.
    """
    if state.m is None:
        state.attach(model)
    if grads.layer_dims != model.layer_dims:
        raise DimensionError(
            f"expected gradients for layers {model.layer_dims}, got {grads.layer_dims}"
        )
    g = grads.vector
    where = f" ({context})" if context else ""
    if not np.isfinite(g).all():
        raise TrainingError(f"non-finite gradient before Adam update{where}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    m, v, (step, denom) = state.m, state.v, state.scratch
    # In place, elementwise and in this order:
    #   m = b1*m + (1-b1)*g,  v = b2*v + ((1-b2)*g)*g,
    #   p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=step), g, out=step)
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += ADAM_EPSILON
    np.divide(m, bc1, out=step)
    step *= state.learning_rate
    step /= denom
    model.vector -= step
    if not np.isfinite(model.vector).all():
        raise TrainingError(f"non-finite parameter after Adam update{where}")
    model.version += 1


@dataclass(eq=False)
class EarlyStopState:
    """The plateau tracker: an epoch improves when loss < best (never at
    NaN), and bad_epochs counts the epochs since. Each multiple of
    lr_patience it reaches cuts the rate by lr_factor, floored at min_lr
    (best is kept, so a long plateau keeps cutting); reaching patience
    stops training, after that epoch's cut. The best parameters are kept.
    The four schedule settings come from the caller (TrainConfig)."""

    patience: int
    lr_patience: int
    lr_factor: float
    min_lr: float
    best: float = np.inf
    bad_epochs: int = 0
    best_parameters: np.ndarray | None = None
    best_epoch: int = -1

    def step(self, loss: float, model: MlpModel, epoch: int, optimizer: AdamState) -> bool:
        """Record one epoch's loss, cutting optimizer's rate on a plateau;
        returns True when training should stop."""
        if loss < self.best:
            self.best = loss
            self.bad_epochs = 0
            if self.best_parameters is None:
                self.best_parameters = model.vector.copy()
            else:
                np.copyto(self.best_parameters, model.vector)
            self.best_epoch = epoch
            return False
        self.bad_epochs += 1
        if self.bad_epochs % self.lr_patience == 0:
            optimizer.learning_rate = max(optimizer.learning_rate * self.lr_factor, self.min_lr)
        return self.bad_epochs >= self.patience

    def restore_best(self, model: MlpModel) -> None:
        """Load the snapshot back into the model (no-op if never improved)."""
        if self.best_parameters is not None:
            model.set_parameters(self.best_parameters)


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Write UTF-8 text to a temporary file beside path that replaces path
    when the block completes and is removed if it raises, so path never
    holds a partial write. Newlines are written as given, whatever the
    locale. The name is unique per process and thread."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        handle = open(tmp, "w", encoding="utf-8", newline="")
    except FileNotFoundError as exc:  # a missing directory: name the target
        raise FileNotFoundError(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """Write payload atomically as indented JSON with sorted keys and a
    final newline, the one format of every JSON file the program writes.
    A NaN or infinity is a ValueError, raised before any file is opened."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with atomic_write(path) as handle:
        handle.write(text)


def read_text(path: str | Path, what: str) -> str:
    """The text of the what input file at path: UTF-8, a leading byte-order
    mark dropped, newlines kept as written; a DataError names the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            return handle.read()
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read {what} file: {exc}") from None


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the what input file at path, read by read_text."""
    try:
        payload = json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                        f"{exc.msg}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object at the top level")
    return payload


def save_checkpoint(model: MlpModel, path: str | Path, extra: dict | None = None) -> None:
    """Serialize the model (and an optional extra payload) to JSON."""
    write_json(path, {
        **_FIXED,
        "layer_dims": list(model.layer_dims),
        "parameters_b64": base64.b64encode(
            model.vector.astype(CHECKPOINT_DTYPE).tobytes()
        ).decode("ascii"),
        "extra": extra if extra is not None else {},
    })


@dataclass
class _CheckpointFile:
    """The top level of a checkpoint file, as save_checkpoint writes it."""

    format_version: int
    layer_dims: tuple[int, ...]
    activation: str
    dtype: str
    parameters_b64: str
    extra: dict[str, Any] = field(default_factory=dict)


def load_checkpoint(path: str | Path) -> tuple[MlpModel, dict]:
    """Rebuild a model from save_checkpoint output; returns (model, extra)."""
    try:
        payload = from_json(_CheckpointFile, read_json(path, "checkpoint"))
    except ConfigError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from None
    for key in ("format_version", "dtype", "activation"):
        if getattr(payload, key) != _FIXED[key]:
            raise DataError(f"checkpoint {path} has unsupported {key} {getattr(payload, key)!r}")
    dims = payload.layer_dims
    if len(dims) < 2 or min(dims) < 1:
        raise DataError(f"checkpoint {path} has invalid layer_dims {list(dims)!r}")
    try:
        raw = base64.b64decode(payload.parameters_b64, validate=True)
    except ValueError as exc:
        raise DataError(f"checkpoint {path} has corrupt parameter encoding") from exc
    needed = _parameter_total(dims) * np.dtype(CHECKPOINT_DTYPE).itemsize
    if len(raw) != needed:
        raise DataError(f"checkpoint {path} holds {len(raw)} bytes of parameters, "
                        f"model needs {needed}")
    flat = np.frombuffer(raw, dtype=CHECKPOINT_DTYPE).astype(float)
    if not np.isfinite(flat).all():
        raise DataError(f"checkpoint {path} holds non-finite parameters")
    return MlpModel(layer_dims=dims, vector=flat), payload.extra
