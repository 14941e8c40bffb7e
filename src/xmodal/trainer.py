"""Student adapter and its training loop.

The adapter maps raw audio features into the frozen teacher text space.
Two architectures are supported:

* ``linear_head_only``: a single affine map, input -> teacher space.
* ``mlp_encoder_plus_head``: a one-hidden-layer ReLU encoder producing
  the student embedding, followed by an affine head into teacher space.

Every network here, and the text mapping in :mod:`xmodal.baselines`, is a
layer table of ``(name, fan_in, fan_out, relu)`` rows with one init, one
forward and one backward. Parameters are a dict of ``<name>_w``/``<name>_b``
arrays; for training the optimizer copies them, and a gradient dict of the
same shapes, into one contiguous float64 buffer each. The backward pass
writes every gradient straight into the gradient buffer's views, and the
optimizer step updates the parameter buffer with whole-vector operations
(Adam or SGD with momentum). One epoch loop, :func:`fit`, trains a copy
of the parameters it is given: it minimizes the contrastive distillation
objective from input rows to the teacher rows each input is paired with
that epoch. It scales the teacher rows to unit norm once and calls the
loss core :func:`xmodal.objective.infonce_loss` on each batch's unit
rows, which gives the bits that :func:`xmodal.objective.distill_loss`
gives on the raw rows. The adapter pairs a clip with its species' teacher text, the
prompt variant drawn from a configurable mixture every epoch; the text
mapping pairs each species with its own canonical row. The teacher rows
are read-only throughout; only network parameters are updated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    InvalidConfigError,
    NonFiniteLossError,
    ShapeMismatchError,
    TooFewItemsError,
)
from .embeddings import _unit_rows
from .objective import infonce_loss
from .rng import rng_for
from .world import World, _check_buildable

ADAPTER_MODES = ("linear_head_only", "mlp_encoder_plus_head")
OPTIMIZERS = ("adam", "sgd_momentum")

Params = Dict[str, np.ndarray]
# One affine layer: (name, fan_in, fan_out, relu); tables list them input first.
Layer = Tuple[str, int, int, bool]


@dataclass(frozen=True)
class AdapterConfig:
    """Architecture of the audio-to-teacher adapter."""

    mode: str = "mlp_encoder_plus_head"
    d_in: int = 20
    d_student: int = 24
    d_teacher: int = 32
    d_hidden: int = 512

    def __post_init__(self) -> None:
        if self.mode not in ADAPTER_MODES:
            raise InvalidConfigError(f"unknown adapter mode {self.mode!r}; expected one of {ADAPTER_MODES}")
        for name in ("d_in", "d_student", "d_teacher", "d_hidden"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # The widths of the layer table below, input side first.
        mlp_widths = ("d_in", "d_hidden", "d_student", "d_teacher")
        widths = ("d_in", "d_teacher") if self.mode == "linear_head_only" else mlp_widths
        for fan_in, fan_out in zip(widths, widths[1:]):
            _check_buildable(getattr(self, fan_in), getattr(self, fan_out), f"{fan_in}, {fan_out}")

    @property
    def layers(self) -> Tuple[Layer, ...]:
        """Layer table of this architecture, input side first."""
        if self.mode == "linear_head_only":
            return (("head", self.d_in, self.d_teacher, False),)
        return (
            ("enc1", self.d_in, self.d_hidden, True),
            ("enc2", self.d_hidden, self.d_student, False),
            ("head", self.d_student, self.d_teacher, False),
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters for a distillation run.

    ``prompt_mixture`` is a probability vector over prompt variants;
    None means uniform over the world's variant count. ``epochs`` may be
    0 (report initialization untouched) and ``learning_rate`` may be 0
    (steps become no-ops), both useful as experimental controls.
    """

    batch_size: int = 32
    epochs: int = 30
    learning_rate: float = 0.01
    tau: float = 0.07
    optimizer: str = "adam"
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 7
    prompt_mixture: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise InvalidConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 0:
            raise InvalidConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate < 0 or not math.isfinite(self.learning_rate):
            raise InvalidConfigError(f"learning_rate must be a finite non-negative real, got {self.learning_rate}")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise InvalidConfigError(f"tau must be positive, got {self.tau}")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidConfigError(f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZERS}")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise InvalidConfigError(f"{name} must be in [0, 1), got {value}")
        if not (self.adam_eps > 0 and math.isfinite(self.adam_eps)):
            raise InvalidConfigError(f"adam_eps must be a finite positive real, got {self.adam_eps}")
        if self.prompt_mixture is not None:
            mix = tuple(float(p) for p in self.prompt_mixture)
            # Written so that a NaN fails both checks.
            if not all(p >= 0 for p in mix):
                raise InvalidConfigError("prompt_mixture probabilities must be non-negative")
            if not abs(sum(mix) - 1.0) <= 1e-9:
                raise InvalidConfigError(f"prompt_mixture must sum to 1, got {sum(mix)}")
            object.__setattr__(self, "prompt_mixture", mix)

    def mixture_for(self, variant_count: int) -> np.ndarray:
        """Concrete mixture vector for a world with this many variants."""
        if self.prompt_mixture is None:
            return np.full(variant_count, 1.0 / variant_count)
        if len(self.prompt_mixture) != variant_count:
            raise InvalidConfigError(
                f"prompt_mixture has {len(self.prompt_mixture)} entries but the world has {variant_count} variants"
            )
        return np.asarray(self.prompt_mixture, dtype=np.float64)


@dataclass(frozen=True)
class TrainReport:
    """Outcome of a training run."""

    loss_curve: Tuple[float, ...]
    final_params: Params
    steps: int


def xavier_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Glorot uniform weight matrix of shape (fan_out, fan_in)."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def mlp_init(layers: Sequence[Layer], seed: int, stream: str) -> Params:
    """Weights Xavier-uniform from ``(seed, stream, key)``, biases zero."""
    params: Params = {}
    for name, fan_in, fan_out, _ in layers:
        params[f"{name}_w"] = xavier_uniform(rng_for(seed, stream, f"{name}_w"), fan_out, fan_in)
        params[f"{name}_b"] = np.zeros(fan_out, dtype=np.float64)
    return params


def mlp_forward(layers: Sequence[Layer], params: Params, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Output rows and the cache: the input of every layer."""
    inputs = []
    for name, _, _, relu in layers:
        inputs.append(x)
        x = x @ params[f"{name}_w"].T
        x += params[f"{name}_b"]
        if relu:
            np.maximum(x, 0.0, out=x)
    return x, inputs


def mlp_backward(
    layers: Sequence[Layer], params: Params, inputs: List[np.ndarray], grad: np.ndarray, grads: Params
) -> None:
    """Write the parameter gradients, given d(loss)/d(output), into ``grads``.

    ``grads`` holds one preallocated array per parameter, such as the
    gradient views that :func:`make_optimizer` makes.
    """
    for i in reversed(range(len(layers))):
        name = layers[i][0]
        np.matmul(grad.T, inputs[i], out=grads[f"{name}_w"])
        np.add.reduce(grad, axis=0, out=grads[f"{name}_b"])
        if i:
            grad = grad @ params[f"{name}_w"]
            if layers[i - 1][3]:
                # A ReLU output is positive exactly where its input was.
                grad = np.where(inputs[i] > 0.0, grad, 0.0)


def init_params(config: AdapterConfig, seed: int) -> Params:
    """Fresh parameters; weights Xavier-uniform, biases zero."""
    return mlp_init(config.layers, seed, "init")


def layer_shapes(layers: Sequence[Layer]) -> Dict[str, Tuple[int, ...]]:
    """Name and shape of each parameter array of a layer table."""
    shapes: Dict[str, Tuple[int, ...]] = {}
    for name, fan_in, fan_out, _ in layers:
        shapes[f"{name}_w"] = (fan_out, fan_in)
        shapes[f"{name}_b"] = (fan_out,)
    return shapes


def adapter_forward(config: AdapterConfig, params: Params, inputs: np.ndarray) -> Tuple[np.ndarray, list]:
    """Map raw inputs (n, d_in) to teacher space (n, d_teacher).

    Returns unnormalized teacher-space rows (the objective's cosine does
    the normalization) and a cache for ``adapter_backward``.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.d_in:
        raise ShapeMismatchError(f"expected inputs of shape (n, {config.d_in}), got {x.shape}")
    return mlp_forward(config.layers, params, x)


def adapter_backward(config: AdapterConfig, params: Params, cache: list, grad_z: np.ndarray) -> Params:
    """Parameter gradients given d(loss)/d(teacher-space output)."""
    grads = {key: np.empty_like(value) for key, value in params.items()}
    mlp_backward(config.layers, params, cache, grad_z, grads)
    return grads


def _pack(arrays: Params, names: Sequence[str]) -> np.ndarray:
    """Copy ``arrays[name]`` for each name into one contiguous float64
    vector and rebind each entry to a view of it; return the vector."""
    flat = np.concatenate([arrays[name] for name in names], axis=None, dtype=np.float64)
    offset = 0
    for name in names:
        shape = np.shape(arrays[name])
        size = math.prod(shape)
        arrays[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return flat


def make_optimizer(train_config: TrainConfig, params: Params, grads: Params) -> Callable[[], None]:
    """Update rule over one buffer holding every parameter.

    ``params`` and ``grads`` hold arrays of the same shapes under the same
    keys. Each is copied into one contiguous float64 vector, in the same
    order, and every entry of the dict is rebound to a view of it. The
    returned step reads the gradient the caller wrote through the views
    of ``grads`` and updates every parameter in place, with whole-vector
    operations into preallocated buffers. It also uses the gradient
    vector as scratch, so every step needs a freshly written gradient.
    """
    names = list(params)
    shapes = {name: np.shape(params[name]) for name in names}
    got = {name: np.shape(value) for name, value in grads.items()}
    if got != shapes:
        raise ShapeMismatchError(f"gradients {sorted(got.items())} do not fit parameters {sorted(shapes.items())}")
    flat = _pack(params, names)
    grad = _pack(grads, names)
    lr = train_config.learning_rate

    if train_config.optimizer == "sgd_momentum":
        velocity = np.zeros_like(flat)

        def sgd_step() -> None:
            # In-place operators rebind their target name, hence nonlocal.
            nonlocal flat, velocity
            velocity *= train_config.momentum
            velocity += grad
            flat -= np.multiply(velocity, lr, out=grad)

        return sgd_step

    b1, b2, eps = train_config.beta1, train_config.beta2, train_config.adam_eps
    first = np.zeros_like(flat)
    second = np.zeros_like(flat)
    update = np.empty_like(flat)
    t = 0

    def adam_step() -> None:
        nonlocal flat, grad, first, second, update, t
        t += 1
        first *= b1
        first += np.multiply(grad, 1.0 - b1, out=update)
        second *= b2
        second += np.multiply(np.square(grad, out=grad), 1.0 - b2, out=grad)
        # lr * m_hat / (sqrt(v_hat) + eps), operation for operation.
        np.divide(first, 1.0 - b1**t, out=update)
        update *= lr
        np.divide(second, 1.0 - b2**t, out=grad)
        np.sqrt(grad, out=grad)
        grad += eps
        update /= grad
        flat -= update

    return adam_step


def sample_variants(seed: int, epoch: int, n_items: int, mixture: np.ndarray) -> np.ndarray:
    """Prompt variant per training item for one epoch, drawn per mixture."""
    rng = rng_for(seed, "variant", epoch)
    return rng.choice(mixture.size, size=n_items, p=mixture)


def fit(
    layers: Sequence[Layer],
    params: Params,
    inputs: np.ndarray,
    targets: np.ndarray,
    pairing: Callable[[int], np.ndarray],
    train_config: TrainConfig,
    shuffle_stream: str,
) -> TrainReport:
    """Train a layer table to map ``inputs`` onto rows of ``targets``.

    Training starts from a copy of ``params``, which must fit ``layers``
    (else ShapeMismatchError); the caller's dict and arrays are left
    untouched, and ``final_params`` holds the trained copy. Each epoch
    visits the inputs in a fresh permutation from ``(seed, shuffle_stream,
    epoch)``, pairs input i with ``targets[pairing(epoch)[i]]``, and takes
    one optimizer step per batch. A trailing batch with fewer than two
    items is dropped because the contrastive loss needs negatives, so
    fewer than two inputs raise TooFewItemsError. The target rows are
    scaled to unit norm once, before the first step, so an all-zero row
    raises ZeroVectorError naming its row of ``targets`` even if no
    epoch pairs an input with it.
    """
    n = inputs.shape[0]
    if n < 2:
        raise TooFewItemsError(f"training needs at least 2 items, got {n}")
    expected = layer_shapes(layers)
    got = {key: np.shape(value) for key, value in params.items()}
    if got != expected:
        raise ShapeMismatchError(
            f"parameters {sorted(got.items())} do not fit the layer table, which needs {sorted(expected.items())}"
        )
    unit_targets = _unit_rows(targets, "teacher")
    # The optimizer packs copies of the arrays and rebinds this dict's entries.
    params = dict(params)
    grads = {key: np.empty_like(value) for key, value in params.items()}
    step_fn = make_optimizer(train_config, params, grads)

    loss_curve: List[float] = []
    step = 0
    for epoch in range(train_config.epochs):
        perm = rng_for(train_config.seed, shuffle_stream, epoch).permutation(n)
        # Batches are consecutive row blocks of the epoch's gathered rows.
        epoch_inputs = inputs[perm]
        epoch_targets = unit_targets[pairing(epoch)[perm]]
        epoch_losses: List[float] = []
        for start in range(0, n, train_config.batch_size):
            stop = min(start + train_config.batch_size, n)
            if stop - start < 2:
                continue
            z, cache = mlp_forward(layers, params, epoch_inputs[start:stop])
            out = infonce_loss(z, epoch_targets[start:stop], train_config.tau)
            if not math.isfinite(out.loss):
                raise NonFiniteLossError(step)
            mlp_backward(layers, params, cache, out.grad_student, grads)
            step_fn()
            step += 1
            epoch_losses.append(out.loss)
        loss_curve.append(sum(epoch_losses) / len(epoch_losses))
    return TrainReport(loss_curve=tuple(loss_curve), final_params=params, steps=step)


def train_adapter(
    view: World,
    adapter_config: AdapterConfig,
    train_config: TrainConfig,
) -> TrainReport:
    """Distill the teacher text space into the audio adapter.

    Every clip is paired with the teacher text row of its species, the
    prompt variant drawn from the mixture per item per epoch; :func:`fit`
    runs the epochs from :func:`init_params`.
    """
    audio = view.audio_features
    if adapter_config.d_in != audio.dim:
        raise InvalidConfigError(
            f"adapter expects {adapter_config.d_in}-dim inputs but audio rows have {audio.dim}"
        )
    if adapter_config.d_teacher != view.teacher_text.dim:
        raise InvalidConfigError(
            f"adapter head emits {adapter_config.d_teacher} dims but teacher space has {view.teacher_text.dim}"
        )

    variant_count = view.config.variant_count
    mixture = train_config.mixture_for(variant_count)
    species_rows = audio.labels * variant_count

    def pairing(epoch: int) -> np.ndarray:
        return species_rows + sample_variants(train_config.seed, epoch, audio.n_items, mixture)

    init = init_params(adapter_config, train_config.seed)
    return fit(adapter_config.layers, init, audio.matrix, view.teacher_text.matrix, pairing, train_config, "shuffle")
