"""Dense multilayer perceptron with named output heads, written on numpy.

Supports tanh/linear/softmax/sigmoid layers, per-head mse / cross-entropy /
binary cross-entropy losses with optional element masks, RMSProp updates,
and a versioned JSON checkpoint format. A net computes in one dtype: its
parameters, RMSProp state and scratch vectors are of that dtype, and
inputs, targets and masks are cast to it. Initial weights are drawn in
float64 from the seeded rng, then cast. ``mlp_new`` defaults to float64,
so gradient checks against finite differences are meaningful; every
learner net (the Q-net and its target, the world model and the curiosity
model) is built in LEARNER_DTYPE, float32, and a checkpoint records its
net's dtype.

All parameters live in one flat vector ``theta`` and all RMSProp
accumulators in one flat vector ``acc``, both in parameter order (shared
layers, then each head in spec order; per layer the weight matrix row-major,
then the bias). ``shared_params``, ``head_params``, ``shared_acc`` and
``head_acc`` are per-layer views into them, so an RMSProp step is one
elementwise pass over each vector, and the gradient is written into a flat
vector of the same layout.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import mmap
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, NumericError, ShapeError, SpecError

ACTIVATIONS = ("tanh", "linear", "softmax", "sigmoid")
LOSSES = ("mse", "cross_entropy", "binary_cross_entropy")

CHECKPOINT_VERSION = 1
CHECKPOINT_DTYPES = ("float32", "float64")  # a checkpoint without a dtype is float64

# The dtype every learner net computes in, and that replayed states are cast to.
LEARNER_DTYPE = np.dtype(np.float32)


@dataclass
class LayerSpec:
    input_dim: int
    output_dim: int
    activation: str = "tanh"

    def validate(self):
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise SpecError(f"layer dims must be positive, got {self.input_dim}x{self.output_dim}")
        if self.activation not in ACTIVATIONS:
            raise SpecError(f"unknown activation '{self.activation}'")
        return self

    def to_json(self):
        return {"input_dim": self.input_dim, "output_dim": self.output_dim, "activation": self.activation}

    @classmethod
    def from_json(cls, obj):
        return cls(int(obj["input_dim"]), int(obj["output_dim"]), obj["activation"]).validate()


@dataclass
class HeadSpec:
    name: str
    layers: list[LayerSpec]
    loss: str = "mse"

    def validate(self):
        if not self.layers:
            raise SpecError(f"head '{self.name}' has no layers")
        for layer in self.layers:
            layer.validate()
        if self.loss not in LOSSES:
            raise SpecError(f"unknown loss '{self.loss}' for head '{self.name}'")
        final = self.layers[-1].activation
        if self.loss == "cross_entropy" and final != "softmax":
            raise SpecError(f"head '{self.name}': cross_entropy requires a softmax output")
        if self.loss == "binary_cross_entropy" and final != "sigmoid":
            raise SpecError(f"head '{self.name}': binary_cross_entropy requires a sigmoid output")
        if self.loss == "mse" and final == "softmax":
            raise SpecError(f"head '{self.name}': mse on a softmax output is not supported")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.output_dim != b.input_dim:
                raise SpecError(f"head '{self.name}': layer dims do not chain")
        return self

    def to_json(self):
        return {"name": self.name, "layers": [l.to_json() for l in self.layers], "loss": self.loss}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["name"], [LayerSpec.from_json(l) for l in obj["layers"]], obj["loss"]).validate()


@dataclass
class MlpSpec:
    shared: list[LayerSpec]
    heads: list[HeadSpec]

    def validate(self):
        if not self.heads:
            raise SpecError("model needs at least one head")
        for layer in self.shared:
            layer.validate()
        for a, b in zip(self.shared, self.shared[1:]):
            if a.output_dim != b.input_dim:
                raise SpecError("shared layer dims do not chain")
        trunk_out = self.shared[-1].output_dim if self.shared else None
        names = set()
        for head in self.heads:
            head.validate()
            if head.name in names:
                raise SpecError(f"duplicate head name '{head.name}'")
            names.add(head.name)
            if trunk_out is not None and head.layers[0].input_dim != trunk_out:
                raise SpecError(f"head '{head.name}' does not chain onto the trunk")
        return self

    @property
    def input_dim(self) -> int:
        return self.shared[0].input_dim if self.shared else self.heads[0].layers[0].input_dim

    def to_json(self):
        return {"shared": [l.to_json() for l in self.shared], "heads": [h.to_json() for h in self.heads]}

    @classmethod
    def from_json(cls, obj):
        return cls(
            [LayerSpec.from_json(l) for l in obj.get("shared", [])],
            [HeadSpec.from_json(h) for h in obj["heads"]],
        ).validate()

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode("utf-8")
        return hashlib.blake2s(blob).hexdigest()[:16]


def single_head_spec(input_dim, hidden_dims, output_dim, output_activation="linear",
                     loss="mse", hidden_activation="tanh", name="out") -> MlpSpec:
    """Convenience builder for a plain one-head MLP."""
    layers = []
    prev = input_dim
    for h in hidden_dims:
        layers.append(LayerSpec(prev, h, hidden_activation))
        prev = h
    layers.append(LayerSpec(prev, output_dim, output_activation))
    return MlpSpec(shared=[], heads=[HeadSpec(name, layers, loss)]).validate()


@dataclass
class TrainBatch:
    """One minibatch: inputs plus per-head targets and optional masks.

    A target may instead be a function of the outputs of the targeted heads
    before it in spec order, called with a {head name: output} dict from the
    training step's own forward pass.
    """

    inputs: np.ndarray
    targets: dict[str, np.ndarray | Callable[[dict[str, np.ndarray]], np.ndarray]]
    masks: dict[str, np.ndarray] = field(default_factory=dict)


def _apply_activation(z, kind):
    if kind == "tanh":
        return np.tanh(z)
    if kind == "linear":
        return z
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    raise SpecError(f"unknown activation '{kind}'")


def _activation_grad_from_output(a, kind):
    # derivative of activation expressed through its output value
    if kind == "tanh":
        return 1.0 - a * a
    if kind == "linear":
        return np.ones_like(a)
    if kind == "sigmoid":
        return a * (1.0 - a)
    raise SpecError(f"no elementwise grad for activation '{kind}'")


class MlpModel:
    """Parameters plus RMSProp state for one MlpSpec."""

    def __init__(self, spec: MlpSpec, seed: int = 0, dtype=np.float64):
        spec.validate()
        self.spec = spec
        self.step_count = 0
        size = sum((l.input_dim + 1) * l.output_dim for l in self._layers())
        self.theta = np.empty(size, dtype=dtype)
        self.acc = np.zeros(size, dtype=dtype)
        self._bind_views()
        rng = np.random.default_rng(seed)
        for w, b in self._layer_views(self.theta):
            bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            w[...] = rng.uniform(-bound, bound, size=w.shape)  # drawn in float64 whatever the dtype
            b[...] = 0.0

    # ---- flat storage -------------------------------------------------------

    def _layers(self) -> list[LayerSpec]:
        """Every layer in parameter order: the trunk, then each head in spec order."""
        return [*self.spec.shared, *(l for h in self.spec.heads for l in h.layers)]

    def _layer_views(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        """[weight, bias] views into ``flat`` for every layer, in parameter order."""
        views, offset = [], 0
        for layer in self._layers():
            n_w = layer.input_dim * layer.output_dim
            views.append([flat[offset: offset + n_w].reshape(layer.input_dim, layer.output_dim),
                          flat[offset + n_w: offset + n_w + layer.output_dim]])
            offset += n_w + layer.output_dim
        return views

    def _split(self, views):
        """(trunk views, {head name: views}) from per-layer views in parameter order."""
        k = len(self.spec.shared)
        heads = {}
        for head in self.spec.heads:
            heads[head.name] = views[k: k + len(head.layers)]
            k += len(head.layers)
        return views[:len(self.spec.shared)], heads

    def _bind_views(self) -> None:
        """Per-layer views into ``theta`` and ``acc``, plus the training step's
        scratch vectors: kept across steps, because allocating vectors this
        size on every step cost more than the RMSProp arithmetic."""
        self.shared_params, self.head_params = self._split(self._layer_views(self.theta))
        self.shared_acc, self.head_acc = self._split(self._layer_views(self.acc))
        self._grad = np.empty_like(self.theta)
        self._grad_views = self._split(self._layer_views(self._grad))
        self._tmp = np.empty_like(self.theta)

    def share(self) -> None:
        """Move ``theta`` and ``acc`` into anonymous shared memory, so that a
        process forked after this call reads and writes this net's copy of
        them; the training step's scratch stays private."""
        theta, acc = self.theta, self.acc
        mem = mmap.mmap(-1, theta.nbytes + acc.nbytes)
        self.theta = np.frombuffer(mem, theta.dtype, theta.size)
        self.acc = np.frombuffer(mem, acc.dtype, acc.size, offset=theta.nbytes)
        self.theta[:], self.acc[:] = theta, acc
        self._bind_views()

    def __getstate__(self):
        # The flat vectors only: pickled views would come back as copies
        # detached from ``theta`` and ``acc``.
        return {"spec": self.spec, "step_count": self.step_count, "theta": self.theta, "acc": self.acc}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_views()

    # ---- forward ----------------------------------------------------------

    def _check_input(self, x):
        x = np.asarray(x, dtype=self.theta.dtype)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ShapeError(f"expected input width {self.spec.input_dim}, got {x.shape}")
        return x

    def forward(self, x) -> dict[str, np.ndarray]:
        """Pure forward pass; returns one array per head."""
        x = self._check_input(x)
        trunk, _ = self._run_stack(x, self.spec.shared, self.shared_params)
        out = {}
        for head in self.spec.heads:
            y, _ = self._run_stack(trunk, head.layers, self.head_params[head.name])
            out[head.name] = y
        return out

    def forward_head(self, z1, head: str) -> np.ndarray:
        """One head's output from the first shared layer's pre-activations.

        For callers that compute the first layer's affine map themselves
        (``CuriosityModel.values`` factors it per action); needs a trunk.
        """
        trunk = _apply_activation(np.asarray(z1, dtype=self.theta.dtype), self.spec.shared[0].activation)
        trunk, _ = self._run_stack(trunk, self.spec.shared[1:], self.shared_params[1:])
        layers = next(h.layers for h in self.spec.heads if h.name == head)
        y, _ = self._run_stack(trunk, layers, self.head_params[head])
        return y

    @staticmethod
    def _run_stack(x, layers, params):
        acts = [x]
        for layer, (w, b) in zip(layers, params):
            z = acts[-1] @ w + b
            acts.append(_apply_activation(z, layer.activation))
        return acts[-1], acts

    # ---- loss and gradients ------------------------------------------------

    def loss(self, batch: TrainBatch) -> float:
        total, _ = self._loss_and_grads(batch, want_grads=False)
        return total

    def train_minibatch(self, batch: TrainBatch, learning_rate: float = 0.001,
                        rho: float = 0.9, eps: float = 1e-8) -> float:
        """One RMSProp step on the joint (equally weighted) head losses."""
        loss, grad = self._loss_and_grads(batch, want_grads=True)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at training step {self.step_count}")
        if learning_rate != 0.0:
            self._rmsprop_step(grad, learning_rate, rho, eps)
        self.step_count += 1
        return float(loss)

    def _rmsprop_step(self, grad, lr, rho, eps) -> None:
        """``acc = acc * rho + (1 - rho) * g**2``, then ``theta -= lr * g / sqrt(acc + eps)``.

        One pass over the flat vectors, elementwise in the order a per-layer
        step takes, so the result is the same to the bit. Overwrites ``grad``.
        """
        tmp = np.multiply(grad, grad, out=self._tmp)
        tmp *= 1.0 - rho
        self.acc *= rho
        self.acc += tmp
        np.add(self.acc, eps, out=tmp)
        np.sqrt(tmp, out=tmp)
        grad *= lr
        grad /= tmp
        self.theta -= grad

    def _loss_and_grads(self, batch: TrainBatch, want_grads: bool):
        """Joint loss and, when asked, its gradient as a flat vector laid out like
        ``theta``; the vector is the model's scratch, overwritten by the next call."""
        x = self._check_input(batch.inputs)
        n = x.shape[0]
        _, shared_acts = self._run_stack(x, self.spec.shared, self.shared_params)
        trunk = shared_acts[-1]

        shared_grads, head_grads = self._grad_views
        total_loss = 0.0
        outputs = {}
        has_trunk = bool(self.spec.shared)
        d_trunk = np.zeros_like(trunk) if has_trunk else None
        for head in self.spec.heads:
            if head.name not in batch.targets:
                if want_grads:
                    for gw, gb in head_grads[head.name]:
                        gw[...] = 0.0
                        gb[...] = 0.0
                continue
            y, acts = self._run_stack(trunk, head.layers, self.head_params[head.name])
            outputs[head.name] = y
            target = batch.targets[head.name]
            if callable(target):
                target = target(outputs)
            target = np.asarray(target, dtype=self.theta.dtype)
            if target.ndim == 1:
                target = target[None, :] if n == 1 and target.shape[0] != n else target[:, None]
            if target.shape != y.shape:
                raise ShapeError(
                    f"head '{head.name}': target shape {target.shape} != output {y.shape}"
                )
            mask = batch.masks.get(head.name)
            if mask is not None:
                mask = np.asarray(mask, dtype=self.theta.dtype).reshape(target.shape)
            loss, dz = self._head_loss(head, y, acts, target, mask, n)
            total_loss += loss
            if not want_grads:
                continue
            d_head = self._backprop_stack(head.layers, self.head_params[head.name], acts, dz,
                                          head_grads[head.name], input_grad=has_trunk)
            if has_trunk:
                d_trunk += d_head
        if want_grads and has_trunk:
            self._backprop_stack(self.spec.shared, self.shared_params, shared_acts, d_trunk,
                                 shared_grads, grad_is_dz=False, input_grad=False)
        return total_loss, self._grad if want_grads else None

    @staticmethod
    def _head_loss(head: HeadSpec, y, acts, target, mask, n):
        """Per-head loss and the gradient at the final pre-activation."""
        kind = head.loss
        if kind == "mse":
            diff = y - target
            if mask is not None:
                diff = diff * mask
            loss = float((diff * diff).sum() / n)
            da = 2.0 * diff / n
            dz = da * _activation_grad_from_output(y, head.layers[-1].activation)
            return loss, dz
        if kind == "cross_entropy":
            p = np.clip(y, 1e-12, None)
            contrib = -(target * np.log(p))
            if mask is not None:
                contrib = contrib * mask
            loss = float(contrib.sum() / n)
            dz = (y - target) / n  # fused softmax + CE gradient
            if mask is not None:
                dz = dz * mask.max(axis=1, keepdims=True)
            return loss, dz
        if kind == "binary_cross_entropy":
            # 1 - 1e-12 rounds to 1.0 in float32: clip a saturated sigmoid by
            # the output dtype's epsilon there, so log(1 - p) stays finite.
            tiny = max(1e-12, float(np.finfo(y.dtype).eps))
            p = np.clip(y, tiny, 1.0 - tiny)
            contrib = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
            if mask is not None:
                contrib = contrib * mask
            loss = float(contrib.sum() / n)
            dz = (y - target) / n  # fused sigmoid + BCE gradient
            if mask is not None:
                dz = dz * mask
            return loss, dz
        raise SpecError(f"unknown loss '{kind}'")

    @staticmethod
    def _backprop_stack(layers, params, acts, upstream, grads, grad_is_dz=True, input_grad=True):
        """Walk a layer stack backwards, writing each layer's [weight, bias]
        gradient into ``grads``; returns the gradient at the stack's input, or
        None without ``input_grad`` (the network's own input needs none)."""
        cursor = upstream
        for i in reversed(range(len(layers))):
            w, _ = params[i]
            a_out = acts[i + 1]
            if i == len(layers) - 1 and grad_is_dz:
                dz = cursor
            else:
                dz = cursor * _activation_grad_from_output(a_out, layers[i].activation)
            np.matmul(acts[i].T, dz, out=grads[i][0])
            dz.sum(axis=0, out=grads[i][1])
            cursor = dz @ w.T if i or input_grad else None
        return cursor

    # ---- parameter plumbing --------------------------------------------------

    def parameter_vector(self) -> np.ndarray:
        return self.theta.copy()

    def set_parameter_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.theta.size:
            raise ShapeError(f"expected {self.theta.size} parameters, got {vec.size}")
        self.theta[:] = vec.ravel()

    def copy_parameters_from(self, other: "MlpModel") -> None:
        if self.spec.digest() != other.spec.digest():
            raise SpecError("cannot copy parameters between different specs")
        self.theta[:] = other.theta

    def clone(self) -> "MlpModel":
        twin = MlpModel(self.spec, seed=0, dtype=self.theta.dtype)
        twin.copy_parameters_from(self)
        twin.step_count = self.step_count
        return twin

    # ---- checkpoint format -----------------------------------------------------

    def to_json(self) -> dict:
        def dump(pairs):
            return [[w.tolist(), b.tolist()] for w, b in pairs]

        return {
            "format_version": CHECKPOINT_VERSION,
            "dtype": self.theta.dtype.name,
            "spec": self.spec.to_json(),
            "spec_digest": self.spec.digest(),
            "step_count": self.step_count,
            "shared_params": dump(self.shared_params),
            "head_params": {name: dump(p) for name, p in self.head_params.items()},
            "shared_acc": dump(self.shared_acc),
            "head_acc": {name: dump(p) for name, p in self.head_acc.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MlpModel":
        if not isinstance(obj, dict) or "format_version" not in obj:
            raise FormatError("not a model checkpoint")
        if obj["format_version"] != CHECKPOINT_VERSION:
            raise FormatError(
                f"checkpoint version {obj['format_version']} unsupported (expected {CHECKPOINT_VERSION})"
            )
        try:
            spec = MlpSpec.from_json(obj["spec"])
            stored_digest = obj["spec_digest"]
        except KeyError as exc:
            raise FormatError(f"checkpoint missing field {exc}") from exc
        if spec.digest() != stored_digest:
            raise FormatError(
                f"spec hash mismatch: expected {spec.digest()}, checkpoint has {stored_digest}"
            )
        dtype = obj.get("dtype", "float64")
        if dtype not in CHECKPOINT_DTYPES:
            raise FormatError(f"checkpoint dtype {dtype!r} unsupported (expected one of {CHECKPOINT_DTYPES})")
        model = cls(spec, seed=0, dtype=dtype)

        def load(pairs, into):
            if len(pairs) != len(into):
                raise FormatError("checkpoint layer count mismatch")
            for (w, b), slot in zip(pairs, into):
                w = np.asarray(w, dtype=np.float64)
                b = np.asarray(b, dtype=np.float64)
                if w.shape != slot[0].shape or b.shape != slot[1].shape:
                    raise FormatError("checkpoint parameter shape mismatch")
                slot[0][...] = w
                slot[1][...] = b

        try:
            load(obj["shared_params"], model.shared_params)
            for name in model.head_params:
                load(obj["head_params"][name], model.head_params[name])
            load(obj["shared_acc"], model.shared_acc)
            for name in model.head_acc:
                load(obj["head_acc"][name], model.head_acc[name])
            model.step_count = int(obj["step_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed checkpoint: {exc}") from exc
        return model


@functools.cache
def blas_thread_control():
    """``(get, set)`` of the loaded OpenBLAS's thread count, or None if none is found.

    Looks through the loaded libraries whose path contains "openblas"
    (read from ``/proc/self/maps``, so Linux only) for a getter and a setter
    under the names numpy's wheels (``scipy_openblas_*_num_threads64_``) and
    plain builds (``openblas_*_num_threads``) export.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:  # the path is a line's sixth field
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS to one thread inside the block, then restore the caller's count.

    Of this package's products only the 116-row curiosity value blocks and
    the 512-row target forwards are large enough for OpenBLAS to split
    across threads, and its helper thread then spins on the CPU a planning
    worker needs. One thread gives the same bytes. Does nothing where
    ``blas_thread_control`` finds no control.
    """
    control = blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def mlp_new(spec: MlpSpec, seed: int = 0, dtype=np.float64) -> MlpModel:
    return MlpModel(spec, seed=seed, dtype=dtype)


def numerical_gradient(model: MlpModel, batch: TrainBatch, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the batch loss wrt every parameter."""
    theta = model.parameter_vector()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = h
        model.set_parameter_vector(theta + bump)
        up = model.loss(batch)
        model.set_parameter_vector(theta - bump)
        down = model.loss(batch)
        grad[i] = (up - down) / (2.0 * h)
    model.set_parameter_vector(theta)
    return grad


def analytic_gradient(model: MlpModel, batch: TrainBatch) -> np.ndarray:
    """Backprop gradient flattened in parameter order (for tests)."""
    _, grad = model._loss_and_grads(batch, want_grads=True)
    return grad.copy()
