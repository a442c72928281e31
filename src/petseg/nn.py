"""Dense float64 neural-network kernels with exact backpropagation.

Everything here runs in float64 so that analytic gradients can be verified
against central finite differences to tight tolerances. Convolution uses
the cross-correlation convention (no kernel flip) with zero padding, and
is realized as an im2col gather plus one matrix product per layer.

A :class:`Network` holds its layer specs and weights and nothing else.
Each pass calls the functional kernels, looked up on this module at call
time, and keeps its layer caches in the call: passes share the weights
and may run at the same time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import IoFailure, ShapeError
from .manifest import atomic_write


# ---------------------------------------------------------------------------
# layer specifications

@dataclass(frozen=True)
class Conv2DSpec:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    pad: int = 0
    kind: str = "conv2d"


@dataclass(frozen=True)
class LinearSpec:
    in_features: int
    out_features: int
    kind: str = "linear"


@dataclass(frozen=True)
class ReLUSpec:
    kind: str = "relu"


@dataclass(frozen=True)
class SigmoidSpec:
    kind: str = "sigmoid"


@dataclass(frozen=True)
class FlattenSpec:
    kind: str = "flatten"


LayerSpec = Conv2DSpec | LinearSpec | ReLUSpec | SigmoidSpec | FlattenSpec

_SPEC_KINDS = {
    "conv2d": Conv2DSpec,
    "linear": LinearSpec,
    "relu": ReLUSpec,
    "sigmoid": SigmoidSpec,
    "flatten": FlattenSpec,
}


def spec_from_dict(d: dict) -> LayerSpec:
    """The spec that ``asdict`` turned into ``d``. An unknown kind, or a size
    that is not an integer >= 1 (>= 0 for ``pad``), raises ShapeError; an
    unknown field raises TypeError."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind not in _SPEC_KINDS:
        raise ShapeError(f"unknown layer kind {kind!r}")
    spec = _SPEC_KINDS[kind](**d)
    for f in fields(spec):
        if f.name == "kind":
            continue
        value, least = getattr(spec, f.name), 0 if f.name == "pad" else 1
        if type(value) is not int or value < least:
            raise ShapeError(f"{kind} {f.name} is {value!r}, not an integer >= {least}")
    return spec


def infer_shapes(specs, input_shape) -> list[tuple[int, ...]]:
    """Per-layer output shapes (excluding batch); raises ShapeError if the
    layer sequence does not compose."""
    shapes = [tuple(input_shape)]
    cur = tuple(input_shape)
    for i, spec in enumerate(specs):
        if isinstance(spec, Conv2DSpec):
            if len(cur) != 3 or cur[0] != spec.in_ch:
                raise ShapeError(f"layer {i}: conv2d expects ({spec.in_ch},H,W), got {cur}")
            h = (cur[1] + 2 * spec.pad - spec.kernel) // spec.stride + 1
            w = (cur[2] + 2 * spec.pad - spec.kernel) // spec.stride + 1
            if h < 1 or w < 1:
                raise ShapeError(f"layer {i}: conv2d output {h}x{w} is empty for input {cur}")
            cur = (spec.out_ch, h, w)
        elif isinstance(spec, LinearSpec):
            if len(cur) != 1 or cur[0] != spec.in_features:
                raise ShapeError(f"layer {i}: linear expects ({spec.in_features},), got {cur}")
            cur = (spec.out_features,)
        elif isinstance(spec, FlattenSpec):
            cur = (int(np.prod(cur)),)
        # relu / sigmoid keep the shape
        shapes.append(cur)
    return shapes


# ---------------------------------------------------------------------------
# functional kernels

def _require_finite(name: str, arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains NaN or Inf")


def _im2col(xp: np.ndarray, k: int, stride: int, h_out: int, w_out: int) -> np.ndarray:
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    win = as_strided(
        xp,
        shape=(n, c, k, k, h_out, w_out),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )
    return win.reshape(n, c * k * k, h_out * w_out)


def conv2d_forward(x, w, b, stride: int = 1, pad: int = 0):
    """Cross-correlation of (N,C,H,W) with (F,C,k,k) filters plus bias.

    Returns (y, cache) with y of shape (N,F,H',W'),
    H' = floor((H + 2p - k)/s) + 1.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.ndim != 4 or w.ndim != 4 or b.ndim != 1:
        raise ShapeError(f"conv2d: bad ranks x{x.shape} w{w.shape} b{b.shape}")
    n, c, h, wd = x.shape
    f, cw, k, k2 = w.shape
    if cw != c or k != k2 or b.shape[0] != f:
        raise ShapeError(f"conv2d: incompatible shapes x{x.shape} w{w.shape} b{b.shape}")
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (wd + 2 * pad - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d: empty output for input {h}x{wd}, k={k}, s={stride}, p={pad}")
    _require_finite("conv2d input", x)

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = _im2col(xp, k, stride, h_out, w_out)
    y = w.reshape(f, c * k * k) @ cols + b[:, None]
    y = y.reshape(n, f, h_out, w_out)
    cache = (x.shape, cols, w, stride, pad, h_out, w_out)
    return y, cache


def _conv2d_param_grads(grad_out, cache):
    """``(gf, gw, gb)``: ``grad_out`` as (N, F, H'W') and the weight and bias gradients."""
    x_shape, cols, w, stride, pad, h_out, w_out = cache
    n = x_shape[0]
    f = w.shape[0]
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (n, f, h_out, w_out):
        raise ShapeError(f"conv2d backward: grad shape {g.shape} != {(n, f, h_out, w_out)}")
    gf = g.reshape(n, f, h_out * w_out)
    gw = np.matmul(gf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    return gf, gw, gf.sum(axis=(0, 2))


def conv2d_backward(grad_out, cache):
    """Gradients of conv2d_forward w.r.t. input, weights and bias."""
    gf, gw, gb = _conv2d_param_grads(grad_out, cache)
    x_shape, _, w, stride, pad, h_out, w_out = cache
    n, c, h, wd = x_shape
    f, _, k, _ = w.shape
    gwin = (w.reshape(f, c * k * k).T @ gf).reshape(n, c, k, k, h_out, w_out)

    # col2im: the padded positions ≡ (ri, rj) mod stride form one plane,
    # in which kernel tap (ki, kj) is a unit-stride shifted add
    gxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    for ri in range(min(stride, k)):
        for rj in range(min(stride, k)):
            plane = np.zeros(gxp[:, :, ri::stride, rj::stride].shape, dtype=np.float64)
            for ki in range(ri, k, stride):
                for kj in range(rj, k, stride):
                    qi, qj = ki // stride, kj // stride
                    plane[:, :, qi : qi + h_out, qj : qj + w_out] += gwin[:, :, ki, kj]
            gxp[:, :, ri::stride, rj::stride] = plane
    gx = gxp[:, :, pad : pad + h, pad : pad + wd] if pad else gxp
    return gx, gw, gb


def linear_forward(x, w, b):
    """Affine map y = x @ w.T + b for x (N,In), w (Out,In), b (Out,)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1] or b.shape != (w.shape[0],):
        raise ShapeError(f"linear: incompatible shapes x{x.shape} w{w.shape} b{b.shape}")
    _require_finite("linear input", x)
    return x @ w.T + b, (x, w)


def linear_backward(grad_out, cache):
    x, w = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != (x.shape[0], w.shape[0]):
        raise ShapeError(f"linear backward: grad shape {g.shape} != {(x.shape[0], w.shape[0])}")
    gx = g @ w
    gw = g.T @ x
    gb = g.sum(axis=0)
    return gx, gw, gb


def relu_forward(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0), (x > 0.0)


def relu_backward(grad_out, cache):
    # derivative at exactly 0 is defined as 0
    return np.asarray(grad_out, dtype=np.float64) * cache


def sigmoid(x):
    """Numerically stable logistic function, branch chosen per sign."""
    arr = np.asarray(x, dtype=np.float64)
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def bce_loss(p, y):
    """Binary cross-entropy on probabilities (reference path).

    p is clamped to [1e-12, 1 - 1e-12] before the logarithms. Returns the
    elementwise loss and dL/dp.
    """
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    y = np.asarray(y, dtype=np.float64)
    loss = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    dldp = (p - y) / (p * (1.0 - p))
    return loss, dldp


def bce_with_logits(z, y):
    """Fused sigmoid + BCE on the pre-activation logit (training path).

    loss = max(z,0) - z*y + log(1 + exp(-|z|)); dL/dz = sigmoid(z) - y.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return loss, sigmoid(z) - y


# ---------------------------------------------------------------------------
# the network: layer specs and weights, with the state of each pass in the call

def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    # ReLU gain sqrt(2): bound = sqrt(2) * sqrt(3 / fan_in)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _param_names(i: int, spec) -> tuple[str, str]:
    return f"{i:02d}_{spec.kind}.w", f"{i:02d}_{spec.kind}.b"


def _weight_shape(spec) -> tuple[int, ...] | None:
    """The weight shape of a conv or linear layer; None for a layer without weights."""
    if isinstance(spec, Conv2DSpec):
        return (spec.out_ch, spec.in_ch, spec.kernel, spec.kernel)
    if isinstance(spec, LinearSpec):
        return (spec.out_features, spec.in_features)
    if isinstance(spec, (ReLUSpec, SigmoidSpec, FlattenSpec)):
        return None
    raise ShapeError(f"unknown layer spec {spec!r}")


def _check_parameters(specs, params: dict[str, np.ndarray]) -> None:
    """Raise ShapeError unless ``params`` ({name: array}) holds exactly the
    weights and biases of ``specs``, each of its layer's shape."""
    own = {}
    for i, spec in enumerate(specs):
        if (shape := _weight_shape(spec)) is not None:
            own.update(zip(_param_names(i, spec), (shape, shape[:1])))
    if set(own) != set(params):
        raise ShapeError(f"parameter names mismatch: {sorted(own)} vs {sorted(params)}")
    for name, arr in params.items():
        if arr.shape != own[name]:
            raise ShapeError(f"{name}: shape {arr.shape} != {own[name]}")


class Network:
    """An ordered layer stack: its specs, and the weight and bias arrays of
    its conv and linear layers (``weights[i]``, None for the other layers).

    A pass keeps its layer caches in the call and only reads the weights,
    so passes over one network may run at the same time. ``forward_logits``
    stops before a trailing sigmoid so that training can use the fused
    logit BCE; ``forward`` applies the full stack; ``loss_and_gradients``
    runs one training pass.
    """

    def __init__(self, specs, rng: np.random.Generator | None = None, input_shape=None, params=None):
        """Kaiming-initialised from ``rng``, or holding ``params`` ({name:
        array}, as :meth:`parameters` names them) with no initialisation."""
        if input_shape is not None:
            infer_shapes(specs, input_shape)  # composition check
        self.specs = tuple(specs)
        self.weights: list[tuple[np.ndarray, np.ndarray] | None] = []
        for spec in self.specs:
            shape = _weight_shape(spec)
            if shape is None:
                self.weights.append(None)
            elif params is None:
                w = kaiming_uniform(rng, shape, int(np.prod(shape[1:])))
                self.weights.append((w, np.zeros(shape[0])))
            else:
                self.weights.append((np.empty(shape), np.empty(shape[0])))
        if params is not None:
            self.set_parameters(params)

    @property
    def _logit_layers(self) -> int:
        """How many layers lead to the logit: all but a trailing sigmoid."""
        if self.specs and isinstance(self.specs[-1], SigmoidSpec):
            return len(self.specs) - 1
        return len(self.specs)

    def _layer_forward(self, i: int, x):
        """Layer ``i``'s output for ``x`` and the cache its backward reads."""
        spec = self.specs[i]
        if isinstance(spec, Conv2DSpec):
            return conv2d_forward(x, *self.weights[i], spec.stride, spec.pad)
        if isinstance(spec, LinearSpec):
            return linear_forward(x, *self.weights[i])
        if isinstance(spec, ReLUSpec):
            return relu_forward(x)
        if isinstance(spec, FlattenSpec):
            return x.reshape(x.shape[0], -1), x.shape
        y = sigmoid(x)
        return y, y

    def _forward(self, x, layers: int):
        for i in range(layers):
            x, _ = self._layer_forward(i, x)
        return x

    def forward(self, x):
        return self._forward(x, len(self.specs))

    def forward_logits(self, x):
        return self._forward(x, self._logit_layers)

    def loss_and_gradients(self, x, y, n):
        """The fused BCE of each logit of ``x`` against the labels ``y``, and
        the gradients of ``sum(loss) / n`` by parameter name.

        The forward pass puts each layer's cache on a tape local to this
        call; the backward pass pops each cache as it uses it. The network's
        input gets no gradient.
        """
        tape = []
        for i in range(self._logit_layers):
            x, cache = self._layer_forward(i, x)
            tape.append(cache)
        loss, dz = bce_with_logits(x, y)
        g = dz / n
        grads = {}
        for i in reversed(range(len(tape))):
            spec, cache = self.specs[i], tape.pop()
            if isinstance(spec, ReLUSpec):
                g = relu_backward(g, cache)
            elif isinstance(spec, FlattenSpec):
                g = g.reshape(cache)
            elif isinstance(spec, SigmoidSpec):
                g = g * cache * (1.0 - cache)
            else:
                if isinstance(spec, LinearSpec):
                    g, gw, gb = linear_backward(g, cache)
                elif i:
                    g, gw, gb = conv2d_backward(g, cache)
                else:  # nothing reads the gradient of the network's input
                    _, gw, gb = _conv2d_param_grads(g, cache)
                grads.update(zip(_param_names(i, spec), (gw, gb)))
        return loss, grads

    def parameters(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, (spec, wb) in enumerate(zip(self.specs, self.weights)):
            if wb is not None:
                out.update(zip(_param_names(i, spec), wb))
        return out

    def set_parameters(self, params: dict[str, np.ndarray]):
        _check_parameters(self.specs, params)
        own = self.parameters()
        for name, arr in params.items():
            own[name][...] = arr

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.parameters().items()}


class AdamW:
    """Adam with decoupled weight decay.

    The decay w <- w - lr * wd * w is applied independently of the
    bias-corrected moment update; the step count is shared across all
    parameters and incremented once per call.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]):
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None or g.shape != p.shape:
                raise ShapeError(f"gradient for {name} missing or wrong shape")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            if self.weight_decay != 0.0:
                p -= self.lr * self.weight_decay * p
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# ---------------------------------------------------------------------------
# gradient verification

def fused_loss(net: Network, x, y) -> float:
    z = net.forward_logits(x)
    loss, _ = bce_with_logits(z, y)
    return float(loss.mean())


def analytic_gradients(net: Network, x, y) -> dict[str, np.ndarray]:
    return net.loss_and_gradients(x, y, np.size(y))[1]


def numeric_gradients(net: Network, x, y, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences (L(p+h) - L(p-h)) / 2h for every parameter."""
    out = {}
    for name, p in net.parameters().items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = fused_loss(net, x, y)
            flat[i] = orig - h
            lm = fused_loss(net, x, y)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * h)
        out[name] = g
    return out


def gradient_relative_errors(analytic: dict, numeric: dict) -> dict[str, np.ndarray]:
    out = {}
    for name in analytic:
        a = analytic[name]
        n = numeric[name]
        out[name] = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
    return out


def grad_check(net: Network, x, y, h: float = 1e-5) -> float:
    """Largest relative error between analytic and central-difference
    gradients over every parameter of the model."""
    errs = gradient_relative_errors(
        analytic_gradients(net, x, y), numeric_gradients(net, x, y, h=h)
    )
    return max(float(e.max()) for e in errs.values())


# ---------------------------------------------------------------------------
# weight serialization: float64 little-endian blob + JSON manifest

WEIGHTS_FORMAT = "petseg-weights-v1"


def save_model(manifest_path, params: dict[str, np.ndarray], specs, seed: int | None = None) -> None:
    """Write weights as a flat little-endian float64 blob plus a JSON
    manifest carrying tensor names, shapes, byte offsets, the architecture
    and the PRNG seed."""
    manifest_path = Path(manifest_path)
    blob_path = manifest_path.with_suffix(".bin")
    tensors = []
    offset = 0
    chunks = []
    for name, arr in params.items():
        data = np.ascontiguousarray(arr, dtype="<f8")
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(data.tobytes())
        offset += data.nbytes
    manifest = {
        "format": WEIGHTS_FORMAT,
        "blob": blob_path.name,
        "seed": seed,
        "architecture": [asdict(s) for s in specs],
        "tensors": tensors,
    }
    atomic_write(blob_path, b"".join(chunks))
    atomic_write(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def load_model(manifest_path, input_shape=None):
    """Inverse of :func:`save_model`; returns (params, specs, manifest).

    A manifest or blob that cannot be read or parsed, a tensor that runs
    past the end of the blob, a malformed layer, layers that do not
    compose on ``input_shape`` (when given), tensors whose names or shapes
    do not match the layers and a NaN or Inf weight each raise IoFailure
    naming the manifest."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
        blob = (manifest_path.parent / manifest["blob"]).read_bytes()
        if manifest.get("format") != WEIGHTS_FORMAT:
            raise ValueError(f"unsupported weights format {manifest.get('format')!r}")
        params = {t["name"]: _read_tensor(blob, t) for t in manifest["tensors"]}
        specs = tuple(spec_from_dict(d) for d in manifest["architecture"])
        if input_shape is not None:
            infer_shapes(specs, input_shape)
        _check_parameters(specs, params)
    except (OSError, KeyError, TypeError, ValueError, ShapeError) as exc:
        raise IoFailure(f"cannot load model from {manifest_path}: {exc}") from exc
    return params, specs, manifest


def _read_tensor(blob: bytes, entry: dict) -> np.ndarray:
    shape = tuple(entry["shape"])
    count = int(np.prod(shape)) if shape else 1
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=entry["offset"])
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"tensor {entry['name']!r} holds NaN or Inf")
    return arr.reshape(shape).astype(np.float64)
