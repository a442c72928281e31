"""Dense float64 neural-network kernels with exact backpropagation.

Everything here runs in float64 so that analytic gradients can be verified
against central finite differences to tight tolerances. Convolution uses
the cross-correlation convention (no kernel flip) with zero padding, and
is realized as an im2col gather plus one matrix product per layer.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, asdict
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
    kind = d.get("kind")
    if kind not in _SPEC_KINDS:
        raise ShapeError(f"unknown layer kind {kind!r}")
    return _SPEC_KINDS[kind](**d)


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
# layers with state

def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    # ReLU gain sqrt(2): bound = sqrt(2) * sqrt(3 / fan_in)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _Layer:
    spec: LayerSpec
    has_params = False

    def forward(self, x):
        raise NotImplementedError

    def backward(self, g):
        raise NotImplementedError


class _Conv2D(_Layer):
    has_params = True

    def __init__(self, spec: Conv2DSpec, rng: np.random.Generator, input_grad: bool = True):
        self.spec = spec
        self.input_grad = input_grad
        fan_in = spec.in_ch * spec.kernel * spec.kernel
        self.w = kaiming_uniform(rng, (spec.out_ch, spec.in_ch, spec.kernel, spec.kernel), fan_in)
        self.b = np.zeros(spec.out_ch, dtype=np.float64)
        self.gw = None
        self.gb = None
        self._cache = None

    def forward(self, x):
        y, self._cache = conv2d_forward(x, self.w, self.b, self.spec.stride, self.spec.pad)
        return y

    def backward(self, g):
        cache, self._cache = self._cache, None
        if not self.input_grad:
            _, self.gw, self.gb = _conv2d_param_grads(g, cache)
            return None
        gx, self.gw, self.gb = conv2d_backward(g, cache)
        return gx


class _Linear(_Layer):
    has_params = True

    def __init__(self, spec: LinearSpec, rng: np.random.Generator):
        self.spec = spec
        self.w = kaiming_uniform(rng, (spec.out_features, spec.in_features), spec.in_features)
        self.b = np.zeros(spec.out_features, dtype=np.float64)
        self.gw = None
        self.gb = None
        self._cache = None

    def forward(self, x):
        y, self._cache = linear_forward(x, self.w, self.b)
        return y

    def backward(self, g):
        cache, self._cache = self._cache, None
        gx, self.gw, self.gb = linear_backward(g, cache)
        return gx


class _ReLU(_Layer):
    def __init__(self, spec: ReLUSpec):
        self.spec = spec
        self._cache = None

    def forward(self, x):
        y, self._cache = relu_forward(x)
        return y

    def backward(self, g):
        cache, self._cache = self._cache, None
        return relu_backward(g, cache)


class _Sigmoid(_Layer):
    def __init__(self, spec: SigmoidSpec):
        self.spec = spec
        self._y = None

    def forward(self, x):
        self._y = sigmoid(x)
        return self._y

    def backward(self, g):
        y, self._y = self._y, None
        return np.asarray(g) * y * (1.0 - y)


class _Flatten(_Layer):
    def __init__(self, spec: FlattenSpec):
        self.spec = spec
        self._shape = None

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, g):
        return np.asarray(g).reshape(self._shape)


class Network:
    """An ordered layer stack with explicit forward/backward passes.

    ``forward_logits`` stops before a trailing sigmoid so that training can
    use the fused logit BCE; ``forward`` applies the full stack.
    """

    def __init__(self, specs, rng: np.random.Generator, input_shape=None):
        if input_shape is not None:
            infer_shapes(specs, input_shape)  # composition check
        self.specs = tuple(specs)
        self.layers = []
        for spec in self.specs:
            if isinstance(spec, Conv2DSpec):
                # nothing reads the gradient of the network's input
                self.layers.append(_Conv2D(spec, rng, input_grad=bool(self.layers)))
            elif isinstance(spec, LinearSpec):
                self.layers.append(_Linear(spec, rng))
            elif isinstance(spec, ReLUSpec):
                self.layers.append(_ReLU(spec))
            elif isinstance(spec, SigmoidSpec):
                self.layers.append(_Sigmoid(spec))
            elif isinstance(spec, FlattenSpec):
                self.layers.append(_Flatten(spec))
            else:
                raise ShapeError(f"unknown layer spec {spec!r}")

    @property
    def _has_final_sigmoid(self) -> bool:
        return bool(self.layers) and isinstance(self.layers[-1], _Sigmoid)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_logits(self, x):
        layers = self.layers[:-1] if self._has_final_sigmoid else self.layers
        for layer in layers:
            x = layer.forward(x)
        return x

    def backward_from_logits(self, dz) -> None:
        """Set every layer's parameter gradients from dL/dz of the last
        ``forward_logits``; each layer frees its cache once used."""
        layers = self.layers[:-1] if self._has_final_sigmoid else self.layers
        g = dz
        for layer in reversed(layers):
            g = layer.backward(g)

    def replica(self) -> "Network":
        """A network on this one's weight arrays with its own caches and
        gradients, so that replicas can run passes at the same time."""
        twin = copy.copy(self)
        twin.layers = [copy.copy(layer) for layer in self.layers]
        return twin

    def parameters(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            if layer.has_params:
                out[f"{i:02d}_{layer.spec.kind}.w"] = layer.w
                out[f"{i:02d}_{layer.spec.kind}.b"] = layer.b
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            if layer.has_params:
                out[f"{i:02d}_{layer.spec.kind}.w"] = layer.gw
                out[f"{i:02d}_{layer.spec.kind}.b"] = layer.gb
        return out

    def set_parameters(self, params: dict[str, np.ndarray]):
        own = self.parameters()
        if set(own) != set(params):
            raise ShapeError(f"parameter names mismatch: {sorted(own)} vs {sorted(params)}")
        for name, arr in params.items():
            if own[name].shape != arr.shape:
                raise ShapeError(f"{name}: shape {arr.shape} != {own[name].shape}")
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
    z = net.forward_logits(x)
    loss, dz = bce_with_logits(z, y)
    net.backward_from_logits(dz / loss.size)
    return {k: v.copy() for k, v in net.gradients().items()}


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


def load_model(manifest_path):
    """Inverse of :func:`save_model`; returns (params, specs, manifest)."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
        blob = (manifest_path.parent / manifest["blob"]).read_bytes()
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise IoFailure(f"cannot load model from {manifest_path}: {exc}") from exc
    if manifest.get("format") != WEIGHTS_FORMAT:
        raise IoFailure(f"unsupported weights format {manifest.get('format')!r}")
    params = {}
    for t in manifest["tensors"]:
        shape = tuple(t["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=t["offset"])
        params[t["name"]] = arr.reshape(shape).astype(np.float64)
    specs = tuple(spec_from_dict(d) for d in manifest["architecture"])
    return params, specs, manifest
