"""Span recording around petseg's public functions, and the per-layer
metrics derived from the spans.

Nothing inside ``src/`` is edited: :func:`install` replaces each target
function in every ``petseg`` module namespace that holds it (plain
functions are bound by ``from .x import f`` in several modules), and
:func:`uninstall` puts the originals back. A span records its name, start,
end, parent span and the id of the benchmark op it ran in. ``tracemalloc``
runs only inside the spans whose peak memory is reported, because it would
slow every allocation of the rest of the op.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# (module, attribute path, span name, options). An attribute path with a
# dot names a method; "predict" of every Predictor subclass is expanded in
# install(). Names are the layer names of the per-layer metrics.
TARGETS = (
    ("petseg.nifti", "read_volume", "nifti.read_volume", {"peak": True}),
    ("petseg.nifti", "write_volume", "nifti.write_volume", {}),
    ("petseg.preprocess", "resample_trilinear", "preprocess.resample_trilinear", {}),
    ("petseg.preprocess", "discriminator_mip", "preprocess.discriminator_mip", {}),
    ("petseg.preprocess", "build_channels", "preprocess.build_channels", {}),
    ("petseg.discriminator", "predict_tracer", "discriminator.predict_tracer", {}),
    ("petseg.discriminator", "train_fold", "discriminator.train_fold", {}),
    ("petseg.discriminator", "DiscriminatorModel.load", "discriminator.DiscriminatorModel.load", {}),
    ("petseg.nn", "conv2d_forward", "nn.conv2d_forward", {}),
    ("petseg.nn", "conv2d_backward", "nn.conv2d_backward", {}),
    ("petseg.nn", "linear_forward", "nn.linear_forward", {}),
    ("petseg.nn", "linear_backward", "nn.linear_backward", {}),
    ("petseg.nn", "AdamW.step", "nn.AdamW.step", {}),
    ("petseg.orchestrator", "route", "orchestrator.route", {}),
    ("petseg.orchestrator", "ensemble_predict", "orchestrator.ensemble_predict", {"peak": True}),
    ("petseg.orchestrator", "flip_stack", "orchestrator.flip_stack", {}),
    ("petseg.orchestrator", "threshold_mask", "orchestrator.threshold_mask", {}),
    ("petseg.orchestrator", "Predictor.predict", "orchestrator.predictor", {}),
    ("petseg.metrics", "connected_components", "metrics.connected_components", {}),
    ("petseg.metrics", "dice", "metrics.dice", {}),
    ("petseg.manifest", "write_run_manifest", "manifest.write_run_manifest", {}),
    ("petseg.cli", "main", "cli.main", {}),
    ("petseg.synthdata", "make_phantom", "synthdata.make_phantom", {}),
    ("petseg.synthdata", "make_mip_dataset", "synthdata.make_mip_dataset", {}),
)


class Recorder:
    """In-memory span list; spans are written out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self.paused = False  # set while the benchmark checks an op's output
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, peak: bool, describe):
        if self.paused:
            return fn(*args, **kwargs)
        span = {"name": name, "op": self.op_id,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        own_tracemalloc = peak and not tracemalloc.is_tracing()
        if own_tracemalloc:
            tracemalloc.start()
        if peak:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            if peak:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                if own_tracemalloc:
                    tracemalloc.stop()
            self._stack.pop()
        if describe is not None:
            span.update(describe(args, kwargs, out))
        return out


def _describe_read(args, kwargs, out):
    return {"bytes": int(out.data.nbytes)}


def _describe_resample(args, kwargs, out):
    return {"voxels": int(args[0].data.size)}


def _describe_ensemble(args, kwargs, out):
    return {"volume_bytes": int(args[1].voxel_count) * 8}


def _describe_train(args, kwargs, out):
    return {"epochs": len(out[1])}


def _describe_components(args, kwargs, out):
    return {"fg_voxels": int(args[0].voxel_count), "components": int(out[1])}


def _conv_layer_index():
    """Map a conv input shape (C, H, W) to its 1-based layer in DEFAULT_ARCH."""
    from petseg.discriminator import DEFAULT_ARCH, INPUT_SHAPE
    from petseg.nn import Conv2DSpec, infer_shapes

    shapes = infer_shapes(DEFAULT_ARCH, INPUT_SHAPE)
    convs = [shapes[i] for i, s in enumerate(DEFAULT_ARCH) if isinstance(s, Conv2DSpec)]
    return {tuple(shape): i + 1 for i, shape in enumerate(convs)}


def conv_flops(x_shape, w_shape, y_shape) -> int:
    """Multiply-adds x2 of one forward convolution, from tensor shapes."""
    n, c = x_shape[:2]
    f, _, kh, kw = w_shape
    return 2 * n * f * y_shape[2] * y_shape[3] * c * kh * kw


def _conv_describers():
    layer_of = _conv_layer_index()

    def forward(args, kwargs, out):
        x, w = args[0], args[1]
        return {"layer": layer_of.get(tuple(x.shape[1:])),
                "flops": conv_flops(x.shape, w.shape, out[0].shape)}

    def backward(args, kwargs, out):
        # weight and input gradients each cost one forward's multiply-adds
        gx, gw = out[0], out[1]
        return {"layer": layer_of.get(tuple(gx.shape[1:])),
                "flops": 2 * conv_flops(gx.shape, gw.shape, args[0].shape)}

    return {"nn.conv2d_forward": forward, "nn.conv2d_backward": backward}


_DESCRIBERS = {
    "nifti.read_volume": _describe_read,
    "preprocess.resample_trilinear": _describe_resample,
    "orchestrator.ensemble_predict": _describe_ensemble,
    "discriminator.train_fold": _describe_train,
    "metrics.connected_components": _describe_components,
}


def _wrap(rec: Recorder, name: str, fn, peak: bool, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, peak, describe)

    return wrapper


def _patch(rec: Recorder, owner, attr: str, new):
    rec._patches.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, new)


def install(rec: Recorder, modules=None) -> None:
    """Wrap every target in ``modules`` (default: those already imported)."""
    describers = dict(_DESCRIBERS)
    if "petseg.nn" in sys.modules:
        describers.update(_conv_describers())
    petseg_modules = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "petseg" or n.startswith("petseg."))]
    for mod_name, path, name, opts in TARGETS:
        if modules is not None and mod_name not in modules:
            continue
        if mod_name not in sys.modules:
            continue
        mod = sys.modules[mod_name]
        peak = opts.get("peak", False)
        describe = describers.get(name)
        if "." in path:
            cls_name, meth = path.split(".")
            base = getattr(mod, cls_name)
            owners = [base] + _subclasses(base) if meth == "predict" else [base]
            for cls in owners:
                if meth not in cls.__dict__:
                    continue
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(rec, name, raw.__func__, peak, describe))
                else:
                    new = _wrap(rec, name, raw, peak, describe)
                _patch(rec, cls, meth, new)
            continue
        original = getattr(mod, path)
        wrapper = _wrap(rec, name, original, peak, describe)
        for m in petseg_modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    _patch(rec, m, attr, wrapper)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def uninstall(rec: Recorder) -> None:
    while rec._patches:
        owner, attr, original = rec._patches.pop()
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# deriving per-layer metrics

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
            for c in children.get(i, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s["end"] - s["start"]) - covered)
    return out


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "nifti.read_volume.s": "s",
    "nifti.read_volume.calls": "count",
    "nifti.read_volume.mb_per_s": "MB/s",
    "nifti.read_volume.peak_x": "x",
    "nifti.write_volume.s": "s",
    "nifti.write_volume.calls": "count",
    "preprocess.resample_trilinear.s": "s",
    "preprocess.resample_trilinear.mvox_per_s": "Mvox/s",
    "preprocess.discriminator_mip.self_s": "s",
    "preprocess.build_channels.s": "s",
    "discriminator.predict_tracer.s": "s",
    "discriminator.train_fold.epochs": "count",
    "nn.conv2d_forward.s": "s",
    "nn.conv2d_backward.s": "s",
    "nn.linear_forward.s": "s",
    "nn.linear_backward.s": "s",
    "nn.AdamW.step.s": "s",
    **{f"nn.conv2d_forward.L{i}.s": "s" for i in range(1, 7)},
    **{f"nn.conv2d_backward.L{i}.s": "s" for i in range(1, 7)},
    "nn.conv2d.gflop": "GFLOP",
    "nn.conv2d.gflops_per_s": "GFLOP/s",
    "orchestrator.route.s": "s",
    "orchestrator.ensemble_predict.s": "s",
    "orchestrator.predictor.s": "s",
    "orchestrator.overhead_s": "s",
    "orchestrator.overhead_ratio": "ratio",
    "orchestrator.flip_stack.s": "s",
    "orchestrator.invocations": "count",
    "orchestrator.ensemble_predict.peak_vol_eq": "vol_eq",
    "orchestrator.threshold_mask.s": "s",
    "metrics.connected_components.s": "s",
    "metrics.connected_components.calls": "count",
    "metrics.connected_components.fg_mvox_per_s": "Mvox/s",
    "metrics.dice.s": "s",
    "metrics.components": "count",
    "manifest.write_run_manifest.s": "s",
    "discriminator.DiscriminatorModel.load.s": "s",
    "cli.main.self_s": "s",
    "synthdata.make_phantom.s": "s",
    "synthdata.make_mip_dataset.s": "s",
    "trace.overhead_frac": "frac",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def per_layer(spans, n_ops: int, gen_spans, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics, each per traced op unless its name says otherwise.

    ``spans`` come from ``n_ops`` traced ops; ``gen_spans`` from the input
    generator, which is the only caller of ``synthdata``. A layer the
    workload never calls reads 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def total(name, where=lambda s: True):
        return sum(dur(i) for i in by_name.get(name, ()) if where(spans[i]))

    def count(name):
        return len(by_name.get(name, ()))

    def field(name, key):
        return sum(spans[i].get(key) or 0 for i in by_name.get(name, ()))

    def per_op(x):
        return x / n_ops

    m: dict[str, float] = {}
    read_s = total("nifti.read_volume")
    m["nifti.read_volume.s"] = per_op(read_s)
    m["nifti.read_volume.calls"] = per_op(count("nifti.read_volume"))
    m["nifti.read_volume.mb_per_s"] = _ratio(field("nifti.read_volume", "bytes") / 1e6, read_s)
    m["nifti.read_volume.peak_x"] = max(
        (_ratio(spans[i]["peak_bytes"], spans[i]["bytes"]) for i in by_name.get("nifti.read_volume", ())),
        default=0.0)
    m["nifti.write_volume.s"] = per_op(total("nifti.write_volume"))
    m["nifti.write_volume.calls"] = per_op(count("nifti.write_volume"))
    resample_s = total("preprocess.resample_trilinear")
    m["preprocess.resample_trilinear.s"] = per_op(resample_s)
    m["preprocess.resample_trilinear.mvox_per_s"] = _ratio(
        field("preprocess.resample_trilinear", "voxels") / 1e6, resample_s)
    m["preprocess.discriminator_mip.self_s"] = per_op(
        sum(selfs[i] for i in by_name.get("preprocess.discriminator_mip", ())))
    m["preprocess.build_channels.s"] = per_op(total("preprocess.build_channels"))
    m["discriminator.predict_tracer.s"] = per_op(total("discriminator.predict_tracer"))
    m["discriminator.train_fold.epochs"] = per_op(field("discriminator.train_fold", "epochs"))
    for kind in ("conv2d_forward", "conv2d_backward", "linear_forward", "linear_backward"):
        m[f"nn.{kind}.s"] = per_op(total(f"nn.{kind}"))
    m["nn.AdamW.step.s"] = per_op(total("nn.AdamW.step"))
    for kind in ("conv2d_forward", "conv2d_backward"):
        for layer in range(1, 7):
            m[f"nn.{kind}.L{layer}.s"] = per_op(
                total(f"nn.{kind}", lambda s, layer=layer: s.get("layer") == layer))
    conv_s = total("nn.conv2d_forward") + total("nn.conv2d_backward")
    gflop = (field("nn.conv2d_forward", "flops") + field("nn.conv2d_backward", "flops")) / 1e9
    m["nn.conv2d.gflop"] = per_op(gflop)
    m["nn.conv2d.gflops_per_s"] = _ratio(gflop, conv_s)
    ensemble_s = total("orchestrator.ensemble_predict")
    predictor_s = total("orchestrator.predictor")
    m["orchestrator.route.s"] = per_op(total("orchestrator.route"))
    m["orchestrator.ensemble_predict.s"] = per_op(ensemble_s)
    m["orchestrator.predictor.s"] = per_op(predictor_s)
    m["orchestrator.overhead_s"] = per_op(ensemble_s - predictor_s)
    m["orchestrator.overhead_ratio"] = _ratio(ensemble_s - predictor_s, predictor_s)
    m["orchestrator.flip_stack.s"] = per_op(total("orchestrator.flip_stack"))
    m["orchestrator.invocations"] = per_op(count("orchestrator.predictor"))
    m["orchestrator.ensemble_predict.peak_vol_eq"] = max(
        (_ratio(spans[i]["peak_bytes"], spans[i]["volume_bytes"])
         for i in by_name.get("orchestrator.ensemble_predict", ())),
        default=0.0)
    m["orchestrator.threshold_mask.s"] = per_op(total("orchestrator.threshold_mask"))
    cc_s = total("metrics.connected_components")
    m["metrics.connected_components.s"] = per_op(cc_s)
    m["metrics.connected_components.calls"] = per_op(count("metrics.connected_components"))
    m["metrics.connected_components.fg_mvox_per_s"] = _ratio(
        field("metrics.connected_components", "fg_voxels") / 1e6, cc_s)
    m["metrics.dice.s"] = per_op(total("metrics.dice"))
    m["metrics.components"] = per_op(field("metrics.connected_components", "components"))
    m["manifest.write_run_manifest.s"] = per_op(total("manifest.write_run_manifest"))
    m["discriminator.DiscriminatorModel.load.s"] = per_op(total("discriminator.DiscriminatorModel.load"))
    m["cli.main.self_s"] = per_op(sum(selfs[i] for i in by_name.get("cli.main", ())))

    gen_total = {}
    for s in gen_spans:
        gen_total[s["name"]] = gen_total.get(s["name"], 0.0) + (s["end"] - s["start"])
    # generator seconds for the whole input set of this seed
    m["synthdata.make_phantom.s"] = gen_total.get("synthdata.make_phantom", 0.0)
    m["synthdata.make_mip_dataset.s"] = gen_total.get("synthdata.make_mip_dataset", 0.0)
    m["trace.overhead_frac"] = overhead_frac
    if list(m) != list(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metrics and PER_LAYER_UNITS disagree")
    return m
