"""Tracer-routed ensemble inference with test-time augmentation.

A Predictor is any object with a ``name`` and a
``predict(stack) -> Volume3D`` method returning per-voxel probabilities on
the stack's grid. Two backends ship here: a desk-scale SUV-threshold
predictor and a subprocess adapter speaking a file contract (four channel
NIfTIs plus a JSON request; the backend writes its probability NIfTI to
the path named in the request and exits 0).

TTA applies axis flips to every channel, runs the predictor, undoes the
flip on the output and averages. Flipped channels and un-flipped outputs
are ``np.flip`` views, never copies, and predictors see them read-only.
Each fold adds its un-flipped outputs into one running sum in canonical
flip order, and the fold means are summed in fold order, so the result
does not depend on configuration order and is bitwise equal to the mean
of the stacked outputs.
"""

from __future__ import annotations

import json
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nifti
from .discriminator import DiscriminatorModel, Tracer, predict_tracer
from .errors import BudgetExceededWarning, PredictorFailure, ValidationError
from .preprocess import (
    ChannelStack,
    WindowSpec,
    build_channels,
    discriminator_mip,
)
from .volume import BinaryMask, Volume3D, VolumeKind, require_same_grid

ALL_FLIPS = ("identity", "x", "y", "z", "xy", "xz", "yz", "xyz")
_AXIS_OF = {"x": 0, "y": 1, "z": 2}


def parse_flip(name: str) -> tuple[int, ...]:
    """Canonical axis tuple for a flip name ('identity', 'x', 'xz', ...)."""
    if name in ("identity", ""):
        return ()
    axes = sorted({_AXIS_OF[ch] for ch in name if ch in _AXIS_OF})
    if len(name) != len(set(name)) or any(ch not in _AXIS_OF for ch in name):
        raise ValidationError(f"bad flip name {name!r}; use subsets of 'xyz' or 'identity'")
    return tuple(axes)


def _canonical_flips(flips) -> tuple[str, ...]:
    """Validate and order flip names canonically; identity must be present."""
    canon = []
    for f in flips:
        axes = parse_flip(f)
        canon.append(ALL_FLIPS[0] if not axes else "".join("xyz"[a] for a in axes))
    if len(set(canon)) != len(canon):
        raise ValidationError(f"duplicate flips in {tuple(flips)}")
    if "identity" not in canon:
        raise ValidationError("the identity flip must always be included")
    return tuple(sorted(canon, key=ALL_FLIPS.index))


def flip_volume(vol: Volume3D, flip: str) -> Volume3D:
    """``vol`` flipped along the named axes, as a view of its data."""
    axes = parse_flip(flip)
    if not axes:
        return vol
    return vol.with_data(np.flip(vol.data, axis=axes))


def flip_stack(stack: ChannelStack, flip: str) -> ChannelStack:
    """Every channel flipped along the named axes, as views."""
    if not parse_flip(flip):
        return stack
    return ChannelStack(tuple(flip_volume(ch, flip) for ch in stack.channels))


def _read_only(stack: ChannelStack) -> ChannelStack:
    """Read-only views of the channels: predictors share the caller's
    buffers across every fold and flip, so none may write into them."""
    channels = []
    for ch in stack.channels:
        view = ch.data.view()
        view.flags.writeable = False
        channels.append(ch.with_data(view))
    return ChannelStack(tuple(channels))


class Predictor:
    """Base segmentation backend; subclasses implement ``predict``."""

    name: str = "predictor"

    def predict(self, stack: ChannelStack) -> Volume3D:
        raise NotImplementedError


class SuvThresholdPredictor(Predictor):
    """Probability = clipped PET channel / cap, optionally zeroed inside
    supplied organ masks. Exercises the full orchestration path without
    any trained weights."""

    def __init__(self, cap: float = 20.0, organ_masks=None, name: str = "suv_threshold"):
        if cap <= 0:
            raise ValidationError(f"cap must be positive, got {cap}")
        self.cap = cap
        self.organ_masks = tuple(organ_masks) if organ_masks else ()
        self.name = name

    def predict(self, stack: ChannelStack) -> Volume3D:
        prob = np.clip(stack.pet_clipped.data / self.cap, 0.0, 1.0)
        for mask in self.organ_masks:
            require_same_grid(stack.pet_clipped, mask, "organ mask / stack")
            prob[mask.mask] = 0.0
        return Volume3D(prob, stack.spacing, VolumeKind.PROBABILITY)


class ExternalPredictor(Predictor):
    """Subprocess backend speaking the file contract.

    For each call the stack's four channels are written as uncompressed
    ``.nii`` files and a request JSON {case_id, channel_paths,
    target_spacing, output_path} is passed as the process's single
    argument. ``target_spacing`` names the grid the backend should segment
    on; the orchestrator itself never resamples. A nonzero exit or missing
    output raises PredictorFailure.
    """

    def __init__(self, command, name: str | None = None, target_spacing=(3.3, 3.3, 3.3),
                 case_id: str = "case", workdir=None, timeout: float | None = None):
        self.command = tuple(str(c) for c in command)
        if not self.command:
            raise ValidationError("external predictor needs a non-empty command")
        self.name = name or Path(self.command[0]).name
        self.target_spacing = tuple(float(s) for s in target_spacing)
        self.case_id = case_id
        self.workdir = workdir
        self.timeout = timeout

    def predict(self, stack: ChannelStack) -> Volume3D:
        with tempfile.TemporaryDirectory(dir=self.workdir, prefix="petseg_req_") as tmp:
            tmp = Path(tmp)
            channel_paths = []
            for i, ch in enumerate(stack.channels):
                path = tmp / f"channel_{i}.nii"
                nifti.write_volume(ch, path)
                channel_paths.append(str(path))
            out_path = tmp / "probability.nii"
            request = {
                "case_id": self.case_id,
                "channel_paths": channel_paths,
                "target_spacing": list(self.target_spacing),
                "output_path": str(out_path),
            }
            request_path = tmp / "request.json"
            request_path.write_text(json.dumps(request, indent=2))

            try:
                proc = subprocess.run(
                    [*self.command, str(request_path)],
                    capture_output=True,
                    text=True,
                    timeout=self.timeout,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise PredictorFailure(self.name, str(exc)) from exc
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-3:]
                raise PredictorFailure(self.name, f"exit {proc.returncode}: {' | '.join(tail)}")
            if not out_path.exists():
                raise PredictorFailure(self.name, "backend wrote no output file")
            return nifti.read_volume(out_path, kind=VolumeKind.PROBABILITY)


@dataclass(frozen=True)
class Invocation:
    predictor: str
    fold: int
    flip: str
    wall_time_s: float


@dataclass(frozen=True)
class EnsembleConfig:
    """Fold predictors plus the TTA policy and decision threshold."""

    folds: tuple[Predictor, ...]
    tta_flips: tuple[str, ...] = ALL_FLIPS
    reduced_flips: tuple[str, ...] = ("identity", "z")
    tta_reduction_threshold: int = 40_000_000
    time_budget_s: float = 300.0
    decision_threshold: float = 0.5
    soft_deadline: bool = False

    def __post_init__(self):
        object.__setattr__(self, "folds", tuple(self.folds))
        full = _canonical_flips(self.tta_flips)
        reduced = _canonical_flips(self.reduced_flips)
        if not set(reduced) <= set(full):
            raise ValidationError(f"reduced flips {reduced} must be a subset of {full}")
        object.__setattr__(self, "tta_flips", full)
        object.__setattr__(self, "reduced_flips", reduced)


def make_suv_ensemble(n_folds: int = 6, cap: float = 20.0, **kwargs) -> EnsembleConfig:
    """Default desk-scale ensemble: n identical SUV-threshold folds."""
    folds = tuple(SuvThresholdPredictor(cap=cap, name=f"suv_threshold_f{i}") for i in range(n_folds))
    return EnsembleConfig(folds=folds, **kwargs)


def _run_predictor(predictor: Predictor, stack: ChannelStack, flip: str, fold: int, on_invoke):
    flipped = flip_stack(stack, flip)
    t0 = time.perf_counter()
    try:
        out = predictor.predict(flipped)
    except PredictorFailure:
        raise
    except Exception as exc:
        raise PredictorFailure(predictor.name, repr(exc)) from exc
    wall = time.perf_counter() - t0
    if out.shape != stack.shape:
        raise PredictorFailure(predictor.name, f"output shape {out.shape} != input {stack.shape}")
    # NaN compares false, so only this form of the range check rejects it
    if out.data.size and not (out.data.min() >= 0.0 and out.data.max() <= 1.0):
        raise PredictorFailure(predictor.name, "output probabilities outside [0, 1] or NaN")
    if on_invoke is not None:
        on_invoke(Invocation(predictor.name, fold, flip, wall))
    return flip_volume(out, flip), wall  # flips are involutions


def _flip_mean(predictor: Predictor, stack: ChannelStack, flips, fold: int, on_invoke,
               identity_out: Volume3D | None = None) -> np.ndarray:
    """Running-sum mean of the un-flipped outputs over canonical ``flips``.

    ``stack`` must already be read-only. ``identity_out`` is a prediction
    of the identity flip (always first) made earlier, used instead of a
    new call. Adding in flip order and then dividing is exactly what
    ``np.mean(np.stack(outputs), axis=0)`` computes, bit for bit.
    """
    if identity_out is None:
        identity_out = _run_predictor(predictor, stack, flips[0], fold, on_invoke)[0]
    # a copy: the predictor may hand back a buffer it still owns
    acc = np.array(identity_out.data, dtype=np.float64, order="C")
    for flip in flips[1:]:
        acc += _run_predictor(predictor, stack, flip, fold, on_invoke)[0].data
    acc /= len(flips)
    return acc


def tta_predict(predictor: Predictor, stack: ChannelStack, flips, fold: int = 0,
                on_invoke=None) -> Volume3D:
    """Mean prediction over axis flips (flip, predict, unflip, average)."""
    mean = _flip_mean(predictor, _read_only(stack), _canonical_flips(flips), fold, on_invoke)
    return Volume3D(mean, stack.spacing, VolumeKind.PROBABILITY)


def select_flips(cfg: EnsembleConfig, voxel_count: int) -> tuple[str, ...]:
    """Reduced TTA strictly above the voxel-count threshold, full below."""
    return cfg.reduced_flips if voxel_count > cfg.tta_reduction_threshold else cfg.tta_flips


def ensemble_predict(cfg: EnsembleConfig, stack: ChannelStack, on_invoke=None) -> Volume3D:
    """Voxelwise mean over fold predictors of their TTA means."""
    if not cfg.folds:
        raise ValidationError("ensemble needs at least one fold predictor")
    flips = select_flips(cfg, stack.voxel_count)
    stack = _read_only(stack)

    first_result = None
    if cfg.soft_deadline and len(flips) > len(cfg.reduced_flips):
        first_result, wall = _run_predictor(cfg.folds[0], stack, "identity", 0, on_invoke)
        projected = wall * len(cfg.folds) * len(flips)
        if projected > cfg.time_budget_s:
            flips = cfg.reduced_flips

    # fold means summed in fold order, then divided, as np.mean over a stack
    total = _flip_mean(cfg.folds[0], stack, flips, 0, on_invoke, first_result)
    for fold in range(1, len(cfg.folds)):
        total += _flip_mean(cfg.folds[fold], stack, flips, fold, on_invoke)
    total /= len(cfg.folds)
    return Volume3D(total, stack.spacing, VolumeKind.PROBABILITY)


def threshold_mask(prob: Volume3D, threshold: float = 0.5) -> BinaryMask:
    """Foreground where probability >= threshold."""
    if prob.data.size and not (prob.data.min() >= 0.0 and prob.data.max() <= 1.0):
        raise ValidationError("probability volume has values outside [0, 1] or NaN")
    return BinaryMask(prob.data >= threshold, prob.spacing)


@dataclass(frozen=True)
class RoutedResult:
    tracer: Tracer
    tracer_probability: float
    mask: BinaryMask
    prob_map: Volume3D
    wall_time_s: float
    tta_used: tuple[str, ...]
    stage_timings: dict[str, float] = field(default_factory=dict)
    invocations: tuple[Invocation, ...] = ()
    budget_exceeded: bool = False


def route(ct: Volume3D, pet: Volume3D, disc: DiscriminatorModel,
          cfg_fdg: EnsembleConfig, cfg_psma: EnsembleConfig,
          window: WindowSpec = WindowSpec(), mip_spacing=(3.0, 3.0, 3.0),
          suv_cap: float = 20.0) -> RoutedResult:
    """Full inference: discriminate the tracer, pick that tracer's
    ensemble, run TTA ensembling and threshold the mean probability.

    Exceeding the time budget only warns (BudgetExceededWarning); nothing
    is killed mid-run.
    """
    require_same_grid(ct, pet, "ct/pet")
    t_start = time.perf_counter()
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    mip = discriminator_mip(pet, spacing=mip_spacing, cap=suv_cap)
    timings["mip_pipeline_s"] = time.perf_counter() - t0

    prediction = predict_tracer(disc, mip)
    timings["discriminator_s"] = prediction.wall_time_s
    cfg = cfg_psma if prediction.tracer is Tracer.PSMA else cfg_fdg

    t0 = time.perf_counter()
    stack = build_channels(ct, pet, window)
    timings["windowing_s"] = time.perf_counter() - t0

    invocations: list[Invocation] = []
    t0 = time.perf_counter()
    prob = ensemble_predict(cfg, stack, on_invoke=invocations.append)
    timings["ensemble_s"] = time.perf_counter() - t0

    mask = threshold_mask(prob, cfg.decision_threshold)
    wall = time.perf_counter() - t_start
    timings["total_s"] = wall

    flips_used = tuple(sorted({inv.flip for inv in invocations}, key=ALL_FLIPS.index))
    exceeded = wall > cfg.time_budget_s
    if exceeded:
        warnings.warn(
            f"inference took {wall:.1f}s, over the {cfg.time_budget_s:.0f}s budget",
            BudgetExceededWarning,
        )
    return RoutedResult(
        tracer=prediction.tracer,
        tracer_probability=prediction.probability,
        mask=mask,
        prob_map=prob,
        wall_time_s=wall,
        tta_used=flips_used,
        stage_timings=timings,
        invocations=tuple(invocations),
        budget_exceeded=exceeded,
    )
