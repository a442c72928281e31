"""Tracer-routed ensemble inference with test-time augmentation.

A Predictor is any object with a ``name`` and a
``predict(stack) -> Volume3D`` method returning per-voxel probabilities on
the stack's grid. Two backends ship here: a desk-scale SUV-threshold
predictor and a subprocess adapter speaking a file contract (four channel
NIfTIs plus a JSON request; the backend writes its probability NIfTI to
the path named in the request and exits 0).

TTA applies axis flips to every channel, runs the predictor, undoes the
flip on the output and averages. Flipped channels and un-flipped outputs
are ``np.flip`` views, never copies, and read-only like all volume data.
The (fold, flip) calls are queued fold-major in canonical flip order on
``_IN_FLIGHT`` worker threads (numpy releases the GIL in its array
loops), so ``predict`` may run on two threads at once and must not
mutate shared state. If a fold predictor has ``concurrent_calls`` false
(``ExternalPredictor``), the calls run one at a time. The tasks form a
chain of futures: each waits for the one before it, then adds its
un-flipped output, while the next call runs. So each fold adds its
outputs into one running sum in canonical flip order, and the fold means
are summed in fold order: the result does not depend on configuration
order or thread timing and is bitwise equal to the mean of the stacked
outputs. ``on_invoke`` runs in that same order on the workers, and the
calling thread only waits. Each call runs in its own span, which the
workers open under the span open where the ensemble was called.

Volumes are x-fastest, so a flip with ``x`` reverses the innermost axis.
The range check of each output takes min and max, which do not depend on
the order, over a view that walks memory forward. A backend that returns
its output in its input's memory layout, as the SUV backend does, hands
back a flipped view that the un-flip turns forward again, so the check
and the add into the fold sum both run forward.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import os
import signal
import subprocess
import tempfile
import threading
import warnings
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nifti
from .discriminator import DiscriminatorModel, Tracer, predict_tracer
from .errors import BudgetExceededWarning, PredictorFailure, ValidationError
from .manifest import span
from .preprocess import (
    SEGMENTATION_SPACING,
    SUV_CAP,
    ChannelStack,
    WindowSpec,
    build_channels,
    discriminator_mip,
)
from .volume import BinaryMask, Volume3D, VolumeKind, require_same_grid

ALL_FLIPS = ("identity", "x", "y", "z", "xy", "xz", "yz", "xyz")
# the default reduced TTA set: those of these flips that are among the full set
REDUCED_FLIPS = ("identity", "z")
# fold predictors per tracer ensemble, as in the paper's 6-fold nnU-Nets
N_FOLDS = 6
_AXIS_OF = {"x": 0, "y": 1, "z": 2}
# predictor calls in flight; a third gained nothing on 2 cores and held one
# more volume
_IN_FLIGHT = 2


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


def _memory_order(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """``a`` with each negative-stride axis reversed, and those axes: a view
    that walks memory forward, for work whose result does not depend on the
    order of traversal (elementwise ops, min and max)."""
    axes = tuple(i for i, step in enumerate(a.strides) if step < 0)
    return np.flip(a, axes), axes


class Predictor:
    """Base segmentation backend; subclasses implement ``predict``.

    ``predict`` gets shared read-only views and, while ``concurrent_calls`` is
    true, may run on two threads at once (two flips of one fold, or the
    last flip of one fold and the first of the next), so it must not
    mutate state shared between calls. Each call's output is added on
    its worker thread once the call before it is added, while the next
    call runs. An output in its input's memory layout, negative strides
    on the same axes, is un-flipped into a forward array, so the add reads
    memory forward; the range check is order-free and reads any output
    forward.
    """

    name: str = "predictor"
    concurrent_calls: bool = True

    def predict(self, stack: ChannelStack) -> Volume3D:
        raise NotImplementedError


class SuvThresholdPredictor(Predictor):
    """Probability = clipped PET channel / cap, in float64 whatever the
    channel's dtype. Exercises the full orchestration path without any
    trained weights."""

    def __init__(self, cap: float = SUV_CAP, name: str = "suv_threshold"):
        if not (math.isfinite(cap) and cap > 0):
            raise ValidationError(f"cap must be finite and > 0, got {cap}")
        self.cap = cap
        self.name = name

    def predict(self, stack: ChannelStack) -> Volume3D:
        # widen, divide and clip in memory order, then hand back the input's
        # layout; a float64 copy first, since a mixed float32/float64 divide is slower
        pet, axes = _memory_order(stack.pet_clipped.data)
        prob = np.empty_like(pet, dtype=np.float64)
        np.copyto(prob, pet)
        np.divide(prob, self.cap, out=prob)
        np.clip(prob, 0.0, 1.0, out=prob)
        return Volume3D(np.flip(prob, axes), stack.spacing, VolumeKind.PROBABILITY)


class ExternalPredictor(Predictor):
    """Subprocess backend speaking the file contract.

    For each call the stack's four channels are written as uncompressed
    ``.nii`` files and a request JSON {case_id, fold, channel_paths,
    target_spacing, output_path} is passed as the process's last
    argument. ``fold`` is the fold's index in its ensemble, so each fold
    can load its own model, and a ``{fold}`` token in any ``command`` item
    is replaced by it. ``target_spacing`` is ``SEGMENTATION_SPACING``, the
    grid the backend should segment on; the orchestrator itself never
    resamples. A nonzero exit or missing output raises PredictorFailure,
    and so does a call that outlives ``timeout``: the backend runs in its
    own session, and its whole process group is killed. The ensemble runs
    its calls one at a time.
    """

    # each call starts a model process; two at once is unmeasured
    concurrent_calls = False

    def __init__(self, command, name: str | None = None, case_id: str = "case",
                 timeout: float | None = None, fold: int = 0):
        self.command = tuple(str(c).replace("{fold}", str(fold)) for c in command)
        if not self.command:
            raise ValidationError("external predictor needs a non-empty command")
        self.name = name or Path(self.command[0]).name
        self.case_id = case_id
        self.fold = fold
        self.timeout = timeout

    def predict(self, stack: ChannelStack) -> Volume3D:
        with tempfile.TemporaryDirectory(prefix="petseg_req_") as tmp:
            tmp = Path(tmp)
            channel_paths = []
            for i, ch in enumerate(stack.channels):
                path = tmp / f"channel_{i}.nii"
                nifti.write_volume(ch, path)
                channel_paths.append(str(path))
            out_path = tmp / "probability.nii"
            request = {
                "case_id": self.case_id,
                "fold": self.fold,
                "channel_paths": channel_paths,
                "target_spacing": list(SEGMENTATION_SPACING),
                "output_path": str(out_path),
            }
            request_path = tmp / "request.json"
            request_path.write_text(json.dumps(request, indent=2))

            try:
                proc = subprocess.Popen([*self.command, str(request_path)], stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, errors="replace", start_new_session=True)
            except OSError as exc:
                raise PredictorFailure(self.name, str(exc)) from exc
            with proc:
                try:
                    _, stderr = proc.communicate(timeout=self.timeout)
                except BaseException as exc:  # a timeout or an interrupt ends the whole group
                    with contextlib.suppress(ProcessLookupError):  # the group may be gone already
                        os.killpg(proc.pid, signal.SIGKILL)
                    if isinstance(exc, subprocess.TimeoutExpired):
                        raise PredictorFailure(self.name, str(exc)) from exc
                    raise
            if proc.returncode != 0:
                tail = stderr.strip().splitlines()[-3:]
                raise PredictorFailure(self.name, f"exit {proc.returncode}: {' | '.join(tail)}")
            if not out_path.exists():
                raise PredictorFailure(self.name, "backend wrote no output file")
            return nifti.read_volume(out_path, kind=VolumeKind.PROBABILITY)


@dataclass(frozen=True)
class Invocation:
    predictor: str
    fold: int
    flip: str


@dataclass(frozen=True)
class EnsembleConfig:
    """Fold predictors plus the TTA policy and decision threshold."""

    folds: tuple[Predictor, ...]
    tta_flips: tuple[str, ...] = ALL_FLIPS
    reduced_flips: tuple[str, ...] | None = None
    tta_reduction_threshold: int = 40_000_000
    time_budget_s: float = 300.0
    decision_threshold: float = 0.5
    soft_deadline: bool = False

    def __post_init__(self):
        for key, ok, rule in (
            ("tta_reduction_threshold", self.tta_reduction_threshold >= 0, ">= 0"),
            ("time_budget_s", math.isfinite(self.time_budget_s) and self.time_budget_s > 0, "finite and > 0"),
            ("decision_threshold", 0 <= self.decision_threshold <= 1, "in [0, 1]"),
        ):
            if not ok:
                raise ValidationError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        object.__setattr__(self, "folds", tuple(self.folds))
        full = _canonical_flips(self.tta_flips)
        reduced = self.reduced_flips
        if reduced is None:
            reduced = tuple(f for f in REDUCED_FLIPS if f in full)
        reduced = _canonical_flips(reduced)
        if not set(reduced) <= set(full):
            raise ValidationError(f"reduced flips {reduced} must be a subset of {full}")
        object.__setattr__(self, "tta_flips", full)
        object.__setattr__(self, "reduced_flips", reduced)


def make_suv_ensemble(n_folds: int = N_FOLDS, cap: float = SUV_CAP, **kwargs) -> EnsembleConfig:
    """Default desk-scale ensemble: n identical SUV-threshold folds."""
    folds = tuple(SuvThresholdPredictor(cap=cap, name=f"suv_threshold_f{i}") for i in range(n_folds))
    return EnsembleConfig(folds=folds, **kwargs)


def _run_predictor(predictor: Predictor, stack: ChannelStack, flip: str, fold: int):
    """One checked call on the flipped stack: the un-flipped output, its
    Invocation and its span ``f{fold}.{flip}``."""
    flipped = flip_stack(stack, flip)
    try:
        with span(f"f{fold}.{flip}") as call:
            out = predictor.predict(flipped)
    except PredictorFailure:
        raise
    except Exception as exc:
        raise PredictorFailure(predictor.name, repr(exc)) from exc
    if out.shape != stack.shape:
        raise PredictorFailure(predictor.name, f"output shape {out.shape} != input {stack.shape}")
    # NaN compares false, so only this form of the range check rejects it;
    # min and max do not depend on the order, so walk memory forward
    data, _ = _memory_order(out.data)
    if data.size and not (data.min() >= 0.0 and data.max() <= 1.0):
        raise PredictorFailure(predictor.name, "output probabilities outside [0, 1] or NaN")
    return flip_volume(out, flip), Invocation(predictor.name, fold, flip), call  # flips are involutions


def _ensemble_mean(folds: tuple, stack: ChannelStack, flips, on_invoke, first=()) -> np.ndarray:
    """Mean over the fold predictors ``folds`` (fold index = position) of
    each fold's mean over the canonical ``flips``.

    The (fold, flip) tasks are queued fold-major on ``_IN_FLIGHT``
    threads, or one if any fold predictor has ``concurrent_calls`` false,
    each with the future of the task before it. A task runs its call,
    waits on that future, adds its un-flipped output into the fold's sum
    (and the fold mean into the total after the fold's last flip) and
    calls ``on_invoke``. The wait cannot deadlock because
    ``ThreadPoolExecutor`` takes tasks in queue order: the task waited on
    has always started, even on one thread. So the adds happen in task
    order, which is what ``np.mean`` over stacked outputs and then stacked
    fold means computes, bit for bit, and each thread holds at most one
    output. A task raises the failure of the task before it if any, else
    its own, so the last future raises the first failure in task order;
    once a task has raised, or the caller is interrupted, queued tasks
    skip their calls, and the call returns or raises only once every
    thread it started has ended. ``first`` may hold the first task's
    result (the first fold's identity), made earlier; it is moved out of
    that list so it is freed once added.
    """
    tasks = [(fold, flip) for fold in range(len(folds)) for flip in flips]
    serial = any(not getattr(p, "concurrent_calls", True) for p in folds)
    stop = threading.Event()
    total = acc = None

    def task(i, prev):
        nonlocal acc, total
        fold, flip = tasks[i]
        try:
            if stop.is_set():  # an earlier task failed or the caller was interrupted
                raise CancelledError
            result = first.pop() if i == 0 and first else _run_predictor(folds[fold], stack, flip, fold)
        except BaseException as exc:  # raised once the task before this one is done
            result = exc
        try:
            if prev is not None:
                prev.result()  # waits for task i - 1; raises the first failure before this task
            if isinstance(result, BaseException):
                raise result
            out, invocation, _ = result
            if flip == flips[0]:
                # a copy, in the output's layout: the predictor may hand
                # back a buffer it still owns
                acc = np.array(out.data, dtype=np.float64, order="K")
            else:
                acc += out.data
            if flip == flips[-1]:
                acc /= len(flips)
                total = acc if total is None else np.add(total, acc, out=total)
                acc = None
            if on_invoke is not None:
                on_invoke(invocation)
        except BaseException:
            stop.set()
            raise

    prefix = f"petseg-ensemble-{id(stop):x}"  # unique among the calls running now
    try:
        with ThreadPoolExecutor(max_workers=1 if serial else _IN_FLIGHT, thread_name_prefix=prefix) as pool:
            try:
                last = None
                for i in range(len(tasks)):
                    last = pool.submit(contextvars.copy_context().run, task, i, last)
                last.exception()  # waits for the whole chain
            except BaseException:  # an interrupt: the queued tasks skip their calls
                stop.set()
                raise
    finally:
        # an interrupt inside ``Thread.start`` keeps that thread out of the
        # set the pool joins; one not yet started will only skip its tasks
        for thread in threading.enumerate():
            if thread.name.startswith(prefix + "_") and thread.is_alive():
                thread.join()
    last.result()
    total /= len(folds)
    return total


def tta_predict(predictor: Predictor, stack: ChannelStack, flips, on_invoke=None) -> Volume3D:
    """Mean prediction over axis flips (flip, predict, unflip, average)."""
    mean = _ensemble_mean((predictor,), stack, _canonical_flips(flips), on_invoke)
    return Volume3D(mean, stack.spacing, VolumeKind.PROBABILITY)


def select_flips(cfg: EnsembleConfig, voxel_count: int) -> tuple[str, ...]:
    """Reduced TTA strictly above the voxel-count threshold, full below."""
    return cfg.reduced_flips if voxel_count > cfg.tta_reduction_threshold else cfg.tta_flips


def ensemble_predict(cfg: EnsembleConfig, stack: ChannelStack, on_invoke=None) -> Volume3D:
    """Voxelwise mean over fold predictors of their TTA means."""
    if not cfg.folds:
        raise ValidationError("ensemble needs at least one fold predictor")
    flips = select_flips(cfg, stack.voxel_count)

    first = []
    if cfg.soft_deadline and len(flips) > len(cfg.reduced_flips):
        first.append(_run_predictor(cfg.folds[0], stack, "identity", 0))
        projected = first[0][2]["s"] * len(cfg.folds) * len(flips)
        if projected > cfg.time_budget_s:
            flips = cfg.reduced_flips

    total = _ensemble_mean(cfg.folds, stack, flips, on_invoke, first)
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
    tta_used: tuple[str, ...]
    invocations: tuple[Invocation, ...] = ()
    budget_exceeded: bool = False


def route(ct: Volume3D, pet: Volume3D, disc: DiscriminatorModel,
          cfg_fdg: EnsembleConfig, cfg_psma: EnsembleConfig,
          window: WindowSpec = WindowSpec()) -> RoutedResult:
    """Full inference in a span ``route``, one span per stage: discriminate
    the tracer, pick that tracer's ensemble, run TTA ensembling and
    threshold the mean probability. Exceeding the time budget, checked
    against ``route``'s span, only warns (BudgetExceededWarning); nothing
    is killed mid-run.
    """
    require_same_grid(ct, pet, "ct/pet")
    invocations: list[Invocation] = []
    with span("route") as timed:
        with span("mip"):
            mip = discriminator_mip(pet)
        with span("discriminator"):
            prediction = predict_tracer(disc, mip)
        cfg = cfg_psma if prediction.tracer is Tracer.PSMA else cfg_fdg
        with span("windowing"):
            stack = build_channels(ct, pet, window)
        with span("ensemble"):
            prob = ensemble_predict(cfg, stack, on_invoke=invocations.append)
        with span("threshold"):
            mask = threshold_mask(prob, cfg.decision_threshold)

    flips_used = tuple(sorted({inv.flip for inv in invocations}, key=ALL_FLIPS.index))
    exceeded = timed["s"] > cfg.time_budget_s
    if exceeded:
        warnings.warn(
            f"inference took {timed['s']:.1f}s, over the {cfg.time_budget_s:.0f}s budget",
            BudgetExceededWarning,
        )
    return RoutedResult(
        tracer=prediction.tracer,
        tracer_probability=prediction.probability,
        mask=mask,
        prob_map=prob,
        tta_used=flips_used,
        invocations=tuple(invocations),
        budget_exceeded=exceeded,
    )
