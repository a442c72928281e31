"""Tracer classification from coronal MIP images.

The reference architecture is six stride-2 3x3 convolutions (224 -> 4)
followed by five fully connected layers, ReLU activations throughout and a
final sigmoid. Class mapping is fixed project-wide: FDG = 0, PSMA = 1;
the decision threshold is 0.5 with ties going to PSMA.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import partial
from pathlib import Path

import numpy as np

from . import blas, nifti
from .errors import DivergedLoss, EmptySplit, IoFailure, TooFewSamples, ValidationError
from .manifest import atomic_write, span, write_csv
from .nn import (
    AdamW,
    Conv2DSpec,
    FlattenSpec,
    LinearSpec,
    Network,
    ReLUSpec,
    SigmoidSpec,
    bce_with_logits,
    load_model,
    save_model,
    sigmoid,
)
from .preprocess import MIP_SIZE, MipImage
from .volume import Volume3D, VolumeKind


class Tracer(IntEnum):
    FDG = 0
    PSMA = 1


INPUT_SHAPE = (1, MIP_SIZE, MIP_SIZE)

# Six stride-2 convs bring 224 down to 4; 64*4*4 = 1024 feeds the head.
DEFAULT_ARCH = (
    Conv2DSpec(1, 8, 3, 2, 1), ReLUSpec(),
    Conv2DSpec(8, 16, 3, 2, 1), ReLUSpec(),
    Conv2DSpec(16, 32, 3, 2, 1), ReLUSpec(),
    Conv2DSpec(32, 64, 3, 2, 1), ReLUSpec(),
    Conv2DSpec(64, 64, 3, 2, 1), ReLUSpec(),
    Conv2DSpec(64, 64, 3, 2, 1), ReLUSpec(),
    FlattenSpec(),
    LinearSpec(1024, 256), ReLUSpec(),
    LinearSpec(256, 64), ReLUSpec(),
    LinearSpec(64, 32), ReLUSpec(),
    LinearSpec(32, 16), ReLUSpec(),
    LinearSpec(16, 1),
    SigmoidSpec(),
)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    max_epochs: int = 100
    patience: int = 10
    batch_size: int = 16
    val_fraction: float = 0.2
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for key, ok, rule in (
            ("lr", math.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
            ("max_epochs", self.max_epochs >= 1, ">= 1"),
            ("patience", self.patience >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("val_fraction", 0 < self.val_fraction < 1, "in (0, 1)"),
            ("weight_decay", math.isfinite(self.weight_decay) and self.weight_decay >= 0, "finite and >= 0"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ValidationError(f"{key} must be {rule}, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class LabeledMip:
    image: MipImage
    label: int
    case_id: str

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValidationError(f"label must be 0 (FDG) or 1 (PSMA), got {self.label}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_bce: float
    val_bce: float
    val_acc: float
    epoch_s: float = field(compare=False)  # the epoch's span: not part of ==, as it varies run to run


@dataclass(frozen=True)
class TracerPrediction:
    probability: float
    tracer: Tracer


class DiscriminatorModel:
    """A trained (or fresh) classifier: network weights plus provenance."""

    def __init__(self, network: Network, seed: int | None = None, files: tuple = ()):
        self.network = network
        self.seed = seed
        self.files = files  # the model manifest and weights blob it was loaded from

    @classmethod
    def fresh(cls, seed: int) -> "DiscriminatorModel":
        rng = np.random.default_rng(seed)
        return cls(Network(DEFAULT_ARCH, rng, input_shape=INPUT_SHAPE), seed=seed)

    def save(self, manifest_path) -> None:
        save_model(manifest_path, self.network.parameters(), self.network.specs, seed=self.seed)

    @classmethod
    def load(cls, manifest_path) -> "DiscriminatorModel":
        params, specs, manifest = load_model(manifest_path, INPUT_SHAPE)
        blob = Path(manifest_path).parent / manifest["blob"]
        return cls(Network(specs, params=params), seed=manifest.get("seed"), files=(manifest_path, blob))


def _require_input_size(shape, source) -> None:
    """Raise ValidationError naming ``source`` unless ``shape`` is MIP_SIZE x MIP_SIZE."""
    if tuple(shape) != INPUT_SHAPE[1:]:
        raise ValidationError(f"{source}: MIP is {'x'.join(map(str, shape))}, "
                              f"the tracer classifier reads {MIP_SIZE}x{MIP_SIZE}")


# Training and evaluation split every batch into _SHARDS fixed shards, run
# on as many threads with one BLAS thread each. The shards' gradients and
# losses are added in shard order, so the bytes of a trained model depend
# neither on thread timing nor on the host's BLAS thread count.
_SHARDS = 2


@contextmanager
def _sharded(network: Network):
    """For the ``with`` block: BLAS at one thread and a pool of ``_SHARDS``
    threads. Yields ``run(fn, mips, labels, idx)``, which calls
    ``fn(network, x, y)`` for each non-empty shard of the batch ``idx`` and
    returns the results in shard order. The shards share the weights of
    ``network``; each pass keeps its own state."""
    with blas.pinned(1), ThreadPoolExecutor(_SHARDS, thread_name_prefix="petseg-shard") as pool:
        def run(fn, mips, labels, idx):
            futures = [pool.submit(_on_shard, fn, network, mips, labels, part)
                       for part in np.array_split(idx, _SHARDS) if part.size]
            return [f.result() for f in futures]

        yield run


def _on_shard(fn, net, mips, labels, part):
    x = np.stack([mips[i].image.pixels for i in part])[:, None, :, :]
    return fn(net, x, labels[part])


def _step_shard(net: Network, x, y, batch_size: int):
    loss, grads = net.loss_and_gradients(x, y, batch_size)
    return float(loss.sum()), grads


def _eval_shard(net: Network, x, y):
    z = net.forward_logits(x)
    loss, _ = bce_with_logits(z, y)
    return float(loss.sum()), int(np.count_nonzero((sigmoid(z) >= 0.5) == (y >= 0.5)))


def _train_step(run, mips, labels, idx):
    """Summed BCE and the gradients of the mean BCE over the batch ``idx``."""
    results = run(partial(_step_shard, batch_size=len(idx)), mips, labels, idx)
    grads = results[0][1]
    for _, more in results[1:]:
        grads = {name: g + more[name] for name, g in grads.items()}
    return sum(loss for loss, _ in results), grads


def _labels(mips) -> np.ndarray:
    """The (N, 1) label column of ``mips``, once every MIP's size is checked."""
    for m in mips:
        _require_input_size(m.image.shape, m.case_id)
    return np.array([[m.label] for m in mips], dtype=np.float64)


def _evaluate(run, mips, labels, batch_size: int):
    """Mean fused BCE and decision accuracy over ``mips`` in batches."""
    total_loss = 0.0
    correct = 0
    for i in range(0, len(mips), batch_size):
        idx = np.arange(i, min(i + batch_size, len(mips)))
        for loss, hits in run(_eval_shard, mips, labels, idx):
            total_loss += loss
            correct += hits
    return total_loss / len(mips), correct / len(mips)


def train_fold(train, val, cfg: TrainConfig = TrainConfig()):
    """Minimize mean BCE with AdamW; early-stop on the validation loss.

    Stops when validation BCE fails to improve by more than 1e-6 for
    ``cfg.patience`` consecutive epochs, or at ``cfg.max_epochs``. Returns
    (model, history) where the model carries the best-validation-epoch
    parameters, not the last ones. Each epoch is a span ``epoch {n}``.
    """
    if not train or not val:
        raise EmptySplit(f"need non-empty splits, got {len(train)} train / {len(val)} val")
    overlap = {m.case_id for m in train} & {m.case_id for m in val}
    if overlap:
        raise ValidationError(f"train/val case_ids overlap: {sorted(overlap)[:5]}")

    rng = np.random.default_rng(cfg.seed)
    network = Network(DEFAULT_ARCH, rng, input_shape=INPUT_SHAPE)
    opt = AdamW(network.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    y_train = _labels(train)
    y_val = _labels(val)

    history: list[EpochStats] = []
    best_val = np.inf
    best_params = network.snapshot()
    bad_epochs = 0

    with _sharded(network) as run:
        for epoch in range(1, cfg.max_epochs + 1):
            with span(f"epoch {epoch}") as timed:
                perm = rng.permutation(len(train))
                epoch_loss = 0.0
                for i in range(0, len(train), cfg.batch_size):
                    loss, grads = _train_step(run, train, y_train, perm[i : i + cfg.batch_size])
                    opt.step(grads)
                    epoch_loss += loss
                train_bce = epoch_loss / len(train)

                val_bce, val_acc = _evaluate(run, val, y_val, cfg.batch_size)
                if np.isnan(val_bce):
                    raise DivergedLoss(f"validation BCE is NaN at epoch {epoch}")
            history.append(EpochStats(epoch, train_bce, val_bce, val_acc, timed["s"]))

            if val_bce < best_val - 1e-6:
                best_val = val_bce
                best_params = network.snapshot()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > cfg.patience:
                    break

    network.set_parameters(best_params)
    return DiscriminatorModel(network, seed=cfg.seed), history


def training_host() -> dict:
    """The manifest's host entries on how :func:`train_fold` ran BLAS."""
    pinned = blas.threads() is not None
    return {"blas_pinned": pinned, "train_blas_threads": 1 if pinned else None}


def train_val_split(data, val_fraction: float, rng: np.random.Generator):
    """Shuffle ``data`` with ``rng`` and return ``(train, val)``; ``val``
    holds ``round(val_fraction * n)`` items, at least one, while ``train``
    keeps at least one (below two items one side is empty)."""
    perm = rng.permutation(len(data))
    n_val = min(max(1, round(val_fraction * len(data))), len(data) - 1)
    return [data[i] for i in perm[n_val:]], [data[i] for i in perm[:n_val]]


@dataclass(frozen=True)
class CVResult:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    fold_case_ids: tuple[tuple[str, ...], ...]


def stratified_folds(data, k: int, seed: int) -> list[list[int]]:
    """Deterministic stratified partition: shuffle once per class, slice."""
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in (0, 1):
        idx = np.array([i for i, m in enumerate(data) if m.label == label], dtype=int)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        for f, chunk in enumerate(np.array_split(idx, k)):
            folds[f].extend(int(i) for i in chunk)
    return folds


def cross_validate(data, k: int = 5, cfg: TrainConfig = TrainConfig()) -> CVResult:
    """Stratified k-fold cross-validation of the tracer classifier.

    Accuracy per fold is the fraction of held-out cases whose thresholded
    probability matches the label. Each fold runs in a span ``fold {f}``.
    """
    if k < 2:
        raise ValidationError(f"need k >= 2 folds, got {k}")
    if len(data) < k:
        raise TooFewSamples(f"need at least {k} samples for {k}-fold CV, got {len(data)}")

    labels = _labels(data)
    folds = stratified_folds(data, k, cfg.seed)
    if not all(folds):
        fdg = int(np.count_nonzero(labels == 0))
        raise ValidationError(f"k={k} leaves a fold without cases: the data hold {fdg} FDG "
                              f"and {len(data) - fdg} PSMA cases, split per class into {k} folds")
    accuracies = []
    fold_cases = []
    for f in range(k):
        held = [data[i] for i in folds[f]]
        rest = [data[i] for g in range(k) if g != f for i in folds[g]]
        fold_seed = int(np.random.SeedSequence(cfg.seed, spawn_key=(f,)).generate_state(1)[0])
        fold_rng = np.random.default_rng(fold_seed)

        tr, val = train_val_split(rest, cfg.val_fraction, fold_rng)
        with span(f"fold {f}"):
            model, _ = train_fold(tr, val, replace(cfg, seed=fold_seed))
            with _sharded(model.network) as run:
                _, acc = _evaluate(run, held, labels[folds[f]], cfg.batch_size)

        accuracies.append(acc)
        fold_cases.append(tuple(m.case_id for m in held))

    return CVResult(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        fold_case_ids=tuple(fold_cases),
    )


def predict_tracer(model: DiscriminatorModel, mip: MipImage) -> TracerPrediction:
    """Classify one MIP; probability >= 0.5 means PSMA (ties included)."""
    _require_input_size(mip.shape, "predict_tracer")
    x = mip.pixels[None, None, :, :]
    p = float(model.network.forward(x)[0, 0])
    return TracerPrediction(p, Tracer.PSMA if p >= 0.5 else Tracer.FDG)


# ---------------------------------------------------------------------------
# dataset manifest and history I/O

def write_history_csv(path, history) -> None:
    write_csv(path, [["epoch", "train_bce", "val_bce", "val_acc", "epoch_s"],
                     *([r.epoch, f"{r.train_bce:.6f}", f"{r.val_bce:.6f}", f"{r.val_acc:.6f}",
                        f"{r.epoch_s:.3f}"] for r in history)])


def write_cv_csv(path, result: CVResult) -> None:
    """One row per fold (accuracy, held-out count), then the mean over all
    held-out cases."""
    folds = zip(result.fold_accuracies, result.fold_case_ids)
    rows = [f"{i},{acc:.6f},{len(ids)}\n" for i, (acc, ids) in enumerate(folds)]
    held = sum(map(len, result.fold_case_ids))
    text = "".join(["fold,accuracy,held_out\n", *rows, f"mean,{result.mean_accuracy:.6f},{held}\n"])
    atomic_write(path, text.encode())


def write_mip(image: MipImage, path) -> None:
    """Write ``image`` as an (nx, nz, 1) float32 NIfTI with its source spacing."""
    sx, sz = image.source_spacing
    nifti.write_volume(Volume3D(image.pixels[:, :, None], (sx, sz, 1.0), VolumeKind.PET_SUV), path)


def read_mip(path) -> MipImage:
    """An (nx, nz, 1) NIfTI as :func:`write_mip` writes it, or a raw little-endian
    float32 grid of 1 mm pixels; either must be MIP_SIZE x MIP_SIZE."""
    if str(path).endswith((".nii", ".nii.gz")):
        vol = nifti.read_volume(path, kind=VolumeKind.PET_SUV)
        if vol.shape[2] != 1:
            raise ValidationError(f"{path}: expected a single-slice volume, got {vol.shape}")
        _require_input_size(vol.shape[:2], path)
        return MipImage(vol.data[:, :, 0], (vol.spacing[0], vol.spacing[1]))
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != MIP_SIZE * MIP_SIZE:
        raise ValidationError(f"{path}: {raw.size} raw floats, the tracer classifier reads {MIP_SIZE}x{MIP_SIZE}")
    return MipImage(raw.reshape(MIP_SIZE, MIP_SIZE), (1.0, 1.0))


def save_mip_dataset(out_dir, mips) -> Path:
    """Write MIPs with :func:`write_mip` plus the JSON manifest ``mip_manifest.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for m in mips:
        fname = f"{m.case_id}_mip.nii.gz"
        write_mip(m.image, out_dir / fname)
        entries.append({"case_id": m.case_id, "mip_path": fname, "label": int(m.label)})
    manifest_path = out_dir / "mip_manifest.json"
    atomic_write(manifest_path, (json.dumps(entries, indent=2) + "\n").encode())
    return manifest_path


def load_mip_dataset(manifest_path) -> list[LabeledMip]:
    """Load a manifest of {case_id, mip_path, label} entries; each
    ``mip_path`` is relative to the manifest and read by :func:`read_mip`,
    each ``label`` is the JSON integer 0 (FDG) or 1 (PSMA), and no
    ``case_id`` appears twice (a copy on each side of a split would leak)."""
    manifest_path = Path(manifest_path)
    try:
        entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise IoFailure(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not isinstance(entries, list):
        raise IoFailure(f"manifest {manifest_path} must hold a JSON list of entries")
    seen = set()
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and "case_id" in e and isinstance(e.get("mip_path"), str)
                and type(e.get("label")) is int and e["label"] in (0, 1)):
            raise IoFailure(f"manifest {manifest_path} entry {i} is not "
                            f"{{case_id, mip_path: string, label: 0 or 1}}: {e!r}")
        if str(e["case_id"]) in seen:
            raise IoFailure(f"manifest {manifest_path} entry {i} repeats case_id {str(e['case_id'])!r}")
        seen.add(str(e["case_id"]))
    return [LabeledMip(read_mip(manifest_path.parent / e["mip_path"]), e["label"], str(e["case_id"]))
            for e in entries]
