"""Seeded input generator for the petseg benchmark.

    python3 perfbench/gen.py --workload route --seed 3 --cache perfbench/.cache

Runs in its own process, so the workload process's set-up time and peak
RSS measure the program and not the generator. Output goes to
``<cache>/<workload>-<size>-<seed>/`` (written under a temporary name and
renamed when complete) with an ``inputs.json`` that lists every input
file, its shape and bytes, the expected results the output checks compare
against, and the generator's ``synthdata`` spans. The same seed always
gives the same bytes. The tracer discriminator that ``route`` loads is
trained once per cache, with a fixed seed, and shared by all seeds.

Expected results come from plain numpy and ``scipy.ndimage``, never from
the petseg code under test; ``synthdata`` only draws the phantoms.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import niftiio  # noqa: E402
import tracing  # noqa: E402
from petseg import synthdata  # noqa: E402
from petseg.discriminator import TrainConfig, train_fold  # noqa: E402
from petseg.synthdata import Hotspot, PhantomSpec, TracerStyle  # noqa: E402

GEN_VERSION = 1
CACHE_KEEP = 12  # input sets kept per workload and size, most recently used first
DISC_SEED = 2410
SUV_CAP = 20.0
STYLE_NAME = {TracerStyle.FDG_LIKE: "FDG", TracerStyle.PSMA_LIKE: "PSMA"}
# Per-workload input sizes. "full" is what the benchmark measures; "tiny"
# is the self-test size. The untimed warm-up op of set-up reads the same
# full-size inputs but does less work (see each generator's "warmup").
SIZES = {
    "route": {
        "full": {"shape": (160, 160, 200), "spacing": (2.0, 2.0, 3.0)},
        "tiny": {"shape": (64, 64, 80), "spacing": (5.0, 5.0, 7.5)},
    },
    "evaluate": {
        "full": {"shape": (128, 128, 160), "spacing": (2.0, 2.0, 2.0),
                 # (n_matched, n_fp, n_fn, r_gt, r_pred, r_extra)
                 "kinds": {"small": (1, 1, 1, 4, 4, 4),
                           "medium": (14, 4, 4, 4, 4, 4),
                           "large": (2, 1, 1, 22, 21, 3)},
                 "cycle": ("small", "medium", "large", "medium", "small", "medium")},
        "tiny": {"shape": (32, 32, 40), "spacing": (2.0, 2.0, 2.0),
                 "kinds": {"small": (1, 1, 1, 2, 2, 2),
                           "medium": (4, 1, 1, 2, 2, 2),
                           "large": (1, 0, 0, 7, 6, 2)},
                 "cycle": ("small", "medium", "large")},
    },
    "train": {
        "full": {"n_train": 64, "n_val": 16, "n_held": 16, "epochs": 3},
        "tiny": {"n_train": 48, "n_val": 8, "n_held": 8, "epochs": 3},
    },
}
TRAIN_LR = 1e-3
BATCH = 16


def _rng(workload: str, seed: int, size: str) -> np.random.Generator:
    key = [GEN_VERSION, sorted(GENERATORS).index(workload),
           ["full", "tiny"].index(size), seed]
    return np.random.default_rng(np.random.SeedSequence(key))


def _describe(path: Path, shape, dtype) -> dict:
    return {"path": path.name, "shape": list(shape), "dtype": np.dtype(dtype).name,
            "bytes": path.stat().st_size}


# ---------------------------------------------------------------------------
# route: one FDG and one PSMA CT/PET pair per seed

def _route_spec(rng, style, shape, spacing) -> PhantomSpec:
    extent = [(n - 1) * s for n, s in zip(shape, spacing)]
    lesions = tuple(
        Hotspot((float(rng.uniform(0.38, 0.62) * extent[0]),
                 float(rng.uniform(0.40, 0.60) * extent[1]),
                 float(rng.uniform(0.42, 0.66) * extent[2])),
                float(rng.uniform(12.0, 20.0)), float(rng.uniform(11.0, 14.0)), is_lesion=True)
        for _ in range(3)
    )
    return PhantomSpec(
        shape=shape, spacing=spacing,
        body_semiaxes_mm=(float(rng.uniform(120.0, 150.0)), float(rng.uniform(85.0, 110.0)),
                          float(rng.uniform(270.0, 290.0))),
        hotspots=lesions, tracer_style=style,
        background_suv=float(rng.uniform(0.7, 1.3)), noise_sigma=float(rng.uniform(0.03, 0.08)),
        seed=int(rng.integers(2**31)),
    )


def _route_case(out: Path, name: str, rng, style, shape, spacing) -> dict:
    pet, ct, _ = synthdata.make_phantom(_route_spec(rng, style, shape, spacing))
    pet32 = pet.data.astype(np.float32)
    ct32 = ct.data.astype(np.float32)
    pet_path, ct_path = out / f"{name}_pet.nii.gz", out / f"{name}_ct.nii.gz"
    niftiio.write(pet_path, pet32, spacing, np.float32)
    niftiio.write(ct_path, ct32, spacing, np.float32)
    # oracle: the SUV-threshold ensemble averages identical flip outputs, so
    # its mask is clip(PET, 0, cap)/cap >= 0.5 up to rounding at exactly 0.5
    prob = np.clip(pet32.astype(np.float64), 0.0, SUV_CAP) / SUV_CAP
    np.savez_compressed(out / f"{name}_expected.npz", mask=prob >= 0.5,
                        ambiguous=np.abs(prob - 0.5) <= 1e-12)
    return {"name": name, "pet": pet_path.name, "ct": ct_path.name,
            "expected": f"{name}_expected.npz", "tracer": STYLE_NAME[style],
            "files": [_describe(pet_path, shape, np.float32), _describe(ct_path, shape, np.float32)]}


def gen_route(out: Path, seed: int, size: str) -> dict:
    rng = _rng("route", seed, size)
    geo = SIZES["route"][size]
    cycle = [_route_case(out, f"case{i}", rng, style, geo["shape"], geo["spacing"])
             for i, style in enumerate((TracerStyle.FDG_LIKE, TracerStyle.PSMA_LIKE))]
    # warm-up: the first case with a one-fold, identity-only ensemble, which
    # touches every full-size buffer once for 1 of the 48 predictor calls
    warmup = {**cycle[0], "name": "warmup", "ensemble": ["--folds", "1", "--tta", "identity"]}
    return {"cycle": cycle, "warmup": warmup}


# ---------------------------------------------------------------------------
# evaluate: mask pairs of mixed lesion burden

def _ball(mask, center, radius):
    lo = [max(0, int(np.floor(c - radius))) for c in center]
    hi = [min(n, int(np.ceil(c + radius)) + 1) for c, n in zip(center, mask.shape)]
    grids = np.ogrid[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] |= d2 <= radius ** 2


def _pair(rng, shape, kind):
    """Masks whose components sit in distinct grid cells, so none touch and
    every count is fixed by the design: matched pred/gt components overlap,
    false positives exist in pred only and false negatives in gt only."""
    n_match, n_fp, n_fn, r_gt, r_pred, r_extra = kind
    shift = max(1, min(2, min(r_gt, r_pred) // 2))  # matched balls always overlap
    reach = max(r_gt, r_pred, r_extra) + shift
    cell = 2 * reach + 3
    cells = [n // cell for n in shape]
    n = n_match + n_fp + n_fn
    picked = rng.choice(int(np.prod(cells)), size=n, replace=False)
    centers = []
    for flat in picked:
        idx = np.unravel_index(int(flat), cells)
        centers.append([i * cell + reach + 1 + rng.uniform(0.0, 1.0) for i in idx])
    pred = np.zeros(shape, dtype=bool)
    gt = np.zeros(shape, dtype=bool)
    for j, c in enumerate(centers):
        if j < n_match:
            _ball(gt, c, r_gt)
            _ball(pred, [x + rng.integers(-shift, shift + 1) for x in c], r_pred)
        elif j < n_match + n_fp:
            _ball(pred, c, r_extra)
        else:
            _ball(gt, c, r_extra)
    return pred, gt, n_match + n_fp, n_match + n_fn


def _oracle(pred, gt):
    """FPV/FNV and component counts from scipy.ndimage.label on mask.T."""
    from scipy import ndimage

    structure = np.ones((3, 3, 3), dtype=bool)

    def missed(a, b):
        labels, count = ndimage.label(a.T, structure=structure)
        sizes = np.bincount(labels.ravel(), minlength=count + 1)
        hit = np.zeros(count + 1, dtype=bool)
        hit[np.unique(labels[b.T])] = True
        hit[0] = True
        return int(sizes[~hit].sum()), int(count)

    fpv, n_pred = missed(pred, gt)
    fnv, n_gt = missed(gt, pred)
    p, g = int(pred.sum()), int(gt.sum())
    inter = int(np.count_nonzero(pred & gt))
    dice = None if p + g == 0 else 2.0 * inter / (p + g)
    return {"fpv_voxels": fpv, "fnv_voxels": fnv, "n_pred_components": n_pred,
            "n_gt_components": n_gt, "dice": dice, "fg_voxels": p + g}


def gen_evaluate(out: Path, seed: int, size: str) -> dict:
    rng = _rng("evaluate", seed, size)

    def pairs(geo, prefix, kinds_in_order):
        items = []
        for i, kind in enumerate(kinds_in_order):
            pred, gt, n_pred, n_gt = _pair(rng, geo["shape"], geo["kinds"][kind])
            expected = _oracle(pred, gt)
            if (expected["n_pred_components"], expected["n_gt_components"]) != (n_pred, n_gt):
                raise RuntimeError(f"{kind} pair has touching components")
            name = f"{prefix}{i}_{kind}"
            for role, mask in (("pred", pred), ("gt", gt)):
                niftiio.write(out / f"{name}_{role}.nii.gz", mask.astype(np.uint8), geo["spacing"], np.uint8)
            items.append({"name": name, "kind": kind, "pred": f"{name}_pred.nii.gz",
                          "gt": f"{name}_gt.nii.gz", "expected": expected,
                          "files": [_describe(out / f"{name}_{r}.nii.gz", geo["shape"], np.uint8)
                                    for r in ("pred", "gt")]})
        return items

    geo = SIZES["evaluate"][size]
    cycle = pairs(geo, "pair", geo["cycle"])
    return {"cycle": cycle, "warmup": cycle[0]}  # the first pair has the smallest burden


# ---------------------------------------------------------------------------
# train: synthetic MIP corpus, split train / val / held-out

def gen_train(out: Path, seed: int, size: str) -> dict:
    geo = SIZES["train"][size]
    n = geo["n_train"] + geo["n_val"] + geo["n_held"]
    mips = synthdata.make_mip_dataset(n, seed=int(_rng("train", seed, size).integers(2**31)))
    path = out / "mips.npz"
    np.savez(path, pixels=np.stack([m.image.pixels for m in mips]),
             labels=np.array([m.label for m in mips]),
             spacing=np.array([m.image.source_spacing for m in mips]),
             case_ids=np.array([m.case_id for m in mips]))
    item = {"name": "mips", "mips": path.name, "n_train": geo["n_train"], "n_val": geo["n_val"],
            "n_held": geo["n_held"], "epochs": geo["epochs"], "lr": TRAIN_LR, "batch_size": BATCH,
            "seed": seed, "files": [_describe(path, (n, 224, 224), np.float64)]}
    return {"cycle": [item], "warmup": {**item, "name": "warmup", "n_train": BATCH, "n_val": 4,
                                        "n_held": 0, "epochs": 1}}


GENERATORS = {"route": gen_route, "evaluate": gen_evaluate, "train": gen_train}


def ensure_discriminator(cache: Path) -> Path:
    """Train the shared tracer discriminator once per cache."""
    final = cache / f"disc-v{GEN_VERSION}"
    model = final / "disc.json"
    if model.exists():
        return model
    tmp = cache / f"disc-v{GEN_VERSION}.tmp{os.getpid()}"
    tmp.mkdir(parents=True)
    data = synthdata.make_mip_dataset(96, seed=DISC_SEED)
    disc, history = train_fold(data[:64], data[64:],
                               TrainConfig(lr=TRAIN_LR, max_epochs=4, patience=4, seed=0))
    if history[-1].val_acc < 1.0:
        raise RuntimeError(f"discriminator reached only {history[-1].val_acc} validation accuracy")
    disc.save(tmp / "disc.json")
    os.replace(tmp, final)
    return model


def ensure_inputs(cache: Path, workload: str, seed: int, size: str) -> Path:
    """Directory with the inputs of this seed, generated if not cached."""
    final = cache / f"{workload}-{size}-{seed}-v{GEN_VERSION}"
    if not (final / "inputs.json").exists():
        for stale in cache.glob("*.tmp*"):
            shutil.rmtree(stale, ignore_errors=True)
        if workload == "route":
            ensure_discriminator(cache)
        tmp = cache / f"{final.name}.tmp{os.getpid()}"
        tmp.mkdir(parents=True)
        rec = tracing.Recorder()
        tracing.install(rec, modules={"petseg.synthdata"})
        try:
            doc = GENERATORS[workload](tmp, seed, size)
        finally:
            tracing.uninstall(rec)
        doc.update({"workload": workload, "seed": seed, "size": size, "gen_version": GEN_VERSION,
                    "disc": f"../disc-v{GEN_VERSION}/disc.json", "gen_spans": rec.spans})
        (tmp / "inputs.json").write_text(json.dumps(doc, indent=1))
        os.replace(tmp, final)
    os.utime(final)
    kept = sorted((p for p in cache.glob(f"{workload}-{size}-*") if ".tmp" not in p.name),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for old in kept[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return final


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    ap.add_argument("--cache", required=True)
    args = ap.parse_args(argv)
    print(ensure_inputs(Path(args.cache), args.workload, args.seed, args.size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
