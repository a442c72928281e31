"""Challenge evaluation: Dice, false-positive and false-negative volume.

False-positive volume sums the sizes of predicted connected components
with zero ground-truth overlap; false-negative volume is the symmetric
quantity on ground-truth components. Components use 26-connectivity by
default and are numbered 1..K in first-encounter order of the x-fastest
scan; the labeller works array-wide on the foreground voxel list (a run
lookup bordered with background, label hooking and pointer jumping).
Volumes are reported both as raw voxel counts and millilitres.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nifti
from .errors import ValidationError
from .manifest import write_csv
from .volume import BinaryMask, Volume3D, VolumeKind, require_same_grid

CONNECTIVITIES = (6, 18, 26)


def _prior_row_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    """Neighbour offsets (dx, dy, dz) into the rows that precede a voxel's
    row in x-fastest scan order; the in-row neighbour shares its run."""
    if connectivity not in CONNECTIVITIES:
        raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity}")
    steps = {6: 1, 18: 2, 26: 3}[connectivity]
    return [(dx, dy, dz) for dz in (-1, 0) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
            if (dz, dy) < (0, 0) and abs(dx) + abs(dy) + abs(dz) <= steps]


def connected_components(mask: BinaryMask, connectivity: int = 26):
    """Label the connected components of a binary mask.

    Returns (labels, count): a LABEL volume with background 0 and
    components numbered 1..count in first-encounter scan order.

    Works on the foreground voxel list in x-fastest scan order. Each run
    of consecutive x starts as one label, written into a lookup bordered
    with background (a column after each row, a row after each plane,
    and a leading plane, row and voxel), so for every prior-row offset
    one gather, with no edge test, gives one edge per pair of touching
    runs. Over the edges of all offsets at once, the larger root of each
    edge hooks to the smaller one (``np.minimum.at``) and pointer jumping
    resolves the chains, until no edge joins two labels (Shiloach-Vishkin
    hooking). A root is therefore the smallest index in its component,
    so numbering roots in increasing order is first-encounter numbering.
    """
    offsets = _prior_row_offsets(connectivity)
    nx, ny, nz = mask.shape
    flat = np.flatnonzero(mask.mask.transpose(2, 1, 0))  # x-fastest scan index
    if flat.size == 0:
        return Volume3D(np.zeros((nz, ny, nx), dtype=np.int32).T, mask.spacing, VolumeKind.LABEL), 0
    px, py = nx + 1, ny + 1  # bordered row and plane lengths
    at = flat + flat // nx + px * (flat // (nx * ny)) + (px * py + px + 1)  # (x+1) + px*(y+1) + px*py*(z+1)
    # each run of consecutive x starts as one label; the border column ends every row
    start = np.ones(flat.size, dtype=bool)
    start[1:] = np.diff(at) != 1
    run = np.cumsum(start, dtype=np.int32)
    del start
    lookup = np.zeros(at[-1] + 1, dtype=np.int32)  # every offset points to an earlier row
    lookup[at] = run  # 1-based run of each voxel, 0 for background
    run -= 1
    edges = []
    for dx, dy, dz in offsets:
        b = lookup[at + (dx + px * (dy + py * dz))]
        hit = b > 0
        ra, rb = run[hit], b[hit] - 1
        del b, hit
        # a run meets a neighbouring run in consecutive voxels: keep one edge
        first = np.ones(ra.size, dtype=bool)
        first[1:] = (ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1])
        edges.append((ra[first], rb[first]))
    del at, lookup  # freed before the label grid is made
    ra, rb = (np.concatenate(ends) for ends in zip(*edges))  # never empty: every connectivity has y and z offsets
    del edges
    root = np.arange(run[-1] + 1, dtype=np.int32)
    while True:
        join = ra != rb
        if not join.any():
            break
        ra, rb = ra[join], rb[join]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:  # pointer jumping: every run points at its root again
            top = root[root]
            if np.array_equal(top, root):
                break
            root = top
        ra, rb = root[ra], root[rb]
    number = np.cumsum(root == np.arange(root.size), dtype=np.int32)
    grid = np.zeros((nz, ny, nx), dtype=np.int32)
    grid.reshape(-1)[flat] = number[root[run]]
    return Volume3D(grid.T, mask.spacing, VolumeKind.LABEL), int(number[-1])


@dataclass(frozen=True)
class CaseMetrics:
    case_id: str
    dice: float | None            # None when both masks are empty
    fpv_voxels: int
    fpv_ml: float
    fnv_voxels: int
    fnv_ml: float
    n_pred_components: int
    n_gt_components: int

    @property
    def dice_defined(self) -> bool:
        return self.dice is not None


def dice(pred: BinaryMask, gt: BinaryMask) -> float | None:
    """2|P∩G| / (|P|+|G|); None when both masks are empty, 0.0 when
    exactly one is."""
    require_same_grid(pred, gt, "pred/gt masks")
    p = pred.voxel_count
    g = gt.voxel_count
    if p == 0 and g == 0:
        return None
    inter = int(np.count_nonzero(pred.mask & gt.mask))
    return 2.0 * inter / (p + g)


def _missed_voxels(mask: BinaryMask, other: BinaryMask, connectivity: int):
    """(voxels, count): the total size of the components of ``mask`` that
    share no voxel with ``other``, and the number of components."""
    labels, count = connected_components(mask, connectivity)
    # gathered through the transposed views, which are C-ordered for the
    # x-fastest labels and masks: numpy's boolean indexing is fast only there
    grid = labels.data.T
    sizes = np.bincount(grid[mask.mask.T], minlength=count + 1)
    sizes[grid[other.mask.T]] = 0  # background has size 0 already
    return int(sizes.sum()), count


def compute_case_metrics(pred: BinaryMask, gt: BinaryMask, case_id: str = "case",
                         connectivity: int = 26) -> CaseMetrics:
    require_same_grid(pred, gt, "pred/gt masks")
    fpv_vox, n_pred = _missed_voxels(pred, gt, connectivity)
    fnv_vox, n_gt = _missed_voxels(gt, pred, connectivity)
    return CaseMetrics(
        case_id=case_id,
        dice=dice(pred, gt),
        fpv_voxels=fpv_vox,
        fpv_ml=fpv_vox * pred.voxel_volume_mm3 / 1000.0,
        fnv_voxels=fnv_vox,
        fnv_ml=fnv_vox * gt.voxel_volume_mm3 / 1000.0,
        n_pred_components=n_pred,
        n_gt_components=n_gt,
    )


def case_id_of(path) -> str:
    """File name without its ``.nii.gz`` or ``.nii`` suffix; other dots stay."""
    name = Path(path).name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def evaluate_case(pred_path, gt_path, case_id: str | None = None, connectivity: int = 26,
                  lesion_label: int | None = None) -> CaseMetrics:
    """Read two label files as masks and compute all per-case metrics.

    Foreground is ``voxel == lesion_label`` (>= 1) when given, else any
    nonzero voxel; each file is read straight into its mask
    (``nifti.read_volume(..., mask=True)``). ``case_id`` defaults to
    ``case_id_of(pred_path)``.
    """
    if lesion_label is not None and lesion_label < 1:
        raise ValidationError(f"lesion_label must be >= 1, got {lesion_label}")
    pred = nifti.read_volume(pred_path, mask=True, label=lesion_label)
    gt = nifti.read_volume(gt_path, mask=True, label=lesion_label)
    require_same_grid(pred, gt, "pred/gt volumes")
    if case_id is None:
        case_id = case_id_of(pred_path)
    return compute_case_metrics(pred, gt, case_id, connectivity)


CSV_HEADER = [
    "case_id", "dice", "dice_defined", "fpv_voxels", "fpv_ml",
    "fnv_voxels", "fnv_ml", "n_pred_cc", "n_gt_cc",
]
# the CaseMetrics fields of the columns after ``dice_defined``, averaged in the mean row
_MEAN_KEYS = ("fpv_voxels", "fpv_ml", "fnv_voxels", "fnv_ml", "n_pred_components", "n_gt_components")


def _row(m: CaseMetrics) -> list[str]:
    return [
        m.case_id,
        f"{m.dice:.6f}" if m.dice is not None else "nan",
        "1" if m.dice_defined else "0",
        str(m.fpv_voxels),
        f"{m.fpv_ml:.6f}",
        str(m.fnv_voxels),
        f"{m.fnv_ml:.6f}",
        str(m.n_pred_components),
        str(m.n_gt_components),
    ]


def write_metrics_csv(path, cases) -> None:
    """One row per case plus a trailing mean row.

    The mean Dice covers defined cases only; other columns average over all
    cases.
    """
    cases = list(cases)
    rows = [CSV_HEADER, *map(_row, cases)]
    if cases:
        defined = [m.dice for m in cases if m.dice is not None]
        mean_dice = float(np.mean(defined)) if defined else float("nan")
        means = (np.mean([getattr(m, key) for m in cases]) for key in _MEAN_KEYS)
        rows.append(["mean", f"{mean_dice:.6f}", str(len(defined)), *(f"{v:.6f}" for v in means)])
    write_csv(path, rows)
