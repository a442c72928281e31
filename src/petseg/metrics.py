"""Challenge evaluation: Dice, false-positive and false-negative volume.

False-positive volume sums the sizes of predicted connected components
with zero ground-truth overlap; false-negative volume is the symmetric
quantity on ground-truth components. Components use 26-connectivity by
default and are numbered 1..K in first-encounter order of the x-fastest
scan. The labeller works on the x-runs of the foreground (the run-based
labelling of He, Chao and Suzuki, IEEE TIP 2008): it joins each run to
the overlapping runs of its prior rows, then hooks labels and jumps
pointers on run ids. Dice and the misses come from one join of the two
masks' runs in the same rows, so evaluation makes no grid past the
labeller's one scan per mask. Volumes are reported both as raw voxel
counts and millilitres.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nifti
from .errors import ValidationError
from .manifest import write_csv
from .volume import BinaryMask, require_same_grid

CONNECTIVITIES = (6, 18, 26)


def _prior_rows(connectivity: int) -> list[tuple[int, int, int]]:
    """(dy, dz, widen) for each row that precedes a run's row in x-fastest
    scan order and may hold its neighbours: ``widen`` is 1 when the
    connectivity allows a diagonal step in x into that row."""
    if connectivity not in CONNECTIVITIES:
        raise ValidationError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity}")
    steps = {6: 1, 18: 2, 26: 3}[connectivity]
    return [(dy, dz, int(abs(dy) + abs(dz) < steps)) for dz in (-1, 0) for dy in (-1, 0, 1)
            if (dz, dy) < (0, 0) and abs(dy) + abs(dz) <= steps]


def _pairs(first, last, lo, hi):
    """(i, j), int32, for every key range ``[lo[i], hi[i]]`` and run ``j``
    of the sorted, disjoint runs ``[first[j], last[j]]`` that it overlaps."""
    begin = np.searchsorted(last, lo)  # the first run that ends at or after lo
    n = np.searchsorted(first, hi, "right")  # past the last run that starts by hi
    n -= begin
    i = np.repeat(np.arange(n.size, dtype=np.int32), n)
    begin += n
    begin -= np.cumsum(n)  # less the place of i's first pair: j = begin[i] + place
    j = np.repeat(begin.astype(np.int32), n)
    j += np.arange(j.size, dtype=np.int32)
    return i, j


@dataclass(frozen=True)
class RunLabels:
    """Connected components of a mask as labelled x-runs.

    ``first`` and ``last`` are the keys ``row * (nx + 2) + x`` of each
    run's first and last voxel, with ``row = y + ny * z``, in scan order;
    the gap of two keys between rows keeps a run widened by one voxel
    inside its own row. ``component`` is each run's component, 1..count.
    """

    first: np.ndarray
    last: np.ndarray
    component: np.ndarray
    shape: tuple[int, int, int]

    @property
    def length(self) -> np.ndarray:
        """Each run's voxel count."""
        return self.last - self.first + 1

    @property
    def data(self) -> np.ndarray:
        """The dense int32 label grid, background 0, as a read-only
        x-fastest array indexed ``[x, y, z]``; built on each read."""
        nx, ny, nz = self.shape
        length = self.length
        start = self.first - 2 * (self.first // (nx + 2))  # x-fastest scan index
        voxel = np.repeat(start - (np.cumsum(length) - length), length)
        voxel += np.arange(voxel.size)
        grid = np.zeros((nz, ny, nx), dtype=np.int32)
        grid.reshape(-1)[voxel] = np.repeat(self.component, length)
        labels = grid.T
        labels.flags.writeable = False
        return labels

    def missed_voxels(self, hit) -> int:
        """The total size of the components none of whose runs is in ``hit``."""
        touched = np.zeros(self.component.size + 1, dtype=bool)  # at least count + 1 entries
        touched[self.component[hit]] = True
        missed = ~touched[self.component]
        return int(self.length[missed].sum())


def connected_components(mask: BinaryMask, connectivity: int = 26):
    """Label the connected components of a binary mask.

    Returns (labels, count): a :class:`RunLabels` whose components are
    numbered 1..count in first-encounter scan order. ``labels.data`` is
    the dense int32 grid, built only when it is read.

    Works on the x-runs of the foreground, taken once from its x-fastest
    scan indices. For each prior row, one ``np.searchsorted`` join gives
    the runs of that row whose x-extent overlaps a run's own, widened by
    one voxel where the connectivity allows a diagonal step in x, with y
    kept inside the grid so that no join wraps into another row or
    plane. Over these edges between runs, the larger root of each edge
    hooks to the smaller one (``np.minimum.at``) and pointer jumping
    resolves the chains, until no edge joins two labels (Shiloach-Vishkin
    hooking). A root is therefore the first run of its component, so
    numbering roots in increasing order is first-encounter numbering.
    Time and memory follow the foreground, not the grid, past the one
    scan for it.
    """
    prior = _prior_rows(connectivity)
    nx, ny, _ = mask.shape
    px = nx + 2  # keys per row
    flat = np.flatnonzero(mask.mask.transpose(2, 1, 0))  # x-fastest scan index
    key = flat // nx  # row
    key *= 2
    key += flat
    del flat
    step = np.diff(key) != 1  # where a run ends; the two-key gap ends every row
    first, last = np.append(key[:1], key[1:][step]), np.append(key[:-1][step], key[-1:])
    del key, step
    y = (first // px) % ny
    border = {-1: y == 0, 1: y == ny - 1}  # runs whose row has no row before or after it in y
    del y
    edges = []
    for dy, dz, widen in prior:
        shift = (dy + ny * dz) * px
        lo, hi = first + (shift - widen), last + (shift + widen)
        if dy:  # no join wraps past y = 0 or y = ny - 1 into another row or plane
            lo[border[dy]] = hi[border[dy]] = -1  # a range that meets no run
        edges.append(_pairs(first, last, lo, hi))
    del border, lo, hi
    ra, rb = (np.concatenate(ends) for ends in zip(*edges))  # every edge joins two runs
    del edges
    root = np.arange(first.size, dtype=np.int32)
    while ra.size:
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:  # pointer jumping: every run points at its root again
            top = root[root]
            if np.array_equal(top, root):
                break
            root = top
        ra = root[ra]
        rb = root[rb]
        join = ra != rb
        ra = ra[join]
        rb = rb[join]
    number = np.cumsum(root == np.arange(root.size), dtype=np.int32)
    count = int(number[-1]) if number.size else 0
    return RunLabels(first, last, number[root], mask.shape), count


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


def dice(p: RunLabels, g: RunLabels, hit_p, hit_g) -> float | None:
    """2|P∩G| / (|P|+|G|) from two masks' runs and the pairs (``hit_p``,
    ``hit_g``) of their overlapping runs; None when both masks are empty,
    0.0 when exactly one is. Runs of one mask are disjoint, so the pairs'
    overlaps count each voxel of P∩G once."""
    total = int(p.length.sum() + g.length.sum())
    if total == 0:
        return None
    inter = np.minimum(p.last[hit_p], g.last[hit_g]) - np.maximum(p.first[hit_p], g.first[hit_g]) + 1
    return 2.0 * int(inter.sum()) / total


def compute_case_metrics(pred: BinaryMask, gt: BinaryMask, case_id: str = "case",
                         connectivity: int = 26) -> CaseMetrics:
    """Score ``pred`` against ``gt`` on one grid (else ShapeMismatch): each
    mask is labelled once, and Dice, FPV and FNV all come from one join
    of their overlapping runs."""
    require_same_grid(pred, gt, "pred/gt masks")
    p, n_pred = connected_components(pred, connectivity)
    g, n_gt = connected_components(gt, connectivity)
    hit_p, hit_g = _pairs(g.first, g.last, p.first, p.last)  # the runs that overlap, side by side
    fpv_vox = p.missed_voxels(hit_p)
    fnv_vox = g.missed_voxels(hit_g)
    return CaseMetrics(
        case_id=case_id,
        dice=dice(p, g, hit_p, hit_g),
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


def mean_dice(cases) -> tuple[float, int]:
    """(mean, n): the mean Dice over the n cases that define it, NaN if none do."""
    defined = [m.dice for m in cases if m.dice is not None]
    return float(np.mean(defined)) if defined else float("nan"), len(defined)


def write_metrics_csv(path, cases) -> None:
    """One row per case plus a trailing mean row: the mean Dice covers the
    defined cases only (:func:`mean_dice`), other columns all cases."""
    cases = list(cases)
    rows = [CSV_HEADER, *map(_row, cases)]
    if cases:
        dice_mean, defined = mean_dice(cases)
        means = (np.mean([getattr(m, key) for m in cases]) for key in _MEAN_KEYS)
        rows.append(["mean", f"{dice_mean:.6f}", str(defined), *(f"{v:.6f}" for v in means)])
    write_csv(path, rows)
