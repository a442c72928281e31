"""Dense 3D scalar grids with physical voxel spacing.

``Volume3D`` is the carrier type for PET, CT, label and probability data.
Arrays use shape ``(nx, ny, nz)`` with x = left-right, y =
anterior-posterior, z = inferior-superior, indexed ``data[x, y, z]``.
In memory, as on disk, volumes read from NIfTI are laid out x-fastest
(Fortran order), and the array operations downstream keep that layout,
so no stage copies a volume just to transpose it. Any layout gives the
same values. The values of a ``Volume3D``, a ``BinaryMask`` and a
``MipImage`` are read-only views, made at construction and by pickle
and copy: a write through one raises ``ValueError``, and the array
passed in keeps its own flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpacing, ShapeMismatch, ValidationError


class VolumeKind(Enum):
    PET_SUV = "pet_suv"
    CT_HU = "ct_hu"
    LABEL = "label"
    PROBABILITY = "probability"


def _check_spacing(spacing) -> tuple[float, float, float]:
    if len(spacing) != 3:
        raise InvalidSpacing(f"spacing must have 3 components, got {len(spacing)}")
    out = tuple(float(s) for s in spacing)
    for s in out:
        if not math.isfinite(s) or s <= 0.0:
            raise InvalidSpacing(f"spacing components must be positive and finite, got {out}")
    return out


# why values cannot be LABEL values, gravest first: the order they are checked in
LABEL_FAULTS = (
    "LABEL volume values must be finite and fit in int32",
    "LABEL volume values must be integers",
    "LABEL volume values must be nonnegative",
)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays as it is."""
    view = a.view()
    view.flags.writeable = False
    return view


def _rebuilt(self):
    """``__reduce__`` of the value types: pickle and copy go through ``__post_init__``."""
    return type(self), tuple(vars(self).values())


def label_fault(data: np.ndarray) -> int | None:
    """The index in ``LABEL_FAULTS`` of the gravest fault of ``data`` as
    LABEL values, or None when it has none."""
    if data.dtype.kind == "f":
        rounded = np.rint(data)
        # NaN fails both comparisons, and the float bounds are exact in float32 too
        if rounded.size and not (rounded.min() >= -2.0**31 and rounded.max() < 2.0**31):
            return 0
        if not np.array_equal(rounded, data):
            return 1
    # int32 and narrower need no pass; a wider integer dtype would wrap in the cast
    elif data.dtype.kind in "iu" and np.iinfo(data.dtype).max >= 2**31 and data.size and data.max() >= 2**31:
        return 0
    if data.dtype.kind in "fi" and data.size and data.min() < 0:
        return 2
    return None


@dataclass(frozen=True)
class Volume3D:
    """A 3D scalar grid plus per-axis spacing in millimetres.

    ``data`` is a read-only float64 (int32 for LABEL) view, not
    necessarily contiguous: it may be strided, such as the ``np.flip``
    views the TTA ensemble hands to predictors.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    kind: VolumeKind = VolumeKind.PET_SUV
    __reduce__ = _rebuilt

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValidationError(f"volume data must be 3D, got ndim={data.ndim}")
        if self.kind is VolumeKind.LABEL:
            fault = label_fault(data)
            if fault is not None:
                raise ValidationError(LABEL_FAULTS[fault])
            if data.dtype != np.int32:
                data = data.astype(np.int32)
        else:
            if data.dtype != np.float64:
                data = data.astype(np.float64)
        object.__setattr__(self, "data", _read_only(data))
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data: np.ndarray) -> "Volume3D":
        """New volume of the same kind on the same grid with different values."""
        return Volume3D(data, self.spacing, self.kind)


def require_same_grid(a: Volume3D | "BinaryMask", b: Volume3D | "BinaryMask", what: str = "volumes"):
    if a.shape != b.shape:
        raise ShapeMismatch(f"{what} have different shapes: {a.shape} vs {b.shape}")
    if a.spacing != b.spacing:
        raise ShapeMismatch(f"{what} have different spacings: {a.spacing} vs {b.spacing}")


@dataclass(frozen=True)
class BinaryMask:
    """Foreground voxel set on a spaced grid; ``mask`` is a read-only bool view."""

    mask: np.ndarray
    spacing: tuple[float, float, float]
    __reduce__ = _rebuilt

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.ndim != 3:
            raise ValidationError(f"mask must be 3D, got ndim={mask.ndim}")
        if mask.dtype != np.bool_:
            mask = mask.astype(bool)
        if not (mask.flags.c_contiguous or mask.flags.f_contiguous):
            mask = np.ascontiguousarray(mask)
        object.__setattr__(self, "mask", _read_only(mask))
        object.__setattr__(self, "spacing", _check_spacing(self.spacing))

    @classmethod
    def from_label_volume(cls, vol: Volume3D, label: int) -> "BinaryMask":
        """Mask of voxels equal to ``label``."""
        return cls(vol.data == label, vol.spacing)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.mask.shape

    @property
    def data(self) -> np.ndarray:
        """``mask``, under the name a :class:`Volume3D` gives its values."""
        return self.mask

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    @property
    def voxel_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def to_label_volume(self) -> Volume3D:
        return Volume3D(self.mask.astype(np.int32), self.spacing, VolumeKind.LABEL)
