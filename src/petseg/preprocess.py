"""Resampling, intensity windowing, coronal MIP and fixed-size extraction.

Resampling uses voxel-center grid alignment: the sample point for output
index i along an axis with source spacing s and target spacing t sits at
physical coordinate (i + 0.5) * t - 0.5 * s measured from the first voxel
center. Out-of-range samples clamp to the border voxel. Trilinear
interpolation over an axis-aligned grid factorizes into three single-axis
linear passes, which is what the implementation does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidWindow, ValidationError
from .volume import Volume3D, VolumeKind, _check_spacing, _read_only, _rebuilt, float_dtype, require_same_grid

PET_WINDOW = (0.0, 20.0)     # SUV
CT_WINDOW = (-300.0, 400.0)  # HU
MIP_SPACING = (3.0, 3.0, 3.0)
MIP_SIZE = 224
SUV_CAP = 20.0
SEGMENTATION_SPACING = (3.3, 3.3, 3.3)  # asked of external backends; resample's default


@dataclass(frozen=True)
class WindowSpec:
    """Clip ranges for the windowed CT/PET channels."""

    pet_lo: float = PET_WINDOW[0]
    pet_hi: float = PET_WINDOW[1]
    ct_lo: float = CT_WINDOW[0]
    ct_hi: float = CT_WINDOW[1]

    def __post_init__(self):
        if not (self.pet_lo < self.pet_hi):
            raise InvalidWindow(f"PET window requires lo < hi, got [{self.pet_lo}, {self.pet_hi}]")
        if not (self.ct_lo < self.ct_hi):
            raise InvalidWindow(f"CT window requires lo < hi, got [{self.ct_lo}, {self.ct_hi}]")


@dataclass(frozen=True)
class ChannelStack:
    """The 4-channel input representation: CT, PET, clipped CT, clipped PET."""

    channels: tuple[Volume3D, Volume3D, Volume3D, Volume3D]

    def __post_init__(self):
        first = self.channels[0]
        for ch in self.channels[1:]:
            require_same_grid(first, ch, "stack channels")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.channels[0].shape

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.channels[0].spacing

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def ct_clipped(self) -> Volume3D:
        return self.channels[2]

    @property
    def pet_clipped(self) -> Volume3D:
        return self.channels[3]


@dataclass(frozen=True)
class MipImage:
    """A fixed-size 2D projection image (read-only) with its source pixel spacing."""

    pixels: np.ndarray
    source_spacing: tuple[float, float]
    __reduce__ = _rebuilt

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 2:
            raise ValidationError(f"MIP image must be 2D, got ndim={pixels.ndim}")
        object.__setattr__(self, "pixels", _read_only(np.ascontiguousarray(pixels)))
        object.__setattr__(self, "source_spacing", tuple(float(s) for s in self.source_spacing))

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape


def _output_shape(shape, spacing, target) -> tuple[int, ...]:
    # n' = max(1, round(n * s / t)), round half up
    return tuple(
        max(1, int(np.floor(n * s / t + 0.5))) for n, s, t in zip(shape, spacing, target)
    )


def _sample_coords(n_in: int, n_out: int, s: float, t: float) -> np.ndarray:
    u = (np.arange(n_out, dtype=np.float64) + 0.5) * (t / s) - 0.5
    return np.clip(u, 0.0, float(n_in - 1))


def _axis_weights(n_in: int, n_out: int, s: float, t: float):
    """``(lo, hi, f)`` of one axis: output j is ``in[lo[j]]·(1−f[j]) + in[hi[j]]·f[j]``.
    A singleton axis reads index 0 twice with f = 0."""
    u = _sample_coords(n_in, n_out, s, t)
    lo = np.minimum(np.floor(u).astype(np.intp), max(n_in - 2, 0))
    return lo, np.minimum(lo + 1, n_in - 1), u - lo


def _linear_pass(data: np.ndarray, axis: int, lo, hi, f) -> np.ndarray:
    """The single-axis linear pass of ``data`` along ``axis``, in float64:
    float32 rows are widened once they are taken."""
    w1 = f.reshape([-1 if a == axis else 1 for a in range(3)])
    out = np.take(data, lo, axis=axis).astype(np.float64, copy=False)
    np.multiply(out, 1.0 - w1, out=out)
    upper = np.take(data, hi, axis=axis).astype(np.float64, copy=False)
    np.multiply(upper, w1, out=upper)
    out += upper
    return out


# per-slab temporaries near 4 MB; 12 MB ones ran slower, and the freed ones
# stayed resident in the allocator's heap, raising a run's peak RSS
_SLAB_BUDGET_ELEMS = 500_000


def resample_trilinear(vol: Volume3D, target) -> Volume3D:
    """Resample a scalar volume to ``target`` spacing with trilinear weights.

    Not valid for LABEL volumes (use :func:`resample_nearest`). Resampling
    at the identical spacing returns a volume on the input's read-only
    data. Otherwise the output is float64 and every pass computes in
    float64, so a float32 input gives the bits of its float64 widening.
    The output range is clipped to the input range, which the exact
    arithmetic already guarantees up to float rounding; the range is taken
    slab by slab.

    Work proceeds in slabs along the axis that is outermost in memory, x
    for a C-ordered input and z for an x-fastest one, and the output keeps
    the input's layout. Each slab takes the input rows it needs and runs
    the single-axis linear pass along z, then x, then y, the arithmetic of
    a whole-volume pass, so every layout gives the same bits. A slab holds
    as many rows as fit ``_SLAB_BUDGET_ELEMS`` at the larger of the input
    and output planes across it, so temporaries stay small when shrinking
    and when growing.
    """
    if vol.kind is VolumeKind.LABEL:
        raise ValidationError("trilinear resampling is not defined for LABEL volumes")
    target = _check_spacing(target)
    if target == vol.spacing:
        return Volume3D(vol.data, vol.spacing, vol.kind)

    out_shape = _output_shape(vol.shape, vol.spacing, target)
    weights = list(map(_axis_weights, vol.shape, out_shape, vol.spacing, target))
    passes = (2, 0, 1)  # z, then x, then y
    x_fastest = abs(vol.data.strides[0]) < abs(vol.data.strides[2])
    result = np.empty(out_shape, dtype=np.float64, order="F" if x_fastest else "C")
    src, out = vol.data, result
    if x_fastest:  # work on the C-ordered (z, y, x) views
        src, out, weights, passes = src.T, out.T, weights[::-1], (0, 2, 1)
    plane = max(src.shape[1], out.shape[1]) * max(src.shape[2], out.shape[2])
    rows = max(1, _SLAB_BUDGET_ELEMS // plane)
    row_lo, row_hi, row_f = weights[0]
    lo, hi = np.inf, -np.inf
    seen = 0  # input rows [0, seen) are in the clip range (lo, hi)
    for i0 in range(0, out.shape[0], rows):
        i1 = min(i0 + rows, out.shape[0])
        first, last = int(row_lo[i0]), int(row_hi[i1 - 1]) + 1
        if seen < last:  # this slab's new rows, and any a downsampling step skipped
            lo, hi = np.minimum(lo, src[seen:last].min()), np.maximum(hi, src[seen:last].max())
            seen = last
        slab = [(row_lo[i0:i1] - first, row_hi[i0:i1] - first, row_f[i0:i1]), *weights[1:]]
        a = src[first:last]
        for axis in passes:
            a = _linear_pass(a, axis, *slab[axis])
        out[i0:i1] = a
    if seen < src.shape[0]:
        lo, hi = np.minimum(lo, src[seen:].min()), np.maximum(hi, src[seen:].max())
    np.clip(out, lo, hi, out=out)
    return Volume3D(result, target, vol.kind)


def resample_nearest(vol: Volume3D, target) -> Volume3D:
    """Resample a LABEL volume with nearest-voxel-center lookup.

    Shares the grid geometry of :func:`resample_trilinear`; exact midpoint
    ties break toward the lower index.
    """
    if vol.kind is not VolumeKind.LABEL:
        raise ValidationError("nearest resampling is reserved for LABEL volumes")
    target = _check_spacing(target)
    if target == vol.spacing:
        return Volume3D(vol.data, vol.spacing, vol.kind)

    out_shape = _output_shape(vol.shape, vol.spacing, target)
    data = vol.data
    for axis in range(3):
        u = _sample_coords(data.shape[axis], out_shape[axis], vol.spacing[axis], target[axis])
        idx = np.ceil(u - 0.5).astype(np.intp)  # round half down => lower-index ties
        np.clip(idx, 0, data.shape[axis] - 1, out=idx)
        data = np.take(data, idx, axis=axis)
    return Volume3D(data, target, vol.kind)


def clip_intensity(vol: Volume3D, lo: float, hi: float) -> Volume3D:
    """Clamp every voxel to [lo, hi]; shape, spacing and kind are preserved.

    float32 values stay float32 when both bounds are float32 values, as
    the default windows are; otherwise they are widened and clipped in
    float64, so a bound such as 20.1 is not rounded."""
    if not lo < hi:
        raise InvalidWindow(f"clip window requires lo < hi, got [{lo}, {hi}]")
    dtype = float_dtype(vol.data.dtype, lo, hi)
    return vol.with_data(np.clip(vol.data.astype(dtype, copy=False), dtype.type(lo), dtype.type(hi)))


def build_channels(ct: Volume3D, pet: Volume3D, window: WindowSpec = WindowSpec()) -> ChannelStack:
    """Assemble [CT, PET, clipped CT, clipped PET] on a shared grid."""
    require_same_grid(ct, pet, "ct/pet")
    return ChannelStack(
        (
            ct,
            pet,
            clip_intensity(ct, window.ct_lo, window.ct_hi),
            clip_intensity(pet, window.pet_lo, window.pet_hi),
        )
    )


def mip_coronal(vol: Volume3D) -> np.ndarray:
    """Maximum intensity projection along the anterior-posterior (y) axis.

    Returns an (nx, nz) image.
    """
    if vol.kind is not VolumeKind.PET_SUV:
        raise ValidationError(f"coronal MIP expects a PET volume, got {vol.kind.name}")
    return vol.data.max(axis=1)


def crop_pad_center(img: np.ndarray, source_spacing: tuple[float, float] = (1.0, 1.0)) -> MipImage:
    """Center ``img`` inside a zero-filled MIP_SIZE x MIP_SIZE frame.

    The input's center pixel floor(n/2) lands at output index
    floor(MIP_SIZE/2) on each axis; larger inputs are center-cropped with
    the same convention.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or min(img.shape) < 1:
        raise ValidationError(f"expected a non-empty 2D image, got shape {img.shape}")

    out = np.zeros((MIP_SIZE, MIP_SIZE), dtype=np.float64)
    src = [slice(None)] * 2
    dst = [slice(None)] * 2
    for axis, n in enumerate(img.shape):
        if n <= MIP_SIZE:
            off = MIP_SIZE // 2 - n // 2
            src[axis] = slice(0, n)
            dst[axis] = slice(off, off + n)
        else:
            start = n // 2 - MIP_SIZE // 2
            src[axis] = slice(start, start + MIP_SIZE)
            dst[axis] = slice(0, MIP_SIZE)
    out[tuple(dst)] = img[tuple(src)]
    return MipImage(out, source_spacing)


def normalize_mip(m: MipImage) -> MipImage:
    """Cap pixel values at SUV_CAP and scale into [0, 1]."""
    return MipImage(np.minimum(m.pixels, SUV_CAP) / SUV_CAP, m.source_spacing)


def discriminator_mip(pet: Volume3D) -> MipImage:
    """The tracer-classifier input: ``pet`` resampled to ``MIP_SPACING``,
    projected coronally, centred in a ``MIP_SIZE`` square, capped at
    ``SUV_CAP`` and scaled into [0, 1]. Training and inference both use it."""
    resampled = resample_trilinear(pet, MIP_SPACING)
    img = mip_coronal(resampled)
    mip = crop_pad_center(img, (resampled.spacing[0], resampled.spacing[2]))
    return normalize_mip(mip)
