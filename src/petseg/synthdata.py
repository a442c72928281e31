"""Procedural PET/CT phantoms and MIP datasets for tests and desk-scale
training.

Each phantom is a body ellipsoid with Gaussian-profile uptake hotspots.
The tracer styles encode the physical cue that separates them: FDG-like
phantoms carry a bright superior "brain" hotspot, PSMA-like phantoms have
none and show a pelvic "bladder" hotspot instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .discriminator import LabeledMip
from .errors import HotspotOutOfBounds, ValidationError
from .preprocess import discriminator_mip
from .volume import BinaryMask, Volume3D, VolumeKind


class TracerStyle(Enum):
    FDG_LIKE = "fdg_like"
    PSMA_LIKE = "psma_like"


@dataclass(frozen=True)
class Hotspot:
    center_mm: tuple[float, float, float]
    radius_mm: float
    peak_suv: float
    is_lesion: bool = False


@dataclass(frozen=True)
class PhantomSpec:
    shape: tuple[int, int, int] = (96, 64, 160)
    spacing: tuple[float, float, float] = (4.0, 4.0, 4.0)
    body_semiaxes_mm: tuple[float, float, float] = (150.0, 100.0, 300.0)
    hotspots: tuple[Hotspot, ...] = ()
    tracer_style: TracerStyle = TracerStyle.FDG_LIKE
    background_suv: float = 1.0
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.background_suv < 0.5 or self.background_suv > 1.5:
            raise ValidationError(f"background SUV must sit in [0.5, 1.5], got {self.background_suv}")


SOFT_TISSUE_HU = 40.0
SKELETON_HU = 700.0
AIR_HU = -1000.0


def _axis_coords(spec: PhantomSpec):
    # voxel center i sits at physical coordinate i * spacing along each axis
    return [np.arange(n, dtype=np.float64) * s for n, s in zip(spec.shape, spec.spacing)]


def _style_hotspots(spec: PhantomSpec, rng: np.random.Generator) -> tuple[Hotspot, ...]:
    extent = [(n - 1) * s for n, s in zip(spec.shape, spec.spacing)]
    cx, cy = extent[0] / 2.0, extent[1] / 2.0
    if spec.tracer_style is TracerStyle.FDG_LIKE:
        # superior, high uptake: the always-active brain
        return (Hotspot((cx, cy, 0.88 * extent[2]), 35.0, float(rng.uniform(8.0, 12.0))),)
    # pelvic tracer pooling in the bladder
    return (Hotspot((cx, cy, 0.30 * extent[2]), 25.0, float(rng.uniform(8.0, 14.0))),)


def make_phantom(spec: PhantomSpec):
    """Generate (pet, ct, lesion_gt) for one phantom.

    PET is background plus hotspots plus truncated noise, never negative;
    CT is air outside the body, soft tissue inside, with a high-density
    shell standing in for the skeleton. The lesion ground truth collects
    voxels of lesion-tagged hotspots above half their peak.
    """
    rng = np.random.default_rng(spec.seed)
    xs, ys, zs = _axis_coords(spec)
    extent = [(n - 1) * s for n, s in zip(spec.shape, spec.spacing)]

    center = [e / 2.0 for e in extent]
    ax, ay, az = spec.body_semiaxes_mm
    nxs = (xs - center[0]) / ax
    nys = (ys - center[1]) / ay
    nzs = (zs - center[2]) / az
    rho2 = nxs[:, None, None] ** 2 + nys[None, :, None] ** 2 + nzs[None, None, :] ** 2
    body = rho2 <= 1.0
    shell = (rho2 <= 1.0) & (rho2 > 0.81)  # outer 10% of the normalized radius

    ct = np.full(spec.shape, AIR_HU, dtype=np.float64)
    ct[body] = SOFT_TISSUE_HU
    ct[shell] = SKELETON_HU

    pet = np.zeros(spec.shape, dtype=np.float64)
    pet[body] = spec.background_suv

    all_spots = spec.hotspots + _style_hotspots(spec, rng)
    lesion = np.zeros(spec.shape, dtype=bool)
    for spot in all_spots:
        for c, e in zip(spot.center_mm, extent):
            if c - spot.radius_mm < 0.0 or c + spot.radius_mm > e:
                raise HotspotOutOfBounds(
                    f"hotspot at {spot.center_mm} with radius {spot.radius_mm} exceeds extent {extent}"
                )
        d2 = (
            ((xs - spot.center_mm[0]) ** 2)[:, None, None]
            + ((ys - spot.center_mm[1]) ** 2)[None, :, None]
            + ((zs - spot.center_mm[2]) ** 2)[None, None, :]
        )
        # profile = peak * 2^(-(d/radius)^2): half the peak exactly at d = radius
        profile = spot.peak_suv * np.exp2(-d2 / (spot.radius_mm**2))
        pet += profile
        if spot.is_lesion:
            lesion |= profile >= 0.5 * spot.peak_suv

    if spec.noise_sigma > 0:
        pet += rng.normal(0.0, spec.noise_sigma, size=spec.shape)
    np.maximum(pet, 0.0, out=pet)

    return (
        Volume3D(pet, spec.spacing, VolumeKind.PET_SUV),
        Volume3D(ct, spec.spacing, VolumeKind.CT_HU),
        BinaryMask(lesion, spec.spacing),
    )


def _random_lesions(spec: PhantomSpec, rng: np.random.Generator) -> tuple[Hotspot, ...]:
    extent = [(n - 1) * s for n, s in zip(spec.shape, spec.spacing)]
    spots = []
    for _ in range(int(rng.integers(0, 4))):
        radius = float(rng.uniform(10.0, 25.0))
        center = (
            float(rng.uniform(0.35, 0.65) * extent[0]),
            float(rng.uniform(0.35, 0.65) * extent[1]),
            float(rng.uniform(0.40, 0.70) * extent[2]),
        )
        spots.append(Hotspot(center, radius, float(rng.uniform(3.0, 7.0)), is_lesion=True))
    return tuple(spots)


def random_phantom_spec(style: TracerStyle, seed: int) -> PhantomSpec:
    """A jittered phantom: body size, background, lesion count all vary."""
    rng = np.random.default_rng(seed)
    base = PhantomSpec(tracer_style=style, seed=seed)
    spec = replace(
        base,
        body_semiaxes_mm=(
            float(rng.uniform(120.0, 165.0)),
            float(rng.uniform(80.0, 110.0)),
            float(rng.uniform(280.0, 318.0)),
        ),
        background_suv=float(rng.uniform(0.6, 1.4)),
        noise_sigma=float(rng.uniform(0.02, 0.10)),
    )
    return replace(spec, hotspots=_random_lesions(spec, rng))


def synth_cases(n: int, seed: int = 0):
    """An iterator of ``(labeled_mip, pet, ct, lesion)`` for cases 0..n-1
    of a corpus, each made when it is reached.

    Even cases are FDG-like and odd cases PSMA-like; case ``i`` draws its
    phantom from child ``i`` of ``seed`` and is named ``synth_{i:04d}``.
    The MIP is the classifier input :func:`discriminator_mip` makes.
    Raises ``ValidationError`` unless ``n >= 1`` and ``seed >= 0``, on the
    call itself, before any case is made.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return (_synth_case(i, seed) for i in range(n))


def _synth_case(i: int, seed: int):
    style = TracerStyle.FDG_LIKE if i % 2 == 0 else TracerStyle.PSMA_LIKE
    item_seed = int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])
    spec = random_phantom_spec(style, item_seed)
    pet, ct, lesion = make_phantom(spec)
    mip = discriminator_mip(pet)
    label = 0 if style is TracerStyle.FDG_LIKE else 1
    return LabeledMip(mip, label, f"synth_{i:04d}"), pet, ct, lesion


def make_mip_dataset(n: int, seed: int = 0) -> list[LabeledMip]:
    """Balanced FDG/PSMA synthetic MIPs through the real preprocessing path."""
    if n < 2:
        raise ValidationError(f"need at least 2 samples, got {n}")
    return [mip for mip, _, _, _ in synth_cases(n, seed)]
