"""Merge per-organ binary masks into one grouped label map.

Organ groups carry dense ids 1..K with 0 reserved for background and the
lesion class at the maximum id. Overlaps between organs resolve by
ascending id (the higher id wins); lesion voxels always win.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import IoFailure, UnknownGroupId, UnknownMaskName, ValidationError
from .volume import BinaryMask, Volume3D, VolumeKind, require_same_grid

import numpy as np


@dataclass(frozen=True)
class OrganGroup:
    group_id: int
    name: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class OrganGroupTable:
    groups: tuple[OrganGroup, ...]

    def __post_init__(self):
        ids = sorted(g.group_id for g in self.groups)
        if ids != list(range(1, len(ids) + 1)):
            raise ValidationError(f"group ids must be dense 1..K, got {ids}")

    @property
    def lesion_id(self) -> int:
        return max(g.group_id for g in self.groups)

    def group_for_mask(self, mask_name: str) -> OrganGroup | None:
        for g in self.groups:
            if mask_name == g.name or mask_name in g.members:
                return g
        return None

    def group_by_id(self, group_id: int) -> OrganGroup | None:
        for g in self.groups:
            if g.group_id == group_id:
                return g
        return None


DEFAULT_GROUPS = OrganGroupTable((
    OrganGroup(1, "brain", ("brain",)),
    OrganGroup(2, "heart", ("heart", "heart_myocardium")),
    OrganGroup(3, "aorta", ("aorta",)),
    OrganGroup(4, "liver", ("liver",)),
    OrganGroup(5, "kidneys", ("kidney_left", "kidney_right")),
    OrganGroup(6, "urinary_bladder", ("urinary_bladder",)),
    OrganGroup(7, "spleen", ("spleen",)),
    OrganGroup(8, "digestive_system", ("esophagus", "stomach", "duodenum", "small_bowel", "colon")),
    OrganGroup(9, "prostate", ("prostate",)),
    OrganGroup(10, "skeleton", ("skeleton", "spine", "ribs", "pelvis", "femur_left", "femur_right", "skull")),
    OrganGroup(11, "lungs", ("lung_left", "lung_right")),
    OrganGroup(12, "pancreas", ("pancreas",)),
    OrganGroup(13, "lesion", ("lesion",)),
))


def merge_organ_masks(masks, lesion: BinaryMask, table: OrganGroupTable = DEFAULT_GROUPS,
                      ignore_unknown: bool = False) -> Volume3D:
    """Fuse named organ masks plus the lesion mask into a label volume.

    ``masks`` is an iterable of (name, BinaryMask). A voxel gets the
    highest group id claiming it; lesion voxels always carry the lesion id.
    Unknown mask names raise ``UnknownMaskName`` unless ignored.
    """
    claimed: dict[int, np.ndarray] = {}
    for name, mask in masks:
        require_same_grid(lesion, mask, "organ masks")
        group = table.group_for_mask(name)
        if group is None:
            if ignore_unknown:
                continue
            raise UnknownMaskName(f"mask name {name!r} is not in the organ group table")
        if group.group_id == table.lesion_id:
            raise ValidationError("pass the lesion mask via the dedicated argument")
        if group.group_id in claimed:
            claimed[group.group_id] |= mask.mask
        else:
            claimed[group.group_id] = mask.mask.copy()

    out = np.zeros(lesion.shape, dtype=np.int32)
    for group_id in sorted(claimed):
        out[claimed[group_id]] = group_id
    out[lesion.mask] = table.lesion_id
    return Volume3D(out, lesion.spacing, VolumeKind.LABEL)


def split_label_map(fused: Volume3D, group_id: int, table: OrganGroupTable = DEFAULT_GROUPS) -> BinaryMask:
    """Mask of voxels equal to ``group_id`` (0 selects background)."""
    if group_id != 0 and table.group_by_id(group_id) is None:
        raise UnknownGroupId(f"group id {group_id} is not in the table")
    return BinaryMask.from_label_volume(fused, group_id)


def load_organ_manifest(manifest_path):
    """Read {case_id, lesion_path, organs: {name: path}} with paths
    resolved relative to the manifest file."""
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read organ manifest {manifest_path}: {exc}") from exc
    organs = doc.get("organs", {}) if isinstance(doc, dict) else None
    if not (isinstance(doc, dict) and "case_id" in doc and isinstance(doc.get("lesion_path"), str)
            and isinstance(organs, dict) and all(isinstance(p, str) for p in organs.values())):
        raise IoFailure(f"organ manifest {manifest_path} is not "
                        "{case_id, lesion_path: string, organs: {name: path string}}")
    base = manifest_path.parent
    organ_paths = {name: base / p for name, p in organs.items()}
    return str(doc["case_id"]), base / doc["lesion_path"], organ_paths
