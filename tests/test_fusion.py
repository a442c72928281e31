import numpy as np
import pytest

from petseg.errors import ShapeMismatch, UnknownGroupId, UnknownMaskName, ValidationError
from petseg.fusion import DEFAULT_GROUPS, OrganGroup, OrganGroupTable, merge_organ_masks, split_label_map
from petseg.volume import BinaryMask


def mask_from_coords(coords, shape=(6, 6, 6), spacing=(1.0, 1.0, 1.0)):
    m = np.zeros(shape, dtype=bool)
    for c in coords:
        m[c] = True
    return BinaryMask(m, spacing)


def random_mask(rng, shape=(6, 6, 6), density=0.2):
    return BinaryMask(rng.random(shape) < density, (1.0, 1.0, 1.0))


class TestDefaultTable:
    def test_ids_dense_and_lesion_max(self):
        ids = sorted(g.group_id for g in DEFAULT_GROUPS.groups)
        assert ids == list(range(1, 14))
        assert DEFAULT_GROUPS.lesion_id == 13
        assert DEFAULT_GROUPS.group_by_id(13).name == "lesion"

    def test_member_lookup(self):
        assert DEFAULT_GROUPS.group_for_mask("kidney_left").group_id == 5
        assert DEFAULT_GROUPS.group_for_mask("liver").group_id == 4
        assert DEFAULT_GROUPS.group_for_mask("made_up_organ") is None

    def test_non_dense_ids_rejected(self):
        with pytest.raises(ValidationError):
            OrganGroupTable((OrganGroup(1, "a", ("a",)), OrganGroup(3, "b", ("b",))))


class TestMerge:
    def test_lesion_beats_liver(self):
        liver = mask_from_coords([(1, 1, 1), (2, 2, 2)])
        lesion = mask_from_coords([(1, 1, 1)])
        fused = merge_organ_masks([("liver", liver)], lesion)
        assert fused.data[1, 1, 1] == 13
        assert fused.data[2, 2, 2] == 4

    def test_unclaimed_voxel_is_background(self):
        fused = merge_organ_masks([], mask_from_coords([(0, 0, 0)]))
        assert fused.data[5, 5, 5] == 0

    def test_organ_overlap_resolved_by_id(self):
        kidneys = mask_from_coords([(3, 3, 3)])
        skeleton = mask_from_coords([(3, 3, 3)])
        fused = merge_organ_masks(
            [("kidney_left", kidneys), ("skeleton", skeleton)],
            mask_from_coords([]),
        )
        assert fused.data[3, 3, 3] == 10  # skeleton (10) outranks kidneys (5)

    def test_unknown_name(self):
        with pytest.raises(UnknownMaskName):
            merge_organ_masks([("xenomorph", mask_from_coords([]))], mask_from_coords([]))

    def test_unknown_name_ignorable(self):
        fused = merge_organ_masks(
            [("xenomorph", mask_from_coords([(1, 0, 0)]))],
            mask_from_coords([]),
            ignore_unknown=True,
        )
        assert fused.data[1, 0, 0] == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            merge_organ_masks(
                [("liver", mask_from_coords([], shape=(5, 5, 5)))],
                mask_from_coords([]),
            )

    def test_label_range(self, rng):
        masks = [("liver", random_mask(rng)), ("brain", random_mask(rng)),
                 ("lung_left", random_mask(rng))]
        fused = merge_organ_masks(masks, random_mask(rng))
        assert fused.data.min() >= 0
        assert fused.data.max() <= 13


class TestMergeMemory:
    def test_masks_are_taken_one_at_a_time(self):
        import tracemalloc

        shape = (64, 64, 80)
        names = ("liver", "brain", "pancreas", "heart", "spleen", "aorta")  # groups 4, 1, 12, 2, 7, 3
        lesion = mask_from_coords([(0, 0, 0)], shape=shape)

        def masks():  # overlapping slabs of z, each made only when the merge asks for it
            for i, name in enumerate(names):
                m = np.zeros(shape, dtype=bool, order="F")
                m[:, :, 10 * i:10 * i + 15] = True
                yield name, BinaryMask(m, (1.0, 1.0, 1.0))

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fused = merge_organ_masks(masks(), lesion)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        ids = [DEFAULT_GROUPS.group_for_mask(name).group_id for name in names]
        assert [fused.data[1, 1, 10 * i + 7] for i in range(len(names))] == ids
        assert [fused.data[1, 1, 10 * i + 12] for i in range(len(names) - 1)] == [
            max(a, b) for a, b in zip(ids, ids[1:])]  # the higher id wins an overlap
        assert fused.data[0, 0, 0] == 13
        # the int32 map (4 bytes per voxel) and at most two masks, as this
        # generator holds its last mask while it makes the next
        assert peak <= 8 * fused.data.size, peak / fused.data.size


class TestSplit:
    def test_round_trip_lesion_only(self):
        lesion = mask_from_coords([(1, 2, 3), (4, 4, 4)])
        fused = merge_organ_masks([], lesion)
        back = split_label_map(fused, 13)
        assert np.array_equal(back.mask, lesion.mask)

    def test_background_split_is_complement(self, rng):
        lesion = random_mask(rng)
        fused = merge_organ_masks([("liver", random_mask(rng))], lesion)
        bg = split_label_map(fused, 0)
        assert np.array_equal(bg.mask, fused.data == 0)

    def test_unknown_group_id(self):
        fused = merge_organ_masks([], mask_from_coords([]))
        with pytest.raises(UnknownGroupId):
            split_label_map(fused, 77)

    def test_split_masks_partition_foreground(self, rng):
        masks = [("liver", random_mask(rng)), ("spleen", random_mask(rng)),
                 ("skeleton", random_mask(rng))]
        lesion = random_mask(rng)
        fused = merge_organ_masks(masks, lesion)
        union = np.zeros(fused.shape, dtype=bool)
        total = 0
        for gid in range(1, 14):
            part = split_label_map(fused, gid).mask
            assert not (union & part).any()
            union |= part
            total += part.sum()
        assert np.array_equal(union, fused.data != 0)
        assert total == np.count_nonzero(fused.data)

    def test_remerge_reproduces_fused_map(self, rng):
        masks = [("liver", random_mask(rng)), ("brain", random_mask(rng))]
        lesion = random_mask(rng)
        fused = merge_organ_masks(masks, lesion)
        parts = []
        for g in DEFAULT_GROUPS.groups:
            if g.group_id == 13:
                continue
            part = split_label_map(fused, g.group_id)
            if part.mask.any():
                parts.append((g.name, part))
        refused = merge_organ_masks(parts, split_label_map(fused, 13))
        assert np.array_equal(refused.data, fused.data)


class TestLesionSupremacy:
    def test_lesion_always_wins_random_fixtures(self, rng):
        for _ in range(30):
            masks = [
                ("liver", random_mask(rng)),
                ("kidney_right", random_mask(rng)),
                ("skeleton", random_mask(rng)),
                ("lung_left", random_mask(rng)),
            ]
            lesion = random_mask(rng, density=0.15)
            fused = merge_organ_masks(masks, lesion)
            back = split_label_map(fused, 13)
            assert np.array_equal(back.mask, lesion.mask)
            assert np.all(fused.data[lesion.mask] == 13)
