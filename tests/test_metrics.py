import csv
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from petseg.errors import ShapeMismatch
from petseg.metrics import (
    CaseMetrics,
    compute_case_metrics,
    connected_components,
    dice,
    evaluate_case,
    write_metrics_csv,
)
from petseg import nifti
from petseg.volume import BinaryMask, Volume3D, VolumeKind

from oracles import bfs_components, naive_case_metrics


def mask_of(data, spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(np.asarray(data, dtype=bool), spacing)


class TestConnectedComponents:
    def test_corner_touch_depends_on_connectivity(self):
        m = np.zeros((2, 2, 2), dtype=bool)
        m[0, 0, 0] = True
        m[1, 1, 1] = True
        _, n26 = connected_components(mask_of(m), connectivity=26)
        _, n6 = connected_components(mask_of(m), connectivity=6)
        assert n26 == 1
        assert n6 == 2

    def test_edge_touch_18(self):
        m = np.zeros((2, 2, 1), dtype=bool)
        m[0, 0, 0] = True
        m[1, 1, 0] = True
        _, n18 = connected_components(mask_of(m), connectivity=18)
        _, n6 = connected_components(mask_of(m), connectivity=6)
        assert n18 == 1
        assert n6 == 2

    def test_empty_mask(self):
        labels, n = connected_components(mask_of(np.zeros((3, 3, 3))))
        assert n == 0
        assert not labels.data.any()

    def test_first_encounter_numbering(self):
        # two blobs; the one met first in the x-fastest scan gets label 1
        m = np.zeros((5, 1, 1), dtype=bool)
        m[0, 0, 0] = True
        m[3, 0, 0] = True
        labels, n = connected_components(mask_of(m))
        assert n == 2
        assert labels.data[0, 0, 0] == 1
        assert labels.data[3, 0, 0] == 2

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_matches_bfs_oracle(self, rng, connectivity):
        for _ in range(50):
            density = rng.uniform(0.05, 0.45)
            m = rng.random((12, 12, 12)) < density
            labels, n = connected_components(mask_of(m), connectivity)
            ref_labels, ref_n = bfs_components(m, connectivity)
            assert n == ref_n
            assert np.array_equal(labels.data, ref_labels)


LARGE_SHAPE = (128, 128, 160)


def large_masks():
    """Three 128x128x160 masks: a solid ellipsoid, uniform noise and
    thresholded smooth noise."""
    rng = np.random.default_rng(7)
    x, y, z = np.ogrid[:128, :128, :160]
    ellipsoid = ((x - 64) / 50.0) ** 2 + ((y - 64) / 50.0) ** 2 + ((z - 80) / 54.0) ** 2 <= 1
    uniform = rng.random(LARGE_SHAPE) < 0.17
    smooth = ndimage.gaussian_filter(rng.standard_normal(LARGE_SHAPE), 2.0)
    blobs = smooth > np.quantile(smooth, 1 - 83_000 / smooth.size)
    return {"ellipsoid": ellipsoid, "uniform": uniform, "blobs": blobs}


@pytest.fixture(scope="module")
def large():
    return large_masks()


class TestLargeVolumeOracle:
    def test_mask_sizes(self, large):
        assert np.count_nonzero(large["ellipsoid"]) == 565_265
        assert 435_000 < np.count_nonzero(large["uniform"]) < 455_000
        assert np.count_nonzero(large["blobs"]) == 83_000

    @pytest.mark.parametrize("name", ["ellipsoid", "uniform", "blobs"])
    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_matches_ndimage_label(self, large, name, connectivity):
        m = large[name]
        # ndimage scans its last axis fastest; on m.T that is x
        structure = ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[connectivity])
        ref, ref_n = ndimage.label(m.T, structure)
        labels, n = connected_components(mask_of(m), connectivity)
        assert n == ref_n
        assert np.array_equal(labels.data, ref.T)


class TestLayout:
    """Labels, counts and metrics do not depend on the masks' memory order."""

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_connected_components(self, rng, layout, connectivity):
        for _ in range(10):
            m = rng.random((12, 11, 10)) < rng.uniform(0.05, 0.45)
            mask = mask_of(np.asarray(m, order=layout))
            assert mask.mask.flags[layout + "_CONTIGUOUS"]  # kept, not copied
            labels, n = connected_components(mask, connectivity)
            ref_labels, ref_n = bfs_components(m, connectivity)
            assert n == ref_n
            assert np.array_equal(labels.data, ref_labels)

    @pytest.mark.parametrize("gt_layout", ["C", "F"])
    def test_compute_case_metrics(self, rng, layout, gt_layout):
        for _ in range(20):
            pred = rng.random((16, 15, 14)) < rng.uniform(0.0, 0.3)
            gt = rng.random((16, 15, 14)) < rng.uniform(0.0, 0.3)
            got = compute_case_metrics(mask_of(np.asarray(pred, order=layout)),
                                       mask_of(np.asarray(gt, order=gt_layout)), "t")
            ref = naive_case_metrics(pred, gt, (1.0, 1.0, 1.0), 26)
            assert (got.fpv_voxels, got.fnv_voxels) == (ref["fpv_voxels"], ref["fnv_voxels"])
            assert (got.n_pred_components, got.n_gt_components) == (ref["n_pred"], ref["n_gt"])
            assert got.dice == ref["dice"]


class TestMetricsMemory:
    def test_case_metrics_peak_volume_equivalents(self, rng):
        x, y, z = np.ogrid[:128, :128, :160]
        gt = ((x - 60) / 30.0) ** 2 + ((y - 64) / 28.0) ** 2 + ((z - 80) / 40.0) ** 2 <= 1
        gt |= rng.random(LARGE_SHAPE) < 0.01
        pred = np.roll(gt, 3, axis=0)
        assert 160_000 < np.count_nonzero(pred) < 180_000
        pred_mask, gt_mask = mask_of(pred), mask_of(gt)
        int32_volume = pred.size * 4
        tracemalloc.start()
        try:
            m = compute_case_metrics(pred_mask, gt_mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.n_pred_components > 1
        assert peak <= 2.5 * int32_volume, f"peak {peak / int32_volume:.2f} int32 volumes"

    @pytest.mark.parametrize("lesion_label", [None, 1])
    def test_evaluate_case_bytes_per_voxel(self, tmp_path, rng, lesion_label):
        shape = (64, 64, 80)
        for name in ("pred", "gt"):
            sparse = rng.random(shape) < 0.001
            nifti.write_volume(mask_of(sparse).to_label_volume(), tmp_path / f"{name}.nii.gz")
        tracemalloc.start()
        try:
            m = evaluate_case(tmp_path / "pred.nii.gz", tmp_path / "gt.nii.gz", lesion_label=lesion_label)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.n_pred_components > 1
        # two bool masks read one byte per voxel, plus the labeller's int32
        # run lookup, freed before its int32 label grid is made: measured
        # 6.2; reading each file as an int32 volume took 14.1
        per_voxel = peak / np.prod(shape)
        assert per_voxel <= 8.0, f"{per_voxel:.2f} bytes per voxel"


class TestDice:
    def test_identical_masks(self, rng):
        m = rng.random((6, 6, 6)) < 0.3
        m[0, 0, 0] = True
        assert dice(mask_of(m), mask_of(m)) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = True
        b[3, 3, 3] = True
        assert dice(mask_of(a), mask_of(b)) == 0.0

    def test_two_one_overlap(self):
        a = np.zeros((4, 1, 1), dtype=bool)
        b = np.zeros((4, 1, 1), dtype=bool)
        a[0] = a[1] = True
        b[0] = True
        assert abs(dice(mask_of(a), mask_of(b)) - 2.0 / 3.0) < 1e-15

    def test_both_empty_undefined(self):
        assert dice(mask_of(np.zeros((3, 3, 3))), mask_of(np.zeros((3, 3, 3)))) is None

    def test_one_empty_is_zero(self):
        a = np.zeros((3, 3, 3), dtype=bool)
        a[1, 1, 1] = True
        assert dice(mask_of(a), mask_of(np.zeros((3, 3, 3)))) == 0.0

    def test_symmetry(self, rng):
        a = rng.random((5, 5, 5)) < 0.3
        b = rng.random((5, 5, 5)) < 0.3
        assert dice(mask_of(a), mask_of(b)) == dice(mask_of(b), mask_of(a))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            dice(mask_of(np.zeros((3, 3, 3))), mask_of(np.zeros((3, 3, 4))))


class TestFpvFnv:
    def test_all_components_overlap(self, rng):
        m = rng.random((6, 6, 6)) < 0.3
        got = compute_case_metrics(mask_of(m), mask_of(m))
        assert got.fpv_voxels == 0 and got.fpv_ml == 0.0

    def test_empty_prediction(self):
        gt = np.zeros((4, 4, 4), dtype=bool)
        gt[1, 1, 1] = True
        got = compute_case_metrics(mask_of(np.zeros((4, 4, 4))), mask_of(gt))
        assert got.fpv_voxels == 0 and got.fpv_ml == 0.0

    def test_ten_voxel_blob_at_3p3mm(self):
        # 10 isolated predicted voxels against empty gt at 3.3mm isotropic
        pred = np.zeros((10, 3, 3), dtype=bool)
        pred[:, 1, 1] = True
        spacing = (3.3, 3.3, 3.3)
        got = compute_case_metrics(mask_of(pred, spacing), mask_of(np.zeros((10, 3, 3)), spacing))
        assert got.fpv_voxels == 10
        assert abs(got.fpv_ml - 10 * 3.3**3 / 1000.0) < 1e-12
        assert abs(got.fpv_ml - 0.35937) < 1e-9

    def test_fnv_missed_component(self):
        gt = np.zeros((9, 3, 3), dtype=bool)
        gt[0:2, 1, 1] = True   # covered component (2 voxels)
        gt[6:9, 1, 1] = True   # missed component (3 voxels)
        pred = np.zeros((9, 3, 3), dtype=bool)
        pred[0, 1, 1] = True
        assert compute_case_metrics(mask_of(pred), mask_of(gt)).fnv_voxels == 3

    def test_pred_equals_gt(self, rng):
        m = rng.random((5, 5, 5)) < 0.25
        assert compute_case_metrics(mask_of(m), mask_of(m)).fnv_voxels == 0

    def test_fpv_fnv_duality(self, rng):
        for _ in range(20):
            a = rng.random((6, 6, 6)) < 0.25
            b = rng.random((6, 6, 6)) < 0.25
            assert compute_case_metrics(mask_of(a), mask_of(b)).fpv_voxels == \
                compute_case_metrics(mask_of(b), mask_of(a)).fnv_voxels

    def test_adding_overlapping_voxel_never_raises_fpv(self, rng):
        for _ in range(10):
            pred = rng.random((6, 6, 6)) < 0.2
            gt = rng.random((6, 6, 6)) < 0.2
            base = compute_case_metrics(mask_of(pred), mask_of(gt)).fpv_voxels
            overlap = pred & gt
            if not overlap.any():
                continue
            # grow the prediction next to an already-overlapping voxel
            x, y, z = [int(v[0]) for v in np.nonzero(overlap)]
            grown = pred.copy()
            grown[max(0, x - 1), y, z] = True
            after = compute_case_metrics(mask_of(grown), mask_of(gt)).fpv_voxels
            assert after <= base

    def test_random_16cube_sweep_against_oracle(self, rng):
        for _ in range(60):
            density = rng.uniform(0.0, 0.3)
            pred = rng.random((16, 16, 16)) < density
            gt = rng.random((16, 16, 16)) < rng.uniform(0.0, 0.3)
            got = compute_case_metrics(mask_of(pred), mask_of(gt), "t")
            ref = naive_case_metrics(pred, gt, (1.0, 1.0, 1.0), 26)
            assert got.fpv_voxels == ref["fpv_voxels"]
            assert got.fnv_voxels == ref["fnv_voxels"]
            assert got.n_pred_components == ref["n_pred"]
            assert got.n_gt_components == ref["n_gt"]
            if ref["dice"] is None:
                assert got.dice is None
            else:
                assert abs(got.dice - ref["dice"]) <= 1e-12


class TestEvaluateCase:
    def write_mask(self, path, data, spacing=(2.0, 2.0, 2.0)):
        nifti.write_volume(Volume3D(data.astype(np.int32), spacing, VolumeKind.LABEL), path)

    def test_identical_files(self, tmp_path, rng):
        data = (rng.random((8, 8, 8)) < 0.2).astype(np.int32)
        data[0, 0, 0] = 1
        self.write_mask(tmp_path / "pred.nii.gz", data)
        self.write_mask(tmp_path / "gt.nii.gz", data)
        m = evaluate_case(tmp_path / "pred.nii.gz", tmp_path / "gt.nii.gz")
        assert m.dice == 1.0
        assert m.fpv_voxels == 0 and m.fnv_voxels == 0

    def test_both_empty(self, tmp_path):
        data = np.zeros((5, 5, 5), dtype=np.int32)
        self.write_mask(tmp_path / "pred.nii.gz", data)
        self.write_mask(tmp_path / "gt.nii.gz", data)
        m = evaluate_case(tmp_path / "pred.nii.gz", tmp_path / "gt.nii.gz")
        assert m.dice is None
        assert not m.dice_defined
        assert m.fpv_voxels == 0 and m.fnv_voxels == 0

    def test_hand_computed_fixture(self, tmp_path):
        # 8^3 at 2mm: gt has two 2x2x2 blobs; pred covers one exactly and
        # adds an isolated single voxel elsewhere
        gt = np.zeros((8, 8, 8), dtype=np.int32)
        gt[0:2, 0:2, 0:2] = 1
        gt[5:7, 5:7, 5:7] = 1
        pred = np.zeros((8, 8, 8), dtype=np.int32)
        pred[0:2, 0:2, 0:2] = 1
        pred[7, 0, 7] = 1
        self.write_mask(tmp_path / "pred.nii.gz", pred)
        self.write_mask(tmp_path / "gt.nii.gz", gt)
        m = evaluate_case(tmp_path / "pred.nii.gz", tmp_path / "gt.nii.gz")
        # dice = 2*8 / (9 + 16)
        assert abs(m.dice - 16.0 / 25.0) < 1e-12
        assert m.n_pred_components == 2
        assert m.n_gt_components == 2
        assert m.fpv_voxels == 1
        assert abs(m.fpv_ml - 8.0 / 1000.0) < 1e-12  # one voxel of 2mm^3
        assert m.fnv_voxels == 8
        assert abs(m.fnv_ml - 64.0 / 1000.0) < 1e-12

    def test_shape_mismatch(self, tmp_path):
        self.write_mask(tmp_path / "pred.nii.gz", np.zeros((4, 4, 4), dtype=np.int32))
        self.write_mask(tmp_path / "gt.nii.gz", np.zeros((4, 4, 5), dtype=np.int32))
        with pytest.raises(ShapeMismatch):
            evaluate_case(tmp_path / "pred.nii.gz", tmp_path / "gt.nii.gz")

    def test_lesion_label_selector(self, tmp_path):
        data = np.zeros((4, 4, 4), dtype=np.int32)
        data[1, 1, 1] = 13
        data[2, 2, 2] = 4  # organ, not lesion
        self.write_mask(tmp_path / "pred.nii.gz", data)
        self.write_mask(tmp_path / "gt.nii.gz", data)
        m = evaluate_case(tmp_path / "pred.nii.gz", tmp_path / "gt.nii.gz", lesion_label=13)
        assert m.dice == 1.0
        assert m.n_pred_components == 1


class TestCsv:
    def test_csv_layout_and_mean_row(self, tmp_path):
        cases = [
            CaseMetrics("a", 1.0, 0, 0.0, 0, 0.0, 1, 1),
            CaseMetrics("b", None, 2, 0.016, 0, 0.0, 1, 0),
            CaseMetrics("c", 0.5, 0, 0.0, 3, 0.024, 1, 2),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, cases)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["case_id", "dice", "dice_defined", "fpv_voxels", "fpv_ml",
                           "fnv_voxels", "fnv_ml", "n_pred_cc", "n_gt_cc"]
        assert rows[1][1] == "1.000000" and rows[1][2] == "1"
        assert rows[2][1] == "nan" and rows[2][2] == "0"
        mean = rows[-1]
        assert mean[0] == "mean"
        assert mean[1] == "0.750000"  # over the two defined cases only
        assert mean[2] == "2"
