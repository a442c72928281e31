import tracemalloc

import numpy as np
import pytest

from petseg import preprocess
from petseg.errors import InvalidSpacing, InvalidWindow, ShapeMismatch, ValidationError
from petseg.preprocess import (
    MIP_SPACING,
    ChannelStack,
    WindowSpec,
    build_channels,
    clip_intensity,
    crop_pad_center,
    discriminator_mip,
    mip_coronal,
    normalize_mip,
    resample_nearest,
    resample_trilinear,
)
from petseg.volume import Volume3D, VolumeKind

from conftest import random_volume
from oracles import naive_mip_coronal, naive_nearest, naive_trilinear


class TestResampleTrilinear:
    def test_constant_volume_stays_constant(self, rng):
        vol = Volume3D(np.full((5, 4, 6), 7.3), (2.0, 2.0, 2.0))
        out = resample_trilinear(vol, (1.1, 3.0, 0.7))
        assert np.allclose(out.data, 7.3, rtol=0, atol=1e-12)

    def test_linear_ramp_reproduced(self):
        nx = 10
        data = np.tile(np.arange(nx, dtype=np.float64)[:, None, None], (1, 3, 3))
        vol = Volume3D(data, (2.0, 1.0, 1.0))
        out = resample_trilinear(vol, (1.0, 1.0, 1.0))
        # interior samples of f(i) = i at half-spacing: u = (i+0.5)/2 - 0.5
        for i in range(out.shape[0]):
            u = (i + 0.5) * 0.5 - 0.5
            if 0.0 <= u <= nx - 1:
                assert abs(out.data[i, 1, 1] - u) < 1e-12

    def test_matches_naive_oracle(self, rng):
        vol = random_volume(rng, shape=(9, 8, 7), spacing=(1.0, 2.0, 1.5))
        target = (2.5, 3.0, 2.0)
        out = resample_trilinear(vol, target)
        ref = naive_trilinear(vol.data, vol.spacing, target)
        assert out.shape == ref.shape
        assert np.max(np.abs(out.data - ref)) < 1e-12

    def test_oracle_sweep_random_spacings(self, rng):
        for _ in range(10):
            shape = tuple(int(s) for s in rng.integers(2, 9, size=3))
            spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
            target = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
            vol = random_volume(rng, shape=shape, spacing=spacing)
            out = resample_trilinear(vol, target)
            ref = naive_trilinear(vol.data, spacing, target)
            assert np.max(np.abs(out.data - ref)) < 1e-12

    def test_identity_spacing_is_bitwise_identity(self, rng):
        vol = random_volume(rng, shape=(6, 5, 4), spacing=(1.3, 0.9, 2.7))
        out = resample_trilinear(vol, vol.spacing)
        assert np.array_equal(out.data, vol.data)
        assert out.data is not vol.data

    def test_range_is_convex(self, rng):
        for _ in range(20):
            vol = random_volume(rng, shape=(6, 6, 6), spacing=(2.0, 2.0, 2.0), lo=-5, hi=11)
            out = resample_trilinear(vol, tuple(rng.uniform(0.4, 5.0, size=3)))
            assert out.data.min() >= vol.data.min()
            assert out.data.max() <= vol.data.max()

    def test_affine_field_reproduced_interior(self, rng):
        # trilinear is exact on f(x,y,z) = a + bx + cy + dz
        shape = (8, 7, 9)
        spacing = (2.0, 1.5, 1.0)
        target = (0.9, 1.1, 1.7)
        a, b, c, d = rng.uniform(-2, 2, size=4)
        idx = np.indices(shape, dtype=np.float64)
        phys = [idx[i] * spacing[i] for i in range(3)]
        vol = Volume3D(a + b * phys[0] + c * phys[1] + d * phys[2], spacing)
        out = resample_trilinear(vol, target)
        for i in range(out.shape[0]):
            for j in range(out.shape[1]):
                for k in range(out.shape[2]):
                    coords = [(o + 0.5) * t - 0.5 * s for o, t, s in zip((i, j, k), target, spacing)]
                    interior = all(
                        0.0 <= co / s <= n - 1
                        for co, s, n in zip(coords, spacing, shape)
                    )
                    if interior:
                        expected = a + b * coords[0] + c * coords[1] + d * coords[2]
                        assert abs(out.data[i, j, k] - expected) < 1e-9

    def test_label_volume_rejected(self):
        vol = Volume3D(np.zeros((3, 3, 3), dtype=np.int32), (1, 1, 1), VolumeKind.LABEL)
        with pytest.raises(ValidationError):
            resample_trilinear(vol, (2, 2, 2))

    def test_invalid_spacing(self, rng):
        vol = random_volume(rng)
        with pytest.raises(InvalidSpacing):
            resample_trilinear(vol, (0.0, 1.0, 1.0))


    @pytest.mark.parametrize("shape, spacing, target", [
        ((23, 9, 11), (1.0, 2.0, 1.5), (2.5, 3.0, 2.0)),  # down on every axis
        ((7, 6, 5), (3.0, 2.0, 2.5), (0.9, 1.1, 0.7)),  # up on every axis
        ((1, 6, 7), (3.0, 2.0, 1.5), (0.9, 2.5, 1.0)),  # singleton slab axis
        ((9, 5, 1), (2.0, 1.0, 4.0), (0.8, 0.5, 1.5)),  # singleton z
    ])
    def test_many_slabs_match_oracle_and_one_slab(self, rng, monkeypatch, shape, spacing, target):
        vol = random_volume(rng, shape=shape, spacing=spacing)
        whole = resample_trilinear(vol, target)
        plane = max(shape[1], whole.shape[1]) * max(shape[2], whole.shape[2])
        linear_pass = preprocess._linear_pass
        z_passes = []

        def counting_pass(data, axis, *weights):
            if axis == 2:
                z_passes.append(data.shape)
            return linear_pass(data, axis, *weights)

        monkeypatch.setattr(preprocess, "_linear_pass", counting_pass)
        monkeypatch.setattr(preprocess, "_SLAB_BUDGET_ELEMS", plane)  # one x row per slab
        sliced = resample_trilinear(vol, target)
        assert len(z_passes) == whole.shape[0] >= 3
        assert sliced.data.tobytes() == whole.data.tobytes()
        ref = naive_trilinear(vol.data, spacing, target)
        assert np.max(np.abs(sliced.data - ref)) < 1e-12

    @pytest.mark.parametrize("row", [0, 3, 6, 9, 10])  # head, gaps and tail
    def test_clip_range_holds_rows_no_slab_reads(self, monkeypatch, row):
        # 11 rows at 1 mm to 3.2 mm, one output row per slab: the slabs read
        # input rows 1-2, 4-5 and 7-8; the others hold the input maximum
        _, _, f = preprocess._axis_weights(11, 3, 1.0, 3.2)
        c = next(c for c in np.linspace(0.1, 1.0, 1000) if np.any(c * (1 - f) + c * f > c))
        data = np.full((11, 1, 1), c)
        data[row] = 2 * c
        monkeypatch.setattr(preprocess, "_SLAB_BUDGET_ELEMS", 1)
        out = resample_trilinear(Volume3D(data, (1.0, 1.0, 1.0)), (3.2, 1.0, 1.0))
        # c lerped with itself rounds above c, and the input range keeps it
        assert out.data[:, 0, 0].tolist() == (c * (1 - f) + c * f).tolist()

    def test_slab_temporaries_stay_within_budget_when_upsampling(self, rng):
        vol = random_volume(rng, shape=(50, 50, 50), spacing=(4.0, 4.0, 4.0))
        tracemalloc.start()
        try:
            out = resample_trilinear(vol, (1.0, 1.0, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (200, 200, 200)
        transient = peak - out.data.nbytes
        assert transient <= 4 * preprocess._SLAB_BUDGET_ELEMS * 8, f"{transient / 1e6:.0f} MB"


class TestResampleLayout:
    """An x-fastest input is resampled in slabs along z, a C-ordered one
    along x: the bytes are the same, and the output keeps the layout."""

    @pytest.mark.parametrize("shape, spacing, target", [
        ((23, 9, 31), (1.0, 2.0, 1.0), (3.5, 3.0, 3.2)),  # down, skipping rows
        ((7, 6, 5), (3.0, 2.0, 2.5), (0.9, 1.1, 0.7)),  # up on every axis
        ((40, 30, 50), (2.0, 2.0, 3.0), MIP_SPACING),  # a route PET's MIP step
    ])
    @pytest.mark.parametrize("budget", [1, None])  # one row per slab, or the default
    def test_same_bytes_either_layout(self, rng, monkeypatch, layout, shape, spacing, target, budget):
        data = rng.uniform(0.0, 30.0, size=shape)
        laid = np.asarray(data, order=layout)
        for axes in [(), (0, 2)]:  # and a flipped view, whose strides are negative
            want = resample_trilinear(Volume3D(np.flip(data, axes).copy(), spacing), target).data
            with monkeypatch.context() as patch:
                if budget is not None:
                    patch.setattr(preprocess, "_SLAB_BUDGET_ELEMS", budget)
                got = resample_trilinear(Volume3D(np.flip(laid, axes), spacing), target).data
            assert got.tobytes() == want.tobytes()
            assert got.flags[layout + "_CONTIGUOUS"]


class TestResampleNearest:
    def make_label(self, data, spacing):
        return Volume3D(np.asarray(data, dtype=np.int32), spacing, VolumeKind.LABEL)

    def test_identity(self, rng):
        data = rng.integers(0, 5, size=(4, 5, 6))
        vol = self.make_label(data, (1.0, 2.0, 3.0))
        out = resample_nearest(vol, (1.0, 2.0, 3.0))
        assert np.array_equal(out.data, vol.data)

    def test_label_set_preserved(self, rng):
        data = rng.integers(0, 7, size=(6, 6, 6))
        vol = self.make_label(data, (1.0, 1.0, 1.0))
        out = resample_nearest(vol, (0.6, 1.7, 2.3))
        assert set(np.unique(out.data)) <= set(np.unique(data))

    def test_midpoint_tie_breaks_low(self):
        # two voxels [5, 9] at 1mm -> one voxel at 2mm samples u = 0.5 exactly
        data = np.array([5, 9], dtype=np.int32).reshape(2, 1, 1)
        vol = self.make_label(data, (1.0, 1.0, 1.0))
        out = resample_nearest(vol, (2.0, 1.0, 1.0))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 5

    def test_matches_naive_oracle(self, rng):
        for _ in range(10):
            shape = tuple(int(s) for s in rng.integers(2, 8, size=3))
            spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
            target = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
            data = rng.integers(0, 5, size=shape)
            vol = self.make_label(data, spacing)
            out = resample_nearest(vol, target)
            ref = naive_nearest(vol.data, spacing, target)
            assert np.array_equal(out.data, ref)

    def test_float_volume_rejected(self, rng):
        with pytest.raises(ValidationError):
            resample_nearest(random_volume(rng), (2, 2, 2))


class TestClipAndChannels:
    def test_pet_clip_values(self):
        vol = Volume3D(np.array([[[25.0, -1.0, 5.0]]]), (1, 1, 1))
        out = clip_intensity(vol, 0.0, 20.0)
        assert out.data.tolist() == [[[20.0, 0.0, 5.0]]]

    def test_ct_air_clamps_to_low(self):
        vol = Volume3D(np.full((2, 2, 2), -1000.0), (1, 1, 1), VolumeKind.CT_HU)
        out = clip_intensity(vol, -300.0, 400.0)
        assert np.all(out.data == -300.0)

    def test_invalid_window(self, rng):
        with pytest.raises(InvalidWindow):
            clip_intensity(random_volume(rng), 5.0, 5.0)

    def test_clip_idempotent_and_monotone(self, rng):
        vol = random_volume(rng, lo=-50, hi=50)
        once = clip_intensity(vol, -10, 10)
        twice = clip_intensity(once, -10, 10)
        assert np.array_equal(once.data, twice.data)
        a = random_volume(rng, lo=-50, hi=50)
        b = Volume3D(a.data + 1.0, a.spacing, a.kind)
        ca = clip_intensity(a, -10, 10)
        cb = clip_intensity(b, -10, 10)
        assert np.all(ca.data <= cb.data)

    def test_build_channels(self, rng):
        ct = random_volume(rng, shape=(4, 4, 4), lo=-1200, hi=1500, kind=VolumeKind.CT_HU)
        pet = random_volume(rng, shape=(4, 4, 4), lo=0, hi=40)
        stack = build_channels(ct, pet)
        assert stack.channels[0] is ct
        assert stack.channels[1] is pet
        assert stack.ct_clipped.data.min() >= -300.0
        assert stack.ct_clipped.data.max() <= 400.0
        assert stack.pet_clipped.data.min() >= 0.0
        assert stack.pet_clipped.data.max() <= 20.0

    def test_build_channels_shape_mismatch(self, rng):
        ct = random_volume(rng, shape=(4, 4, 4))
        pet = random_volume(rng, shape=(4, 4, 5))
        with pytest.raises(ShapeMismatch):
            build_channels(ct, pet)

    def test_all_zero_inputs(self):
        z = np.zeros((3, 3, 3))
        stack = build_channels(Volume3D(z, (1, 1, 1), VolumeKind.CT_HU), Volume3D(z, (1, 1, 1)))
        assert np.all(stack.ct_clipped.data == 0.0)
        assert np.all(stack.pet_clipped.data == 0.0)


class TestMip:
    def test_single_hot_voxel(self):
        data = np.zeros((4, 7, 5))
        data[2, 5, 3] = 9.5
        img = mip_coronal(Volume3D(data, (1, 1, 1)))
        assert img.shape == (4, 5)
        assert img[2, 3] == 9.5
        assert np.count_nonzero(img) == 1

    def test_y_permutation_invariant(self, rng):
        vol = random_volume(rng, shape=(5, 6, 4))
        img = mip_coronal(vol)
        shuffled = Volume3D(vol.data[:, rng.permutation(6), :], vol.spacing, vol.kind)
        assert np.array_equal(mip_coronal(shuffled), img)

    def test_matches_naive_oracle(self, rng):
        vol = random_volume(rng, shape=(6, 7, 8))
        assert np.array_equal(mip_coronal(vol), naive_mip_coronal(vol.data))

    def test_commutes_with_clip(self, rng):
        vol = random_volume(rng, shape=(5, 5, 5), lo=0, hi=40)
        a = mip_coronal(clip_intensity(vol, 0.0, 20.0))
        b = np.clip(mip_coronal(vol), 0.0, 20.0)
        assert np.array_equal(a, b)

    def test_label_rejected(self):
        vol = Volume3D(np.zeros((2, 2, 2), dtype=np.int32), (1, 1, 1), VolumeKind.LABEL)
        with pytest.raises(ValidationError):
            mip_coronal(vol)


class TestCropPadCenter:
    def test_pad_offsets_100x150(self):
        img = np.ones((100, 150))
        out = crop_pad_center(img)
        assert out.shape == (224, 224)
        # input occupies rows 62..161 (axis 0) and columns 37..186 (axis 1)
        assert np.all(out.pixels[62:162, 37:187] == 1.0)
        assert out.pixels[61, 100] == 0.0 and out.pixels[162, 100] == 0.0
        assert out.pixels[100, 36] == 0.0 and out.pixels[100, 187] == 0.0
        assert out.pixels.sum() == 100 * 150

    def test_identity_at_224(self, rng):
        img = rng.random((224, 224))
        out = crop_pad_center(img)
        assert np.array_equal(out.pixels, img)

    def test_crop_constant(self):
        out = crop_pad_center(np.ones((300, 300)))
        assert out.shape == (224, 224)
        assert np.all(out.pixels == 1.0)

    def test_center_maps_to_center_both_parities(self):
        for n in (9, 10, 223, 224, 225, 300):
            img = np.zeros((n, n))
            img[n // 2, n // 2] = 1.0
            out = crop_pad_center(img)
            assert out.pixels[112, 112] == 1.0, f"n={n}"

    def test_always_224_for_any_size(self, rng):
        for _ in range(10):
            shape = tuple(int(s) for s in rng.integers(1, 400, size=2))
            out = crop_pad_center(rng.random(shape))
            assert out.shape == (224, 224)


class TestNormalizeMip:
    def test_cap_and_scale(self):
        m = crop_pad_center(np.array([[0.0, 20.0], [40.0, 10.0]]))
        out = normalize_mip(m)
        assert out.pixels.max() == 1.0
        assert out.pixels.min() == 0.0
        vals = sorted(np.unique(out.pixels).tolist())
        assert vals == [0.0, 0.5, 1.0]

    def test_pipeline_shape_and_range(self, rng):
        pet = random_volume(rng, shape=(30, 20, 40), spacing=(4.0, 4.0, 4.0), lo=0, hi=30)
        mip = discriminator_mip(pet)
        assert mip.shape == (224, 224)
        assert mip.pixels.min() >= 0.0
        assert mip.pixels.max() <= 1.0
        assert mip.source_spacing == (3.0, 3.0)


def float32_volume(rng, layout, shape=(30, 20, 40), **kwargs):
    """A volume of float32 values laid out in ``layout``, as a float32 file reads."""
    vol = random_volume(rng, shape=shape, **kwargs)
    return vol.with_data(np.asarray(vol.data, np.float32, order=layout))


class TestFloat32Values:
    """float32 values stay float32 until arithmetic, which computes in
    float64: each result equals that of the float64 widening, byte for byte."""

    @pytest.mark.parametrize("spacing", [(2.0, 1.5, 2.5), (4.0, 5.0, 3.5)], ids=["down", "up"])
    def test_mip_is_the_mip_of_the_widening(self, rng, layout, spacing):
        pet = float32_volume(rng, layout, spacing=spacing, hi=30.0)
        wide = pet.with_data(pet.data.astype(np.float64))
        assert pet.data.dtype == np.float32 and wide.data.dtype == np.float64
        assert resample_trilinear(pet, MIP_SPACING).data.dtype == np.float64
        assert discriminator_mip(pet).pixels.tobytes() == discriminator_mip(wide).pixels.tobytes()

    def test_default_windows_clip_in_float32(self, rng, layout):
        ct = float32_volume(rng, layout, lo=-1200.0, hi=1500.0, kind=VolumeKind.CT_HU)
        pet = float32_volume(rng, layout, lo=0.0, hi=40.0)
        stack = build_channels(ct, pet)
        assert [ch.data.dtype for ch in stack.channels] == [np.float32] * 4
        assert np.array_equal(stack.ct_clipped.data, np.clip(ct.data.astype(np.float64), -300.0, 400.0))
        assert np.array_equal(stack.pet_clipped.data, np.clip(pet.data.astype(np.float64), 0.0, 20.0))

    def test_bound_that_float32_rounds_clips_in_float64(self, rng):
        # float32(20.1) is 20.100000381..., so a float32 clip would differ
        pet = float32_volume(rng, "F", lo=0.0, hi=40.0)
        ct = float32_volume(rng, "F", lo=-1200.0, hi=1500.0, kind=VolumeKind.CT_HU)
        stack = build_channels(ct, pet, WindowSpec(pet_hi=20.1))
        clipped = stack.pet_clipped.data
        assert clipped.dtype == np.float64
        assert clipped.tobytes() == np.clip(pet.data.astype(np.float64), 0.0, 20.1).tobytes()
        assert stack.ct_clipped.data.dtype == np.float32

    def test_build_channels_holds_two_float32_channels(self, rng):
        shape = (64, 64, 80)
        ct = float32_volume(rng, "F", shape=shape, lo=-1200.0, hi=1500.0, kind=VolumeKind.CT_HU)
        pet = float32_volume(rng, "F", shape=shape, lo=0.0, hi=40.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stack = build_channels(ct, pet)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert stack.pet_clipped.data.dtype == np.float32
        # the two clipped channels, 4 bytes per voxel each, measured 8.01;
        # clipping a float64 widening would take 16
        assert peak <= 8.1 * ct.data.size, peak / ct.data.size
