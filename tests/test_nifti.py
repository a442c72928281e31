import gzip
import hashlib
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petseg import cli, nifti
from petseg.errors import (
    BadMagic,
    DecompressFailure,
    EndiannessUndetectable,
    IoFailure,
    LabelOverflow,
    MalformedHeader,
    TruncatedData,
    UnsupportedDatatype,
)
from petseg.volume import BinaryMask, Volume3D, VolumeKind

from oracles import nifti_voxels


# The whole 348-byte NIfTI-1 header as nifti1.h lays it out, stated here
# apart from the reader's field table; it has no implicit padding.
NIFTI1_HEADER_FMT = (
    "i"      # sizeof_hdr
    "10s"    # data_type (unused)
    "18s"    # db_name (unused)
    "i"      # extents
    "h"      # session_error
    "2c"     # regular, dim_info
    "8h"     # dim
    "3f"     # intent_p1..3
    "4h"     # intent_code, datatype, bitpix, slice_start
    "8f"     # pixdim
    "3f"     # vox_offset, scl_slope, scl_inter
    "h"      # slice_end
    "2c"     # slice_code, xyzt_units
    "4f"     # cal_max, cal_min, slice_duration, toffset
    "2i"     # glmax, glmin
    "80s"    # descrip
    "24s"    # aux_file
    "2h"     # qform_code, sform_code
    "6f"     # quatern_b/c/d, qoffset_x/y/z
    "12f"    # srow_x, srow_y, srow_z
    "16s"    # intent_name
    "4s"     # magic
)
assert struct.calcsize("<" + NIFTI1_HEADER_FMT) == 348


def minimal_header(datatype=16, dim=(3, 4, 4, 4, 1, 1, 1, 1), pixdim=(1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0),
                   vox_offset=352.0, scl_slope=1.0, scl_inter=0.0, order="<", magic=b"n+1\x00"):
    bitpix = {2: 8, 4: 16, 16: 32, 64: 64}.get(datatype, 0)
    return struct.pack(
        order + NIFTI1_HEADER_FMT,
        348, b"", b"", 0, 0, b"r", b"\x00",
        *dim,
        0.0, 0.0, 0.0,
        0, datatype, bitpix, 0,
        *pixdim,
        vox_offset, scl_slope, scl_inter,
        0, b"\x00", bytes([2]),
        0.0, 0.0, 0.0, 0.0, 0, 0,
        b"", b"", 0, 0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
        b"", magic,
    )


class TestParseHeader:
    def test_minimal_le_header(self):
        header = nifti.parse_header(minimal_header())
        assert header.shape == (4, 4, 4)
        assert header.datatype_code == 16
        assert header.byteorder == "<"
        assert header.spacing == (1.0, 1.0, 1.0)

    def test_big_endian_detected(self):
        le = nifti.parse_header(minimal_header(order="<"))
        be = nifti.parse_header(minimal_header(order=">"))
        assert be.byteorder == ">"
        assert be.shape == le.shape
        assert be.spacing == le.spacing
        assert be.datatype_code == le.datatype_code

    def test_rgb_datatype_rejected(self):
        with pytest.raises(UnsupportedDatatype) as err:
            nifti.parse_header(minimal_header(datatype=128))
        assert err.value.code == 128

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            nifti.parse_header(minimal_header(magic=b"ni1\x00"))

    def test_undetectable_endianness(self):
        buf = bytearray(minimal_header())
        buf[0:4] = struct.pack("<i", 123)
        with pytest.raises(EndiannessUndetectable):
            nifti.parse_header(bytes(buf))

    def test_short_buffer(self):
        with pytest.raises(TruncatedData):
            nifti.parse_header(minimal_header()[:200])

    def test_true_4d_rejected(self):
        with pytest.raises(MalformedHeader):
            nifti.parse_header(minimal_header(dim=(4, 4, 4, 4, 2, 1, 1, 1)))

    def test_singleton_4d_accepted(self):
        header = nifti.parse_header(minimal_header(dim=(4, 4, 4, 4, 1, 1, 1, 1)))
        assert header.shape == (4, 4, 4)

    def test_nonpositive_pixdim_rejected(self):
        with pytest.raises(MalformedHeader):
            nifti.parse_header(minimal_header(pixdim=(1.0, 0.0, 1.0, 1.0, 0, 0, 0, 0)))


def raw_file(tmp_path, name="vol.nii", datatype=16, scl_slope=1.0, scl_inter=0.0,
             values=None, compress=False, order="<"):
    header = minimal_header(datatype=datatype, scl_slope=scl_slope, scl_inter=scl_inter, order=order)
    base = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}[datatype]
    if values is None:
        values = np.ones((4, 4, 4))
    data = np.asarray(values).astype(np.dtype(base).newbyteorder(order))
    payload = header + b"\x00" * 4 + data.tobytes(order="F")
    if compress:
        payload = gzip.compress(payload)
    path = tmp_path / name
    path.write_bytes(payload)
    return path


class TestReadVolume:
    def test_affine_rescale(self, tmp_path):
        path = raw_file(tmp_path, scl_slope=2.0, scl_inter=1.0)
        vol = nifti.read_volume(path)
        assert np.all(vol.data == 3.0)
        assert vol.kind is VolumeKind.PET_SUV

    def test_slope_zero_means_raw(self, tmp_path):
        path = raw_file(tmp_path, scl_slope=0.0, scl_inter=5.0)
        vol = nifti.read_volume(path)
        assert np.all(vol.data == 1.0)

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_slope_means_raw(self, tmp_path, rng, slope):
        data = rng.random((2, 3, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "v.nii"
        nifti.write_volume(Volume3D(data, (1.0, 1.0, 1.0)), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 112, slope)  # scl_slope
        path.write_bytes(bytes(raw))
        assert not np.isfinite(nifti.parse_header(bytes(raw)).scl_slope)  # the patch landed
        assert np.array_equal(nifti.read_volume(path).data, data)

    def test_gzip_transparency(self, tmp_path):
        values = np.arange(64, dtype=np.float64).reshape(4, 4, 4)
        plain = nifti.read_volume(raw_file(tmp_path, "a.nii", values=values))
        packed = nifti.read_volume(raw_file(tmp_path, "b.nii.gz", values=values, compress=True))
        assert np.array_equal(plain.data, packed.data)
        assert plain.spacing == packed.spacing

    def test_truncated_by_one_byte(self, tmp_path):
        path = raw_file(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedData):
            nifti.read_volume(path)

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "bad.nii.gz"
        good = raw_file(tmp_path, "tmp.nii", compress=True).read_bytes()
        path.write_bytes(good[:40])
        with pytest.raises(DecompressFailure):
            nifti.read_volume(path)

    def test_integer_datatype_defaults_to_label(self, tmp_path):
        values = np.zeros((4, 4, 4), dtype=np.uint8)
        values[1, 2, 3] = 7
        path = raw_file(tmp_path, datatype=2, values=values)
        vol = nifti.read_volume(path)
        assert vol.kind is VolumeKind.LABEL
        assert vol.data[1, 2, 3] == 7

    def test_kind_hint_wins(self, tmp_path):
        path = raw_file(tmp_path)
        vol = nifti.read_volume(path, kind=VolumeKind.CT_HU)
        assert vol.kind is VolumeKind.CT_HU

    @pytest.mark.parametrize("name, fault", [
        ("short", TruncatedData), ("magic", BadMagic), ("datatype", UnsupportedDatatype),
        ("sizeof_hdr", EndiannessUndetectable), ("dim", MalformedHeader), ("vox_offset", MalformedHeader),
    ])
    def test_header_faults_name_the_file(self, tmp_path, name, fault):
        header = {
            "short": minimal_header()[:16],
            "magic": minimal_header(magic=b"ni1\x00"),
            "datatype": minimal_header(datatype=128),
            "sizeof_hdr": struct.pack("<i", 1) + minimal_header()[4:],
            "dim": minimal_header(dim=(4, 4, 4, 4, 2, 1, 1, 1)),
            "vox_offset": minimal_header(vox_offset=348.0),
        }[name]
        path = tmp_path / "bad_header.nii"
        path.write_bytes(header + bytes(4 + 4 * 4 * 4 * 4))
        with pytest.raises(fault, match="bad_header.nii: "):
            nifti.read_volume(path)

    @pytest.mark.parametrize("dtype, bitpix", [("float32", 8), ("float32", 64), ("float64", 32)])
    def test_bitpix_must_match_the_datatype(self, tmp_path, capsys, dtype, bitpix):
        path = tmp_path / "bitpix.nii"
        nifti.write_volume(Volume3D(np.ones((2, 3, 4)), (1.0, 1.0, 1.0)), path, dtype=dtype)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, 72, bitpix)
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedHeader, match=f"bitpix.nii: bitpix {bitpix} "):
            nifti.read_volume(path)
        assert cli.main(["inspect", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_data_is_x_fastest_on_disk(self, tmp_path):
        values = np.arange(64, dtype=np.float32).reshape((4, 4, 4), order="F")
        path = raw_file(tmp_path, values=values)
        vol = nifti.read_volume(path)
        # first bytes on disk walk along x
        assert vol.data[1, 0, 0] == 1.0
        assert vol.data[0, 1, 0] == 4.0
        assert vol.data[0, 0, 1] == 16.0


class TestWriteVolume:
    def test_float_round_trip_bitwise(self, tmp_path, rng):
        data = rng.random((5, 6, 7)).astype(np.float32).astype(np.float64)
        vol = Volume3D(data, (1.5, 2.0, 2.5))
        path = tmp_path / "v.nii"
        nifti.write_volume(vol, path)
        back = nifti.read_volume(path)
        assert np.array_equal(back.data, data)
        assert back.shape == vol.shape
        assert np.allclose(back.spacing, vol.spacing, atol=1e-5)

    def test_label_dtype_rule_uint8(self, tmp_path):
        vol = Volume3D(np.full((3, 3, 3), 12, dtype=np.int32), (1, 1, 1), VolumeKind.LABEL)
        path = tmp_path / "l.nii"
        nifti.write_volume(vol, path)
        header = nifti.parse_header(path.read_bytes())
        assert header.datatype_code == 2

    def test_label_dtype_rule_int16(self, tmp_path):
        vol = Volume3D(np.full((3, 3, 3), 300, dtype=np.int32), (1, 1, 1), VolumeKind.LABEL)
        path = tmp_path / "l.nii"
        nifti.write_volume(vol, path)
        header = nifti.parse_header(path.read_bytes())
        assert header.datatype_code == 4

    def test_label_overflow(self, tmp_path):
        vol = Volume3D(np.full((2, 2, 2), 70000, dtype=np.int64), (1, 1, 1), VolumeKind.LABEL)
        with pytest.raises(LabelOverflow):
            nifti.write_volume(vol, tmp_path / "l.nii")

    def test_gzip_round_trip(self, tmp_path, rng):
        data = rng.random((4, 5, 6)).astype(np.float32).astype(np.float64)
        vol = Volume3D(data, (3.3, 3.3, 3.3))
        path = tmp_path / "v.nii.gz"
        nifti.write_volume(vol, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        back = nifti.read_volume(path)
        assert np.array_equal(back.data, data)

    def test_deterministic_bytes(self, tmp_path, rng):
        data = rng.random((4, 4, 4)).astype(np.float32).astype(np.float64)
        vol = Volume3D(data, (1, 1, 1))
        a = tmp_path / "a.nii.gz"
        b = tmp_path / "b.nii.gz"
        nifti.write_volume(vol, a)
        nifti.write_volume(vol, b)
        assert a.read_bytes() == b.read_bytes()

    def test_big_endian_round_trip(self, tmp_path, rng):
        data = rng.random((3, 4, 5)).astype(np.float32).astype(np.float64)
        vol = Volume3D(data, (2, 2, 2))
        path = tmp_path / "be.nii"
        nifti.write_volume(vol, path, byteorder=">")
        back = nifti.read_volume(path)
        assert np.array_equal(back.data, data)

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("byteorder", "<>")
    @pytest.mark.parametrize("dtype", [None, "int16", "float32"])
    def test_mask_writes_the_bytes_of_its_label_volume(self, tmp_path, rng, suffix, layout, byteorder, dtype):
        for fraction in (0.0, 0.3, 1.0):
            mask = BinaryMask(np.asarray(rng.random((5, 6, 7)) < fraction, order=layout), (1.0, 2.0, 3.0))
            nifti.write_volume(mask, tmp_path / f"mask{suffix}", byteorder, dtype)
            nifti.write_volume(mask.to_label_volume(), tmp_path / f"label{suffix}", byteorder, dtype)
            assert (tmp_path / f"mask{suffix}").read_bytes() == (tmp_path / f"label{suffix}").read_bytes()


    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("kind", [VolumeKind.PET_SUV, VolumeKind.LABEL])
    @pytest.mark.parametrize("axes", [(2,), (0, 2), (0, 1, 2)])
    def test_flipped_view_writes_its_contiguous_bytes(self, tmp_path, rng, suffix, kind, axes):
        data = rng.random((5, 6, 7)) if kind is VolumeKind.PET_SUV else rng.integers(0, 300, (5, 6, 7))
        view = np.flip(data, axes)
        nifti.write_volume(Volume3D(view, (1, 2, 3), kind), tmp_path / f"view{suffix}")
        nifti.write_volume(Volume3D(view.copy(), (1, 2, 3), kind), tmp_path / f"copy{suffix}")
        assert (tmp_path / f"view{suffix}").read_bytes() == (tmp_path / f"copy{suffix}").read_bytes()


# SHA-256 of the .nii that write_volume makes for each 3x4x5 arange volume
# below, per (case, byte order); the default float file is float32's
_WRITER_DIGESTS = {
    ("float64", "<"): "8ac9f94c47dc03e9be8fa169ce08e09c769381560f0dc8935ef79335df272ee1",
    ("float64", ">"): "9aa98c6c4f07b2d003510afde26e7b49a142e1c0c85a099101d191ba70ed7388",
    ("float32", "<"): "4fcd72f6f0ebc236729b055e88ccff0121950895ff99434bef34c6c1dfd32627",
    ("float32", ">"): "751489fb931971ccab4a4e054af968a604623a7e64c9fe206b87b94564b6a5bd",
    ("default", "<"): "4fcd72f6f0ebc236729b055e88ccff0121950895ff99434bef34c6c1dfd32627",
    ("default", ">"): "751489fb931971ccab4a4e054af968a604623a7e64c9fe206b87b94564b6a5bd",
    ("uint8", "<"): "dd1ed857ae8407aa94da12a833c2bfdc4ecca4f2c62b71fca577b742c0375a2b",
    ("uint8", ">"): "88b5242fe6336a03a041f281c805fcb7ab52d15d9f6fa6daa70ae60e497a1735",
    ("int16", "<"): "6a89253f68761de6f8b5482a6b3e5b7de3ff3a48e24224c6d289ebec2215e363",
    ("int16", ">"): "65d407a1c40e3d778cc5b36d13fb10fb7fcd8b105e4f409c19a4e8ad5b52defc",
}


def _pinned_volume(case):
    """The (volume, dtype argument) that ``case`` of _WRITER_DIGESTS writes."""
    values, spacing = np.arange(60).reshape(3, 4, 5), (0.5, 1.25, 2.0)
    if case == "uint8":
        return Volume3D(values % 7, spacing, VolumeKind.LABEL), None
    if case == "int16":
        return Volume3D(values * 20, spacing, VolumeKind.LABEL), None
    return Volume3D(values * 0.25 - 3, spacing), None if case == "default" else case


class TestWrittenBytes:
    @pytest.mark.parametrize(("case", "order"), list(_WRITER_DIGESTS))
    def test_pinned_digest(self, tmp_path, case, order):
        vol, dtype = _pinned_volume(case)
        nifti.write_volume(vol, tmp_path / "v.nii", byteorder=order, dtype=dtype)
        raw = (tmp_path / "v.nii").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == _WRITER_DIGESTS[case, order]
        # gzip bytes depend on the zlib build; what they inflate to does not
        nifti.write_volume(vol, tmp_path / "v.nii.gz", byteorder=order, dtype=dtype)
        assert gzip.decompress((tmp_path / "v.nii.gz").read_bytes()) == raw

    def test_layout_does_not_change_the_bytes(self, tmp_path, layout):
        for case, order in _WRITER_DIGESTS:
            vol, dtype = _pinned_volume(case)
            laid = vol.with_data(np.asarray(vol.data, order=layout))
            nifti.write_volume(laid, tmp_path / "v.nii", byteorder=order, dtype=dtype)
            digest = hashlib.sha256((tmp_path / "v.nii").read_bytes()).hexdigest()
            assert digest == _WRITER_DIGESTS[case, order], (case, order)


class TestRoundTripSweep:
    def test_all_datatypes_both_endians_both_codecs(self, tmp_path, rng):
        # property sweep: write -> read is the identity on shape/spacing/data
        for trial in range(40):
            dtype = ["uint8", "int16", "float32", "float64"][trial % 4]
            order = "<" if (trial // 4) % 2 == 0 else ">"
            gz = (trial // 8) % 2 == 0
            shape = tuple(int(s) for s in rng.integers(2, 7, size=3))
            spacing = tuple(float(s) for s in rng.uniform(0.5, 4.0, size=3))
            if dtype in ("uint8", "int16"):
                hi = 255 if dtype == "uint8" else 32767
                data = rng.integers(0, hi, size=shape).astype(np.int32)
                vol = Volume3D(data, spacing, VolumeKind.LABEL)
            elif dtype == "float32":
                data = rng.random(shape).astype(np.float32).astype(np.float64)
                vol = Volume3D(data, spacing)
            else:
                data = rng.random(shape)
                vol = Volume3D(data, spacing)
            path = tmp_path / f"t{trial}.nii{'.gz' if gz else ''}"
            nifti.write_volume(vol, path, byteorder=order, dtype=dtype)
            back = nifti.read_volume(path)
            assert back.shape == vol.shape
            assert np.allclose(back.spacing, vol.spacing, rtol=1e-6)
            assert np.array_equal(back.data, vol.data), f"trial {trial}: {dtype} {order} gz={gz}"

    def test_byte_swapped_file_parses_identically(self, tmp_path, rng):
        data = rng.random((4, 5, 6)).astype(np.float32).astype(np.float64)
        vol = Volume3D(data, (1.5, 1.5, 2.0))
        le = tmp_path / "le.nii"
        be = tmp_path / "be.nii"
        nifti.write_volume(vol, le, byteorder="<")
        nifti.write_volume(vol, be, byteorder=">")
        a = nifti.read_volume(le)
        b = nifti.read_volume(be)
        assert np.array_equal(a.data, b.data)
        assert a.spacing == b.spacing


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
PIXDIM_AT = 76       # pixdim[0]; pixdim[i] sits 4*i bytes later
VOX_OFFSET_AT = 108  # then scl_slope at 112, scl_inter at 116
SFORM_CODE_AT = 254
SROW_AT = 280        # srow_x, srow_y, srow_z: 4 floats each


def written_file(path, rng, shape=(3, 4, 5)):
    """A float32 file from ``write_volume`` (sform_code 1, positive diagonal)
    and the data it holds."""
    data = rng.random(shape).astype(np.float32).astype(np.float64)
    nifti.write_volume(Volume3D(data, (1.0, 2.0, 3.0)), path)
    return data


def patch_floats(path, at, *values):
    raw = bytearray(path.read_bytes())
    struct.pack_into(f"<{len(values)}f", raw, at, *values)
    path.write_bytes(bytes(raw))


class TestNonFiniteHeaderFloats:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_pixdim(self, tmp_path, rng, axis, value):
        path = tmp_path / "v.nii"
        written_file(path, rng)
        patch_floats(path, PIXDIM_AT + 4 * axis, value)
        with pytest.raises(MalformedHeader):
            nifti.read_volume(path)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_vox_offset(self, tmp_path, rng, value):
        path = tmp_path / "v.nii"
        written_file(path, rng)
        patch_floats(path, VOX_OFFSET_AT, value)
        with pytest.raises(MalformedHeader):
            nifti.read_volume(path)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_intercept_with_valid_slope(self, tmp_path, rng, value):
        path = tmp_path / "v.nii"
        written_file(path, rng)
        patch_floats(path, VOX_OFFSET_AT + 4, 2.0, value)
        with pytest.raises(MalformedHeader):
            nifti.read_volume(path)

    def test_intercept_ignored_without_scaling(self, tmp_path, rng):
        path = tmp_path / "v.nii"
        data = written_file(path, rng)
        patch_floats(path, VOX_OFFSET_AT + 4, 0.0, float("nan"))
        assert np.array_equal(nifti.read_volume(path).data, data)

    @pytest.mark.parametrize("offset", [348.0, 350.0, 351.0])
    def test_vox_offset_inside_extension_flag(self, tmp_path, rng, offset):
        path = tmp_path / "v.nii"
        written_file(path, rng)
        patch_floats(path, VOX_OFFSET_AT, offset)
        with pytest.raises(MalformedHeader):
            nifti.read_volume(path)

    @pytest.mark.parametrize("at", [VOX_OFFSET_AT, PIXDIM_AT + 4, VOX_OFFSET_AT + 8])
    def test_cli_exit_2(self, tmp_path, rng, at):
        path = tmp_path / "v.nii"
        written_file(path, rng)
        patch_floats(path, at, float("nan"))
        assert cli.main(["inspect", str(path)]) == 2

    @settings(max_examples=200, deadline=None)
    @given(pixdim=st.tuples(*[st.floats(width=32)] * 3), vox_offset=st.floats(width=32),
           slope=st.floats(width=32), inter=st.floats(width=32))
    def test_header_floats_raise_or_read_finite(self, tmp_path_factory, pixdim, vox_offset, slope, inter):
        path = tmp_path_factory.getbasetemp() / "header_floats.nii"
        written_file(path, np.random.default_rng(0))
        patch_floats(path, PIXDIM_AT + 4, *pixdim)
        patch_floats(path, VOX_OFFSET_AT, vox_offset, slope, inter)
        try:
            vol = nifti.read_volume(path)
        except IoFailure:
            return
        assert np.isfinite(vol.data).all()


class TestOrientation:
    def test_written_sform_is_positive_diagonal(self, tmp_path, rng):
        path = tmp_path / "v.nii"
        written_file(path, rng)
        header = nifti.parse_header(path.read_bytes())
        assert header.sform_code > 0
        assert header.flipped_axes == ()

    @pytest.mark.parametrize("axes", [(0,), (2,), (0, 1, 2)])
    def test_negative_diagonal_flips(self, tmp_path, rng, axes):
        path = tmp_path / "v.nii"
        data = written_file(path, rng)
        for axis in axes:
            patch_floats(path, SROW_AT + 20 * axis, -(axis + 1.0))
        vol = nifti.read_volume(path)
        assert np.array_equal(vol.data, np.flip(data, axes))
        assert vol.spacing == (1.0, 2.0, 3.0)

    def test_no_sform_keeps_stored_order(self, tmp_path, rng):
        path = tmp_path / "v.nii"
        data = written_file(path, rng)
        patch_floats(path, SROW_AT, -1.0)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<h", raw, SFORM_CODE_AT, 0)
        path.write_bytes(bytes(raw))
        assert np.array_equal(nifti.read_volume(path).data, data)

    @pytest.mark.parametrize("at, value", [
        (SROW_AT + 4, 0.5),            # srow_x[1]: oblique
        (SROW_AT + 16 + 8, 1e-3),      # srow_y[2]
        (SROW_AT + 32, float("nan")),  # srow_z[0]
        (SROW_AT + 16 + 4, 0.0),       # srow_y[1]: zero diagonal
        (SROW_AT + 32 + 8, float("inf")),
    ])
    def test_oblique_or_degenerate_sform_rejected(self, tmp_path, rng, at, value):
        path = tmp_path / "v.nii"
        written_file(path, rng)
        patch_floats(path, at, value)
        with pytest.raises(MalformedHeader):
            nifti.read_volume(path)


class TestIntegerIdentityScaling:
    """uint8/int16 files with slope 1 and intercept 0 skip the float64 path."""

    def label_file(self, path, shape=(6, 7, 8), vmax=200):
        values = np.random.default_rng(4).integers(0, vmax + 1, size=shape).astype(np.int32)
        nifti.write_volume(Volume3D(values, (1.0, 2.0, 3.0), VolumeKind.LABEL), path)
        return values

    @pytest.mark.parametrize("vmax", [200, 3000])  # uint8, int16
    def test_reads_like_the_float_path(self, tmp_path, vmax):
        path = tmp_path / "labels.nii.gz"
        values = self.label_file(path, vmax=vmax)
        vol = nifti.read_volume(path)
        # what the float64 path gives: rint back to int32, x fastest as in the file
        expected = np.asfortranarray(np.rint(values.astype(np.float64) * 1.0 + 0.0).astype(np.int32))
        assert vol.kind is VolumeKind.LABEL
        assert vol.data.dtype == expected.dtype and vol.data.flags.f_contiguous
        assert vol.data.tobytes() == expected.tobytes()
        as_pet = nifti.read_volume(path, kind=VolumeKind.PET_SUV)
        assert as_pet.data.dtype == np.float64
        assert np.array_equal(as_pet.data, values)

    @pytest.mark.parametrize("datatype, slope, inter", [(2, 2.0, 0.0), (4, 1.0, 5.0)])
    def test_other_scalings_still_apply(self, tmp_path, datatype, slope, inter):
        values = np.arange(64).reshape(4, 4, 4)
        path = raw_file(tmp_path, datatype=datatype, scl_slope=slope, scl_inter=inter, values=values)
        assert np.array_equal(nifti.read_volume(path).data, values * slope + inter)

    def test_mask_read_peak_memory(self, tmp_path):
        import tracemalloc

        path = tmp_path / "mask.nii.gz"
        shape = (64, 64, 80)
        values = self.label_file(path, shape=shape, vmax=1)
        tracemalloc.start()
        try:
            vol = nifti.read_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(vol.data, values)
        int32_volume = values.size * 4
        # file bytes + uint8 grid + int32 result; the float64 path took > 5
        assert peak <= 2.0 * int32_volume, peak / int32_volume


SUPPORTED = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}


def nifti_payload(values, datatype, order="<", slope=1.0, inter=0.0, flipped_axes=(), magic=b"n+1\x00"):
    """Uncompressed bytes of a NIfTI file holding ``values`` x fastest; a
    negative sform diagonal marks each axis in ``flipped_axes``."""
    header = bytearray(minimal_header(datatype=datatype, dim=(3, *values.shape, 1, 1, 1, 1),
                                      scl_slope=slope, scl_inter=inter, order=order, magic=magic))
    if flipped_axes:
        struct.pack_into(order + "h", header, SFORM_CODE_AT, 1)
        for axis in flipped_axes:
            struct.pack_into(order + "f", header, SROW_AT + 20 * axis, -1.0)
    base = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}[datatype]
    return bytes(header) + b"\x00" * 4 + values.astype(np.dtype(base).newbyteorder(order)).tobytes(order="F")


def gzip_members(payload, *cuts, padding=b""):
    """``payload`` as one gzip member per piece between ``cuts``, each
    member followed by ``padding``."""
    bounds = [0, *cuts, len(payload)]
    return b"".join(gzip.compress(payload[a:b]) + padding for a, b in zip(bounds, bounds[1:]))


class TestStreamedDecode:
    """The streamed reader against the whole-volume decode of ``oracles``,
    with conversion steps of a few planes and inflate steps of a few bytes."""

    @pytest.fixture
    def small_steps(self, monkeypatch):
        def steps(plane_bytes, run_planes):
            monkeypatch.setattr(nifti, "_CHUNK", 13)
            monkeypatch.setattr(nifti, "_BLOCK", plane_bytes * run_planes)
        return steps

    @pytest.mark.parametrize("datatype", [2, 4, 16, 64])
    @pytest.mark.parametrize("order", "<>")
    @pytest.mark.parametrize("codec", ["raw", "gzip"])
    def test_matches_whole_volume_decode(self, tmp_path, small_steps, datatype, order, codec):
        rng = np.random.default_rng(datatype)
        base = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}[datatype]
        itemsize = np.dtype(base).itemsize
        path = tmp_path / f"v.nii{'.gz' if codec == 'gzip' else ''}"
        for nz, run in [(1, 3), (7, 3), (8, 1), (5, 5), (4, 9)]:
            small_steps(5 * 4 * itemsize, run)
            shape = (5, 4, nz)
            if datatype in (2, 4):
                values = rng.integers(0, 250 if datatype == 2 else 3000, size=shape)
            else:
                values = rng.normal(0.0, 100.0, size=shape)
                values.flat[::5] = -0.0
            for axes in [(), (0,), (1, 2), (0, 1, 2)]:
                for slope, inter in [(1.0, 0.0), (2.5, -3.0), (0.0, 7.0)]:
                    payload = nifti_payload(values, datatype, order, slope, inter, axes)
                    path.write_bytes(gzip.compress(payload) if codec == "gzip" else payload)
                    want = nifti_voxels(payload, np.dtype(base).newbyteorder(order), shape, axes, slope, inter)
                    got = nifti.read_volume(path, kind=VolumeKind.PET_SUV).data
                    case = f"nz={nz} run={run} axes={axes} slope={slope} inter={inter}"
                    assert got.dtype == np.float64 and got.flags.f_contiguous, case
                    assert got.tobytes() == want.astype(np.float64).tobytes(), case
                    if datatype in (2, 4) and slope in (1.0, 0.0):  # unscaled labels: int32 directly
                        labels = nifti.read_volume(path).data
                        assert labels.dtype == np.int32 and labels.flags.f_contiguous, case
                        assert np.array_equal(labels, want), case

    def test_negative_zero_bits_are_the_whole_volume_decodes(self, tmp_path):
        # -0.0 * 1.0 + 0.0 is +0.0, as it always was; with no scaling, or a
        # -0.0 intercept, the sign bit stays
        values = np.array([-0.0, 0.0, -1.5, 2.0] * 6).reshape(2, 3, 4)
        path = tmp_path / "zeros.nii"
        for slope, inter, negative in [(1.0, 0.0, False), (0.0, 0.0, True), (1.0, -0.0, True)]:
            payload = nifti_payload(values, 16, slope=slope, inter=inter)
            path.write_bytes(payload)
            got = nifti.read_volume(path).data
            want = nifti_voxels(payload, "<f4", values.shape, (), slope, inter).astype(np.float64)
            assert got.tobytes() == want.tobytes()
            assert bool(np.signbit(got[0, 0, 0])) is negative

    def test_multi_member_gzip_with_zero_padding(self, tmp_path, small_steps):
        small_steps(5 * 4 * 4, 2)
        values = np.random.default_rng(1).random((5, 4, 7))
        payload = nifti_payload(values, 16)
        want = nifti_voxels(payload, "<f4", values.shape, (), 1.0, 0.0)
        path = tmp_path / "members.nii.gz"
        for cuts, padding in [((100,), b""), ((200, 352 + 90), b"\x00" * 3)]:
            packed = gzip_members(payload, *cuts, padding=padding)
            assert gzip.decompress(packed) == payload
            path.write_bytes(packed)
            assert nifti.read_volume(path).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("codec", ["raw", "gzip"])
    def test_truncated_mid_plane(self, tmp_path, small_steps, codec):
        small_steps(5 * 4 * 8, 3)
        payload = nifti_payload(np.ones((5, 4, 8)), 64)
        cut = payload[:352 + 5 * 4 * 8 * 5 + 77]  # planes 0-4 and part of plane 5
        path = tmp_path / f"cut.nii{'.gz' if codec == 'gzip' else ''}"
        path.write_bytes(gzip.compress(cut) if codec == "gzip" else cut)
        with pytest.raises(TruncatedData, match=f"need {len(payload)} bytes .* got {len(cut)}"):
            nifti.read_volume(path)

    @pytest.mark.parametrize("fault", ["deflate_byte", "crc", "cut_stream", "crc_after_bad_magic"])
    def test_corrupt_stream(self, tmp_path, small_steps, fault):
        small_steps(16 * 16 * 4, 2)
        values = np.random.default_rng(2).random((16, 16, 12))
        magic = b"n+2\x00" if fault == "crc_after_bad_magic" else b"n+1\x00"
        payload = nifti_payload(values, 16, magic=magic)
        packed = bytearray(gzip.compress(payload))
        if fault == "deflate_byte":
            packed[len(packed) // 2] ^= 0xFF
        elif fault == "cut_stream":
            del packed[len(packed) * 2 // 3:]
        else:  # the CRC, checked only after every voxel was converted
            packed[-8] ^= 0x01
        path = tmp_path / "bad.nii.gz"
        path.write_bytes(bytes(packed))
        with pytest.raises(DecompressFailure, match="bad.nii.gz"):
            nifti.read_volume(path)

    @staticmethod
    def packed_file(tmp_path):
        values = np.random.default_rng(6).random((5, 4, 3))
        path = tmp_path / "v.nii.gz"
        nifti.write_volume(Volume3D(values, (1.0, 1.0, 1.0)), path)
        return path, path.read_bytes(), nifti.read_volume(path).data

    @pytest.mark.parametrize("fault", ["trailing_bytes", "wrong_isize", "magic_only"])
    def test_gzip_container_faults(self, tmp_path, fault):
        path, packed, _ = self.packed_file(tmp_path)
        if fault == "trailing_bytes":  # neither zero padding nor a gzip member
            packed += b"\x01\x02\x03"
        elif fault == "wrong_isize":
            packed = packed[:-4] + struct.pack("<I", len(gzip.decompress(packed)) + 1)
        else:
            packed = b"\x1f\x8b"
        path.write_bytes(packed)
        with pytest.raises(DecompressFailure, match="v.nii.gz"):
            nifti.read_volume(path)

    @pytest.mark.parametrize("content", [b"", b"\x1f"])
    def test_empty_or_one_byte_file(self, tmp_path, content):
        path = tmp_path / "v.nii.gz"
        path.write_bytes(content)
        with pytest.raises(TruncatedData, match=f"v.nii.gz: need 348 header bytes, got {len(content)}"):
            nifti.read_volume(path)

    @pytest.mark.parametrize("mask", [False, True], ids=["volume", "mask"])
    def test_header_shape_does_not_size_the_read(self, tmp_path, mask):
        import tracemalloc

        # one 32767 x 32767 float64 plane would be 8.6 GB; the file holds
        # 4352 bytes, and a read may hold one step beyond what arrived
        packed = bytearray(nifti_payload(np.zeros((5, 10, 10)), 64))
        struct.pack_into("<hh", packed, 42, 32767, 32767)
        path = tmp_path / "huge.nii.gz"
        path.write_bytes(gzip.compress(bytes(packed)))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedData, match=f"huge.nii.gz: need .* got {len(packed)}"):
                nifti.read_volume(path, mask=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * nifti._BLOCK, peak

    def test_trailing_zero_padding_reads(self, tmp_path):
        path, packed, want = self.packed_file(tmp_path)
        path.write_bytes(packed + b"\x00" * 7)
        assert nifti.read_volume(path).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_float_read_peak_memory(self, tmp_path, suffix):
        import tracemalloc

        path = tmp_path / f"pet{suffix}"
        shape = (128, 128, 96)
        data = np.random.default_rng(3).random(shape).astype(np.float32).astype(np.float64)
        nifti.write_volume(Volume3D(data, (2.0, 2.0, 3.0)), path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            vol = nifti.read_volume(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(vol.data, data)
        # the float64 result plus one run of file bytes, freed before the
        # next is read (two runs held took 1.19); a whole-file gunzip,
        # float64 temporaries and a transpose took 2.5
        assert peak <= 1.12 * data.nbytes, peak / data.nbytes


def _outcome(read):
    """What ``read()`` gives: its result, or the class and message of the
    ``IoFailure`` it raised."""
    try:
        return read()
    except IoFailure as exc:
        return type(exc), str(exc)


class TestReadMask:
    """``read_volume(path, mask=True)`` gives the mask, or the fault, of a
    LABEL read followed by the mask conversion, run by run."""

    @staticmethod
    def expected(path, label):
        def read():
            vol = nifti.read_volume(path, kind=VolumeKind.LABEL)
            return BinaryMask(vol.data != 0, vol.spacing) if label is None else BinaryMask.from_label_volume(vol, label)
        return _outcome(read)

    @classmethod
    def assert_same(cls, path, label=None):
        want, got = cls.expected(path, label), _outcome(lambda: nifti.read_volume(path, mask=True, label=label))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.spacing == want.spacing and got.mask.dtype == np.bool_
            assert np.array_equal(got.mask, want.mask)
        return got

    @pytest.fixture
    def runs_of(self, monkeypatch):
        def runs(plane_bytes, run_planes):
            monkeypatch.setattr(nifti, "_CHUNK", 13)
            monkeypatch.setattr(nifti, "_BLOCK", plane_bytes * run_planes)
        return runs

    @pytest.mark.parametrize("datatype", [2, 4, 16, 64])
    @pytest.mark.parametrize("order", "<>")
    @pytest.mark.parametrize("codec", ["raw", "gzip"])
    def test_same_mask_as_the_label_read(self, tmp_path, runs_of, datatype, order, codec):
        rng = np.random.default_rng(datatype)
        runs_of(5 * 4 * np.dtype(SUPPORTED[datatype]).itemsize, 3)
        values = rng.integers(0, 4, size=(5, 4, 7))
        path = tmp_path / f"m.nii{'.gz' if codec == 'gzip' else ''}"
        for axes in [(), (1,), (0, 2)]:
            for slope, inter in [(1.0, 0.0), (0.0, 7.0), (2.0, 1.0), (0.5, 0.0)]:
                payload = nifti_payload(values, datatype, order, slope, inter, axes)
                path.write_bytes(gzip.compress(payload) if codec == "gzip" else payload)
                for label in (None, 1, 3):
                    got = self.assert_same(path, label)
                    if label == 3 and slope in (1.0, 0.0):
                        flipped = np.flip(values, axes) if axes else values
                        assert np.array_equal(got.mask, flipped == 3)

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")  # scaled_inf, on both reads
    @pytest.mark.parametrize("codec", ["raw", "gzip"])
    @pytest.mark.parametrize("fault", ["negative", "fractional", "nan", "inf", "huge", "scaled_inf",
                                       "fractional_then_huge", "negative_then_fractional"])
    def test_same_fault_as_the_label_read(self, tmp_path, runs_of, codec, fault):
        datatype = {"negative": 4, "scaled_inf": 64}.get(fault, 16)
        slope = 3e38 if fault == "scaled_inf" else 1.0
        runs_of(5 * 4 * np.dtype(SUPPORTED[datatype]).itemsize, 2)
        values = np.ones((5, 4, 6))
        first, last = {
            "negative": (None, -1), "fractional": (None, 0.5), "nan": (None, np.nan), "inf": (None, np.inf),
            "huge": (None, 2.0**31), "scaled_inf": (None, 1e300), "fractional_then_huge": (0.5, 2.0**31),
            "negative_then_fractional": (-1, 0.5),
        }[fault]
        if first is not None:
            values[1, 2, 0] = first  # in the first run
        values[3, 1, 5] = last  # in the last run
        payload = nifti_payload(values, datatype, slope=slope)
        path = tmp_path / f"bad.nii{'.gz' if codec == 'gzip' else ''}"
        path.write_bytes(gzip.compress(payload) if codec == "gzip" else payload)
        for label in (None, 1):
            assert isinstance(self.assert_same(path, label), tuple)

    @pytest.mark.parametrize("codec", ["raw", "gzip"])
    def test_a_short_file_is_reported_before_nan(self, tmp_path, runs_of, codec):
        runs_of(5 * 4 * 4, 2)
        values = np.ones((5, 4, 6))
        values[0, 0, 0] = np.nan
        payload = nifti_payload(values, 16)
        path = tmp_path / f"cut.nii{'.gz' if codec == 'gzip' else ''}"
        cut = payload[:352 + 5 * 4 * 4 * 3 + 7]
        path.write_bytes(gzip.compress(cut) if codec == "gzip" else cut)
        assert self.assert_same(path)[0] is TruncatedData

    @pytest.mark.parametrize("fault", ["deflate_byte", "crc", "cut_stream"])
    def test_a_corrupt_stream_is_reported_before_a_bad_value(self, tmp_path, runs_of, fault):
        runs_of(16 * 16 * 4, 2)
        values = np.random.default_rng(2).integers(0, 2, (16, 16, 12)).astype(np.float64)
        values[3, 3, 0] = -0.5  # fractional and negative, in the first run
        packed = bytearray(gzip.compress(nifti_payload(values, 16)))
        if fault == "deflate_byte":
            packed[len(packed) // 2] ^= 0xFF
        elif fault == "cut_stream":
            del packed[len(packed) * 2 // 3:]
        else:
            packed[-8] ^= 0x01
        path = tmp_path / "bad.nii.gz"
        path.write_bytes(bytes(packed))
        assert self.assert_same(path)[0] is DecompressFailure

    def test_header_faults_name_the_file(self, tmp_path):
        path = tmp_path / "v.nii"
        path.write_bytes(nifti_payload(np.ones((2, 2, 2)), 16, magic=b"ni1\x00"))
        assert self.assert_same(path)[0] is BadMagic

    def test_a_mask_is_read_from_label_values(self, tmp_path):
        path = tmp_path / "v.nii"
        path.write_bytes(nifti_payload(np.arange(8).reshape(2, 2, 2), 2))
        assert nifti.read_volume(path, VolumeKind.LABEL, mask=True, label=3).voxel_count == 1
        with pytest.raises(ValueError, match="not PET_SUV"):
            nifti.read_volume(path, VolumeKind.PET_SUV, mask=True)
        with pytest.raises(ValueError, match="pass mask=True"):
            nifti.read_volume(path, label=3)

    def test_read_holds_one_byte_per_voxel(self, tmp_path):
        import tracemalloc

        shape = (128, 128, 96)
        mask = BinaryMask(np.random.default_rng(7).random(shape) < 0.1, (2.0, 2.0, 3.0))
        path = tmp_path / "mask.nii.gz"
        nifti.write_volume(mask, path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = nifti.read_volume(path, mask=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.mask, mask.mask)
        # the bool result plus one run of file bytes (1 MB); an int32
        # volume alone is 4 bytes per voxel
        assert peak <= mask.mask.nbytes + 1.5 * nifti._BLOCK, peak / mask.mask.size


class TestByteMutation:
    """Random bytes of a valid file, header and data alike, are overwritten:
    the reader either raises an ``IoFailure`` or returns a volume with a
    finite, positive spacing. Any other exception is a bug."""

    @staticmethod
    def base_files():
        rng = np.random.default_rng(5)
        pet = Volume3D(rng.random((2, 3, 4)) * 10.0, (1.0, 2.0, 3.0))
        labels = Volume3D(rng.integers(0, 3, size=(3, 2, 4)), (2.0, 2.0, 2.0), VolumeKind.LABEL)
        wide = Volume3D(rng.integers(0, 1000, size=(2, 2, 5)), (1.5, 1.5, 1.5), VolumeKind.LABEL)
        return [pet, labels, wide]

    @settings(max_examples=400, deadline=None)
    @given(which=st.integers(0, 2), byteorder=st.sampled_from("<>"),
           edits=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                          min_size=1, max_size=8))
    def test_mutated_bytes_raise_io_failure_or_read(self, tmp_path_factory, which, byteorder, edits):
        path = tmp_path_factory.getbasetemp() / "mutated.nii"
        nifti.write_volume(self.base_files()[which], path, byteorder=byteorder)
        raw = bytearray(path.read_bytes())
        for at, value in edits:
            raw[at % len(raw)] = value
        path.write_bytes(bytes(raw))
        try:
            vol = nifti.read_volume(path)
        except IoFailure:
            return
        assert all(np.isfinite(s) and s > 0 for s in vol.spacing)


class TestNonFiniteVoxels:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind", [None, VolumeKind.CT_HU, VolumeKind.LABEL])
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_read_raises_io_failure_naming_the_file(self, tmp_path, rng, dtype, kind, value):
        data = rng.random((3, 4, 5))
        data[1, 2, 3] = value
        path = tmp_path / "nan_voxel.nii.gz"
        nifti.write_volume(Volume3D(data, (1.0, 1.0, 1.0)), path, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IoFailure, match="nan_voxel.nii.gz"):
                nifti.read_volume(path, kind=kind)

    def test_big_endian_nan_is_found(self, tmp_path):
        data = np.zeros((2, 3, 4))
        data[0, 0, 0] = np.nan
        path = tmp_path / "be.nii"
        nifti.write_volume(Volume3D(data, (1.0, 1.0, 1.0)), path, byteorder=">")
        with pytest.raises(IoFailure):
            nifti.read_volume(path)

    def test_integer_files_are_not_checked_and_still_read(self, tmp_path):
        path = tmp_path / "labels.nii"
        nifti.write_volume(Volume3D(np.arange(24).reshape(2, 3, 4), (1, 1, 1), VolumeKind.LABEL), path)
        assert nifti.read_volume(path).data.max() == 23

    def test_cli_exit_2(self, tmp_path, capsys):
        data = np.ones((3, 3, 3))
        data[2, 2, 2] = np.nan
        path = tmp_path / "nan_pet.nii"
        nifti.write_volume(Volume3D(data, (1.0, 1.0, 1.0)), path)
        assert cli.main(["inspect", str(path)]) == 2
        assert "nan_pet.nii" in capsys.readouterr().err


def test_import_loads_only_what_the_reader_uses():
    # a fresh interpreter: this one has imported every petseg module already
    probe = "import sys, petseg.nifti; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'petseg'))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["petseg", "petseg.blas", "petseg.errors", "petseg.manifest", "petseg.nifti",
                           "petseg.volume"]
