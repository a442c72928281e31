import copy
import pickle
import warnings

import numpy as np
import pytest

from petseg.errors import ValidationError
from petseg.orchestrator import flip_volume
from petseg.preprocess import MipImage
from petseg.volume import LABEL_FAULTS, BinaryMask, Volume3D, VolumeKind


class TestLabelValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e20])
    def test_non_finite_or_huge_fails_without_a_warning(self, bad):
        data = np.zeros((3, 4, 5))
        data[1, 2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                Volume3D(data, (1.0, 1.0, 1.0), VolumeKind.LABEL)

    def test_float32_two_to_the_31_fails_without_a_warning(self):
        # 2**31 does not fit in int32, and an int bound rounded to float32
        # would let it through to the cast
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[1, 1, 1] = 2.0**31
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                Volume3D(data, (1.0, 1.0, 1.0), VolumeKind.LABEL)

    def test_value_that_rounds_to_two_to_the_31_fails_without_a_warning(self):
        data = np.zeros((2, 2, 2))
        data[1, 1, 1] = 2.0**31 - 0.5  # rint gives 2**31
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                Volume3D(data, (1.0, 1.0, 1.0), VolumeKind.LABEL)

    def test_int32_extremes_pass_the_range_check(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[1, 1, 1] = 2.0**31 - 128  # the largest float32 below 2**31
        vol = Volume3D(data, (1.0, 1.0, 1.0), VolumeKind.LABEL)
        assert vol.data.max() == 2**31 - 128

    def test_integral_floats_become_int32(self):
        vol = Volume3D(np.full((2, 2, 2), 3.0), (1.0, 1.0, 1.0), VolumeKind.LABEL)
        assert vol.data.dtype == np.int32
        assert np.all(vol.data == 3)

    @pytest.mark.parametrize("bad, match", [(0.5, "integers"), (-1.0, "nonnegative")])
    def test_fractional_and_negative_still_fail(self, bad, match):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = bad
        with pytest.raises(ValidationError, match=match):
            Volume3D(data, (1.0, 1.0, 1.0), VolumeKind.LABEL)

    @pytest.mark.parametrize("value, dtype", [(2**32 + 5, np.int64), (2**31, np.uint32), (2**63, np.uint64)])
    def test_wide_integers_beyond_int32_fail_instead_of_wrapping(self, value, dtype):
        # the int32 cast would make these 5, -2147483648 and 0
        data = np.zeros((2, 2, 2), dtype=dtype)
        data[1, 0, 1] = value
        with pytest.raises(ValidationError) as err:
            Volume3D(data, (1.0, 1.0, 1.0), VolumeKind.LABEL)
        assert str(err.value) == LABEL_FAULTS[0]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64])
    def test_wide_integers_within_int32_read_as_they_are(self, dtype):
        data = np.zeros((2, 2, 2), dtype=dtype)
        data[1, 0, 1] = 2**31 - 1
        assert Volume3D(data, (1.0, 1.0, 1.0), VolumeKind.LABEL).data.max() == 2**31 - 1


def built():
    """The array passed in, and the values built on it, for each type and view."""
    data = np.arange(1, 25, dtype=np.float64).reshape(2, 3, 4)
    mask = data > 10
    pixels = np.ones((5, 6))
    vol = Volume3D(data, (1.0, 1.0, 1.0))
    return {
        "Volume3D.data": (data, vol.data),
        "with_data": (data, vol.with_data(data).data),
        "flip_volume": (data, flip_volume(vol, "xz").data),
        "BinaryMask.mask": (mask, BinaryMask(mask, (1.0, 1.0, 1.0)).mask),
        "BinaryMask.data": (mask, BinaryMask(mask, (1.0, 1.0, 1.0)).data),
        "MipImage.pixels": (pixels, MipImage(pixels, (1.0, 1.0)).pixels),
    }


class TestReadOnly:
    @pytest.mark.parametrize("name", built())
    def test_writing_through_a_value_raises(self, name):
        _, values = built()[name]
        with pytest.raises(ValueError, match="read-only"):
            values[...] = 0

    @pytest.mark.parametrize("name", built())
    def test_the_array_passed_in_stays_writable_and_shared(self, name):
        source, values = built()[name]
        assert source.flags.writeable
        assert np.shares_memory(source, values)
        source[...] = 0
        assert not values.any()

    def test_a_converted_array_is_read_only_too(self):
        for values in (Volume3D(np.zeros((2, 2, 2), dtype=np.float32), (1.0, 1.0, 1.0)).data,
                       Volume3D(np.zeros((2, 2, 2)), (1.0, 1.0, 1.0), VolumeKind.LABEL).data,
                       BinaryMask(np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0)).mask):
            assert not values.flags.writeable

    @pytest.mark.parametrize("copy_of", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_a_copy_is_read_only_too(self, copy_of):
        data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        for value, name in ((Volume3D(data, (1.0, 2.0, 3.0), VolumeKind.LABEL), "data"),
                            (Volume3D(data, (1.0, 2.0, 3.0)), "data"),
                            (BinaryMask(data > 10, (1.0, 2.0, 3.0)), "mask"),
                            (MipImage(data[0], (2.0, 3.0)), "pixels")):
            copied = copy_of(value)
            values = getattr(copied, name)
            assert type(copied) is type(value) and not values.flags.writeable
            assert values.dtype == getattr(value, name).dtype and np.array_equal(values, getattr(value, name))
            assert {k: v for k, v in vars(copied).items() if k != name} == \
                {k: v for k, v in vars(value).items() if k != name}
