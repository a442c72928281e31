import warnings

import numpy as np
import pytest

from petseg.errors import ValidationError
from petseg.volume import Volume3D, VolumeKind


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
