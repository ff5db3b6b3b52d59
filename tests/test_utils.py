"""Unit tests for repro.utils."""

import math

import numpy as np
import pytest

from repro.utils.arrays import narrowest_copy
from repro.utils.stats import Counter, geometric_mean
from repro.utils.units import ceil_div, is_power_of_two, log2_exact


class TestGeometricMean:
    def test_single_value(self):
        assert geometric_mean([4.0]) == pytest.approx(4.0)

    def test_known_pair(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_invariant_to_order(self):
        values = [0.5, 2.0, 3.0, 7.5]
        assert geometric_mean(values) == pytest.approx(
            geometric_mean(list(reversed(values)))
        )

    def test_log_identity(self):
        values = [1.5, 2.5, 3.5]
        expected = math.exp(sum(math.log(v) for v in values) / 3)
        assert geometric_mean(values) == pytest.approx(expected)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("x")
        c.add("x", 2.5)
        assert c.get("x") == pytest.approx(3.5)
        assert c.get("missing") == 0.0

    def test_merge(self):
        a = Counter(reads=2)
        b = Counter(reads=3, writes=1)
        a.merge(b)
        assert a.get("reads") == 5
        assert a.get("writes") == 1

    def test_as_dict_is_copy(self):
        c = Counter(x=1)
        d = c.as_dict()
        d["x"] = 99
        assert c.get("x") == 1


class TestUnits:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert not is_power_of_two(-8)

    def test_log2_exact(self):
        assert log2_exact(1) == 0
        assert log2_exact(64) == 6
        with pytest.raises(ValueError):
            log2_exact(3)

    def test_ceil_div(self):
        assert ceil_div(0, 8) == 0
        assert ceil_div(1, 8) == 1
        assert ceil_div(8, 8) == 1
        assert ceil_div(9, 8) == 2
        with pytest.raises(ValueError):
            ceil_div(1, 0)


class TestNarrowestCopy:
    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([-1, 15], np.int8),  # signed sentinel + small values
            ([0, 255], np.uint8),
            ([-1, 1 << 19], np.int32),
            ([0, 1 << 40], np.int64),  # no narrower type holds it
            ([-(1 << 63), (1 << 63) - 1], np.int64),
        ],
    )
    def test_dtype_and_values(self, values, dtype):
        arr = np.asarray(values, dtype=np.int64)
        out = narrowest_copy(arr)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, arr)

    def test_constant_array_is_one_broadcast_value(self):
        arr = np.full((4, 3), 7, dtype=np.int64)
        out = narrowest_copy(arr)
        assert out.shape == arr.shape and out.strides == (0, 0)
        widened = np.zeros_like(arr)
        np.copyto(widened, out)
        np.testing.assert_array_equal(widened, arr)

    @pytest.mark.parametrize(
        "arr",
        [np.array([True, False]), np.array([0.5, 1.5]), np.empty(0, np.int64)],
    )
    def test_other_arrays_copied_unchanged(self, arr):
        out = narrowest_copy(arr)
        assert out.dtype == arr.dtype and out is not arr
        np.testing.assert_array_equal(out, arr)
        if arr.size:
            assert not np.shares_memory(out, arr)

