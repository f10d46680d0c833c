"""Unit tests for repro._util fixed-width arithmetic and helpers."""

import numpy as np
import pytest

from repro._util import (
    as_bytes,
    as_bytes_list,
    chunked,
    iter_ints,
    mum,
    next_power_of_two,
    read_u32_le,
    read_u64_le,
    require_fraction,
    require_positive,
    rotl32,
    rotl64,
    rotr64,
    u32,
    u64,
)


class TestTruncation:
    def test_u64_masks_to_64_bits(self):
        assert u64(2**64) == 0
        assert u64(2**64 + 5) == 5
        assert u64(-1) == 2**64 - 1

    def test_u32_masks_to_32_bits(self):
        assert u32(2**32) == 0
        assert u32(0xDEADBEEFCAFE) == 0xBEEFCAFE

    def test_u64_identity_below_mask(self):
        assert u64(12345) == 12345


class TestRotations:
    def test_rotl64_by_zero_bits_is_almost_identity(self):
        # r=0 would shift by 64 which is undefined in C; we only use r>=1.
        assert rotl64(1, 1) == 2

    def test_rotl64_wraps_high_bit(self):
        assert rotl64(1 << 63, 1) == 1

    def test_rotr64_inverse_of_rotl64(self):
        value = 0x0123456789ABCDEF
        for r in (1, 7, 31, 63):
            assert rotr64(rotl64(value, r), r) == value

    def test_rotl32_wraps(self):
        assert rotl32(1 << 31, 1) == 1
        assert rotl32(0x80000001, 4) == 0x18


class TestMum:
    def test_mum_matches_manual_128bit(self):
        a, b = 0xDEADBEEF12345678, 0xCAFEBABE87654321
        product = a * b
        assert mum(a, b) == (product >> 64) ^ (product & (2**64 - 1))

    def test_mum_zero(self):
        assert mum(0, 12345) == 0

    def test_mum_truncates_inputs(self):
        assert mum(2**64 + 3, 5) == mum(3, 5)


class TestReads:
    def test_read_u64_le(self):
        data = bytes(range(1, 17))
        assert read_u64_le(data, 0) == int.from_bytes(data[:8], "little")
        assert read_u64_le(data, 8) == int.from_bytes(data[8:16], "little")

    def test_read_u32_le(self):
        assert read_u32_le(b"\x01\x00\x00\x00rest", 0) == 1


class TestAsBytes:
    def test_bytes_passthrough(self):
        assert as_bytes(b"abc") == b"abc"

    def test_str_utf8(self):
        assert as_bytes("héllo") == "héllo".encode("utf-8")

    def test_bytearray_and_memoryview(self):
        assert as_bytes(bytearray(b"xy")) == b"xy"
        assert as_bytes(memoryview(b"xy")) == b"xy"

    def test_rejects_int(self):
        with pytest.raises(TypeError):
            as_bytes(42)

    def test_as_bytes_list(self):
        assert as_bytes_list(["a", b"b"]) == [b"a", b"b"]


class TestValidation:
    def test_require_positive_accepts(self):
        assert require_positive("n", 3) == 3

    def test_require_positive_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            require_positive("n", 0)
        with pytest.raises(ValueError):
            require_positive("n", -1)

    def test_require_positive_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            require_positive("n", True)
        with pytest.raises(TypeError):
            require_positive("n", 1.5)

    def test_require_fraction(self):
        assert require_fraction("f", 0.5) == 0.5
        with pytest.raises(ValueError):
            require_fraction("f", 0.0)
        with pytest.raises(ValueError):
            require_fraction("f", 1.0)


class TestMisc:
    def test_next_power_of_two(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4
        assert next_power_of_two(1025) == 2048

    def test_chunked(self):
        assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]

    def test_chunked_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(chunked([1], 0))

    @pytest.mark.parametrize("n", [0, 1, 4096, 4097, 10_000])
    def test_iter_ints_walks_a_column_as_python_ints(self, n):
        column = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        walked = list(iter_ints(column))
        assert walked == column.tolist()
        assert all(type(value) is int for value in walked)
        assert iter_ints(walked) is walked
