"""Bit-exactness and packing tests for the numpy batch kernels.

Kernels are reached through the engine's plan pass
(``HashEngine.full_key(base).hash_batch``) and packed by its one packer
(:mod:`repro.engine.plan`).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hasher import EntropyLearnedHasher
from repro.core.partial_key import PartialKeyFunction
from repro.engine import HashEngine
from repro.engine.engine import SCALAR_CUTOVER
from repro.engine.plan import (
    compile_fixed_plan,
    compile_subkey_plan,
    join_keys,
)
from repro.hashing.crc import crc32_hash64
from repro.hashing.vectorized import (
    BATCH_KERNELS,
    has_batch_kernel,
    mul128,
    mum_vec,
    words_per_key,
)
from repro.hashing.murmur import murmur3_64
from repro.hashing.wyhash import wyhash64
from repro.hashing.xxhash import xxh3_64, xxh64

SCALARS = {
    "wyhash": wyhash64,
    "xxh3": xxh3_64,
    "crc32": crc32_hash64,
    "xxh64": xxh64,
    "murmur3": murmur3_64,
}


def kernel_hashes(keys, name, seed=0):
    """Full-key hashes of ``keys`` through the engine's plan pass.

    The keys are repeated up to the base's ``SCALAR_CUTOVER``, so the
    numpy kernels, not the scalar loop, produce every hash.
    """
    copies = -(-SCALAR_CUTOVER[name] // len(keys))
    return HashEngine.full_key(name, seed=seed).hash_batch(keys * copies)


def packed_rows(plan, keys):
    """The rows ``plan`` hands its kernel for ``keys``."""
    blob, starts, lengths = join_keys(keys)
    return plan.rows(blob, starts, lengths)


class TestMul128:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=200)
    def test_matches_python_bigint(self, a, b):
        low, high = mul128(np.array([a], dtype=np.uint64), np.uint64(b))
        product = a * b
        assert int(low[0]) == product & (2**64 - 1)
        assert int(high[0]) == product >> 64

    def test_mum_vec_matches_scalar(self):
        from repro._util import mum

        a = np.array([0xDEADBEEF, 2**63, 1, 0], dtype=np.uint64)
        b = np.uint64(0x12345678ABCDEF01)
        result = mum_vec(a, b)
        for i, value in enumerate(a):
            assert int(result[i]) == mum(int(value), int(b))


class TestBitExactness:
    """Every batch kernel must equal its scalar function, byte for byte."""

    LENGTHS = list(range(0, 70)) + [100, 128, 129, 255, 1000]

    @pytest.mark.parametrize("name", sorted(BATCH_KERNELS))
    def test_exhaustive_lengths(self, name):
        rng = random.Random(11)
        scalar = SCALARS[name]
        keys = [bytes(rng.randrange(256) for _ in range(n)) for n in self.LENGTHS]
        batch = kernel_hashes(keys, name, seed=0)
        for i, key in enumerate(keys):
            assert int(batch[i]) == scalar(key, 0), f"len={len(key)}"

    @pytest.mark.parametrize("name", sorted(BATCH_KERNELS))
    @pytest.mark.parametrize("seed", [1, 0xDEADBEEF, 2**64 - 1])
    def test_seeds(self, name, seed):
        rng = random.Random(12)
        scalar = SCALARS[name]
        keys = [bytes(rng.randrange(256) for _ in range(n)) for n in (0, 5, 16, 47, 90)]
        batch = kernel_hashes(keys, name, seed=seed)
        for i, key in enumerate(keys):
            assert int(batch[i]) == scalar(key, seed)

    @given(st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_property_wyhash(self, keys):
        batch = kernel_hashes(keys, "wyhash", seed=7)
        for i, key in enumerate(keys):
            assert int(batch[i]) == wyhash64(key, 7)

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="no batch kernel"):
            compile_fixed_plan(1, "fnv1a")

    def test_has_batch_kernel(self):
        assert has_batch_kernel("wyhash")
        assert not has_batch_kernel("fnv1a")


class TestPackMatrix:
    """The engine's packer: rows gathered from one join of the keys."""

    def test_zero_pads_short_keys(self):
        # A 6-byte subkey row (prefix + one 2-byte word) is padded with
        # zeros to 8 bytes.
        plan = compile_subkey_plan(PartialKeyFunction((0,), 2), "wyhash")
        matrix = packed_rows(plan, [b"ab", b"abcd"])
        assert matrix.shape == (2, 8)
        assert list(matrix[0]) == [2, 0, 0, 0, ord("a"), ord("b"), 0, 0]
        assert list(matrix[1]) == [4, 0, 0, 0, ord("a"), ord("b"), 0, 0]

    def test_truncates_long_keys(self):
        matrix = packed_rows(compile_fixed_plan(3, "wyhash"), [b"abcdef"])
        assert matrix.shape == (1, 3)
        assert bytes(matrix[0]) == b"abc"

    def test_fixed_rows_are_the_key_length(self):
        plan = compile_fixed_plan(5, "wyhash")
        matrix = packed_rows(plan, [b"abcde", b"vwxyz"])
        assert matrix.shape == (2, 5)
        assert [bytes(row) for row in matrix] == [b"abcde", b"vwxyz"]

    def test_empty_keys(self):
        matrix = packed_rows(compile_fixed_plan(0, "wyhash"), [b"", b""])
        assert matrix.shape == (2, 0)
        assert matrix.sum() == 0
        keys = [b""] * 4
        assert list(kernel_hashes(keys, "wyhash")[:4]) == [
            wyhash64(k) for k in keys]

    def test_join_normalizes_keys_once(self):
        blob, starts, lengths = join_keys([b"ab", "é", bytearray(b"xy")])
        assert blob == b"ab" + "é".encode() + b"xy"
        assert starts.tolist() == [0, 2, 4]
        assert lengths.tolist() == [2, 2, 2]


class TestGatherWords:
    """One row gather per learned position, from the joined keys."""

    def test_reads_little_endian(self):
        plan = compile_subkey_plan(PartialKeyFunction((0, 8), 8), "wyhash")
        matrix = packed_rows(plan, [bytes(range(1, 17))])
        words = matrix[:, 4:20].copy().view("<u8")
        assert int(words[0, 0]) == int.from_bytes(bytes(range(1, 9)), "little")
        assert int(words[0, 1]) == int.from_bytes(bytes(range(9, 17)), "little")

    def test_positions_past_the_end_take_the_full_key_branch(self):
        # PartialKeyFunction.subkey zero-pads past the end, but the hash
        # never reads that subkey: a key ending before a learned word is
        # hashed whole, and the packer never sees it.
        hasher = EntropyLearnedHasher.from_positions((10,), word_size=8)
        keys = [b"abc"] * SCALAR_CUTOVER["wyhash"]
        engine = HashEngine(hasher)
        assert [int(h) for h in engine.hash_batch(keys)] == [
            wyhash64(k, hasher.seed) for k in keys]
        assert engine.stats()["short_key_fallbacks"] == len(keys)

    def test_partial_word_at_boundary(self):
        # A word ending on a key's last byte reads no byte of the next.
        plan = compile_subkey_plan(PartialKeyFunction((2,), 2), "wyhash")
        matrix = packed_rows(plan, [b"abcd", b"WXYZ"])
        assert bytes(matrix[0, 4:6]) == b"cd"
        assert bytes(matrix[1, 4:6]) == b"YZ"

    def test_word_size_validation(self):
        with pytest.raises(ValueError):
            PartialKeyFunction((0,), word_size=3)

    @pytest.mark.parametrize("word_size", [1, 2, 4, 8])
    def test_word_sizes(self, word_size):
        plan = compile_subkey_plan(PartialKeyFunction((4,), word_size), "wyhash")
        matrix = packed_rows(plan, [bytes(range(16))])
        expected = bytes(range(4, 4 + word_size))
        assert bytes(matrix[0, 4:4 + word_size]) == expected


class TestWordsPerKey:
    def test_full_key_counts_words(self):
        assert words_per_key([b"x" * 8, b"x" * 16]) == 1.5

    def test_rounds_up_partial_words(self):
        assert words_per_key([b"x" * 9]) == 2.0

    def test_positions_override(self):
        assert words_per_key([b"x" * 100], positions=[0, 8]) == 2.0

    def test_empty_corpus(self):
        assert words_per_key([]) == 0.0


class TestExtendedKernels:
    """XXH64 and Murmur3 batch kernels, added beyond the paper's three."""

    LENGTHS = list(range(0, 70)) + [100, 129, 255, 513]

    @pytest.mark.parametrize("name,scalar_name", [
        ("xxh64", "xxh64"), ("murmur3", "murmur3"),
    ])
    def test_bit_exact(self, name, scalar_name):
        from repro.hashing.murmur import murmur3_64
        from repro.hashing.xxhash import xxh64

        scalars = {"xxh64": xxh64, "murmur3": murmur3_64}
        rng = random.Random(31)
        keys = [bytes(rng.randrange(256) for _ in range(n)) for n in self.LENGTHS]
        batch = kernel_hashes(keys, name, seed=5)
        scalar = scalars[scalar_name]
        for i, key in enumerate(keys):
            assert int(batch[i]) == scalar(key, 5), f"len={len(key)}"

    def test_all_five_kernels_registered(self):
        for name in ("wyhash", "xxh3", "crc32", "xxh64", "murmur3"):
            assert has_batch_kernel(name)

    def test_elh_hasher_with_xxh64_batch(self):
        from repro.core.hasher import EntropyLearnedHasher

        h = EntropyLearnedHasher.from_positions([8], base="xxh64", seed=2)
        keys = [bytes(range(i, i + 30)) for i in range(20)]
        batch = h.hash_batch(keys)
        assert all(int(batch[i]) == h(k) for i, k in enumerate(keys))
