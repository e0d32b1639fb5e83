"""Bit-packing: exact roundtrips for every geometry, capacity accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitpack import BitPackedMatrix


class TestGeometry:
    def test_row_bytes_word_rounding(self):
        bp = BitPackedMatrix(4, 150, 10)  # 1500 bits -> 24 words
        assert bp.words_per_row == 24
        assert bp.row_bytes == 192
        assert bp.row_bits == 1500

    def test_single_field(self):
        bp = BitPackedMatrix(2, 1, 12)
        assert bp.words_per_row == 1

    def test_nbytes(self):
        bp = BitPackedMatrix(10, 8, 8)
        assert bp.nbytes == 10 * bp.words_per_row * 8

    @pytest.mark.parametrize("bits", [0, 64, -1])
    def test_rejects_bad_bits(self, bits):
        with pytest.raises(ValueError):
            BitPackedMatrix(1, 4, bits)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            BitPackedMatrix(-1, 4, 8)


class TestRoundtrip:
    def test_straddling_words(self):
        rng = np.random.default_rng(0)
        bp = BitPackedMatrix(8, 13, 11)  # 143 bits: codes straddle words
        codes = rng.integers(0, 2**11, size=(8, 13))
        bp.set_rows(np.arange(8), codes)
        assert np.array_equal(bp.get_rows(np.arange(8)), codes)

    def test_max_values(self):
        bp = BitPackedMatrix(1, 5, 7)
        codes = np.full((1, 5), 127)
        bp.set_rows(np.array([0]), codes)
        assert np.array_equal(bp.get_rows(np.array([0])), codes)

    def test_overwrite_slot(self):
        bp = BitPackedMatrix(2, 3, 4)
        bp.set_rows(np.array([1]), np.array([[1, 2, 3]]))
        bp.set_rows(np.array([1]), np.array([[4, 5, 6]]))
        assert bp.get_rows(np.array([1])).tolist() == [[4, 5, 6]]

    def test_rejects_code_overflow(self):
        bp = BitPackedMatrix(1, 2, 3)
        with pytest.raises(ValueError):
            bp.set_rows(np.array([0]), np.array([[8, 0]]))

    def test_rejects_negative_codes(self):
        bp = BitPackedMatrix(1, 2, 3)
        with pytest.raises(ValueError):
            bp.set_rows(np.array([0]), np.array([[-1, 0]]))

    def test_rejects_bad_slot(self):
        bp = BitPackedMatrix(2, 2, 3)
        with pytest.raises(IndexError):
            bp.set_rows(np.array([5]), np.array([[0, 0]]))
        with pytest.raises(IndexError):
            bp.get_rows(np.array([-1]))

    def test_rejects_wrong_field_count(self):
        bp = BitPackedMatrix(1, 3, 4)
        with pytest.raises(ValueError):
            bp.set_rows(np.array([0]), np.array([[1, 2]]))

    @given(
        n_fields=st.integers(1, 40),
        bits=st.integers(1, 63),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_roundtrip(self, n_fields, bits, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6))
        bp = BitPackedMatrix(rows, n_fields, bits)
        high = min(2**bits, 2**62)
        codes = rng.integers(0, high, size=(rows, n_fields))
        bp.set_rows(np.arange(rows), codes)
        assert np.array_equal(bp.get_rows(np.arange(rows)), codes)

    def test_rows_independent(self):
        rng = np.random.default_rng(1)
        bp = BitPackedMatrix(30, 9, 6)
        codes = rng.integers(0, 64, size=(30, 9))
        bp.set_rows(np.arange(30), codes)
        bp.set_rows(np.array([7]), np.zeros((1, 9), dtype=int))
        codes[7] = 0
        assert np.array_equal(bp.get_rows(np.arange(30)), codes)


class TestUnpackLayout:
    """``get_rows``/``unpack_words`` hand kernels C-ordered int64 codes."""

    @pytest.mark.parametrize("bits", range(1, 64))
    def test_every_width_round_trips_c_contiguous(self, bits):
        rng = np.random.default_rng(bits)
        n_fields = 150  # wide enough that most widths spill across words
        bp = BitPackedMatrix(12, n_fields, bits)
        top = 2**bits - 1
        codes = rng.integers(0, top, size=(12, n_fields), endpoint=True)
        codes[0] = top  # every bit of every field set
        codes[1] = 0
        bp.set_rows(np.arange(12), codes)
        slots = np.array([3, 0, 11, 1, 3])
        got = bp.get_rows(slots)
        assert got.dtype == np.int64
        assert got.shape == (len(slots), n_fields)
        assert got.flags.c_contiguous
        assert np.array_equal(got, codes[slots])
        spilling = bp.field_geometry()[2] > 0
        if spilling.any():
            assert np.array_equal(got[:, spilling], codes[slots][:, spilling])

    def test_single_row_words_and_empty_selection(self):
        bp = BitPackedMatrix(3, 13, 11)
        codes = np.arange(39).reshape(3, 13)
        bp.set_rows(np.arange(3), codes)
        one = bp.unpack_words(bp.words[2])
        assert one.shape == (1, 13) and one.flags.c_contiguous
        assert np.array_equal(one[0], codes[2])
        empty = bp.get_rows(np.empty(0, dtype=np.int64))
        assert empty.shape == (0, 13) and empty.dtype == np.int64

    @pytest.mark.parametrize("tau", [5, 7, 8])
    def test_table_gather_packed_bounds_equal_decode(self, tau):
        from repro.core.builders import build_equidepth
        from repro.core.domain import ValueDomain
        from repro.core.encoder import GlobalHistogramEncoder
        from repro.core.kernels import DecodeKernel, TableGatherKernel

        rng = np.random.default_rng(tau)
        dim = 37
        points = np.rint(rng.uniform(0, 255, size=(90, dim)))
        enc = GlobalHistogramEncoder(
            build_equidepth(ValueDomain.from_points(points), 2**tau), dim
        )
        assert enc.bits == tau
        codes = enc.encode(points)
        store = BitPackedMatrix(len(codes), enc.n_fields, enc.bits)
        store.set_rows(np.arange(len(codes)), codes)
        slots = rng.permutation(len(codes))[:50]
        queries = rng.uniform(-10, 265, size=(5, dim))
        want = DecodeKernel().bounds(queries, codes[slots], enc)
        got = TableGatherKernel().packed_bounds(queries, store, slots, enc)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])
