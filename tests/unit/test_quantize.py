"""Unit and property tests for the fixed-point quantizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.quantize import Quantizer
from repro.errors import ParameterError

normalized = st.floats(min_value=-0.499, max_value=0.499,
                       allow_nan=False, allow_infinity=False)


class TestConstruction:
    def test_rejects_tiny_width(self):
        with pytest.raises(ParameterError):
            Quantizer(value_bits=4)

    def test_rejects_mantissa_overflow(self):
        # value_bits + avg_extra_bits must stay within the double mantissa.
        with pytest.raises(ParameterError):
            Quantizer(value_bits=48, avg_extra_bits=8)

    def test_exposed_widths(self):
        q = Quantizer(32, 8)
        assert q.value_bits == 32
        assert q.avg_key_bits == 40
        assert q.resolution == pytest.approx(2.0 ** -32)


class TestRoundTrips:
    @given(st.integers(0, 2**32 - 1))
    def test_quantize_dequantize_exact(self, cell):
        """The midpoint rule makes q -> v -> q the identity."""
        q = Quantizer(32)
        assert q.quantize(q.dequantize(cell)) == cell

    @given(normalized)
    def test_dequantize_error_below_resolution(self, v):
        q = Quantizer(32)
        assert abs(q.requantize(v) - v) <= q.resolution

    @given(normalized, normalized)
    def test_quantization_is_monotone(self, a, b):
        q = Quantizer(24)
        if a <= b:
            assert q.quantize(a) <= q.quantize(b)

    def test_out_of_range_clipped(self):
        q = Quantizer(16)
        assert q.quantize(5.0) == 2**16 - 1
        assert q.quantize(-5.0) == 0

    def test_dequantize_rejects_out_of_range(self):
        q = Quantizer(16)
        with pytest.raises(ParameterError):
            q.dequantize(2**16)
        with pytest.raises(ParameterError):
            q.dequantize(-1)


class TestArrayForms:
    def test_array_matches_scalar(self):
        q = Quantizer(32)
        values = np.linspace(-0.49, 0.49, 101)
        array_result = q.quantize_array(values)
        scalar_result = [q.quantize(float(v)) for v in values]
        assert array_result.tolist() == scalar_result

    def test_dequantize_array_matches_scalar(self):
        q = Quantizer(32)
        cells = np.arange(0, 1000, 37)
        array_result = q.dequantize_array(cells)
        scalar_result = [q.dequantize(int(c)) for c in cells]
        assert np.array_equal(array_result, np.asarray(scalar_result))

    def test_dequantize_array_rejects_out_of_range(self):
        q = Quantizer(16)
        with pytest.raises(ParameterError):
            q.dequantize_array([0, 2**16])


class TestMsbHelpers:
    def test_msb_of_value(self):
        q = Quantizer(32)
        # v = 0 quantizes to mid-range => top bit set.
        assert q.msb(0.0, 1) == 1

    @given(normalized, normalized)
    def test_abs_msb_monotone_in_magnitude(self, a, b):
        q = Quantizer(32)
        if abs(a) <= abs(b):
            assert q.abs_msb(a, 16) <= q.abs_msb(b, 16)


class TestAverageKey:
    def test_singleton_key_matches_scalar_form(self):
        q = Quantizer(32, 8)
        v = q.dequantize(12345678)
        assert q.average_key([v]) == q.average_key_scalar(v)

    def test_singleton_key_integer_form(self):
        """``average_key`` of one dequantized cell is ``(q << e) | 2^(e-1)``.

        The pruned multi-hash search keys its length-1 runs with this
        integer form.  It holds for every allowed width pair because
        dequantize, +0.5, the 2^(b+e) scaling and the floor are all exact
        while b + e <= 52, and the clamp never fires.
        """
        rng = np.random.default_rng(20261017)
        for bits in range(8, 49):
            max_q = (1 << bits) - 1
            for extra in range(1, 53 - bits):
                quantizer = Quantizer(bits, extra)
                randoms = [int(rng.integers(0, max_q, endpoint=True))
                           for _ in range(4)]
                for q in (0, max_q, *randoms):
                    assert (q << extra) | (1 << (extra - 1)) == \
                        quantizer.average_key([quantizer.dequantize(q)]), \
                        (bits, extra, q)

    def test_key_changes_with_single_lsb_step(self):
        """One quantization-step change in one member must move the key.

        This is the property that makes the multi-hash search able to
        steer every constrained average (Sec 4.3).
        """
        q = Quantizer(32, 8)
        members = [q.dequantize(2**31 + i) for i in range(5)]
        bumped = list(members)
        bumped[2] = q.dequantize(2**31 + 2 + 1)
        assert q.average_key(members) != q.average_key(bumped)

    def test_key_deterministic_across_slicing(self):
        """Embedder (1-D slice) and attacker (reshaped row) agree."""
        q = Quantizer(32, 8)
        rng = np.random.default_rng(5)
        data = q.dequantize_array(rng.integers(0, 2**32, size=30))
        flat_key = q.average_key(data[6:12])
        row = data[:30].reshape(5, 6)[1]
        assert q.average_key(row) == flat_key

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            Quantizer(32).average_key([])

    def test_short_range_sums_left_to_right(self):
        # 0.1 + 1e6 - 1e6 rounds away from 0.1 in plain double adds; a
        # compensated sum (Python 3.12's ``sum``) would return 0.1 and
        # key differently from numpy's mean of the same doubles.
        q = Quantizer(32, 8)
        values = [0.1, 1e6, -1e6]
        assert q.average_key(values) == \
            q.average_key_array([np.mean(values)]).tolist()[0]
        assert q.average_key(values) != q.mean_key(0.1 / 3)


class TestNonFiniteKeys:
    """Received values outside the domain: ±inf saturates, NaN raises."""

    @pytest.mark.parametrize("value, key", [(np.inf, (1 << 40) - 1),
                                            (-np.inf, 0)])
    def test_infinities_saturate_on_every_path(self, value, key):
        q = Quantizer(32, 8)
        assert q.average_key_scalar(value) == key
        assert q.average_key([0.1, value, 0.2]) == key
        assert q.average_key([0.1] * 9 + [value]) == key
        assert q.average_key_array([value]).tolist() == [key]

    @pytest.mark.parametrize("values", [[np.nan], [0.1, np.nan, 0.2],
                                        [np.inf, -np.inf],
                                        [0.1] * 9 + [np.nan]])
    def test_nan_average_raises_on_every_path(self, values):
        q = Quantizer(32, 8)
        with pytest.raises(ParameterError, match="nan"):
            q.average_key(values)
        if len(values) == 1:
            with pytest.raises(ParameterError, match="nan"):
                q.average_key_scalar(values[0])
            with pytest.raises(ParameterError, match="nan"):
                q.average_key_array(values)
