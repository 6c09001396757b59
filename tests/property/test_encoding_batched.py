"""Property tests: batched encoding hot paths == retained scalar oracles.

The PR-8 performance work batched the multi-hash search/detection and
table-backed the quadratic-residue prefix checks.  The scalar code
paths were kept verbatim (``batched=False`` / ``*_scalar`` methods) as
oracles; these tests pin the batched paths to them bit-for-bit:

* multihash pruned + random embeds: identical chosen configuration,
  identical :class:`MultihashStats` (iterations, hash evaluations),
  identical ``EncodingSearchExhausted`` raise point *and message*, and
  — for the random method — an identical post-embed RNG stream
  position (downstream embeds consume the same generator);
* multihash detection: identical vote, also at run lengths up to 10,
  trimmed subsets and out-of-domain received values (where a NaN
  average raises :class:`ParameterError` on both paths);
* quadres embeds and detection: identical values, stats and votes, via
  the Jacobi-backed residue table vs Euler's criterion;
* :func:`jacobi_symbol` agrees with :func:`is_quadratic_residue` on the
  derived primes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.encoding_multihash import MultihashEncoding
from repro.core.encoding_quadres import (
    QuadResEncoding,
    derive_prime,
    is_quadratic_residue,
    jacobi_symbol,
)
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import EncodingSearchExhausted, ParameterError
from repro.util.hashing import KeyedHasher

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

keys = st.binary(min_size=1, max_size=40)
labels = st.integers(min_value=0, max_value=2**31 - 1)
bits = st.booleans()


@st.composite
def multihash_cases(draw):
    """A full (params, quantizer, subset) configuration for one embed."""
    lsb_bits = draw(st.integers(min_value=4, max_value=16))
    value_bits = draw(st.integers(min_value=16, max_value=32))
    params = WatermarkParams(
        lsb_bits=lsb_bits,
        omega=draw(st.integers(min_value=1, max_value=3)),
        active_run_length=draw(st.integers(min_value=1, max_value=4)),
        max_search_iterations=draw(st.integers(min_value=50,
                                               max_value=2000)),
    )
    quantizer = Quantizer(value_bits=value_bits,
                          avg_extra_bits=draw(st.integers(min_value=2,
                                                          max_value=8)))
    size = draw(st.integers(min_value=1, max_value=10))
    q_subset = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << value_bits) - 1),
        min_size=size, max_size=size))
    offset = draw(st.integers(min_value=0, max_value=size - 1))
    return params, quantizer, q_subset, offset


@st.composite
def multihash_detect_cases(draw):
    """A detection configuration past the embed strategy's reach.

    Covers the default run length 6, the ``average_key`` branch of runs
    of 8 or more, the ``max_subset_detect`` trim (subsets up to 24 of a
    16-item cap) and received values outside the quantizer domain:
    ×10 scaling, ±1e6, ±inf and NaN.
    """
    params = WatermarkParams(
        omega=draw(st.integers(min_value=1, max_value=3)),
        active_run_length=draw(st.just(6) | st.integers(min_value=1,
                                                        max_value=10)),
    )
    quantizer = Quantizer(value_bits=draw(st.integers(min_value=16,
                                                      max_value=32)),
                          avg_extra_bits=draw(st.integers(min_value=2,
                                                          max_value=8)))
    scale = draw(st.sampled_from([1.0, 10.0]))
    size = draw(st.integers(min_value=1, max_value=24))
    received = [scale * v for v in draw(st.lists(
        st.floats(min_value=-0.4999, max_value=0.4999),
        min_size=size, max_size=size))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        position = draw(st.integers(min_value=0,
                                    max_value=len(received) - 1))
        received[position] = draw(st.sampled_from(
            [1e6, -1e6, math.inf, -math.inf, math.nan]))
    offset = draw(st.integers(min_value=0, max_value=len(received) - 1))
    return params, quantizer, np.asarray(received), offset


def _detect_or_raise(detect, received, offset, label):
    try:
        return detect(received, offset, label), None
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return None, type(exc)


def _embed_or_raise(encoding, q_subset, offset, label, bit):
    try:
        outcome = encoding.embed(q_subset, offset, label, bit)
        return outcome.q_values, outcome.iterations, None
    except EncodingSearchExhausted as exc:
        return None, None, str(exc)


# ----------------------------------------------------------------------
# multihash
# ----------------------------------------------------------------------

class TestMultihashBatchedParity:

    @pytest.mark.parametrize("method", ["pruned", "random"])
    @settings(max_examples=40, deadline=None)
    @given(case=multihash_cases(), key=keys, label=labels, bit=bits,
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_embed_bit_identical(self, method, case, key, label, bit,
                                 seed):
        params, quantizer, q_subset, offset = case
        hasher = KeyedHasher(key)
        batched = MultihashEncoding(params, quantizer, hasher,
                                    method=method, rng=seed, batched=True)
        scalar = MultihashEncoding(params, quantizer, hasher,
                                   method=method, rng=seed, batched=False)
        got = _embed_or_raise(batched, q_subset, offset, label, bit)
        want = _embed_or_raise(scalar, q_subset, offset, label, bit)
        assert got == want
        assert batched.last_stats == scalar.last_stats
        if method == "random":
            # Downstream embeds read the same generator: its position
            # after the search must match the scalar's exactly.
            assert int(batched._rng.integers(0, 2**40)) == \
                int(scalar._rng.integers(0, 2**40))

    @settings(max_examples=40, deadline=None)
    @given(case=multihash_cases(), key=keys, label=labels,
           noise=st.floats(min_value=0.0, max_value=1e-3))
    def test_detect_vote_identical(self, case, key, label, noise):
        params, quantizer, q_subset, offset = case
        hasher = KeyedHasher(key)
        encoding = MultihashEncoding(params, quantizer, hasher,
                                     batched=True)
        received = np.asarray(
            [quantizer.dequantize(q) for q in q_subset],
            dtype=np.float64) + noise
        assert encoding.detect(received, offset, label) == \
            encoding.detect_scalar(received, offset, label)

    @settings(max_examples=80, deadline=None)
    @given(case=multihash_detect_cases(), key=keys, label=labels)
    # Pinned reach: the default run length on a degree-2-sized subset,
    # runs of 8+ inside a trimmed 24-item subset, saturating infinities,
    # a NaN and cancelling magnitudes.
    @example(case=(WatermarkParams(), Quantizer(),
                   np.linspace(-0.3, 0.3, 6), 2), key=b"k", label=5)
    @example(case=(WatermarkParams(active_run_length=10), Quantizer(),
                   np.linspace(-0.4, 0.4, 24), 20), key=b"k", label=5)
    @example(case=(WatermarkParams(active_run_length=10), Quantizer(),
                   np.array([0.1] * 5 + [math.inf, -1e6] + [0.2] * 5), 6),
             key=b"k", label=5)
    @example(case=(WatermarkParams(), Quantizer(),
                   np.array([0.1, math.nan, 0.2]), 1), key=b"k", label=5)
    # Cancelling magnitudes: only a plain left-to-right sum (not a
    # compensated one) keeps the scalar oracle's key equal to numpy's.
    @example(case=(WatermarkParams(active_run_length=3), Quantizer(32, 8),
                   np.array([0.1, 1e6, -1e6]), 1), key=b"k", label=5)
    def test_detect_vote_identical_wide(self, case, key, label):
        params, quantizer, received, offset = case
        encoding = MultihashEncoding(params, quantizer, KeyedHasher(key),
                                     batched=True)
        got = _detect_or_raise(encoding.detect, received, offset, label)
        want = _detect_or_raise(encoding.detect_scalar, received, offset,
                                label)
        assert got == want
        # A NaN average (a NaN member, or opposite infinities) is the
        # only way to fail; it fails alike on both paths.
        assert got[1] in (None, ParameterError)


# ----------------------------------------------------------------------
# quadres
# ----------------------------------------------------------------------

@st.composite
def quadres_cases(draw):
    lsb_bits = draw(st.integers(min_value=4, max_value=16))
    value_bits = draw(st.integers(min_value=16, max_value=32))
    params = WatermarkParams(
        lsb_bits=lsb_bits,
        max_search_iterations=draw(st.integers(min_value=20,
                                               max_value=2000)),
    )
    quantizer = Quantizer(value_bits=value_bits, avg_extra_bits=4)
    n_prefixes = draw(st.integers(min_value=1,
                                  max_value=min(lsb_bits - 1, 5)))
    size = draw(st.integers(min_value=1, max_value=10))
    q_subset = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << value_bits) - 1),
        min_size=size, max_size=size))
    offset = draw(st.integers(min_value=0, max_value=size - 1))
    return params, quantizer, n_prefixes, q_subset, offset


class TestQuadResBatchedParity:

    @settings(max_examples=40, deadline=None)
    @given(case=quadres_cases(), key=keys, bit=bits)
    def test_embed_bit_identical(self, case, key, bit):
        params, quantizer, n_prefixes, q_subset, offset = case
        hasher = KeyedHasher(key)
        batched = QuadResEncoding(params, quantizer, hasher,
                                  n_prefixes=n_prefixes, batched=True)
        scalar = QuadResEncoding(params, quantizer, hasher,
                                 n_prefixes=n_prefixes, batched=False)
        got = _embed_or_raise(batched, q_subset, offset, 7, bit)
        want = _embed_or_raise(scalar, q_subset, offset, 7, bit)
        assert got == want
        assert batched.last_stats == scalar.last_stats

    @settings(max_examples=40, deadline=None)
    @given(case=quadres_cases(), key=keys,
           noise=st.floats(min_value=0.0, max_value=1e-3))
    def test_detect_vote_identical(self, case, key, noise):
        params, quantizer, n_prefixes, q_subset, offset = case
        hasher = KeyedHasher(key)
        encoding = QuadResEncoding(params, quantizer, hasher,
                                   n_prefixes=n_prefixes, batched=True)
        received = np.asarray(
            [quantizer.dequantize(q) for q in q_subset],
            dtype=np.float64) + noise
        assert encoding.detect(received, offset, 7) == \
            encoding.detect_scalar(received, offset, 7)

    @settings(max_examples=20, deadline=None)
    @given(key=keys, values=st.lists(
        st.integers(min_value=0, max_value=2**62), min_size=1,
        max_size=50))
    def test_jacobi_matches_euler(self, key, values):
        prime = derive_prime(KeyedHasher(key))
        for value in values:
            assert ((value % prime != 0)
                    and jacobi_symbol(value, prime) == 1) == \
                is_quadratic_residue(value, prime)
