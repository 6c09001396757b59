"""Unit and property tests for the keyed one-way hash H(V, k)."""

from __future__ import annotations

import hashlib
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import KeyError_, ParameterError
from repro.util.hashing import (
    _BUILTIN_DIGESTS,
    H,
    KeyedHasher,
    PatternProber,
    _builtin_constructor,
    _keyed_context,
    hash_to_int,
)

ALGORITHMS = ("md5", "sha1", "sha256", "sha512")


class TestH:
    def test_deterministic(self):
        assert H(42, b"k1") == H(42, b"k1")

    def test_value_sensitivity(self):
        assert H(42, b"k1") != H(43, b"k1")

    def test_key_sensitivity(self):
        assert H(42, b"k1") != H(42, b"k2")

    def test_accepts_str_and_int_keys(self):
        assert H(1, "secret") == H(1, b"secret")
        assert isinstance(H(1, 12345), int)

    def test_string_values_length_prefixed(self):
        # Length prefixing prevents concatenation ambiguity.
        assert H("ab", b"k") != H("a", b"k")

    def test_rejects_empty_key(self):
        with pytest.raises(KeyError_):
            H(1, b"")

    def test_rejects_negative_value(self):
        with pytest.raises(ParameterError):
            H(-1, b"k")

    def test_rejects_bool_value(self):
        with pytest.raises(ParameterError):
            H(True, b"k")

    @given(st.integers(0, 2**64), st.integers(0, 2**64))
    def test_distinct_ints_rarely_collide(self, a, b):
        if a != b:
            assert H(a, b"k") != H(b, b"k")


class TestHashToInt:
    def test_md5_width(self):
        assert hash_to_int(b"x").bit_length() <= 128

    def test_sha256_width(self):
        value = hash_to_int(b"x", "sha256")
        assert value.bit_length() <= 256

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterError):
            hash_to_int(b"x", "crc32")


class TestKeyedHasher:
    def test_mod_in_range(self):
        hasher = KeyedHasher(b"k1")
        for value in range(100):
            assert 0 <= hasher.mod(value, 7) < 7

    def test_mod_rejects_nonpositive_modulus(self):
        with pytest.raises(ParameterError):
            KeyedHasher(b"k").mod(1, 0)

    def test_low_bits_width(self):
        hasher = KeyedHasher(b"k1")
        for value in range(50):
            assert 0 <= hasher.low_bits(value, 3) < 8

    def test_low_bits_roughly_uniform(self):
        """Diffusion: with omega=1 about half the hashes end in 1."""
        hasher = KeyedHasher(b"k1")
        ones = sum(hasher.low_bits(v, 1) for v in range(2000))
        assert 850 < ones < 1150

    def test_matches_module_level_h(self):
        hasher = KeyedHasher(b"k1")
        assert hasher.hash_int(99) == H(99, b"k1")

    def test_derive_changes_outputs(self):
        hasher = KeyedHasher(b"k1")
        derived = hasher.derive("other-purpose")
        assert hasher.hash_int(5) != derived.hash_int(5)

    def test_derive_is_deterministic(self):
        a = KeyedHasher(b"k1").derive("p")
        b = KeyedHasher(b"k1").derive("p")
        assert a.hash_int(5) == b.hash_int(5)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            KeyedHasher(b"k1", algorithm="md4")


class TestPatternProber:
    def test_matches_convention_pattern(self):
        from repro.core.encoding_multihash import convention_pattern

        prober = PatternProber(b"k1", omega=3)
        for avg_key in range(40):
            assert prober.pattern(avg_key, 9) == \
                convention_pattern(b"k1", avg_key, 9, 3)

    def test_patterns_matches_scalar_probes(self):
        prober = PatternProber(b"k1", omega=2)
        avg_keys = list(range(0, 400, 7))
        assert prober.patterns(avg_keys, 5) == \
            [prober.pattern(a, 5) for a in avg_keys]

    def test_probes_counted(self):
        prober = PatternProber(b"k1", omega=1)
        prober.pattern(3, 1)
        prober.patterns([3, 4, 5], 1)
        assert prober.probes == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            PatternProber(b"k1", omega=0)
        with pytest.raises(ParameterError):
            PatternProber(b"k1", omega=1, algorithm="md4")


class TestKeyedContext:
    """The one digest constructor behind every keyed probe."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("payload", [b"", b"\x00" * 16, b"p" * 40,
                                         bytes(range(64)), b"q" * 300])
    def test_copy_update_matches_hashlib(self, algorithm, payload):
        key = b"keyed-context"
        base = _keyed_context(key, algorithm)
        context = base.copy()
        context.update(payload)
        assert context.digest() == \
            hashlib.new(algorithm, key + payload).digest()
        # The base stays reusable: copies never feed it.
        assert base.digest() == hashlib.new(algorithm, key).digest()

    @pytest.fixture
    def fresh_resolution(self):
        """Re-resolve built-in constructors inside the test and after."""
        _builtin_constructor.cache_clear()
        yield
        _builtin_constructor.cache_clear()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fallback_without_builtin_module(self, algorithm, monkeypatch,
                                             fresh_resolution):
        from repro.core.encoding_multihash import convention_pattern

        for module, _ in _BUILTIN_DIGESTS[algorithm]:
            monkeypatch.setitem(sys.modules, module, None)
        context = _keyed_context(b"k1", algorithm)
        assert type(context) is type(hashlib.new(algorithm))
        prober = PatternProber(b"k1", omega=4, algorithm=algorithm)
        avg_keys = list(range(0, 3000, 37))
        assert prober.patterns(avg_keys, 11) == [
            convention_pattern(b"k1", a, 11, 4, algorithm)
            for a in avg_keys]
        assert KeyedHasher(b"k1", algorithm).hash_int(5) == \
            H(5, b"k1", algorithm)

    def test_keyed_hasher_pickles_into_detect_many_worker(self):
        import numpy as np

        from repro.core.embedder import watermark_stream
        from repro.core.params import WatermarkParams
        from repro.core.parallel_detect import DetectionTask, detect_many
        from repro.streams.generators import TemperatureSensorGenerator

        hasher = KeyedHasher(b"pickled-key")
        clone = pickle.loads(pickle.dumps(hasher))
        assert clone == hasher and clone.mod_text("x", 97) == \
            hasher.mod_text("x", 97)

        params = WatermarkParams(window_size=64)
        data = TemperatureSensorGenerator(eta=60, seed=12).generate(3000)
        marked, _ = watermark_stream(np.array(data), "1", hasher.key,
                                     params=params)
        tasks = [DetectionTask(values=marked, wm_length=1, key=hasher,
                               params=params),
                 DetectionTask(values=marked, wm_length=1, key=hasher.key,
                               params=params)]
        pooled = detect_many(tasks, workers=2)
        assert pooled == detect_many(tasks)
        assert pooled[0] == pooled[1]
