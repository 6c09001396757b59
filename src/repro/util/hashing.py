"""The keyed one-way hash ``H(V, k)`` used throughout the scheme.

The paper (Sec 2.2) relies on a cryptographic one-way hash and defines::

    H(V, k) = crypto_hash(k ; V ; k)        (";" is concatenation)

Only two properties are used: one-wayness (Mallory cannot invert the
selection criterion) and diffusion (flipping one input bit flips about
half the output bits, which is what makes the multi-hash encoding's
output look random).  The proof-of-concept in the paper uses MD5; we
default to MD5 for fidelity and allow SHA-256 via ``algorithm=``.

The hash output is interpreted as a big-endian unsigned integer so it can
feed the paper's ``H(...) mod phi`` selection and ``H(...) mod alpha``
bit-position computations directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import import_module

from repro.errors import KeyError_, ParameterError

# CPython's built-in digest modules per algorithm, tried in order (3.12
# merged ``_sha256``/``_sha512`` into ``_sha2``).  On the <= 64-byte
# payloads every probe hashes, OpenSSL's EVP dispatch costs more than
# the compression itself: a copy-update-update-digest md5 probe
# measured 0.64 us through ``hashlib.new`` against 0.33 us built-in
# (2-vCPU Xeon, CPython 3.11, OpenSSL 3).  sha1 measured no faster
# built-in (0.63 vs 0.61 us), so it has no entry and stays on OpenSSL.
_BUILTIN_DIGESTS = {
    "md5": (("_md5", "md5"),),
    "sha1": (),
    "sha256": (("_sha2", "sha256"), ("_sha256", "sha256")),
    "sha512": (("_sha2", "sha512"), ("_sha512", "sha512")),
}
_SUPPORTED_ALGORITHMS = tuple(_BUILTIN_DIGESTS)


def _coerce_key(key: "bytes | str | int") -> bytes:
    """Normalize a user-supplied secret key into non-empty bytes."""
    if isinstance(key, bytes):
        raw = key
    elif isinstance(key, str):
        raw = key.encode("utf-8")
    elif isinstance(key, int):
        if key < 0:
            raise KeyError_("integer keys must be non-negative")
        raw = key.to_bytes((key.bit_length() + 7) // 8 or 1, "big")
    else:
        raise KeyError_(f"unsupported key type: {type(key).__name__}")
    if not raw:
        raise KeyError_("secret key must not be empty")
    return raw


def _coerce_value(value: "int | bytes | str") -> bytes:
    """Serialize a hash input deterministically.

    Integers are encoded big-endian with a length prefix so that distinct
    (value, width) pairs cannot collide by sharing a byte representation.
    """
    if isinstance(value, bool):
        raise ParameterError("pass ints, not bools, to the hash")
    if isinstance(value, int):
        if value < 0:
            raise ParameterError("hash inputs must be non-negative ints")
        body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        return len(body).to_bytes(4, "big") + body
    if isinstance(value, str):
        body = value.encode("utf-8")
        return len(body).to_bytes(4, "big") + body
    if isinstance(value, bytes):
        return len(value).to_bytes(4, "big") + value
    raise ParameterError(f"unsupported hash input type: {type(value).__name__}")


@lru_cache(maxsize=None)
def _builtin_constructor(algorithm: str):
    """The interpreter's built-in constructor for ``algorithm``, or None.

    Cached: the answer is fixed per interpreter, and a failed import
    costs a ``sys.path`` scan (~80 us) that must not recur per call.
    """
    for module, name in _BUILTIN_DIGESTS[algorithm]:
        try:
            return getattr(import_module(module), name)
        except ImportError:
            continue
    return None


def _keyed_context(key: bytes, algorithm: str):
    """A fresh ``algorithm`` digest context already fed with ``key``.

    The one constructor behind every keyed probe: callers ``copy()`` it
    and feed the rest of the sandwich.  It uses the interpreter's
    built-in implementation when one is listed in ``_BUILTIN_DIGESTS``
    and importable, else ``hashlib.new``; both produce identical
    digests, so the choice follows the platform and is not an option.
    """
    if algorithm not in _SUPPORTED_ALGORITHMS:
        raise ParameterError(
            f"unsupported hash algorithm {algorithm!r}; "
            f"choose one of {_SUPPORTED_ALGORITHMS}"
        )
    constructor = _builtin_constructor(algorithm)
    if constructor is None:
        return hashlib.new(algorithm, key)
    return constructor(key)


def hash_to_int(data: bytes, algorithm: str = "md5") -> int:
    """Hash raw bytes and return the digest as a big-endian integer."""
    return int.from_bytes(_keyed_context(data, algorithm).digest(), "big")


def H(value: "int | bytes | str", key: "bytes | str | int",
      algorithm: str = "md5") -> int:
    """The paper's ``H(V, k) = crypto_hash(k; V; k)`` as an integer.

    >>> H(42, b"k1") == H(42, b"k1")
    True
    >>> H(42, b"k1") != H(43, b"k1")
    True
    """
    key_bytes = _coerce_key(key)
    payload = key_bytes + _coerce_value(value) + key_bytes
    return hash_to_int(payload, algorithm)


@dataclass(frozen=True)
class KeyedHasher:
    """A reusable ``H(., k1)`` bound to one secret key.

    The embedder, detector and selection criterion all share a single
    :class:`KeyedHasher` so the key is threaded through the system once.

    A digest context pre-fed with the leading key of the keyed sandwich
    is kept and ``copy()``-ed per call, so the per-probe cost is one
    block update instead of a from-scratch digest over
    ``key + value + key`` — the selection criterion hashes once per
    major extreme, which put context setup on the scanning hot path.

    Parameters
    ----------
    key:
        The secret ``k1`` from the paper.  Accepts bytes, str or int.
    algorithm:
        Hash algorithm name (default ``"md5"``, as in the paper's
        proof-of-concept implementation).
    """

    key: bytes = field(repr=False)
    algorithm: str = "md5"

    def __init__(self, key: "bytes | str | int", algorithm: str = "md5"):
        object.__setattr__(self, "key", _coerce_key(key))
        object.__setattr__(self, "_base_context",
                           _keyed_context(self.key, algorithm))
        object.__setattr__(self, "algorithm", algorithm)

    def __reduce__(self):
        """Pickle as ``(key, algorithm)`` — the digest context is not
        picklable, but it is derived state the constructor rebuilds.
        Needed so detection tasks can cross a process-pool boundary.
        """
        return (KeyedHasher, (self.key, self.algorithm))

    def hash_int(self, value: "int | bytes | str") -> int:
        """Return ``H(value, key)`` as an unbounded integer."""
        digest_context = self._base_context.copy()
        digest_context.update(_coerce_value(value))
        digest_context.update(self.key)
        return int.from_bytes(digest_context.digest(), "big")

    def mod(self, value: "int | bytes | str", modulus: int) -> int:
        """Return ``H(value, key) mod modulus`` (paper's selection form)."""
        if modulus <= 0:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        return self.hash_int(value) % modulus

    def mod_text(self, text: str, modulus: int) -> int:
        """:meth:`mod` of a string input, with the coercion inlined.

        Identical digest input to ``mod(text, modulus)`` (length-prefixed
        UTF-8 between the two key copies); this is the per-major-extreme
        selection probe, hot enough that the generic dispatch layers
        show up in profiles.  The modulus is trusted (validated once at
        parameter construction).
        """
        body = text.encode("utf-8")
        digest_context = self._base_context.copy()
        digest_context.update(len(body).to_bytes(4, "big"))
        digest_context.update(body)
        digest_context.update(self.key)
        return int.from_bytes(digest_context.digest(), "big") % modulus

    def low_bits(self, value: "int | bytes | str", n_bits: int) -> int:
        """Return the ``n_bits`` least significant bits of ``H(value, key)``.

        This is the ``lsb(H(...), omega)`` operation of the multi-hash
        bit-encoding convention (paper Sec 4.3).
        """
        if n_bits <= 0:
            raise ParameterError(f"n_bits must be positive, got {n_bits}")
        return self.hash_int(value) & ((1 << n_bits) - 1)

    def derive(self, purpose: str) -> "KeyedHasher":
        """Return a domain-separated sub-hasher for an auxiliary purpose.

        Used to keep e.g. the additive-attack distribution fitting and
        the encoding convention from sharing hash inputs with selection.
        """
        sub_key = hashlib.sha256(self.key + purpose.encode("utf-8")).digest()
        return KeyedHasher(sub_key, self.algorithm)


class PatternProber:
    """Batched ``lsb(H(avg_key, label), ω)`` probes.

    This is the multi-hash convention probe (paper Sec 4.3) factored out
    of the encoding so detection and the scalar oracles share one
    pre-fed digest context.  The payload is the fixed-width keyed
    sandwich ``hash(k ; avg_key_8B ; label_8B ; k)`` — identical bytes to
    :func:`repro.core.encoding_multihash.convention_pattern`.

    Nothing is cached: the probed ``(avg_key, label)`` pairs almost
    never repeat (a memo here scored no hits on served detection or on
    any attack), so every call hashes.  ``probes`` counts lifetime probes for the
    observability layer; it is a plain int bumped once per bulk call
    and *read* only at snapshot time, never pushed into a registry from
    the hot loop.
    """

    __slots__ = ("_key", "_mask", "_copy", "probes")

    def __init__(self, key: bytes, omega: int,
                 algorithm: str = "md5") -> None:
        if omega < 1:
            raise ParameterError(f"omega must be >= 1, got {omega}")
        self._key = _coerce_key(key)
        self._mask = (1 << omega) - 1
        self._copy = _keyed_context(self._key, algorithm).copy
        self.probes = 0

    def pattern(self, avg_key: int, label: int) -> int:
        """One convention probe."""
        self.probes += 1
        context = self._copy()
        context.update(avg_key.to_bytes(8, "big")
                       + label.to_bytes(8, "big") + self._key)
        return int.from_bytes(context.digest()[-3:], "big") & self._mask

    def patterns(self, avg_keys, label: int) -> "list[int]":
        """Probe many averages against one label in a tight loop.

        Accepts any iterable of ints (numpy arrays included); returns a
        plain list aligned with the input.  Locals are bound outside the
        loop — this is the per-candidate hot path of batched detection.
        """
        copy = self._copy
        mask = self._mask
        tail = label.to_bytes(8, "big") + self._key
        from_bytes = int.from_bytes
        out: "list[int]" = []
        append = out.append
        for avg_key in (avg_keys.tolist()
                        if hasattr(avg_keys, "tolist") else avg_keys):
            context = copy()
            context.update(avg_key.to_bytes(8, "big") + tail)
            append(from_bytes(context.digest()[-3:], "big") & mask)
        self.probes += len(out)
        return out
