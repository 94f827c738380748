"""Counter-based keyed randomness.

Every random draw in the library is addressed by (master_seed, key) where the
key is a tuple of strings and integers saying what the draw is for: a purpose
tag, then things like realization index, recursion level, slot, or edge id.
Equal addresses give equal values on every run and platform; distinct
addresses give independent streams.  This keeps each computation a pure
function of (inputs, master seed) and lets experiments resample a selected
subset of the randomness (for example, everything outside a ball around one
vertex) by re-keying just that subset.

Bulk draws go through a Philox counter-based generator keyed by a 128-bit
digest of the address.  Single addressable values come straight from the
digest, skipping generator construction.

The digest is a streaming blake2b over the encoded parts, so hashing a key's
prefix once and appending each tail gives the same bytes as hashing every
full key.  ``KeyedPrefix`` holds such a prefix state for code that draws many
values under one shared prefix, like each node of the VIM recursion.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["KeyedPrefix", "RandomStream", "encode_key", "keyed_uniform"]

_U64 = float(1 << 64)
_INT = struct.Struct("<q")
_TAGGED_INT = struct.Struct("<cq")
_TAGGED_LEN = struct.Struct("<cI")


def encode_key(key: tuple) -> bytes:
    """Byte encoding of key parts; concatenating encodings encodes the
    concatenated key, which is what makes prefix states reusable."""
    parts = []
    for part in key:
        if type(part) is int:
            parts.append(_TAGGED_INT.pack(b"i", part))
        elif isinstance(part, bool):
            # bool subclasses int: packed as one, True would alias 1.
            raise TypeError("key parts must be str or int, got bool")
        elif isinstance(part, (int, np.integer)):
            parts.append(_TAGGED_INT.pack(b"i", int(part)))
        elif isinstance(part, str):
            raw = part.encode("utf-8")
            parts.append(_TAGGED_LEN.pack(b"s", len(raw)))
            parts.append(raw)
        else:
            raise TypeError(f"key parts must be str or int, got {type(part).__name__}")
    return b"".join(parts)


def _hasher(master_seed: int):
    return hashlib.blake2b(_INT.pack(master_seed), digest_size=16)


def _digest(master_seed: int, key: tuple) -> bytes:
    h = _hasher(master_seed)
    h.update(encode_key(key))
    return h.digest()


def keyed_uniform(master_seed: int, key: tuple) -> float:
    """Stateless uniform in [0, 1) at address (master_seed, key)."""
    d = _digest(master_seed, key)
    return int.from_bytes(d[:8], "little") / _U64


class KeyedPrefix:
    """The hash state of address (master_seed, key), ready for tails.

    ``child(tail)`` is the prefix of ``key + tail`` and ``u(tail)`` equals
    ``keyed_uniform(master_seed, key + tail)``; a tail is a key tuple or its
    ``encode_key`` bytes, so hot loops can encode their tails once.

    ``perturbed(trial, keep)`` gives the same source with one change: a draw
    whose ``locus`` (the vertices it concerns) is missing or fails ``keep``
    appends ``("pert", trial)`` to its full key, which resamples exactly the
    randomness outside the region that ``keep`` describes.
    """

    __slots__ = ("_h", "_keep", "_pert")

    def __init__(self, master_seed: int, key: tuple = ()):
        self._h = _hasher(int(master_seed))
        self._h.update(encode_key(key))
        self._keep = None
        self._pert = b""

    def _derive(self, h) -> "KeyedPrefix":
        out = KeyedPrefix.__new__(KeyedPrefix)
        out._h = h
        out._keep = self._keep
        out._pert = self._pert
        return out

    def child(self, tail) -> "KeyedPrefix":
        h = self._h.copy()
        h.update(tail if type(tail) is bytes else encode_key(tail))
        return self._derive(h)

    def perturbed(self, trial: int, keep) -> "KeyedPrefix":
        out = self._derive(self._h.copy())
        out._keep = keep
        out._pert = encode_key(("pert", trial))
        return out

    def u(self, tail, locus=None) -> float:
        h = self._h.copy()
        h.update(tail if type(tail) is bytes else encode_key(tail))
        if self._keep is not None and (locus is None or not self._keep(locus)):
            h.update(self._pert)
        return int.from_bytes(h.digest()[:8], "little") / _U64


class RandomStream:
    """A reproducible stream of uniforms identified by (master_seed, key).

    ``child(*parts)`` derives a sub-stream at an extended address;
    ``uniform_at(*parts)`` returns one stateless value at a sub-address.
    The first string in the key acts as the stream's purpose tag, which
    callers use to keep the key spaces of different pipeline stages disjoint.
    """

    __slots__ = ("master_seed", "key", "_gen")

    def __init__(self, master_seed: int, key: tuple = ()):
        self.master_seed = int(master_seed)
        self.key = tuple(key)
        self._gen = None

    def __repr__(self):
        return f"RandomStream(seed={self.master_seed}, key={self.key!r})"

    def child(self, *parts) -> "RandomStream":
        return RandomStream(self.master_seed, self.key + parts)

    @property
    def purpose(self) -> str | None:
        for part in self.key:
            if isinstance(part, str):
                return part
        return None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            key128 = int.from_bytes(_digest(self.master_seed, self.key), "little")
            self._gen = np.random.Generator(np.random.Philox(key=key128))
        return self._gen

    def uniforms(self, shape) -> np.ndarray:
        """Draw an array of uniforms in [0, 1), advancing the stream."""
        return self._generator().random(shape)

    def uniform(self) -> float:
        return float(self._generator().random())

    def uniform_at(self, *parts) -> float:
        return keyed_uniform(self.master_seed, self.key + parts)


def as_stream(seed, purpose: str) -> RandomStream:
    """Normalize an int seed or an existing stream to a purpose-tagged stream."""
    if isinstance(seed, RandomStream):
        return seed
    return RandomStream(int(seed), (purpose,))
