"""Counter-based keyed randomness.

Every random draw in the library is addressed by (master_seed, key) where the
key is a tuple of strings and integers saying what the draw is for: a purpose
tag, then things like realization index, recursion level, slot, or edge id.
Equal addresses give equal values on every run and platform; distinct
addresses give independent streams.  This keeps each computation a pure
function of (inputs, master seed) and lets experiments resample a selected
subset of the randomness (for example, everything outside a ball around one
vertex) by re-keying just that subset.

The one source of draws is ``RandomStream``, which holds the hash state of
its address.  Bulk draws go through a Philox counter-based generator keyed
by the address's 128-bit digest.  Single addressable values come straight
from the digest, skipping generator construction, and a batch of them from
one loop over pre-encoded tails.

The digest is a streaming blake2b over the encoded parts, so hashing a key's
prefix once and appending each tail gives the same bytes as hashing every
full key.  Code that draws many values under one shared prefix, like each
node of the VIM recursion, keeps the prefix's stream and hashes only tails.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["IntKeys", "RandomStream", "encode_key", "keyed_uniform"]

_U64 = float(1 << 64)
_INT = struct.Struct("<q")
_U64_LE = struct.Struct("<Q")
_TAGGED_INT = struct.Struct("<cq")
_TAGGED_LEN = struct.Struct("<cI")


def encode_key(key: tuple) -> bytes:
    """Byte encoding of key parts; concatenating encodings encodes the
    concatenated key, which is what makes prefix states reusable.  A bytes
    part is taken as the encoding of parts encoded earlier."""
    parts = []
    for part in key:
        if type(part) is int:
            parts.append(_TAGGED_INT.pack(b"i", part))
        elif type(part) is bytes:
            parts.append(part)
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


class IntKeys(dict):
    """``encode_key((x,))`` by integer x, and ``encode_key(x)`` by tuple x,
    encoded on first use; joining the pieces of x1, x2, ... gives the
    encoding of the joined key."""

    def __missing__(self, x) -> bytes:
        raw = self[x] = encode_key(x if type(x) is tuple else (x,))
        return raw


def keyed_uniform(master_seed: int, key: tuple) -> float:
    """Stateless uniform in [0, 1) at address (master_seed, key)."""
    return RandomStream(master_seed, key).uniform_at(())


class RandomStream:
    """A reproducible source of uniforms at address (master_seed, key).

    The stream holds the blake2b state of its address.  ``child(*parts)`` is
    the stream at ``key + parts``.  ``uniform_at(tail)`` is the one stateless
    value at ``key + tail`` and equals ``keyed_uniform(master_seed, key +
    tail)``; ``uniforms_at(tails, loci)`` draws a list of such values in one
    call.  Parts and tails may come as ``encode_key`` bytes, so hot loops
    can encode them once.  ``uniforms(shape)`` draws arrays from a Philox
    generator keyed by the address digest, advancing the stream.  The first
    string in the key acts as the stream's purpose tag, which callers use to
    keep the key spaces of different pipeline stages disjoint.

    ``perturbed(trial, keep)`` gives the same source with one change: a
    scalar draw whose ``locus`` (the vertices it concerns) is missing or
    fails ``keep`` appends ``("pert", trial)`` to its full key, which
    resamples exactly the randomness outside the region that ``keep``
    describes.
    """

    __slots__ = ("key", "_h", "_pert", "_gen")

    def __init__(self, master_seed: int, key: tuple = ()):
        self.key = tuple(key)
        self._h = hashlib.blake2b(_INT.pack(int(master_seed)), digest_size=16)
        self._h.update(encode_key(self.key))
        self._pert = None
        self._gen = None

    def __repr__(self):
        return f"RandomStream(key={self.key!r})"

    def _derive(self, h, key: tuple, pert) -> "RandomStream":
        out = RandomStream.__new__(RandomStream)
        out.key = key
        out._h = h
        out._pert = pert
        out._gen = None
        return out

    def child(self, *parts) -> "RandomStream":
        h = self._h.copy()
        h.update(parts[0] if len(parts) == 1 and type(parts[0]) is bytes
                 else encode_key(parts))
        return self._derive(h, self.key + parts, self._pert)

    def perturbed(self, trial: int, keep) -> "RandomStream":
        return self._derive(self._h, self.key, (keep, encode_key(("pert", trial))))

    @property
    def purpose(self) -> str | None:
        for part in self.key:
            if isinstance(part, str):
                return part
        return None

    def uniforms(self, shape) -> np.ndarray:
        """Draw an array of uniforms in [0, 1), advancing the stream."""
        if self._gen is None:
            key128 = int.from_bytes(self._h.digest(), "little")
            self._gen = np.random.Generator(np.random.Philox(key=key128))
        return self._gen.random(shape)

    def uniform_at(self, tail, locus=None) -> float:
        return self.uniforms_at((tail if type(tail) is bytes else encode_key(tail),),
                                (locus,))[0]

    def uniforms_at(self, tails, loci) -> list[float]:
        """The value at ``key + tail`` for each ``encode_key`` bytes tail, in one
        loop: the one scalar draw, of which ``uniform_at`` is a one-tail call.
        Only a perturbed stream reads ``loci``, in step with ``tails``."""
        copy, unpack = self._h.copy, _U64_LE.unpack_from
        out = []
        append = out.append
        if self._pert is None:
            for tail in tails:
                h = copy()
                h.update(tail)
                append(unpack(h.digest())[0] / _U64)
            return out
        keep, suffix = self._pert
        for tail, locus in zip(tails, loci, strict=True):
            h = copy()
            h.update(tail)
            if locus is None or not keep(locus):
                h.update(suffix)
            append(unpack(h.digest())[0] / _U64)
        return out


def as_stream(seed, purpose: str) -> RandomStream:
    """Normalize an int seed or an existing stream to a purpose-tagged stream."""
    if isinstance(seed, RandomStream):
        return seed
    return RandomStream(int(seed), (purpose,))
