"""Deterministic graph family generators for experiments.

Each family lists its candidate pairs; ``_sample_graph`` keeps them in order.
With a density, candidate ``(u, v)`` is kept when the uniform at ``("pair",
u, v)`` is below it.  A kept candidate's probability is ``p``, or for a range
``(lo, hi)`` it is ``lo + (hi - lo) * x`` with ``x`` the uniform at ``("p",
i)``, where ``i`` counts every candidate.  Candidates and streams per family:

- ``erdos_renyi``: ``(u, v)``, ``u < v``, lexicographic; ``"gen-er"``.
- ``bipartite_random``: ``(u, n1 + v)``, ``u < n1``, ``v < n2``, lexicographic,
  drawn at ``("pair", u, v)``; ``"gen-bip"``.
- ``clique``: ``(u, v)``, ``u < v``; ``"gen-clique"`` seeded 0.
- ``path``: ``(i, i + 1)``; ``"gen-path"`` seeded 0.
- ``two_far_components``: the gadget's edges, then the same shifted by its
  size; ``"gen-far"`` seeded 0.

All are pure functions of (params, seed); a stream given as the seed is used
as it is.
"""

from __future__ import annotations

from itertools import combinations, islice, product

from .graph import StochasticGraph
from .randomness import IntKeys, as_stream

__all__ = [
    "erdos_renyi",
    "clique",
    "path",
    "bipartite_random",
    "two_far_components",
    "generate",
]


_BLOCK = 4096  # candidates whose keep bits one ``uniforms_at`` call draws


def _sample_graph(n, pairs, p, stream, density=None, keys=None) -> StochasticGraph:
    """The graph on ``n`` vertices with the kept ``pairs`` as edges, as the
    module docstring says; ``density`` is ``(name, value)`` and ``keys`` the
    pair-draw keys, in step with ``pairs``.  Both may be lazy: keep bits are
    drawn a block of candidates at a time, so memory follows the edges kept,
    not the candidates.  The density and ``p`` are checked before any draw,
    so a bad value raises even when no edge is drawn."""
    if density is not None and not (0.0 <= density[1] <= 1.0):
        raise ValueError(f"{density[0]} must be in [0, 1], got {density[1]}")
    ranged = isinstance(p, (tuple, list))
    if ranged:
        if len(p) != 2:
            raise ValueError(f"a probability range has two numbers, got {p}")
        lo, hi = float(p[0]), float(p[1])
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"probability range must satisfy 0 < lo <= hi <= 1, got {p}")
    else:
        p = float(p)
        if not (0.0 < p <= 1.0):
            raise ValueError(f"probability must be in (0, 1], got {p}")
    ik = IntKeys()
    if density is None:
        kept = list(enumerate(pairs))
    else:
        draw, kept, start = stream.child("pair").uniforms_at, [], 0
        pairs, keys = iter(pairs), iter(keys)
        while block := list(islice(pairs, _BLOCK)):
            k = len(block)
            bits = draw([ik[u] + ik[v] for u, v in islice(keys, k)], [None] * k)
            kept += [(start + j, pair) for j, (pair, bit) in enumerate(zip(block, bits))
                     if bit < density[1]]
            start += k
    if ranged:
        draws = stream.child("p").uniforms_at([ik[i] for i, _ in kept], [None] * len(kept))
        probs = [lo + (hi - lo) * x for x in draws]
    else:
        probs = [p] * len(kept)
    return StochasticGraph(n, [(*pair, q) for (_, pair), q in zip(kept, probs)])


def erdos_renyi(n: int, edge_density: float, p, seed) -> StochasticGraph:
    """Each vertex pair becomes an edge independently with ``edge_density``."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _sample_graph(n, combinations(range(n), 2), p, as_stream(seed, "gen-er"),
                         ("edge_density", edge_density), combinations(range(n), 2))


def clique(n: int, p) -> StochasticGraph:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _sample_graph(n, combinations(range(n), 2), p, as_stream(0, "gen-clique"))


def path(n: int, p) -> StochasticGraph:
    """Path on n vertices (n - 1 edges)."""
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    return _sample_graph(n, [(i, i + 1) for i in range(n - 1)], p, as_stream(0, "gen-path"))


def bipartite_random(n1: int, n2: int, density: float, p, seed) -> StochasticGraph:
    """Each left-right pair becomes an edge independently with ``density``."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both sides need at least one vertex")
    return _sample_graph(n1 + n2, ((u, n1 + v) for u, v in product(range(n1), range(n2))),
                         p, as_stream(seed, "gen-bip"), ("density", density),
                         product(range(n1), range(n2)))


_GADGETS = {"edge": (2, [(0, 1)]), "path3": (3, [(0, 1), (1, 2)]),
            "triangle": (3, [(0, 1), (1, 2), (0, 2)])}


def two_far_components(gadget: str = "edge", p=0.5) -> StochasticGraph:
    """Two disjoint copies of a small gadget, at infinite mutual distance."""
    if gadget not in _GADGETS:
        raise ValueError(f"unknown gadget {gadget!r}")
    size, base = _GADGETS[gadget]
    pairs = [(u + off, v + off) for off in (0, size) for u, v in base]
    return _sample_graph(2 * size, pairs, p, as_stream(0, "gen-far"))


def _prob(p):
    """A probability, or a (low, high) range of two, as floats."""
    if isinstance(p, (tuple, list)):
        if len(p) != 2:
            raise TypeError("a probability range has two numbers")
        return float(p[0]), float(p[1])
    return float(p)


_FAMILIES = {
    "erdos_renyi": lambda arg, seed: erdos_renyi(
        arg("n", int), arg("edge_density", float), arg("p", _prob), seed
    ),
    "clique": lambda arg, seed: clique(arg("n", int), arg("p", _prob)),
    "path": lambda arg, seed: path(arg("n", int), arg("p", _prob)),
    "bipartite_random": lambda arg, seed: bipartite_random(
        arg("n1", int), arg("n2", int), arg("density", float), arg("p", _prob), seed
    ),
    "two_far_components": lambda arg, seed: two_far_components(
        arg("gadget", str, "edge"), arg("p", _prob, 0.5)
    ),
}


def generate(family: str, params: dict, seed=0) -> StochasticGraph:
    """Dispatch on family name; used by the CLI and config files.

    An unknown family, params that are not a dict, a missing parameter, or
    one that is not a number (``p``: a number or a range of two; a bool is
    none) or, for a vertex count, not a whole number raise ``ValueError``
    naming the family and the parameter.  Numeric strings are converted."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    if not isinstance(params, dict):
        raise ValueError(f"params must be a dict of named values, got {type(params).__name__}")

    def arg(name, kind, default=None):
        if name not in params and default is None:
            raise ValueError(f"family {family!r} needs parameter {name!r}")
        value = params.get(name, default)
        items = value if isinstance(value, (tuple, list)) else (value,)
        try:
            # float(True) is 1.0, but a bool, alone or in a range, is no number.
            if kind is not str and any(isinstance(x, bool) for x in items):
                raise TypeError
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):  # int(inf) overflows
            what = "a number or a range of two numbers" if kind is _prob else "a number"
            raise ValueError(f"family {family!r}: parameter {name!r} must be {what}, "
                             f"got {value!r}") from None
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"family {family!r}: parameter {name!r} must be a whole "
                             f"number, got {value!r}")
        return converted

    return builder(arg, seed)
