"""Deterministic graph family generators for experiments.

Probabilities may be a single float or a (low, high) pair for per-edge
uniform draws.  Everything is a pure function of (params, seed).
"""

from __future__ import annotations

from .graph import StochasticGraph
from .randomness import RandomStream, as_stream

__all__ = [
    "erdos_renyi",
    "clique",
    "path",
    "bipartite_random",
    "two_far_components",
    "generate",
]


def _edge_prob(p, stream: RandomStream, index: int) -> float:
    if isinstance(p, (tuple, list)):
        lo, hi = float(p[0]), float(p[1])
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"probability range must satisfy 0 < lo <= hi <= 1, got {p}")
        return lo + (hi - lo) * stream.uniform_at(("p", index))
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise ValueError(f"probability must be in (0, 1], got {p}")
    return p


def erdos_renyi(n: int, edge_density: float, p, seed) -> StochasticGraph:
    """Each vertex pair becomes an edge independently with ``edge_density``."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not (0.0 <= edge_density <= 1.0):
        raise ValueError(f"edge_density must be in [0, 1], got {edge_density}")
    stream = as_stream(seed, "gen-er")
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if stream.uniform_at(("pair", u, v)) < edge_density:
                edges.append((u, v, _edge_prob(p, stream, idx)))
            idx += 1
    return StochasticGraph(n, edges)


def clique(n: int, p) -> StochasticGraph:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    stream = as_stream(0, "gen-clique")
    edges = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v, _edge_prob(p, stream, idx)))
            idx += 1
    return StochasticGraph(n, edges)


def path(n: int, p) -> StochasticGraph:
    """Path on n vertices (n - 1 edges)."""
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    stream = as_stream(0, "gen-path")
    return StochasticGraph(
        n, [(i, i + 1, _edge_prob(p, stream, i)) for i in range(n - 1)]
    )


def bipartite_random(n1: int, n2: int, density: float, p, seed) -> StochasticGraph:
    if n1 < 1 or n2 < 1:
        raise ValueError("both sides need at least one vertex")
    stream = as_stream(seed, "gen-bip")
    edges = []
    idx = 0
    for u in range(n1):
        for v in range(n2):
            if stream.uniform_at(("pair", u, v)) < density:
                edges.append((u, n1 + v, _edge_prob(p, stream, idx)))
            idx += 1
    return StochasticGraph(n1 + n2, edges)


def two_far_components(gadget: str = "edge", p=0.5) -> StochasticGraph:
    """Two disjoint copies of a small gadget, at infinite mutual distance."""
    stream = as_stream(0, "gen-far")
    if gadget == "edge":
        base_edges = [(0, 1)]
        size = 2
    elif gadget == "path3":
        base_edges = [(0, 1), (1, 2)]
        size = 3
    elif gadget == "triangle":
        base_edges = [(0, 1), (1, 2), (0, 2)]
        size = 3
    else:
        raise ValueError(f"unknown gadget {gadget!r}")
    edges = []
    idx = 0
    for copy in range(2):
        off = copy * size
        for u, v in base_edges:
            edges.append((u + off, v + off, _edge_prob(p, stream, idx)))
            idx += 1
    return StochasticGraph(2 * size, edges)


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
    one that is not a number (``p``: a number or a range of two) raise
    ``ValueError`` naming the family and the parameter."""
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
        try:
            return kind(value)
        except (TypeError, ValueError):
            what = "a number or a range of two numbers" if kind is _prob else "a number"
            raise ValueError(f"family {family!r}: parameter {name!r} must be {what}, "
                             f"got {value!r}") from None

    return builder(arg, seed)
