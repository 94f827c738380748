"""Stochastic graph model, realizations, and the text file format.

Vertices are dense integer ids ``0..n-1`` and edges carry stable indices in
the order they were given, with endpoints normalized to ``u < v``.  Graphs
are simple: self-loops and duplicate unordered pairs are rejected at
construction (merging of parallel edges happens in the contraction step,
before this module ever sees them).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GraphFormatError
from .randomness import RandomStream

__all__ = ["StochasticGraph", "Realization", "Matching", "sample_realization"]

_MASK_LIMIT = 62  # a realization bitmask must fit an int64


class LexEdges(NamedTuple):
    """The edges of a graph listed once each, ascending by (u, v) with u < v.

    ``pairs[i]`` is the i-th pair and ``ids[i]`` (an intp array) its edge id,
    so ``present[ids]`` reorders a per-edge mask into this order.
    ``pair_id`` maps ``u * n + v`` back to the edge id of pair (u, v).
    ``bits[i]`` is ``1 << ids[i]``, the edge's bit in a realization bitmask,
    for graphs with a mask table (at most ``_MASK_LIMIT`` edges), else None:
    past that no bitmask is matched, and the bits would be ints of up to m
    bits each.  ``touch[e]``, indexed by edge id and also None past the
    limit, is the bitmask of the edges sharing an endpoint with edge e, e
    included: ``matching.matched_by_mask`` grows a mask's connected
    components from it.  ``matching`` reads every edge set through this
    order, which gives it ascending neighbor lists and its greedy seed in one
    pass.
    """

    pairs: list[tuple[int, int]]
    ids: np.ndarray
    pair_id: dict[int, int]
    bits: list[int] | None
    touch: list[int] | None


class StochasticGraph:
    """Simple undirected graph where edge ``e`` realizes with probability ``p_e``."""

    __slots__ = ("n", "edges", "us", "vs", "ps", "m", "p_min", "_lex", "_masks")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        norm = []
        seen = set()
        for i, (u, v, p) in enumerate(edges):
            try:
                norm.append(_checked_edge(n, int(u), int(v), float(p), seen))
            except ValueError as exc:
                raise ValueError(f"edge {i}: {exc}") from None
        self.n = n
        self.edges = tuple(norm)
        self.m = len(norm)
        self.us = np.array([e[0] for e in norm], dtype=np.int64)
        self.vs = np.array([e[1] for e in norm], dtype=np.int64)
        self.ps = np.array([e[2] for e in norm], dtype=np.float64)
        self.p_min = float(self.ps.min()) if norm else 1.0
        self._lex = None
        self._masks = None

    def endpoints(self, e: int) -> tuple[int, int]:
        edge = self.edges[e]
        return edge[0], edge[1]

    @property
    def lex_edges(self) -> LexEdges:
        """The edges in ascending (u, v) order with their ids, built on first
        use; the matching engine reads every edge set through it."""
        if self._lex is None:
            n, edges = self.n, self.edges
            order = sorted(range(self.m), key=edges.__getitem__)
            pairs = [edges[e][:2] for e in order]
            bits = touch = None
            if self.m <= _MASK_LIMIT:
                bits = [1 << e for e in order]
                at = [0] * n  # bitmask of the edges at each vertex
                for e, (u, v, _p) in enumerate(edges):
                    at[u] |= 1 << e
                    at[v] |= 1 << e
                touch = [at[u] | at[v] for u, v, _p in edges]
            self._lex = LexEdges(
                pairs,
                np.array(order, dtype=np.intp),
                {u * n + v: e for (u, v), e in zip(pairs, order)},
                bits,
                touch,
            )
        return self._lex

    @property
    def mask_table(self) -> dict[int, tuple[int, ...]] | None:
        """Matched edge ids by realization bitmask (bit e set = edge e present),
        or None for graphs of more than ``_MASK_LIMIT`` edges.

        The table is created empty on first use and holds only masks that
        were actually matched (``matching.matched_by_mask`` fills it): the
        distinct realizations seen and the component submasks a disconnected
        one is split into, up to 2^m entries.  The Monte Carlo estimator and
        the exact oracle share it, so each mask is matched once per graph.
        """
        if self._masks is None and self.m <= _MASK_LIMIT:
            self._masks = {}
        return self._masks

    def vertex_sums(self, values) -> np.ndarray:
        """Per-vertex sum of the per-edge ``values`` over the vertex's edges.

        Each vertex adds its edges' values in ascending edge order, as a loop
        ``out[u] += values[e]; out[v] += values[e]`` over the edges does, so
        float sums have that loop's bits (summing the ``us`` side and the
        ``vs`` side apart would not).  A degree is the sum of a 0/1 indicator.
        """
        ends = np.column_stack((self.us, self.vs)).ravel()
        sums = np.bincount(ends, weights=np.repeat(values, 2), minlength=self.n)
        return sums.astype(np.float64, copy=False)  # bincount of no edges is int

    @classmethod
    def from_text(cls, text: str) -> "StochasticGraph":
        """Parse the standard graph format: ``n m`` then ``m`` lines ``u v p``.

        Parsing is strict; any malformed line raises GraphFormatError with its
        line number.
        """
        lines = text.splitlines()
        rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
        rows = [(no, ln) for no, ln in rows if ln and not ln.startswith("#")]
        if not rows:
            raise GraphFormatError("empty graph file")
        head_no, header = rows[0]
        parts = header.split()
        if len(parts) != 2:
            raise GraphFormatError(f"header must be 'n m', got {header!r}", line=head_no)
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"header must be two integers, got {header!r}", line=head_no)
        if len(rows) - 1 != m:
            raise GraphFormatError(
                f"expected {m} edge lines, found {len(rows) - 1}", line=head_no
            )
        edges = []
        seen = set()
        for no, ln in rows[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise GraphFormatError(f"edge line must be 'u v p', got {ln!r}", line=no)
            try:
                u, v, p = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise GraphFormatError(f"could not parse edge line {ln!r}", line=no)
            try:
                edges.append(_checked_edge(n, u, v, p, seen))
            except ValueError as exc:
                raise GraphFormatError(str(exc), line=no) from None
        try:
            return cls(n, edges)
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=head_no) from None

    @classmethod
    def from_file(cls, path) -> "StochasticGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        out = [f"{self.n} {self.m}"]
        for u, v, p in self.edges:
            out.append(f"{u} {v} {p!r}")
        return "\n".join(out) + "\n"


def _checked_edge(n: int, u: int, v: int, p: float, seen: set) -> tuple[int, int, float]:
    """(u, v, p) with u < v, after the per-edge rules: no self-loop, endpoints
    in range(n), p in (0, 1], and a pair not yet in ``seen`` (then added).
    Each caller adds the edge's location to the ValueError."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"endpoint out of range for n={n}: ({u}, {v})")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"probability must be in (0, 1], got {p}")
    pair = (u, v) if u < v else (v, u)
    if pair in seen:
        raise ValueError(f"duplicate unordered pair {pair}")
    seen.add(pair)
    return (*pair, p)


class Realization:
    """A concrete edge subset of a parent graph, sampled edge-independently."""

    __slots__ = ("parent", "present")

    def __init__(self, parent: StochasticGraph, present):
        present = np.asarray(present, dtype=bool)
        if present.shape != (parent.m,):
            raise ValueError(
                f"present must cover exactly the parent's {parent.m} edges, "
                f"got shape {present.shape}"
            )
        self.parent = parent
        self.present = present

    def edge_ids(self) -> list[int]:
        return [int(e) for e in np.flatnonzero(self.present)]


def sample_realization(g: StochasticGraph, stream: RandomStream) -> Realization:
    """Sample each edge independently with its probability p_e.

    Deterministic given g and the stream's address; callers key the stream
    with a realization index so independent samples are addressable.
    """
    u = stream.uniforms(g.m)
    return Realization(g, u < g.ps)


class Matching:
    """A set of pairwise vertex-disjoint edges of a parent graph.

    The public constructor validates the edges eagerly.
    """

    __slots__ = ("graph", "edges")

    def __init__(self, graph: StochasticGraph, edge_ids):
        edges = frozenset(int(e) for e in edge_ids)
        covered = set()
        for e in sorted(edges):
            u, v = graph.endpoints(e)
            if u in covered or v in covered:
                raise ValueError(f"edges {sorted(edges)} are not a matching: vertex reuse at edge {e}")
            covered.update((u, v))
        self.graph = graph
        self.edges = edges

    @classmethod
    def _from_pairs(cls, graph: StochasticGraph, edge_ids) -> "Matching":
        """A matching built without the checks of ``__init__``, for callers
        whose ``edge_ids`` are vertex-disjoint by construction."""
        out = cls.__new__(cls)
        out.graph = graph
        out.edges = frozenset(edge_ids)
        return out

    def __len__(self):
        return len(self.edges)

    def __eq__(self, other):
        return isinstance(other, Matching) and self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)
