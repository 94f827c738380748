"""Stochastic graph model, realizations, and the text file format.

Vertices are dense integer ids ``0..n-1`` and edges carry stable indices in
the order they were given, with endpoints normalized to ``u < v``.  Graphs
are simple: self-loops and duplicate unordered pairs are rejected at
construction (merging of parallel edges happens in the contraction step,
before this module ever sees them).
"""

from __future__ import annotations

import numpy as np

from .errors import GraphFormatError
from .randomness import RandomStream

__all__ = ["StochasticGraph", "Realization", "Matching", "sample_realization"]


class StochasticGraph:
    """Simple undirected graph where edge ``e`` realizes with probability ``p_e``."""

    __slots__ = ("n", "edges", "us", "vs", "ps", "m", "p_min", "_adj", "_half_edges", "_incident")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        norm = []
        seen = set()
        for i, (u, v, p) in enumerate(edges):
            u, v, p = int(u), int(v), float(p)
            if u == v:
                raise ValueError(f"edge {i}: self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i}: endpoint out of range for n={n}: ({u}, {v})")
            if not (0.0 < p <= 1.0):
                raise ValueError(f"edge {i}: probability must be in (0, 1], got {p}")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise ValueError(f"edge {i}: duplicate unordered pair ({a}, {b})")
            seen.add((a, b))
            norm.append((a, b, p))
        self.n = n
        self.edges = tuple(norm)
        self.m = len(norm)
        self.us = np.array([e[0] for e in norm], dtype=np.int64)
        self.vs = np.array([e[1] for e in norm], dtype=np.int64)
        self.ps = np.array([e[2] for e in norm], dtype=np.float64)
        self.p_min = float(self.ps.min()) if norm else 1.0
        self._adj = None
        self._half_edges = None
        self._incident = None

    def endpoints(self, e: int) -> tuple[int, int]:
        edge = self.edges[e]
        return edge[0], edge[1]

    @property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge id), ascending by neighbor id."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for e, (u, v, _p) in enumerate(self.edges):
                adj[u].append((v, e))
                adj[v].append((u, e))
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    @property
    def half_edges(self) -> list[tuple[int, int, int]]:
        """``adjacency`` flattened to (vertex, neighbor, edge id), ascending by
        (vertex, neighbor): both orientations of every edge."""
        if self._half_edges is None:
            self._half_edges = [(v, u, e) for v, row in enumerate(self.adjacency) for u, e in row]
        return self._half_edges

    def incident(self, v: int) -> list[int]:
        """Edge ids incident to vertex v."""
        if self._incident is None:
            inc = [[] for _ in range(self.n)]
            for e, (u, w, _p) in enumerate(self.edges):
                inc[u].append(e)
                inc[w].append(e)
            self._incident = inc
        return self._incident[v]

    def degrees(self, edge_ids=None) -> np.ndarray:
        """Per-vertex count of the given edges (all edges when None)."""
        ids = slice(None) if edge_ids is None else np.asarray(edge_ids, dtype=np.int64)
        return (np.bincount(self.us[ids], minlength=self.n)
                + np.bincount(self.vs[ids], minlength=self.n))

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
        no, header = rows[0]
        parts = header.split()
        if len(parts) != 2:
            raise GraphFormatError(f"header must be 'n m', got {header!r}", line=no)
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"header must be two integers, got {header!r}", line=no)
        if len(rows) - 1 != m:
            raise GraphFormatError(
                f"expected {m} edge lines, found {len(rows) - 1}", line=no
            )
        edges = []
        for no, ln in rows[1:]:
            parts = ln.split()
            if len(parts) != 3:
                raise GraphFormatError(f"edge line must be 'u v p', got {ln!r}", line=no)
            try:
                u, v, p = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise GraphFormatError(f"could not parse edge line {ln!r}", line=no)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex id out of range: {ln!r}", line=no)
            if u == v:
                raise GraphFormatError(f"self-loop not allowed: {ln!r}", line=no)
            if not (0.0 < p <= 1.0):
                raise GraphFormatError(f"probability must be in (0, 1]: {ln!r}", line=no)
            edges.append((u, v, p))
        try:
            return cls(n, edges)
        except ValueError as exc:
            raise GraphFormatError(str(exc))

    @classmethod
    def from_file(cls, path) -> "StochasticGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        out = [f"{self.n} {self.m}"]
        for u, v, p in self.edges:
            out.append(f"{u} {v} {p!r}")
        return "\n".join(out) + "\n"


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

    def __contains__(self, e: int) -> bool:
        return bool(self.present[e])


def sample_realization(g: StochasticGraph, stream: RandomStream) -> Realization:
    """Sample each edge independently with its probability p_e.

    Deterministic given (g, stream.master_seed, stream.key); callers key the
    stream with a realization index so independent samples are addressable.
    """
    u = stream.uniforms(g.m)
    return Realization(g, u < g.ps)


class Matching:
    """A set of pairwise vertex-disjoint edges of a parent graph."""

    __slots__ = ("graph", "edges", "matched_vertex")

    def __init__(self, graph: StochasticGraph, edge_ids):
        edges = frozenset(int(e) for e in edge_ids)
        matched = {}
        for e in sorted(edges):
            u, v = graph.endpoints(e)
            if u in matched or v in matched:
                raise ValueError(f"edges {sorted(edges)} are not a matching: vertex reuse at edge {e}")
            matched[u] = v
            matched[v] = u
        self.graph = graph
        self.edges = edges
        self.matched_vertex = matched

    def __len__(self):
        return len(self.edges)

    def __eq__(self, other):
        return isinstance(other, Matching) and self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)

    def covers(self, v: int) -> bool:
        return v in self.matched_vertex

    def partner(self, v: int) -> int | None:
        return self.matched_vertex.get(v)

    def vertices(self) -> set[int]:
        return set(self.matched_vertex)
