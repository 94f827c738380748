"""Vertex-independent matching on realized crucial edges.

The construction is recursive: at each level it draws fresh realizations of
the crucial graph into profile slots, recursively matches each slot,
enumerates augmenting hyperwalks whose endpoints are still unsaturated,
selects a vertex-disjoint subset of them with a round-limited randomized
independent set, and applies them.  The returned matching is slot 0's.

Two walks conflict when they share a vertex.  The independent set runs on
each walk's vertices as its members, so no pairwise conflict graph is built
on the hot path (``build_conflict_graph`` stays as the explicit form and the
test oracle).  Its round budget, ``VimEngine.mis_rounds``, is fixed once per
engine from epsilon and the candidate cap: a node past
``_MAX_CANDIDATE_WALKS`` candidates raises, so no conflict degree exceeds the
cap minus one.  A budget taken from a node's own candidates would let walks
in a far component change it, and with it the output near v.  A fixed one
makes a walk's fate a function of the walks within that many conflict hops,
so v's output is a function of a bounded ball around v (``locality_bound``).
Applying the chosen walks rebuilds only the slots they touch.

Most nodes are at level 1, where every slot matching is empty, so each
augmenting hyperwalk is one step (e, s): an edge realized in slot s with
both endpoints unsaturated.  ``VimEngine._level_one`` builds those steps
straight from the node's flat list of slot draws, with no slot sets,
``Profile``, enumerator, ``Hyperwalk`` or ``apply_hyperwalks``: it takes the
unsaturated crucial edges e = (u, v) ascending by (u, e) and, for each, the
slots that realize it ascending, which is the enumerator's walk order, and
reads each step's priority tail ``encode_key((u, e, s))`` from a per-engine
cache.  The generic node body, run at level 1 with empty matchings on the
same slots, is its test reference.  Above level 1 the enumerator tests the
last step of a walk without pushing it (no cover-count updates, and the
orientation rejects half the steps first), and collects walks as tuples,
sorts them, and only then makes them ``Hyperwalk`` values.

A node returns slot 0's matching, which lies in its input realization
``creal``; at level 1 it is the chosen steps (e, 0), which exist only for
the live edges of ``creal``, those with both ends outside
``saturated_set(1)``.  So an untraced node whose ``creal`` is empty, or at
level 1 holds no live edge, returns the empty matching before its slot
draws.  This is exact: every draw is addressed by its own key, so skipping a
node's draws changes no other value.  A traced run evaluates every node, so
its ``LevelTrace`` list describes the full construction; it is the reference
the untraced run is tested against.  Counts over the nodes that ran a
selection (rounds used, nodes left undecided) leave out skipped nodes.

Saturation compares each vertex's matched frequency at the previous level
(a memoized Monte Carlo table, so the whole level shares one estimate)
against its crucial matched mass minus a fixed slack.  That table, like
every other statistic over sampled runs, is built by
``VimEngine.matched_indicators``, the one loop that draws keyed runs and
marks their matched vertices.

Every random draw is addressed by (recursion path, object id), and each
address carries the set of vertices it concerns.  That makes the output at a
vertex a measurable function of a bounded ball around it in the crucial
graph, which ``dependency_radius`` verifies empirically by resampling all
randomness outside a ball and checking the vertex's output never changes.

Each recursion node holds the stream of its path (a ``RandomStream``), and
its children extend that stream by their ``("rec", level, slot)`` step.
A node draws all alpha * m slot bits (m crucial edges) with one
``uniforms_at`` call over the ``("real", level, slot, edge)`` tails and
edge loci cached for its level, and each Luby round draws the priorities of
all its undecided walks with one call over their tails, joined from cached
encodings of their integers; since the hash streams and every draw is
addressed, batching changes no value, and every value equals the full-key
``keyed_uniform`` it replaces.  The saturation margin
(``VimParams.gamma_ci_factor``), the round factor (``mis._ROUND_FACTOR``)
and the per-node candidate cap (``_MAX_CANDIDATE_WALKS``) are constants, so
the round budget is a function of epsilon alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .decomposition import EdgeClassification
from .errors import CandidateWalkCapError, ParameterOverflowError
from .matching import _checked_int
from .mis import luby_rounds, mis_round_budget
from .randomness import IntKeys, RandomStream, encode_key
from .stats import binomial_se, check_epsilon

__all__ = [
    "VimParams",
    "Profile",
    "Hyperwalk",
    "enumerate_augmenting_hyperwalks",
    "build_conflict_graph",
    "apply_hyperwalks",
    "VimEngine",
    "locality_bound",
]

# Guards of ``VimParams.paper``: largest alpha and depth, and largest log2 of
# the recursion tree size, that run without ``force``.
_PAPER_ALPHA_CAP = 10**4
_PAPER_DEPTH_CAP = 10**4
_PAPER_WORK_BITS_CAP = 24.0
# One recursion node raises past this many candidate hyperwalks.
_MAX_CANDIDATE_WALKS = 100_000


@dataclass(frozen=True)
class VimParams:
    """Knobs of the recursive construction.

    Desk-scale defaults keep hyperwalk enumeration tractable; ``paper`` builds
    the faithful constants and refuses to run past the guards unless forced.
    """

    epsilon: float
    alpha: int = 7
    depth: int = 3
    walk_cap: int = 3
    gamma_samples: int = 400

    # Standard errors of a gamma estimate taken off a saturation threshold;
    # a class constant, not a field.
    gamma_ci_factor = 3.0

    def __post_init__(self):
        check_epsilon(self.epsilon)
        for name, least in (("alpha", 0), ("depth", 0), ("walk_cap", 1), ("gamma_samples", 1)):
            _checked_count(getattr(self, name), name, least)

    @property
    def slack(self) -> float:
        return 2.0 * self.epsilon * self.epsilon

    @classmethod
    def paper(cls, epsilon: float, *, force: bool = False, **overrides) -> "VimParams":
        """Paper-scale alpha = 1/eps^7 - 1, depth = 1/eps^9, walk cap < 2/eps.

        The recursion evaluates about (alpha + 1)^depth nodes, so the guard
        checks that log2 of the tree size stays under its cap too.
        """
        alpha = round(epsilon**-7) - 1
        depth = math.ceil(epsilon**-9)
        walk_cap = max(1, math.ceil(2.0 / epsilon) - 1)
        work_bits = depth * math.log2(alpha + 1) if alpha >= 0 else 0.0
        if not force and (alpha > _PAPER_ALPHA_CAP or depth > _PAPER_DEPTH_CAP
                          or work_bits > _PAPER_WORK_BITS_CAP):
            raise ParameterOverflowError(
                f"paper-scale constants for epsilon={epsilon}: alpha={alpha}, "
                f"depth={depth}, walk_cap={walk_cap}, recursion tree about "
                f"2^{work_bits:.0f} nodes; guards are alpha_cap={_PAPER_ALPHA_CAP}, "
                f"depth_cap={_PAPER_DEPTH_CAP}, work_bits_cap={_PAPER_WORK_BITS_CAP}; pass "
                f"force=True (the CLI flag --force-paper-constants, the config key "
                f"force_paper) or use desk-scale parameters"
            )
        return cls(epsilon=epsilon, alpha=alpha, depth=depth, walk_cap=walk_cap, **overrides)


class _Walk(NamedTuple):
    steps: tuple[tuple[int, int], ...]
    vertices: tuple[int, ...]


class Hyperwalk(_Walk):
    """A walk in the crucial graph whose steps carry profile-slot labels.

    An immutable ``(steps, vertices)`` tuple, equal to and hashing as the
    plain tuple of its two fields.  The constructor checks the lengths; the
    enumerator, whose walks are valid by construction, builds them with
    ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, steps: tuple[tuple[int, int], ...], vertices: tuple[int, ...]):
        if len(vertices) != len(steps) + 1:
            raise ValueError("a walk on k edges visits k + 1 vertices")
        if not steps:
            raise ValueError("hyperwalks have size at least 1")
        return tuple.__new__(cls, (steps, vertices))


class Profile:
    """Pairs (realized slot, matching of that slot) over the crucial graph."""

    __slots__ = ("cls", "realized", "matchings", "cover")

    def __init__(self, classification: EdgeClassification, realized, matchings):
        if len(realized) != len(matchings):
            raise ValueError("one matching per realized slot")
        g = classification.graph
        self.cls = classification
        self.realized = [frozenset(r) for r in realized]
        self.matchings = [frozenset(m) for m in matchings]
        self.cover = [_slot_cover(g, i, real, mat)
                      for i, (real, mat) in enumerate(zip(self.realized, self.matchings))]

    def sum_d(self) -> int:
        """Sum over vertices of the number of slots covering each: the total
        size of the slot covers."""
        return sum(map(len, self.cover))


def _slot_cover(g, i: int, real: frozenset[int], mat: frozenset[int]) -> dict[int, int]:
    """Vertex -> matched edge of slot ``i``, checking that ``mat`` is a
    matching of realized edges."""
    if not mat:
        return {}
    if not mat <= real:
        raise AssertionError(f"slot {i}: matching contains unrealized edges")
    cov: dict[int, int] = {}
    for e in sorted(mat):
        u, v = g.endpoints(e)
        if u in cov or v in cov:
            raise AssertionError(f"slot {i}: edges are not a matching")
        cov[u] = e
        cov[v] = e
    return cov


def enumerate_augmenting_hyperwalks(profile: Profile, saturated, walk_cap: int):
    """All augmenting hyperwalks up to ``walk_cap`` steps with unsaturated endpoints.

    Search is restricted to walks whose odd steps add a realized unmatched
    edge and whose even steps remove a matched edge; decorated variants that
    pad such a walk with self-cancelling steps are skipped, since they share
    the core walk's vertices and have the same effect when applied.
    Enumeration order is canonical: walks are deduplicated against their
    reversal and sorted by first endpoint, then steps.

    The depth-first search keeps each slot's cover count of every vertex
    under the walk so far, and the number of (slot, vertex) pairs covered
    more than once.  Steps alternate add and remove, so an interior visit
    leaves a vertex's slot count unchanged and each endpoint gains one; an
    odd-length walk is therefore augmenting exactly when its endpoints differ
    and no pair is over-covered, an O(1) check per step.  Every walk is
    reached once from each end and kept in its smaller orientation only,
    which the first and last steps decide.

    The search stops descending when no slot offers a step of the next
    parity (when every matching is empty, say, there is nothing to remove)
    or the walk is at ``walk_cap`` steps.  There the last step is tested
    without being pushed: an even step ends no walk, and an odd step ends
    one exactly when nothing is over-covered yet, its endpoint is a new
    unsaturated vertex, the orientation holds, and neither of its vertices
    is covered once already in its slot (as a step already in the walk is).

    Each slot's cover-count row starts as its cover: 1 at each vertex its
    matching covers, 0 elsewhere.
    """
    cadj = profile.cls.crucial_adjacency()
    n = profile.cls.graph.n
    add_slots: dict[int, list[int]] = {}
    rem_slots: dict[int, list[int]] = {}
    rows: list[list[int]] = []
    for s, (real, mat) in enumerate(zip(profile.realized, profile.matchings)):
        for e in real - mat:
            add_slots.setdefault(e, []).append(s)
        for e in mat:
            rem_slots.setdefault(e, []).append(s)
        row = [0] * n
        for v in profile.cover[s]:
            row[v] = 1
        rows.append(row)
    found: list[tuple] = []
    steps: list[tuple[int, int]] = []
    verts: list[int] = []
    over = 0

    def leaf(cur):
        # The last step adds (it is odd) and is tested without a push.  The
        # orientation compares the endpoints of a one-step walk, and the
        # first and last steps of a longer one.
        for nbr, e in cadj.get(cur, ()):
            if nbr == v0 or nbr in saturated or not (steps or v0 < nbr):
                continue
            for s in add_slots.get(e, ()):
                step = (e, s)
                if steps and not steps[0] < step:
                    continue
                row = rows[s]
                if row[cur] == 1 or row[nbr] == 1:
                    continue
                found.append((v0, (*steps, step), (*verts, nbr)))

    def extend(cur, odd):
        nonlocal over
        slot_lists, nxt = (add_slots, rem_slots) if odd else (rem_slots, add_slots)
        if not nxt or len(steps) + 1 >= walk_cap:
            if odd and not over:
                leaf(cur)
            return
        # A pair's over-cover flips exactly when its count reaches ``flip``.
        d, flip = (1, 2) if odd else (-1, 1)
        for nbr, e in cadj.get(cur, ()):
            for s in slot_lists.get(e, ()):
                step = (e, s)
                if step in steps:
                    continue
                row = rows[s]
                row[cur] += d
                row[nbr] += d
                moved = d * ((row[cur] == flip) + (row[nbr] == flip))
                over += moved
                steps.append(step)
                verts.append(nbr)
                # Steps are distinct, so a walk of two or more steps is
                # smaller than its reversal exactly when its first step is
                # smaller than its last.
                if (odd and not over and nbr != v0 and nbr not in saturated
                        and (steps[0] < step if len(steps) > 1 else v0 < nbr)):
                    found.append((v0, tuple(steps), tuple(verts)))
                extend(nbr, not odd)
                steps.pop()
                verts.pop()
                row[cur] -= d
                row[nbr] -= d
                over -= moved

    for v0 in sorted(cadj):
        if v0 in saturated:
            continue
        verts.append(v0)
        extend(v0, True)
        verts.pop()
    # Plain tuple order is (first vertex, steps): the steps and the first
    # vertex fix the walk, so the vertices never decide.
    found.sort()
    return [tuple.__new__(Hyperwalk, (walk_steps, walk_verts))
            for _, walk_steps, walk_verts in found]


def build_conflict_graph(walks) -> list[set[int]]:
    """One node per walk; an edge whenever two walks share a vertex."""
    by_vertex: dict[int, set[int]] = {}
    for i, w in enumerate(walks):
        for v in w.vertices:
            by_vertex.setdefault(v, set()).add(i)
    adj: list[set[int]] = []
    for i, w in enumerate(walks):
        # Built from one iterable, each set's table fits its elements;
        # set().union(*groups) sizes it for the sum of the groups, which
        # doubles peak memory on dense conflict graphs.
        nbrs = set(chain.from_iterable(by_vertex[v] for v in w.vertices))
        nbrs.discard(i)
        adj.append(nbrs)
    return adj


def apply_hyperwalks(profile: Profile, walks) -> Profile:
    """Apply vertex-disjoint augmenting hyperwalks; slot-wise union minus removal.

    Only the slots the walks touch are rebuilt and re-validated; the others
    were validated when ``profile`` was built and are carried over.
    """
    seen: set[int] = set()
    matchings = list(profile.matchings)
    touched: set[int] = set()
    for w in walks:
        if not seen.isdisjoint(w.vertices):
            raise AssertionError("hyperwalks passed to apply must be vertex-disjoint")
        seen.update(w.vertices)
        adds: dict[int, set[int]] = {}
        rems: dict[int, set[int]] = {}
        for pos, (e, s) in enumerate(w.steps, start=1):
            (adds if pos % 2 == 1 else rems).setdefault(s, set()).add(e)
        for s, es in adds.items():
            matchings[s] = matchings[s] | es
        for s, es in rems.items():
            matchings[s] = matchings[s] - es
        touched.update(adds, rems)
    out = Profile.__new__(Profile)
    out.cls, out.realized, out.matchings = profile.cls, profile.realized, matchings
    out.cover = cover = list(profile.cover)
    for s in sorted(touched):
        cover[s] = _slot_cover(profile.cls.graph, s, profile.realized[s], matchings[s])
    return out


@dataclass
class LevelTrace:
    level: int
    sum_d_before: int
    sum_d_after: int
    selected: int
    candidates: int
    mis_rounds: int
    mis_undecided: int
    slot_sizes: tuple[int, ...]


class VimEngine:
    """Runs the recursive construction for one (classification, params, seed).

    Gamma tables (per-vertex matched frequency at each level) are memoized on
    the engine, so every saturation decision at a level shares one estimate
    and the tables act as constants of any individual run, perturbed ones
    included: ``matched_indicators`` builds them with the engine's own stream.
    """

    def __init__(self, classification: EdgeClassification, params: VimParams, seed: int):
        self.cls = classification
        self.params = params
        self.rand = RandomStream(seed, ("vim",))
        self._gamma: dict[int, np.ndarray] = {}
        self._saturated: dict[int, frozenset[int]] = {}
        # Luby rounds of every selection, fixed before any draw: a node that
        # runs has at most _MAX_CANDIDATE_WALKS candidates, so none of them
        # conflicts with more than _MAX_CANDIDATE_WALKS - 1 others.
        self.mis_rounds = mis_round_budget(_MAX_CANDIDATE_WALKS - 1, params.epsilon)
        self.perturbations_run = 0
        g = classification.graph
        self._cedges = classification.crucial_edges
        self._cedge_set = frozenset(self._cedges)
        self._cps = [float(g.ps[e]) for e in self._cedges]
        self._ends = {e: g.endpoints(e) for e in self._cedges}
        self._loci = [self._ends[e] for e in self._cedges]
        self._keys = IntKeys()
        self._draws: dict = {}
        self._l1_edges: list | None = None
        self._l1_live: frozenset[int] | None = None

    # -- randomness ---------------------------------------------------------

    def input_realization(self, key: tuple, rand=None) -> frozenset[int]:
        """Sample a fresh realization of the crucial graph, bit per edge."""
        bits = (rand or self.rand).child(*key).uniforms_at(*self._edge_draws(None))
        return self._realized(bits)

    def _realized(self, bits) -> frozenset[int]:
        """Crucial edges whose draw, in ``bits`` by crucial-edge index, falls under p_e."""
        return frozenset(e for e, x, p in zip(self._cedges, bits, self._cps) if x < p)

    def _edge_draws(self, level) -> tuple[list[bytes], list]:
        """Tails and loci of one node's slot draws at ``level``: ``encode_key(
        ("real", level, i, e))`` for slots i = 1..alpha, slot-major, then
        crucial edges e; level None gives the input draws, ``("input", e)``.
        Cached per level."""
        draws = self._draws.get(level)
        if draws is None:
            prefixes = ([("input",)] if level is None
                        else [("real", level, i) for i in range(1, self.params.alpha + 1)])
            draws = self._draws[level] = (
                [encode_key((*prefix, e)) for prefix in prefixes for e in self._cedges],
                self._loci * len(prefixes))
        return draws

    # -- gamma tables and saturation ----------------------------------------

    def gamma_table(self, r: int) -> np.ndarray:
        if r not in self._gamma:
            self._build_gamma(r)
        return self._gamma[r]

    def gamma_se(self, r: int) -> np.ndarray:
        return binomial_se(self.gamma_table(r), self.params.gamma_samples)

    def _build_gamma(self, r: int):
        if r == 0:
            self._gamma[0] = np.zeros(self.cls.graph.n)
        else:
            self._gamma[r] = self.matched_indicators(
                ("gamma", r), self.params.gamma_samples, r).mean(axis=0)

    def saturated_set(self, r: int) -> frozenset[int]:
        """Vertices saturated at level r, from the level r-1 gamma table.

        A vertex is saturated when its estimated matched frequency already
        reaches c_v - slack, minus a confidence margin so that estimation
        noise errs toward saturating early (never toward overshooting).
        """
        if r not in self._saturated:
            if r < 1:
                raise ValueError(f"saturation is defined from level 1 on, got level {r}")
            gam = self.gamma_table(r - 1)
            se = self.gamma_se(r - 1)
            threshold = self.cls.c_v - self.params.slack - self.params.gamma_ci_factor * se
            self._saturated[r] = frozenset(int(v) for v in np.flatnonzero(gam >= threshold))
        return self._saturated[r]

    # -- the construction ----------------------------------------------------

    def matched_indicators(self, prefix: tuple, runs: int, depth: int) -> np.ndarray:
        """``runs`` x n booleans; row s marks the vertices matched by the run
        at key ``prefix + (s,)`` on the input realization drawn at that key."""
        X = np.zeros((runs, self.cls.graph.n), dtype=bool)
        for s in range(runs):
            key = prefix + (s,)
            z = self.run(depth, self.input_realization(key), key)
            X[s, [v for e in z for v in self._ends[e]]] = True
        return X

    def run(self, depth: int, crealization, key: tuple = ("run",),
            trace: list | None = None) -> frozenset[int]:
        """Matching (edge ids) of the given crucial realization at ``depth``."""
        depth = _checked_count(depth, "depth", 0)
        m = self.cls.graph.m
        creal = frozenset(_checked_int(e, "edge id", m, m) for e in crealization)
        if not creal <= self._cedge_set:
            raise ValueError("input realization contains non-crucial edges")
        return self._find(depth, creal, self.rand.child(*key), trace)

    def _find(self, r: int, creal: frozenset[int], rand: RandomStream, trace):
        """Level-r matching of ``creal``; ``rand`` is the stream of this
        node's recursion path, to which every draw appends only its tail."""
        if r == 0:
            return frozenset()
        # Slot 0's matching lies in ``creal``, and at level 1 in its live
        # edges: an untraced node with none returns it without drawing.
        if trace is None and (creal.isdisjoint(self._live_edges()) if r == 1 else not creal):
            return frozenset()
        bits = rand.uniforms_at(*self._edge_draws(r))
        if r == 1:
            return self._level_one(creal, bits, rand, trace)
        m, ik = len(self._cedges), self._keys
        slots = [creal] + [self._realized(bits[k * m:(k + 1) * m])
                           for k in range(self.params.alpha)]
        matchings = [self._find(r - 1, slots[i], rand.child(ik[("rec", r, i)]), trace)
                     for i in range(len(slots))]
        return self._node(r, slots, matchings, rand, trace)

    def _level_one(self, creal: frozenset[int], bits: list, rand: RandomStream, trace):
        """``_node(1, slots, [frozenset()] * len(slots), rand, trace)`` for
        the slots ``creal`` and ``bits`` realize, on one-step walks (e, s)
        with unsaturated ends (u, v), ``u < v``.  Taken by (u, e), then by s,
        they come in the enumerator's order, and ``encode_key((u, e, s))`` is
        a walk's priority tail."""
        saturated, m = self.saturated_set(1), len(self._cedges)
        members, tails, steps = [], [], []
        for u, e, v, j, p, etails in self._level_one_edges():
            if u in saturated or v in saturated:
                continue
            uv = (u, v)
            if e in creal:
                members.append(uv)
                tails.append(etails[0])
                steps.append((e, 0))
            for s, x in enumerate(bits[j::m], 1):
                if x < p:
                    members.append(uv)
                    tails.append(etails[s])
                    steps.append((e, s))
        result = self._select(1, members, tails, rand)
        chosen = [steps[i] for i in result.in_set]
        # Disjoint steps keep each slot a matching, so the covers sum to 2 * selected.
        if len({x for i in result.in_set for x in members[i]}) != 2 * len(chosen):
            raise AssertionError("level-1 steps chosen by the independent set share a vertex")
        if trace is not None:
            sizes = [0] * (self.params.alpha + 1)
            for _, s in chosen:
                sizes[s] += 1
            trace.append(LevelTrace(1, 0, 2 * len(chosen), len(chosen), len(steps),
                                    result.rounds, len(result.undecided), tuple(sizes)))
        z = frozenset(e for e, s in chosen if s == 0)
        if not z <= creal:
            raise AssertionError("returned matching left the input realization")
        return z

    def _live_edges(self) -> frozenset[int]:
        """Crucial edges with both ends outside ``saturated_set(1)``: the
        only edges a level-1 node can match.  Built on first use."""
        if self._l1_live is None:
            saturated = self.saturated_set(1)
            self._l1_live = frozenset(e for e, (u, v) in zip(self._cedges, self._loci)
                                      if u not in saturated and v not in saturated)
        return self._l1_live

    def _level_one_edges(self) -> list[tuple]:
        """``(u, e, v, j, p_e, tails)`` per crucial edge e = (u, v) at index
        j, ascending by (u, e), where ``tails[s]`` is ``encode_key((u, e, s))``
        for slots s = 0..alpha.  Built on first use."""
        if self._l1_edges is None:
            ik, slots = self._keys, range(self.params.alpha + 1)
            self._l1_edges = sorted(
                (u, e, v, j, p, [ik[u] + ik[e] + ik[s] for s in slots])
                for j, (e, (u, v), p) in enumerate(zip(self._cedges, self._loci, self._cps)))
        return self._l1_edges

    def _node(self, r: int, slots: list, matchings: list, rand: RandomStream, trace):
        """One recursion node over its realized ``slots`` and their level-(r-1)
        ``matchings``: enumerate, select and apply augmenting hyperwalks, and
        return slot 0's matching.  Level 1 runs ``_level_one`` instead; this
        body at r = 1 with empty matchings is its reference."""
        ik = self._keys
        profile = Profile(self.cls, slots, matchings)
        saturated = self.saturated_set(r)
        walks = enumerate_augmenting_hyperwalks(profile, saturated, self.params.walk_cap)
        walk_tails = []
        for w in walks:
            # encode_key((v0, e1, s1, e2, s2, ...)) from cached pieces
            parts = [ik[w.vertices[0]]]
            for e, s in w.steps:
                parts.append(ik[e])
                parts.append(ik[s])
            walk_tails.append(b"".join(parts))
        result = self._select(r, [w.vertices for w in walks], walk_tails, rand)
        chosen = [walks[i] for i in result.in_set]
        after = apply_hyperwalks(profile, chosen)
        d_before = profile.sum_d()
        d_after = after.sum_d()
        if d_before + 2 * len(chosen) != d_after:
            raise AssertionError(
                f"counting identity failed at level {r}: "
                f"{d_before} + 2*{len(chosen)} != {d_after}"
            )
        if trace is not None:
            trace.append(
                LevelTrace(
                    level=r,
                    sum_d_before=d_before,
                    sum_d_after=d_after,
                    selected=len(chosen),
                    candidates=len(walks),
                    mis_rounds=result.rounds,
                    mis_undecided=len(result.undecided),
                    slot_sizes=tuple(len(m) for m in after.matchings),
                )
            )
        z = after.matchings[0]
        if not z <= slots[0]:
            raise AssertionError("returned matching left the input realization")
        return z

    def _select(self, r: int, members: list, tails: list[bytes], rand: RandomStream):
        """Luby's rounds over a level-r node's candidates, given by their
        vertices and their priority tails, under the engine's round budget
        ``mis_rounds``; raises past ``_MAX_CANDIDATE_WALKS``."""
        if len(members) > _MAX_CANDIDATE_WALKS:
            raise CandidateWalkCapError(
                f"{len(members)} candidate hyperwalks exceed the cap of "
                f"{_MAX_CANDIDATE_WALKS}; reduce walk_cap or alpha"
            )
        ik = self._keys

        def priorities(rnd: int, nodes: list) -> list:
            state = rand.child(ik[("mis", r, rnd)])
            if len(nodes) == len(tails):  # every node, as in the first round
                return state.uniforms_at(tails, members)
            return state.uniforms_at(map(tails.__getitem__, nodes),
                                     map(members.__getitem__, nodes))

        return luby_rounds(members, self.mis_rounds, priorities)

    # -- locality ------------------------------------------------------------

    def dependency_radius(self, v: int, depth: int, trials: int = 20) -> int:
        """Smallest rho such that resampling all randomness whose locus leaves
        the rho-ball around v (in the crucial graph) never changes whether v
        is matched, over ``trials`` perturbations per radius."""
        if not 0 <= v < self.cls.graph.n:
            raise ValueError(f"vertex {v} is not in range({self.cls.graph.n})")
        depth = _checked_count(depth, "depth", 0)
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        dist = self.cls.crucial_distances(v)
        ecc = max(dist.values()) if dist else 0
        key = ("dep", v)
        base_real = self.input_realization(key)
        base_z = self._find(depth, base_real, self.rand.child(*key), None)
        base_x = any(v in self._ends[e] for e in base_z)
        for rho in range(0, ecc + 1):
            def keep(locus, _rho=rho):
                return all(dist.get(w, math.inf) <= _rho for w in locus)

            stable = True
            for trial in range(trials):
                perturbed = self.rand.perturbed(trial, keep)
                creal = self.input_realization(key, rand=perturbed)
                z = self._find(depth, creal, perturbed.child(*key), None)
                self.perturbations_run += 1
                x = any(v in self._ends[e] for e in z)
                if x != base_x:
                    stable = False
                    break
            if stable:
                return rho
        return ecc


def _checked_count(value, name: str, least: int) -> int:
    """``value`` as an int of at least ``least``, else a ``ValueError`` that
    names it ``name``.  A bool or a float would otherwise pass as a count (a
    level, a slot count), and an untraced node whose output is provably
    empty returns before any draw could refuse it."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def locality_bound(depth: int, walk_cap: int, mis_rounds: int) -> int:
    """Radius bound from the round structure: each level reaches at most one
    walk span per MIS hop plus the walk around the vertex itself.
    ``mis_rounds`` is the engine's round budget, ``VimEngine.mis_rounds``:
    fixed from epsilon and the candidate cap, it bounds the hops of every
    node, whatever the realizations far from the vertex."""
    return depth * walk_cap * (2 * mis_rounds + 1)

