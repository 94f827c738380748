"""Vertex-independent matching on realized crucial edges.

The construction is recursive: at each level it draws fresh realizations of
the crucial graph into profile slots, recursively matches each slot,
enumerates augmenting hyperwalks whose endpoints are still unsaturated,
selects a vertex-disjoint subset of them with a round-limited randomized
independent set, and applies them.  The returned matching is slot 0's.

Two walks conflict when they share a vertex.  The independent set runs on
each walk's vertices as its members, and the round budget needs only the
largest conflict degree, which ``mis.max_conflict_degree`` computes from the
walks grouped by vertex set; so no pairwise conflict graph is built on the
hot path (``build_conflict_graph`` stays as the explicit form and the test
oracle).  Applying the chosen walks rebuilds only the slots they touch,
and carries the profile's cover total over through their size changes.

Most nodes are at level 1, where every matching is empty and each walk is
one step, so the enumerator keeps its fixed cost low: the last step of a
walk is tested without being pushed (no cover-count updates, and the
orientation rejects half the steps first), an empty matching offers its
realized set as add steps as it is, a slot's cover-count row is built only
when a step is pushed in it, and walks are collected as tuples, sorted, and
only then built as ``Hyperwalk`` objects without re-checking them.

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
A slot draw hashes only its pre-encoded ``("real", level, slot, edge)``
tail, and an MIS priority only its round and walk, whose key is joined from
cached encodings of its integers; since the hash streams, every value equals
the full-key ``keyed_uniform`` it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .decomposition import EdgeClassification
from .errors import ConflictGraphCapError, ParameterOverflowError
from .mis import luby_rounds, max_conflict_degree, mis_round_budget
from .randomness import IntKeys, RandomStream, encode_key

__all__ = [
    "VimParams",
    "Profile",
    "Hyperwalk",
    "is_augmenting",
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
    gamma_ci_factor: float = 3.0
    mis_round_factor: float = 2.0
    conflict_cap: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.alpha < 0 or self.depth < 0 or self.walk_cap < 1 or self.gamma_samples < 1:
            raise ValueError("alpha, depth >= 0; walk_cap, gamma_samples >= 1")

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


class Hyperwalk:
    """A walk in the crucial graph whose steps carry profile-slot labels.

    Immutable, with value equality and hash over (steps, vertices).  The
    public constructor checks the lengths; the enumerator, whose walks are
    valid by construction, builds them through ``_unchecked_walk``.
    """

    __slots__ = ("steps", "vertices")

    def __init__(self, steps: tuple[tuple[int, int], ...], vertices: tuple[int, ...]):
        if len(vertices) != len(steps) + 1:
            raise ValueError("a walk on k edges visits k + 1 vertices")
        if not steps:
            raise ValueError("hyperwalks have size at least 1")
        _set_steps(self, steps)
        _set_vertices(self, vertices)

    def __setattr__(self, name, value):
        raise AttributeError(f"Hyperwalk is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Hyperwalk is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Hyperwalk:
            return NotImplemented
        return self.steps == other.steps and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.steps, self.vertices))

    def __repr__(self):
        return f"Hyperwalk(steps={self.steps!r}, vertices={self.vertices!r})"

    def __reduce__(self):
        return Hyperwalk, (self.steps, self.vertices)

    @property
    def size(self) -> int:
        return len(self.steps)

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]


_set_steps = Hyperwalk.steps.__set__
_set_vertices = Hyperwalk.vertices.__set__


def _unchecked_walk(steps, vertices) -> Hyperwalk:
    w = object.__new__(Hyperwalk)
    _set_steps(w, steps)
    _set_vertices(w, vertices)
    return w


class Profile:
    """Pairs (realized slot, matching of that slot) over the crucial graph."""

    __slots__ = ("cls", "realized", "matchings", "cover", "_sum_d")

    def __init__(self, classification: EdgeClassification, realized, matchings):
        if len(realized) != len(matchings):
            raise ValueError("one matching per realized slot")
        g = classification.graph
        self.cls = classification
        self.realized = [frozenset(r) for r in realized]
        self.matchings = [frozenset(m) for m in matchings]
        self.cover = [_slot_cover(g, i, real, mat)
                      for i, (real, mat) in enumerate(zip(self.realized, self.matchings))]
        self._sum_d = sum(map(len, self.cover))

    @property
    def n_slots(self) -> int:
        return len(self.realized)

    def d(self, v: int) -> int:
        return sum(1 for cov in self.cover if v in cov)

    def sum_d(self) -> int:
        """Sum over vertices of ``d(v)``: the total size of the slot covers."""
        return self._sum_d


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


def is_augmenting(profile: Profile, walk: Hyperwalk) -> bool:
    """Whether applying the walk keeps every slot a matching, preserves the
    slot-membership count of interior vertices, and raises it by exactly one
    at both (distinct) endpoints."""
    v0, vk = walk.endpoints
    if v0 == vk:
        # Coincident endpoints cannot each gain one slot; ruling these out
        # also keeps the per-level counting identity exact.
        return False
    adds: dict[int, set[int]] = {}
    rems: dict[int, set[int]] = {}
    for pos, (e, s) in enumerate(walk.steps, start=1):
        if not (0 <= s < profile.n_slots):
            return False
        target = adds if pos % 2 == 1 else rems
        target.setdefault(s, set()).add(e)
    g = profile.cls.graph
    new_cover: dict[int, dict[int, int]] = {}
    for s in set(adds) | set(rems):
        edges = (profile.matchings[s] | adds.get(s, set())) - rems.get(s, set())
        if not edges <= profile.realized[s]:
            return False
        cov: dict[int, int] = {}
        for e in edges:
            u, v = g.endpoints(e)
            if u in cov or v in cov:
                return False
            cov[u] = e
            cov[v] = e
        new_cover[s] = cov
    for v in set(walk.vertices):
        before = profile.d(v)
        after = 0
        for s in range(profile.n_slots):
            cov = new_cover.get(s)
            if cov is None:
                cov = profile.cover[s]
            if v in cov:
                after += 1
        expected = before + 1 if v in (v0, vk) else before
        if after != expected:
            return False
    return True


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
    parity (at level 1, say, every matching is empty, so nothing to remove)
    or the walk is at ``walk_cap`` steps.  There the last step is tested
    without being pushed: an even step ends no walk, and an odd step ends
    one exactly when nothing is over-covered yet, its endpoint is a new
    unsaturated vertex, the orientation holds, the step is unused, and
    neither of its vertices is covered once already in its slot.  So a
    level-1 node only tests single steps, and half of them fail the
    orientation before any other work.

    The per-slot tables are built lazily: a slot with an empty matching
    offers every realized edge as an add step, and a slot's cover-count row
    is built the first time a step is pushed in it.  Until then its counts
    are the slot's cover, which the leaf test reads directly.
    """
    cadj = profile.cls.crucial_adjacency()
    n = profile.cls.graph.n
    cover = profile.cover
    add_slots: dict[int, list[int]] = {}
    rem_slots: dict[int, list[int]] = {}
    for s, (real, mat) in enumerate(zip(profile.realized, profile.matchings)):
        if mat:
            real = real - mat
            for e in mat:
                rem_slots.setdefault(e, []).append(s)
        for e in real:
            add_slots.setdefault(e, []).append(s)
    rows: dict[int, list[int]] = {}
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
                if steps and (not steps[0] < step or step in steps):
                    continue
                row = rows.get(s)
                if row is None:
                    cov = cover[s]
                    if cur in cov or nbr in cov:
                        continue
                elif row[cur] == 1 or row[nbr] == 1:
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
                row = rows.get(s)
                if row is None:
                    row = rows[s] = [0] * n
                    for v in cover[s]:
                        row[v] = 1
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
    return [_unchecked_walk(walk_steps, walk_verts) for _, walk_steps, walk_verts in found]


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
    were validated when ``profile`` was built and are carried over, and so
    is ``sum_d``, changed by each touched slot's new cover size minus its old.
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
    sum_d = profile._sum_d
    for s in sorted(touched):
        new = _slot_cover(profile.cls.graph, s, profile.realized[s], matchings[s])
        sum_d += len(new) - len(cover[s])
        cover[s] = new
    out._sum_d = sum_d
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
    and the tables act as constants of any individual run.
    """

    def __init__(self, classification: EdgeClassification, params: VimParams, seed: int):
        self.cls = classification
        self.params = params
        self.rand = RandomStream(seed, ("vim",))
        self._gamma: dict[int, np.ndarray] = {}
        self._gamma_se: dict[int, np.ndarray] = {}
        self._saturated: dict[int, frozenset[int]] = {}
        self.max_mis_rounds = 0
        self.perturbations_run = 0
        g = classification.graph
        self._cedges = classification.crucial_edges
        self._cedge_set = frozenset(self._cedges)
        self._cp = {e: float(g.ps[e]) for e in self._cedges}
        self._ends = {e: g.endpoints(e) for e in self._cedges}
        self._input_tails = [encode_key(("input", e)) for e in self._cedges]
        self._tails: dict[tuple, bytes] = {}
        self._int_keys = IntKeys()
        self._real_tails: dict[tuple[int, int], list[bytes]] = {}

    # -- randomness ---------------------------------------------------------

    def input_realization(self, key: tuple, rand=None) -> frozenset[int]:
        """Sample a fresh realization of the crucial graph, bit per edge."""
        return self._draw_edges((rand or self.rand).child(*key), self._input_tails)

    def _draw_edges(self, rand: RandomStream, tails: list[bytes]) -> frozenset[int]:
        """Crucial edges whose draw at ``rand`` + tail falls under p_e."""
        cp, ends = self._cp, self._ends
        return frozenset(e for e, tail in zip(self._cedges, tails)
                         if rand.uniform_at(tail, ends[e]) < cp[e])

    def _tail(self, key: tuple) -> bytes:
        raw = self._tails.get(key)
        if raw is None:
            raw = self._tails[key] = encode_key(key)
        return raw

    def _slot_tails(self, r: int, i: int) -> list[bytes]:
        tails = self._real_tails.get((r, i))
        if tails is None:
            tails = [encode_key(("real", r, i, e)) for e in self._cedges]
            self._real_tails[(r, i)] = tails
        return tails

    # -- gamma tables and saturation ----------------------------------------

    def gamma_table(self, r: int) -> np.ndarray:
        if r not in self._gamma:
            self._build_gamma(r)
        return self._gamma[r]

    def gamma_se(self, r: int) -> np.ndarray:
        self.gamma_table(r)
        return self._gamma_se[r]

    def _build_gamma(self, r: int):
        n = self.cls.graph.n
        if r == 0:
            self._gamma[0] = np.zeros(n)
            self._gamma_se[0] = np.zeros(n)
            return
        samples = self.params.gamma_samples
        gam = self.matched_indicators(("gamma", r), samples, r).mean(axis=0)
        self._gamma[r] = gam
        self._gamma_se[r] = np.sqrt(gam * (1.0 - gam) / samples)

    def saturated_set(self, r: int) -> frozenset[int]:
        """Vertices saturated at level r, from the level r-1 gamma table.

        A vertex is saturated when its estimated matched frequency already
        reaches c_v - slack, minus a confidence margin so that estimation
        noise errs toward saturating early (never toward overshooting).
        """
        if r not in self._saturated:
            gam = self.gamma_table(r - 1)
            se = self._gamma_se[r - 1]
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
        creal = frozenset(int(e) for e in crealization)
        if not creal <= self._cedge_set:
            raise ValueError("input realization contains non-crucial edges")
        return self._find(depth, creal, self.rand.child(*key), trace)

    def _find(self, r: int, creal: frozenset[int], rand: RandomStream, trace):
        """Level-r matching of ``creal``; ``rand`` is the stream of this
        node's recursion path, to which every draw appends only its tail."""
        if r == 0:
            return frozenset()
        alpha = self.params.alpha
        slots = [creal]
        for i in range(1, alpha + 1):
            slots.append(self._draw_edges(rand, self._slot_tails(r, i)))
        if r == 1:
            # Level 0 matches nothing and draws nothing, so skip its streams.
            matchings = [frozenset()] * (alpha + 1)
        else:
            matchings = [
                self._find(r - 1, slots[i], rand.child(self._tail(("rec", r, i))), trace)
                for i in range(alpha + 1)
            ]
        profile = Profile(self.cls, slots, matchings)
        saturated = self.saturated_set(r)
        walks = enumerate_augmenting_hyperwalks(profile, saturated, self.params.walk_cap)
        if len(walks) > self.params.conflict_cap:
            raise ConflictGraphCapError(
                f"{len(walks)} candidate hyperwalks exceed the cap of "
                f"{self.params.conflict_cap}; reduce walk_cap or alpha"
            )
        members = [w.vertices for w in walks]
        budget = mis_round_budget(max_conflict_degree(members), self.params.epsilon,
                                  self.params.mis_round_factor)
        self.max_mis_rounds = max(self.max_mis_rounds, budget)
        ik = self._int_keys
        walk_tails = []
        for w in walks:
            # encode_key((v0, e1, s1, e2, s2, ...)) from cached pieces
            parts = [ik[w.vertices[0]]]
            for e, s in w.steps:
                parts.append(ik[e])
                parts.append(ik[s])
            walk_tails.append(b"".join(parts))
        round_states: dict[int, RandomStream] = {}

        def priority(rnd: int, node: int) -> float:
            state = round_states.get(rnd)
            if state is None:
                state = round_states[rnd] = rand.child(self._tail(("mis", r, rnd)))
            return state.uniform_at(walk_tails[node], walks[node].vertices)

        result = luby_rounds(members, budget, priority)
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
        if not z <= creal:
            raise AssertionError("returned matching left the input realization")
        return z

    # -- locality ------------------------------------------------------------

    def dependency_radius(self, v: int, depth: int, trials: int = 20) -> int:
        """Smallest rho such that resampling all randomness whose locus leaves
        the rho-ball around v (in the crucial graph) never changes whether v
        is matched, over ``trials`` perturbations per radius."""
        # Freeze gamma tables with the engine's own randomness first, so the
        # saturation thresholds are constants of the perturbed runs.
        for level in range(1, depth + 1):
            self.saturated_set(level)
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


def locality_bound(depth: int, walk_cap: int, mis_rounds: int) -> int:
    """Radius bound from the round structure: each level reaches at most one
    walk span per MIS hop plus the walk around the vertex itself."""
    return depth * walk_cap * (2 * mis_rounds + 1)

