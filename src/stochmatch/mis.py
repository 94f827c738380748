"""Round-synchronous randomized independent set, simulated centrally.

Nodes are given by their members (for VIM, a hyperwalk's vertices; for an
explicit graph, its incident edges), and two nodes conflict exactly when
they share a member, so no pairwise conflict graph is ever built.  Each
round, every undecided node draws a fresh priority and joins the independent
set when it is the strict, unique minimum at every one of its members, which
is Luby's rule "beats all undecided neighbours"; winners and the nodes that
share a member with them become decided.  The round budget depends only on
the maximum degree and the accuracy parameter, never on the number of
nodes, which is what keeps each node's output a function of a bounded
neighborhood.  Nodes still undecided when the budget runs out are simply
left out, so the result is always independent but only approximately
maximal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .randomness import IntKeys, as_stream
from .stats import check_epsilon

__all__ = [
    "MisResult",
    "apx_mis",
    "luby_rounds",
    "max_conflict_degree",
    "mis_round_budget",
]

# The constant c of the round budget c * log2((delta + 2) / delta_fail).
_ROUND_FACTOR = 2.0


@dataclass
class MisResult:
    in_set: tuple[int, ...]
    undecided: tuple[int, ...]
    rounds: int


def mis_round_budget(max_degree: int, epsilon: float) -> int:
    """Round count c * log2((delta + 2) / delta_fail), delta_fail = eps / (10 (delta+1)),
    with c = ``_ROUND_FACTOR``."""
    check_epsilon(epsilon)
    delta_fail = epsilon / (10.0 * (max_degree + 1))
    return max(1, math.ceil(_ROUND_FACTOR * math.log2((max_degree + 2) / delta_fail)))


def max_conflict_degree(members) -> int:
    """Largest number of other nodes that share a member with one node.

    One pass counts the nodes per member tuple, and only these groups are
    intersected: a node of tuple C has degree (number of nodes whose tuple
    meets C) - 1.  One set in two orders, or with a repeat, is two groups
    that meet, and a group without members meets nothing.
    """
    groups: dict[tuple, int] = {}
    for m in members:
        m = tuple(m)
        groups[m] = groups.get(m, 0) + 1
    by_member: dict = {}
    for c in groups:
        for m in c:
            by_member.setdefault(m, []).append(c)
    best = 1  # so that no groups give degree 0
    for c in groups:
        met = set()
        for m in c:
            met.update(by_member[m])
        total = 0
        for d in met:
            total += groups[d]
        if total > best:
            best = total
    return best - 1


def luby_rounds(members, rounds: int, priorities) -> MisResult:
    """Run the round-synchronous rule with priorities from ``priorities(round, nodes)``.

    ``members`` is a sequence of member collections indexed by node; two
    nodes are neighbours when they share a member.  Each round asks once for
    the priorities of all its undecided nodes, given as an ascending list,
    and takes back a list of one priority per node in that order, so a
    caller can draw a whole round in one batch.  Each round records the
    lowest priority at every member, the node holding it, and the second
    lowest; a node joins when it holds the lowest at each of its members and
    is strictly below the second lowest there.  That is exactly the rule
    ``all(pri[v] < pri[u] for undecided neighbours u)``, ties included, at a
    cost linear in the members of the undecided nodes.
    """
    undecided = set(range(len(members)))
    chosen = []
    rounds_used = 0
    for r in range(rounds):
        if not undecided:
            break
        rounds_used = r + 1
        order = sorted(undecided)
        pri = priorities(r, order)
        if len(pri) != len(order):
            raise ValueError(f"round {r}: {len(pri)} priorities for {len(order)} nodes")
        # member -> [lowest priority, its node, second-lowest priority or None]
        low: dict = {}
        for v, p in zip(order, pri):
            for m in members[v]:
                rec = low.get(m)
                if rec is None:
                    low[m] = [p, v, None]
                elif rec[1] == v:
                    continue  # a member listed twice by one node
                elif p < rec[0]:
                    rec[2] = rec[0]
                    rec[0] = p
                    rec[1] = v
                elif rec[2] is None or p < rec[2]:
                    rec[2] = p
        joined = []
        taken = set()
        for v, p in zip(order, pri):
            mems = members[v]
            for m in mems:
                rec = low[m]
                if rec[1] != v or (rec[2] is not None and not p < rec[2]):
                    break
            else:
                joined.append(v)
                taken.update(mems)
        chosen.extend(joined)
        undecided = {u for u in undecided if taken.isdisjoint(members[u])}
        # A joiner with no members takes nothing, so drop the joiners too.
        undecided.difference_update(joined)
    return MisResult(
        in_set=tuple(sorted(chosen)),
        undecided=tuple(sorted(undecided)),
        rounds=rounds_used,
    )


def apx_mis(adjacency, epsilon: float, seed) -> MisResult:
    """Independent set of expected size close to a maximal one.

    Node priorities are independent keyed uniforms per (round, node), drawn
    one round at a time, so the outcome distribution is symmetric under any
    relabeling of the nodes.
    Each node's members are its incident edges, so ``adjacency`` must be
    symmetric and loop-free.
    """
    members = []
    for v, nbrs in enumerate(adjacency):
        if v in nbrs:
            raise ValueError(f"node {v} is its own neighbour")
        for u in nbrs:
            if not 0 <= u < len(adjacency):
                raise ValueError(f"node {v} has neighbour {u} outside 0..{len(adjacency) - 1}")
            if v not in adjacency[u]:
                raise ValueError(f"adjacency is not symmetric: {u} in adjacency[{v}] "
                                 f"but {v} not in adjacency[{u}]")
        members.append([(u, v) if u < v else (v, u) for u in nbrs])
    max_deg = max((len(a) for a in adjacency), default=0)
    stream = as_stream(seed, "mis")
    ik = IntKeys()

    def priorities(r, nodes):
        # The draw of (round r, node v) is at ("round", r, "node", v); it
        # concerns no vertices, so a perturbed stream resamples it.
        return stream.child("round", r, "node").uniforms_at(
            [ik[v] for v in nodes], [None] * len(nodes))

    result = luby_rounds(members, mis_round_budget(max_deg, epsilon), priorities)
    _assert_independent(adjacency, result.in_set)
    return result


def _assert_independent(adjacency, nodes):
    picked = set(nodes)
    for v in picked:
        for u in adjacency[v]:
            if u in picked:
                raise AssertionError(f"nodes {u} and {v} are adjacent but both selected")
