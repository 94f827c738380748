"""Round-synchronous randomized independent set, simulated centrally.

Each round, every undecided node draws a fresh priority and joins the
independent set when it beats all undecided neighbors; winners and their
neighbors become decided.  The round budget depends only on the maximum
degree and the accuracy parameter, never on the number of nodes, which is
what keeps each node's output a function of a bounded neighborhood.  Nodes
still undecided when the budget runs out are simply left out, so the result
is always independent but only approximately maximal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .randomness import as_stream

__all__ = ["MisResult", "apx_mis", "luby_rounds", "mis_round_budget", "greedy_complete"]


@dataclass
class MisResult:
    in_set: tuple[int, ...]
    undecided: tuple[int, ...]
    rounds: int


def mis_round_budget(max_degree: int, epsilon: float, factor: float = 2.0) -> int:
    """Round count c * log2((delta + 2) / delta_fail), delta_fail = eps / (10 (delta+1))."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    delta_fail = epsilon / (10.0 * (max_degree + 1))
    return max(1, math.ceil(factor * math.log2((max_degree + 2) / delta_fail)))


def luby_rounds(adjacency, rounds: int, priority) -> MisResult:
    """Run the round-synchronous rule with priorities from ``priority(round, node)``.

    ``adjacency`` is a sequence of neighbor collections indexed by node.
    """
    n = len(adjacency)
    undecided = set(range(n))
    chosen = []
    rounds_used = 0
    for r in range(rounds):
        if not undecided:
            break
        rounds_used = r + 1
        pri = {v: priority(r, v) for v in undecided}
        joined = [
            v
            for v in sorted(undecided)
            if all(pri[v] < pri[u] for u in adjacency[v] if u in undecided)
        ]
        if not joined:
            continue
        removed = set(joined)
        for v in joined:
            chosen.append(v)
            removed.update(u for u in adjacency[v] if u in undecided)
        undecided -= removed
    return MisResult(
        in_set=tuple(sorted(chosen)),
        undecided=tuple(sorted(undecided)),
        rounds=rounds_used,
    )


def apx_mis(adjacency, epsilon: float, seed) -> MisResult:
    """Independent set of expected size close to a maximal one.

    Node priorities are independent keyed uniforms per (round, node), so the
    outcome distribution is symmetric under any relabeling of the nodes.
    """
    max_deg = max((len(a) for a in adjacency), default=0)
    stream = as_stream(seed, "mis")
    result = luby_rounds(
        adjacency, mis_round_budget(max_deg, epsilon),
        lambda r, v: stream.uniform_at(("round", r, "node", v)),
    )
    _assert_independent(adjacency, result.in_set)
    return result


def greedy_complete(adjacency, result: MisResult) -> tuple[int, ...]:
    """Extend an independent set to a maximal one over the undecided nodes."""
    chosen = set(result.in_set)
    for v in result.undecided:
        if all(u not in chosen for u in adjacency[v]):
            chosen.add(v)
    return tuple(sorted(chosen))


def _assert_independent(adjacency, nodes):
    picked = set(nodes)
    for v in picked:
        for u in adjacency[v]:
            if u in picked:
                raise AssertionError(f"nodes {u} and {v} are adjacent but both selected")
