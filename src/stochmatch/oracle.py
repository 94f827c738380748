"""Exact ground truth on tiny instances by full realization enumeration.

Enumerates all 2^m realizations in binary counting order over edge indices,
weighting each by its probability, and runs the same deterministic maximum
matching used everywhere else.  Matchings come from the graph's shared
``mask_table``, so a mask that ``estimate_q`` already matched on the same
graph is looked up, not matched again, and the masks the oracle matches are
kept there too.  The table also holds the component submasks a
disconnected mask is split into (``matching.matched_by_mask``); in counting
order those are smaller masks, already in the table, so only the connected
masks run the blossom.  Sums are Kahan-compensated; "exact" means exact to
double precision, since the input probabilities are decimals.  The sums are
kept in Python floats, which are the same IEEE doubles as numpy float64
scalars, and are updated in the same mask order with the same operations, so
they give the same bits as per-element numpy sums at a fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError
from .graph import StochasticGraph
from .matching import matched_by_mask

__all__ = ["ExactStats", "exact_stats"]

DEFAULT_EDGE_CAP = 20


@dataclass
class ExactStats:
    """Exact opt, per-edge q_e, and per-vertex matched probability."""

    graph: StochasticGraph
    opt: float
    q: np.ndarray
    matched_prob: np.ndarray


def exact_stats(g: StochasticGraph, cap: int = DEFAULT_EDGE_CAP) -> ExactStats:
    """Exact expected maximum matching size and per-edge matching probabilities.

    Raises InstanceTooLargeError when the graph has more than ``cap`` edges.
    """
    m = g.m
    if m > cap:
        raise InstanceTooLargeError(
            f"exact enumeration over 2^{m} realizations exceeds the cap of {cap} edges"
        )
    # Probability of every bitmask, built one edge at a time.
    probs = np.ones(1 << m)
    idx = np.arange(1 << m)
    for e in range(m):
        bit = (idx >> e) & 1 == 1
        probs[bit] *= g.ps[e]
        probs[~bit] *= 1.0 - g.ps[e]

    # Kahan sums in Python floats (the same IEEE doubles as numpy scalars),
    # one mask at a time in counting order.
    opt = opt_comp = 0.0
    total = [0.0] * m
    comp = [0.0] * m
    for mask in range(1 << m):
        matched = matched_by_mask(g, mask)
        p = float(probs[mask])
        y = p * len(matched) - opt_comp
        t = opt + y
        opt_comp = (t - opt) - y
        opt = t
        for e in matched:
            y = p - comp[e]
            t = total[e] + y
            comp[e] = (t - total[e]) - y
            total[e] = t
    q = np.array(total, dtype=np.float64)
    return ExactStats(graph=g, opt=opt, q=q, matched_prob=g.vertex_sums(q))
