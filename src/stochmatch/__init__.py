"""Stochastic-matching sparsifiers and their verification harness.

A graph is given where each edge realizes independently with probability
``p_e``.  The library builds a bounded-degree subgraph whose realized maximum
matching approximates the expected maximum realized matching of the whole
graph, constructs the vertex-independent matching on crucial edges and the
fractional-matching certificate around it, and measures every testable
property against Monte Carlo estimates and an exact brute-force oracle on
small instances.
"""

from .errors import (
    CandidateWalkCapError,
    DivisionGuardError,
    GraphFormatError,
    InstanceTooLargeError,
    ParameterOverflowError,
    StochmatchError,
    SubsetCapError,
)
from .graph import Matching, Realization, StochasticGraph, sample_realization
from .matching import max_matching, mu
from .randomness import RandomStream, keyed_uniform

__all__ = [
    "StochasticGraph",
    "Realization",
    "Matching",
    "sample_realization",
    "max_matching",
    "mu",
    "RandomStream",
    "keyed_uniform",
    "StochmatchError",
    "GraphFormatError",
    "InstanceTooLargeError",
    "ParameterOverflowError",
    "DivisionGuardError",
    "CandidateWalkCapError",
    "SubsetCapError",
]
