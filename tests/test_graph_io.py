"""Graph model validation and the text file format."""

import pytest

from stochmatch.errors import GraphFormatError
from stochmatch.graph import Matching, StochasticGraph


def test_roundtrip():
    g = StochasticGraph(4, [(0, 1, 0.5), (3, 2, 0.25), (1, 2, 1.0)])
    g2 = StochasticGraph.from_text(g.to_text())
    assert g2.n == 4
    assert g2.edges == g.edges
    assert g2.p_min == 0.25


def test_endpoints_normalized():
    g = StochasticGraph(3, [(2, 0, 0.5)])
    assert g.endpoints(0) == (0, 2)


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        StochasticGraph(3, [(1, 1, 0.5)])


def test_rejects_duplicate_pair():
    with pytest.raises(ValueError, match="duplicate"):
        StochasticGraph(3, [(0, 1, 0.5), (1, 0, 0.7)])


def test_rejects_bad_probability():
    with pytest.raises(ValueError, match="probability"):
        StochasticGraph(3, [(0, 1, 0.0)])
    with pytest.raises(ValueError, match="probability"):
        StochasticGraph(3, [(0, 1, 1.5)])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        StochasticGraph.from_text("3 2\n0 1 0.5\n1 1 0.5\n")
    assert exc.value.line == 3

    with pytest.raises(GraphFormatError) as exc:
        StochasticGraph.from_text("3 2\n0 1 0.5\n")
    assert "expected 2 edge lines" in str(exc.value)

    with pytest.raises(GraphFormatError) as exc:
        StochasticGraph.from_text("3\n")
    assert exc.value.line == 1

    with pytest.raises(GraphFormatError) as exc:
        StochasticGraph.from_text("3 1\n0 1 2.5\n")
    assert exc.value.line == 2


def test_parse_strict_fields():
    with pytest.raises(GraphFormatError):
        StochasticGraph.from_text("3 1\n0 1\n")
    with pytest.raises(GraphFormatError):
        StochasticGraph.from_text("3 1\n0 x 0.5\n")


def test_adjacency_sorted():
    g = StochasticGraph(4, [(0, 3, 0.5), (0, 1, 0.5), (0, 2, 0.5)])
    assert [v for v, _ in g.adjacency[0]] == [1, 2, 3]


def test_matching_validation():
    g = StochasticGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    with pytest.raises(ValueError, match="matching"):
        Matching(g, [0, 1])
    m = Matching(g, [1])
    assert m.covers(1) and m.covers(2) and not m.covers(0)


def test_degrees_count_each_listed_edge():
    g = StochasticGraph(5, [(0, 1, 0.5), (1, 2, 0.5), (1, 3, 0.5), (3, 4, 0.5)])
    for ids in (None, [], [2], (0, 3), [1, 1, 2], range(g.m)):
        expected = [0] * g.n
        for e in range(g.m) if ids is None else ids:
            u, v = g.endpoints(e)
            expected[u] += 1
            expected[v] += 1
        assert g.degrees(ids).tolist() == expected
    assert StochasticGraph(3, []).degrees().tolist() == [0, 0, 0]


def test_half_edges_flatten_adjacency():
    g = StochasticGraph(4, [(2, 0, 0.5), (0, 1, 0.5), (3, 1, 0.5)])
    assert g.half_edges == [(0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 3, 2), (2, 0, 0), (3, 1, 2)]
