"""Graph model validation and the text file format."""

import numpy as np
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

    with pytest.raises(GraphFormatError, match="duplicate") as exc:
        StochasticGraph.from_text("3 2\n0 1 0.5\n1 0 0.5\n")
    assert exc.value.line == 3


def test_parse_strict_fields():
    with pytest.raises(GraphFormatError):
        StochasticGraph.from_text("3 1\n0 1\n")
    with pytest.raises(GraphFormatError):
        StochasticGraph.from_text("3 1\n0 x 0.5\n")


def test_matching_validation():
    g = StochasticGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    with pytest.raises(ValueError, match="matching"):
        Matching(g, [0, 1])
    m = Matching(g, [1])
    assert m.edges == frozenset({1})


def test_degrees_count_each_listed_edge():
    # A degree is the vertex sum of each edge's count in the list.
    g = StochasticGraph(5, [(0, 1, 0.5), (1, 2, 0.5), (1, 3, 0.5), (3, 4, 0.5)])
    for ids in ([], [2], (0, 3), [1, 1, 2], range(g.m)):
        expected = [0] * g.n
        for e in ids:
            u, v = g.endpoints(e)
            expected[u] += 1
            expected[v] += 1
        counts = np.bincount(np.asarray(ids, dtype=np.int64), minlength=g.m)
        assert g.vertex_sums(counts).tolist() == expected
        if len(set(ids)) == len(ids):
            assert g.vertex_sums(counts > 0).tolist() == expected
    empty = StochasticGraph(3, []).vertex_sums(np.zeros(0))
    assert empty.dtype == np.float64 and empty.tolist() == [0.0, 0.0, 0.0]


def test_lex_edges_list_each_edge_once_ascending():
    g = StochasticGraph(4, [(2, 0, 0.5), (0, 1, 0.5), (3, 1, 0.5)])
    lex = g.lex_edges
    assert lex.pairs == [(0, 1), (0, 2), (1, 3)]
    assert lex.ids.dtype == np.intp and lex.ids.tolist() == [1, 0, 2]
    assert lex.pair_id == {0 * 4 + 1: 1, 0 * 4 + 2: 0, 1 * 4 + 3: 2}
    for key, e in lex.pair_id.items():
        assert g.endpoints(e) == divmod(key, g.n)
    assert lex.bits == [1 << 1, 1 << 0, 1 << 2]
    # Edge 1 = (0, 1) shares an endpoint with both others, 0 and 2 share none.
    assert lex.touch == [0b011, 0b111, 0b110]
    assert g.lex_edges is lex
    # Past the mask-table limit the edge bits would only be huge ints.
    long_path = StochasticGraph(64, [(i, i + 1, 0.5) for i in range(63)])
    assert long_path.mask_table is None
    assert long_path.lex_edges.bits is None and long_path.lex_edges.touch is None
