"""Property tests: the kernel on a vertex mask against the relabelled route.

The kernel works on one graph and a vertex set given as a bitmask over
it. Relabelling the set with ``induced_subgraph`` preserves the order of
vertex ids, so both routes must give the same answers, mapped back.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hcs import Separation, SimpleGraph, find_separation, induced_subgraph, is_k1_connected
from hcs.connectivity import _min_cut_capped


@st.composite
def graph_and_mask(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = SimpleGraph.from_edges(n, [p for p, kept in zip(pairs, keep) if kept])
    return g, draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(graph_and_mask(), st.integers(1, 3))
def test_mask_matches_induced_subgraph(case, k):
    g, alive = case
    ind = induced_subgraph(g, [v for v in range(g.n) if alive >> v & 1])
    back = lambda side: frozenset(map(ind.to_original, side))

    assert is_k1_connected(g, k, alive) == is_k1_connected(ind.graph, k)

    sep = find_separation(g, k, alive)
    ref = find_separation(ind.graph, k)
    if ref is None:
        assert sep is None
    else:
        assert sep == Separation(back(ref.side_a), back(ref.side_b))
        sep.validate(g, k, alive)

    if alive:
        cut = _min_cut_capped(g, ind.graph.n, alive)
        ref_cut = _min_cut_capped(ind.graph, ind.graph.n)
        assert cut.kappa == ref_cut.kappa
        assert cut.separator == (None if ref_cut.separator is None else back(ref_cut.separator))
