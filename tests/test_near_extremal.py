"""The extremal construction plus one edge: the FOUND path on deep trees.

The extremal graphs are edge-maximal SEPARABLE, so adding any one non-edge
gives a (k+1)-connected subgraph on more than (1+sigma)k vertices. Unlike
the random density trials, whose FOUND sets hold most of the graph, these
sets are small and sit in one corner of a deep separation tree. Each
FOUND set is checked by networkx, which shares no code with the kernel.
"""

import random

import pytest

from hcs import FOUND, SEPARABLE, SimpleGraph, build_extremal, extract, size_threshold
from test_golden import relabelled

# (k, sigma_k, level): every non-edge is added on the first two, a sample
# of SAMPLE non-edges on the others
EVERY_NON_EDGE = [(2, 2, 3), (3, 3, 3)]
SAMPLED = [(2, 2, 4), (2, 2, 5), (3, 3, 4), (2, 4, 4), (4, 4, 4), (6, 6, 3)]
SAMPLE = 30


def non_edges(g: SimpleGraph) -> list[tuple[int, int]]:
    masks = g.adjacency_masks
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not masks[u] >> v & 1]


def instance(params, relabel: bool) -> tuple[SimpleGraph, int, object]:
    k, sigma_k, level = params
    e = build_extremal(k, sigma_k, level)
    return (relabelled(e.graph, level) if relabel else e.graph), k, e.sigma


def assert_found_after_adding(g: SimpleGraph, k: int, sigma, edges) -> None:
    nx = pytest.importorskip("networkx")
    for edge in edges:
        plus = SimpleGraph.from_edges(g.n, [*g.edges, edge])
        res = extract(plus, k, sigma)
        assert res.outcome == FOUND, edge
        assert len(res.subgraph) > size_threshold(k, sigma), edge
        h = nx.Graph()
        h.add_nodes_from(res.subgraph)
        h.add_edges_from((u, v) for u, v in plus.edges if u in res.subgraph and v in res.subgraph)
        assert nx.node_connectivity(h) >= k + 1, edge


@pytest.mark.parametrize("relabel", [False, True], ids=["built", "relabelled"])
@pytest.mark.parametrize("params", EVERY_NON_EDGE, ids=lambda p: "-".join(map(str, p)))
def test_every_one_edge_addition_flips(params, relabel):
    g, k, sigma = instance(params, relabel)
    assert extract(g, k, sigma).outcome == SEPARABLE
    assert_found_after_adding(g, k, sigma, non_edges(g))


@pytest.mark.parametrize("relabel", [False, True], ids=["built", "relabelled"])
@pytest.mark.parametrize("params", SAMPLED, ids=lambda p: "-".join(map(str, p)))
def test_sampled_one_edge_additions_find(params, relabel):
    g, k, sigma = instance(params, relabel)
    edges = random.Random(params[2]).sample(non_edges(g), SAMPLE)
    assert_found_after_adding(g, k, sigma, edges)
