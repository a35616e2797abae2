"""Every graph on at most seven vertices as ground truth.

networkx ships the atlas of all 1,253 graphs on 0 to 7 vertices, one per
isomorphism class (Read and Wilson, An Atlas of Graphs, 1998), so these
checks need no download. Each one is checked against code that ``hcs``
does not share: networkx's connectivity and a brute force over induced
subgraphs.
"""

from fractions import Fraction
from itertools import combinations

import pytest

nx = pytest.importorskip("networkx")

from hcs import (
    FOUND,
    SimpleGraph,
    extract,
    get_alternative,
    min_vertex_cut,
    separable_density_check,
    size_threshold,
    validate_decomposition,
)

# (atlas index, networkx graph, the same graph as a SimpleGraph), the empty graph left out
ATLAS = [
    (i, h, SimpleGraph.from_edges(h.number_of_nodes(), h.edges))
    for i, h in enumerate(nx.graph_atlas_g())
    if h.number_of_nodes()
]


def test_the_atlas_is_every_graph_up_to_seven_vertices():
    assert len(ATLAS) == 1252
    assert {g.n for _, _, g in ATLAS} == set(range(1, 8))


def test_min_vertex_cut_matches_networkx():
    """kappa is networkx's node connectivity, and the separator, when there
    is one, has kappa vertices and disconnects the graph."""
    for i, h, g in ATLAS:
        witness = min_vertex_cut(g)
        assert witness.kappa == nx.node_connectivity(h), i
        if witness.separator is None:
            assert g.edge_count == g.n * (g.n - 1) // 2, i
        else:
            assert len(witness.separator) == witness.kappa, i
            assert not nx.is_connected(h.subgraph(set(h) - witness.separator)), i


def largest_k1_connected(h, k: int) -> int:
    """The most vertices of a (k+1)-connected induced subgraph of h, or 0 when
    it has none, by networkx alone: vertex subsets from the largest down. A
    subset of fewer than k+2 vertices, or of minimum degree at most k, is
    skipped, since connectivity is at most the minimum degree and a
    (k+1)-connected graph has at least k+2 vertices."""
    for size in range(h.number_of_nodes(), k + 1, -1):
        for subset in combinations(h, size):
            sub = h.subgraph(subset)
            if min(d for _, d in sub.degree) > k and nx.node_connectivity(sub) > k:
                return size
    return 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_extract_matches_brute_force(k):
    """extract finds a set exactly when some (k+1)-connected induced
    subgraph has more than (1+sigma)k vertices; the set it finds is one, and
    every SEPARABLE tree passes ``validate_decomposition``."""
    sigmas = [Fraction(1, 5), Fraction(1), Fraction(3, 2)]
    for i, h, g in ATLAS:
        largest = largest_k1_connected(h, k)
        found = set()  # the sets already checked: the sigmas often find the same one
        for sigma in sigmas:
            res = extract(g, k, sigma)
            case = (i, k, sigma)
            assert (res.outcome == FOUND) == (largest > size_threshold(k, sigma)), case
            if res.outcome == FOUND:
                assert len(res.subgraph) > size_threshold(k, sigma), case
                if res.subgraph not in found:
                    assert nx.node_connectivity(h.subgraph(res.subgraph)) > k, case
                    found.add(res.subgraph)
            else:
                validate_decomposition(g, k, sigma, res.tree)


def test_separable_density_check_fails_only_on_small_trees_at_k1():
    """Pins a finding, not a wanted verdict, as ``test_k1_small_trees_as_they_stand``
    does: over every graph, k = 1-3 and alts 1-3, the check fails only at
    k = 1, on the 3-vertex path (atlas index 6) at alts 2 and 3 and on the
    two 4-vertex trees (13, the star, and 14, the path) at alt 3."""
    alts = [get_alternative(alt) for alt in (1, 2, 3)]
    failures = [
        (i, k, alt.id)
        for i, _, g in ATLAS
        for k in (1, 2, 3)
        for alt in alts
        if separable_density_check(g, k, alt).verdict == "FAIL"
    ]
    assert failures == [(6, 1, 2), (6, 1, 3), (13, 1, 3), (14, 1, 3)]
    trees = {6: nx.path_graph(3), 13: nx.star_graph(3), 14: nx.path_graph(4)}
    atlas = {i: h for i, h, _ in ATLAS}
    assert all(nx.is_isomorphic(atlas[i], tree) for i, tree in trees.items())
