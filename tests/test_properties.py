"""Property tests of the connectivity kernel and the extractor.

The kernel works on one graph and a vertex set given as a bitmask over
it. Relabelling the set with ``induced_subgraph`` preserves the order of
vertex ids, so both routes must give the same answers, mapped back. Every
extractor answer is checked by code it does not share: a SEPARABLE tree
by ``validate_decomposition``, a FOUND set by brute-force removal.
"""

import functools
import random
from fractions import Fraction
from typing import Optional

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hcs import (
    FOUND,
    SimpleGraph,
    build_extremal,
    extract,
    find_separation,
    is_k1_connected,
    min_vertex_cut,
    size_threshold,
    validate_decomposition,
)
from hcs.connectivity import (
    _bits,
    _degree_classes,
    _dominating_pairs,
    _min_cut_capped,
    _near,
    _separate,
    _side_degrees,
    _st_vertex_cut,
)
from conftest import component_by_search, induced_subgraph, k1_connected_by_removal, random_graph, threshold_graph
from test_extractor import tree_size
from test_golden import relabelled
from test_near_extremal import non_edges


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
        assert (sep.side_a, sep.side_b) == (back(ref.side_a), back(ref.side_b))
        sep.validate(g, k, alive)

    if alive:
        kappa, ref_sep, _ = min_cut_every_pair(g, alive.bit_count(), alive)
        full = (1 << ind.graph.n) - 1
        for cap in range(max(kappa, 1), kappa + 2):
            cut = _min_cut_capped(g.adjacency_masks, alive, fresh_degrees(g, alive), cap)
            ref = _min_cut_capped(ind.graph.adjacency_masks, full, fresh_degrees(ind.graph, full), cap)
            assert (cut is None) == (ref is None) == (cap == kappa or ref_sep is None)
            if cut is not None:
                (sep, side), (ref_cut, ref_side) = cut, ref
                assert sep.bit_count() == kappa
                assert (frozenset(_bits(sep)), frozenset(_bits(side))) == (back(_bits(ref_cut)), back(_bits(ref_side)))
        assert min_vertex_cut(ind.graph).kappa == kappa


@st.composite
def split_at_a_low_vertex(draw):
    """Two dense parts joined through vertex 0 and up to two vertices
    adjacent to 0 and to most of both parts, relabelled at random. Vertex 0 has two or three
    neighbours in each part, so it often has the least degree and lies in
    every least cut, which then only a pair of its neighbours finds."""
    a, b, c = draw(st.integers(5, 8)), draw(st.integers(5, 8)), draw(st.integers(0, 2))
    n = 1 + c + a + b
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.floats(0.8, 1))
    lo = 1 + c
    edges = [(u + lo, v + lo) for u, v in random_graph(rng, a, p).edges]
    edges += [(u + lo + a, v + lo + a) for u, v in random_graph(rng, b, p).edges]
    for x in range(1, lo):
        edges += [(0, x)] + [(x, v) for v in range(lo, n) if rng.random() < p]
    edges += [(0, v) for v in rng.sample(range(lo, lo + a), draw(st.integers(2, 3)))]
    edges += [(0, v) for v in rng.sample(range(lo + a, n), draw(st.integers(2, 3)))]
    order = draw(st.permutations(range(n)))
    g = SimpleGraph.from_edges(n, [(order[u], order[v]) for u, v in edges])
    return g, (1 << n) - 1 if draw(st.booleans()) else draw(st.integers(0, (1 << n) - 1))


@st.composite
def threshold_density(draw):
    """A graph drawn as an experiment trial draws it, n from 15 to 50, in
    one of the four acceptance configurations, with the vertices of degree
    below 0 to 4 peeled off. Here the fan closure decides most pairs."""
    n = draw(st.integers(15, 50))
    alt, k = draw(st.sampled_from([(3, 2), (3, 3), (1, 2), (2, 2)]))
    g = threshold_graph(random.Random(draw(st.integers(0, 2**32))), n, alt, k)
    least, alive = draw(st.integers(0, 4)), (1 << n) - 1
    while low := [v for v in _bits(alive) if (g.adjacency_masks[v] & alive).bit_count() < least]:
        alive &= ~sum(1 << v for v in low)
    return g, alive


def min_cut_every_pair(g: SimpleGraph, cap: int, alive: int) -> tuple[int, Optional[int], int]:
    """The capped minimum cut by a flow on every dominating pair, with no
    pair skipped and no early stop, keeping the first strict drop: the
    value, the separator's bitmask or None, and the cut's source: s for the
    degree cut and x for the flow of a pair (x, y)."""
    masks = g.adjacency_masks
    n = alive.bit_count()
    live = _bits(alive)
    if n == 1:
        return 0, None, live[0]
    degree = {v: (masks[v] & alive).bit_count() for v in live}
    if all(d == n - 1 for d in degree.values()):
        return min(n - 1, cap), None, live[0]
    s = min(live, key=lambda v: (degree[v], v))
    best, best_sep, source = degree[s], masks[s] & alive, s
    if best >= cap:
        best, best_sep = cap, None
    for x, partners in _dominating_pairs(masks, alive, s):
        for y in _bits(partners):
            value, sep, _ = _st_vertex_cut(masks, x, 1 << y, best, alive)
            if value < best:
                best, best_sep, source = value, sep, x
    return best, best_sep, source


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(graph_and_mask(), split_at_a_low_vertex(), threshold_density()), st.integers(1, 3))
def test_skipped_flows_change_nothing(case, k):
    """Skipping the flows whose pair is already decided misses no cut that
    the loop running them all finds: with kappa from that loop, the search
    capped at kappa finds no cut, and the one capped at kappa + 1 finds a
    kappa-vertex separator. Its source side is the component of the
    set less the separator that holds the loop's source when the two
    separators agree, and otherwise still a component of that set, and not
    the only one. The search capped at k + 1 agrees with that loop down the
    separation tree (``check_cuts_down_the_tree``)."""
    g, alive = case
    if alive:
        kappa, ref_sep, source = min_cut_every_pair(g, alive.bit_count(), alive)
        masks, degrees = g.adjacency_masks, fresh_degrees(g, alive)
        if kappa:
            assert _min_cut_capped(masks, alive, degrees, kappa) is None
        cut = _min_cut_capped(masks, alive, degrees, kappa + 1)
        if ref_sep is None:  # complete
            assert cut is None
        else:
            sep, side = cut
            assert sep.bit_count() == kappa
            start = source if sep == ref_sep else (side & -side).bit_length() - 1
            assert side == component_by_search(g, alive & ~sep, start)
            assert alive & ~sep & ~side
        check_cuts_down_the_tree(g, k, alive)


@st.composite
def glued_graph(draw):
    """Two random graphs glued along 0 to 3 shared vertices, so that cuts of
    1 to 3 vertices, the cores the extractor splits along, are common."""
    n = draw(st.integers(1, 30))
    a = draw(st.integers(0, n))
    lo = a - draw(st.integers(0, min(3, a)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.floats(0, 1))
    left, right = random_graph(rng, a, p), random_graph(rng, n - lo, p)
    return SimpleGraph.from_edges(n, [*left.edges, *((u + lo, v + lo) for u, v in right.edges)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    glued_graph(),
    st.integers(1, 3),
    st.sampled_from([Fraction(1, 5), Fraction(1), Fraction(2)]),
)
def test_extract_answers_check_out(g, k, sigma):
    res = extract(g, k, sigma)
    if res.outcome == FOUND:
        assert len(res.subgraph) > size_threshold(k, sigma)
        assert k1_connected_by_removal(g, res.subgraph, k)
    else:
        assert res.tree.vertices == frozenset(range(g.n))
        validate_decomposition(g, k, sigma, res.tree)
        assert tree_size(res.tree, lambda node: node.children) <= max(1, 2 * (g.n - k) - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(glued_graph(), st.integers(1, 3))
def test_inherited_bound_changes_nothing(g, k):
    """Down the whole separation tree, every separation is valid, and the
    separation step given each side's degree classes carried down from its
    parent, as ``extract`` gives them, splits the side as ``find_separation``
    does with a fresh count."""
    masks, root = g.adjacency_masks, (1 << g.n) - 1
    todo = [(root, _degree_classes(masks, root))]
    while todo:
        alive, degrees = todo.pop()
        sep = find_separation(g, k, alive)
        if alive.bit_count() >= k + 2:
            sides = _separate(masks, alive, degrees, k)
            assert sides == (None if sep is None else (sep.mask_a, sep.mask_b)), (sorted(g.edges), k, alive)
        if sep is not None:
            sep.validate(g, k, alive)
            for side in (sep.mask_a, sep.mask_b):
                todo.append((side, _side_degrees(masks, degrees, sep.mask_a & sep.mask_b, side)))


def fresh_degrees(g: SimpleGraph, alive: int) -> dict[int, int]:
    """Each degree in the set alive mapped to the bitmask of its vertices of
    that degree, counted vertex by vertex from the edge list."""
    degree = {v: 0 for v in range(g.n) if alive >> v & 1}
    for u, v in g.edges:
        if u in degree and v in degree:
            degree[u] += 1
            degree[v] += 1
    classes: dict[int, int] = {}
    for v, d in degree.items():
        classes[d] = classes.get(d, 0) | 1 << v
    return classes


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(glued_graph(), st.integers(1, 3))
def test_inherited_degrees_match_a_fresh_count(g, k):
    """At every node of the separation tree, the degree classes carried down
    from the parent equal a fresh count on the node's own set."""
    masks, root = g.adjacency_masks, (1 << g.n) - 1
    todo = [(root, _degree_classes(masks, root))]
    while todo:
        alive, degrees = todo.pop()
        assert degrees == fresh_degrees(g, alive)
        sep = find_separation(g, k, alive)
        if sep is None:
            continue
        for side in (sep.mask_a, sep.mask_b):
            side_degrees = _side_degrees(masks, degrees, sep.mask_a & sep.mask_b, side)
            assert side_degrees == fresh_degrees(g, side)
            todo.append((side, side_degrees))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(graph_and_mask(), split_at_a_low_vertex()), st.integers(1, 3))
def test_separation_matches_networkx(case, k):
    """``find_separation`` gives a separation exactly when the set has at
    least k+2 vertices and networkx finds its connectivity at most k, and
    the separation is valid."""
    nx = pytest.importorskip("networkx")
    g, alive = case
    sep = find_separation(g, k, alive)
    live = _bits(alive)
    if len(live) < k + 2:
        assert sep is None
        return
    h = nx.Graph()
    h.add_nodes_from(live)
    h.add_edges_from((u, v) for u, v in g.edges if alive >> u & 1 and alive >> v & 1)
    assert (sep is None) == (nx.node_connectivity(h) > k), (sorted(g.edges), k, alive)
    if sep is not None:
        sep.validate(g, k, alive)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(graph_and_mask(), split_at_a_low_vertex()), st.integers(1, 3))
def test_is_k1_connected_matches_removal(case, k):
    """``is_k1_connected``, which answers through ``find_separation``, agrees
    with brute-force removal on sets of at most 12 vertices."""
    g, alive = case
    while alive.bit_count() > 12:
        alive &= alive - 1  # drop the lowest vertex
    assert is_k1_connected(g, k, alive) == k1_connected_by_removal(g, _bits(alive), k)


def check_cuts_down_the_tree(g: SimpleGraph, k: int, alive: int) -> None:
    """At every node of the separation tree from alive, searched with its
    parent's degree classes as ``extract`` searches it, ``_min_cut_capped``
    capped at k + 1 gives a cut of at most k exactly when the loop over
    every pair finds one, never below that loop's minimum, and the degree
    cut when the minimum degree is at most k; its source side is a
    component of the set less the separator, and not the only one.
    Complete sets and sets of no cut below k+1 give None."""
    masks = g.adjacency_masks
    todo = [(alive, fresh_degrees(g, alive))]
    while todo:
        alive, degrees = todo.pop()
        cut = _min_cut_capped(masks, alive, degrees, k + 1)
        ref_kappa, ref_sep, _ = min_cut_every_pair(g, k + 1, alive)
        case = (sorted(g.edges), k, alive)
        if ref_sep is None:  # complete, or no cut below k+1
            assert cut is None, case
        else:
            assert cut is not None, case
            sep, side = cut
            assert ref_kappa <= sep.bit_count() <= k, case
            classes = fresh_degrees(g, alive)
            least = min(classes)
            if least <= k:  # the degree cut of the lowest vertex of least degree
                s = classes[least] & -classes[least]
                assert (sep, side) == (_near(masks, s) & alive, s), case
            assert side == component_by_search(g, alive & ~sep, (side & -side).bit_length() - 1), case
            assert alive & ~sep & ~side, case
        split = find_separation(g, k, alive)
        if split is not None:
            core = split.mask_a & split.mask_b
            todo += [(side, _side_degrees(masks, degrees, core, side)) for side in (split.mask_a, split.mask_b)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(glued_graph().map(lambda g: (g, (1 << g.n) - 1)), split_at_a_low_vertex()), st.integers(1, 3))
def test_local_flow_and_source_side(case, k):
    g, alive = case
    if alive:
        check_cuts_down_the_tree(g, k, alive)


@functools.lru_cache(maxsize=None)
def extremal_with_non_edges(
    k: int, sigma_k: int, level: int, relabel: bool
) -> tuple[SimpleGraph, list[tuple[int, int]]]:
    g = build_extremal(k, sigma_k, level).graph
    if relabel:
        g = relabelled(g, level)
    return g, non_edges(g)


@st.composite
def near_extremal(draw):
    """An extremal graph plus one non-edge: deep trees whose every node
    peels a small leaf, where the local flow settles most nodes. Either
    sigma_k = k, relabelled, or as built, where the local flow's cut often
    leaves s's lowest non-neighbour on s's side or in the cut."""
    k, sigma_k, relabel = draw(st.sampled_from(
        [(2, 2, True), (3, 3, True), (2, 2, False), (2, 3, False), (2, 4, False), (3, 3, False)]))
    g, missing = extremal_with_non_edges(k, sigma_k, draw(st.integers(3, 5)), relabel)
    return SimpleGraph.from_edges(g.n, [*g.edges, draw(st.sampled_from(missing))]), k


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(near_extremal())
def test_local_flow_and_source_side_near_extremal(case):
    g, k = case
    check_cuts_down_the_tree(g, k, (1 << g.n) - 1)
