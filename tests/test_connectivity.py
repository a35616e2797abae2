import random
from itertools import combinations

import pytest

from hcs import (
    SEPARABLE,
    CutWitness,
    Separation,
    SimpleGraph,
    build_extremal,
    connectivity,
    extract,
    find_separation,
    get_alternative,
    is_k1_connected,
    min_vertex_cut,
    validate_decomposition,
)
from hcs.connectivity import (
    _bits,
    _dominating_pairs,
    _members,
    _has_cut_of_at_most_one,
    _near,
    _st_vertex_cut,
)
from conftest import brute_force_min_cut, component_by_search, random_graph, threshold_graph
from test_extractor import triangle_chain
from test_golden import relabelled


def removing_disconnects(g: SimpleGraph, separator) -> bool:
    alive = (1 << g.n) - 1
    for v in separator:
        alive &= ~(1 << v)
    return alive.bit_count() >= 2 and component_by_search(g, alive, (alive & -alive).bit_length() - 1) != alive


class TestMinVertexCut:
    def test_complete(self):
        w = min_vertex_cut(SimpleGraph.complete(5))
        assert w.kappa == 4 and w.separator is None

    def test_path(self):
        w = min_vertex_cut(SimpleGraph.path(3))
        assert w.kappa == 1 and w.separator == {1}

    def test_glued_k4s(self, glued_k4s):
        w = min_vertex_cut(glued_k4s)
        assert w.kappa == 2 and w.separator == {2, 3}

    def test_single_vertex(self):
        w = min_vertex_cut(SimpleGraph.empty(1))
        assert w.kappa == 0 and w.separator is None

    def test_disconnected(self):
        w = min_vertex_cut(SimpleGraph.empty(4))
        assert w.kappa == 0 and w.separator == frozenset()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_vertex_cut(SimpleGraph.empty(0))

    def test_star(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        w = min_vertex_cut(g)
        assert w.kappa == 1 and w.separator == {0}

    def test_long_cycle(self):
        # augmenting paths run hundreds of arcs deep around the cycle
        g = SimpleGraph.cycle(600)
        w = min_vertex_cut(g)
        assert w.kappa == 2 and len(w.separator) == 2
        assert removing_disconnects(g, w.separator)


class TestBruteForceMinCut:
    def test_cycle(self):
        assert brute_force_min_cut(SimpleGraph.cycle(5)).kappa == 2

    def test_star_center(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        w = brute_force_min_cut(g)
        assert w.kappa == 1 and w.separator == {0}

    def test_k4_minus_edge(self):
        g = SimpleGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        w = brute_force_min_cut(g)
        assert w.kappa == 2
        assert w.separator == {2, 3}  # the two vertices adjacent to both 0 and 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_min_cut(SimpleGraph.empty(15))


class TestAgreementAndWitnesses:
    def test_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            exact = min_vertex_cut(g)
            brute = brute_force_min_cut(g)
            assert exact.kappa == brute.kappa, sorted(g.edges)
            if exact.separator is not None and exact.kappa > 0:
                assert len(exact.separator) == exact.kappa
                assert removing_disconnects(g, exact.separator)

    def test_menger_consistency(self):
        # connectivity never exceeds the minimum degree
        rng = random.Random(77)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 14), rng.random())
            kappa = min_vertex_cut(g).kappa
            assert kappa <= min(g.adjacency_masks[v].bit_count() for v in range(g.n))

    def test_named_families(self):
        # complete bipartite: kappa equals the smaller part
        k33 = SimpleGraph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
        assert min_vertex_cut(k33).kappa == 3
        k23 = SimpleGraph.from_edges(5, [(a, b) for a in range(2) for b in range(2, 5)])
        w = min_vertex_cut(k23)
        assert w.kappa == 2 and w.separator == {0, 1}
        # bowtie: two triangles sharing the cut vertex 2
        bowtie = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        w = min_vertex_cut(bowtie)
        assert w.kappa == 1 and w.separator == {2}
        assert min_vertex_cut(SimpleGraph.cycle(4)).kappa == 2

    def test_cut_through_the_least_degree_vertex(self):
        # two 6-cliques joined through 0 and 1: vertex 0, of least degree 5,
        # is in the only 2-cut, so only the flows of its neighbour pairs
        # (2 or 3 against 8 or 9) find it
        edges = [(0, v) for v in (1, 2, 3, 8, 9)] + [(1, v) for v in range(2, 14)]
        edges += [e for part in (range(2, 8), range(8, 14)) for e in combinations(part, 2)]
        w = min_vertex_cut(SimpleGraph.from_edges(14, edges))
        assert w.kappa == 2 and w.separator == {0, 1}

    def test_matches_networkx_beyond_brute_force(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(120)
        sparse = [random_graph(rng, n, rng.uniform(2, 12) / n)
                  for n in (rng.randint(15, 120) for _ in range(40))]
        # dense graphs run flows tens of units deep (kappa 20 and more)
        dense = [random_graph(rng, n, 0.9) for n in (36, 40, 44)]
        for g in sparse + dense:
            n = g.n
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges)
            w = min_vertex_cut(g)
            assert w.kappa == nx.node_connectivity(h), sorted(g.edges)
            if w.kappa > 0:
                assert len(w.separator) == w.kappa
                assert removing_disconnects(g, w.separator)


def splits(g: SimpleGraph, alive: int, sep: int, s: int, t: int) -> bool:
    """Whether removing the bitmask sep from alive leaves s and t in different components."""
    return not component_by_search(g, alive & ~sep, s) >> t & 1


def mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def networkx_cut(nx, g: SimpleGraph, alive: int, s: int, sink: int):
    """networkx's maximum flow on the vertex-split network of g on alive,
    from out(s) to the in-nodes of the sink: (value, X, S), with X the
    vertices whose in-node but not out-node the residual network reaches
    from out(s), and S those whose out-node it reaches."""
    d = nx.DiGraph()
    for v in _bits(alive):
        d.add_edge((v, "in"), (v, "out"), capacity=1)
    for u, v in g.edges:
        if alive >> u & 1 and alive >> v & 1:
            d.add_edge((u, "out"), (v, "in"))  # no capacity: unbounded
            d.add_edge((v, "out"), (u, "in"))
    for t in _bits(sink):
        d.add_edge((t, "in"), "sink")
    residual = nx.flow.edmonds_karp(d, (s, "out"), "sink")
    ahead = {(s, "out")}
    todo = [(s, "out")]
    while todo:
        x = todo.pop()
        for y, arc in residual[x].items():
            if arc["flow"] < arc["capacity"] and y not in ahead:
                ahead.add(y)
                todo.append(y)
    x_in = {v for v in _bits(alive) if (v, "in") in ahead and (v, "out") not in ahead}
    return residual.graph["flow_value"], x_in, {v for v in _bits(alive) if (v, "out") in ahead}


def pair_cut(masks, s: int, t: int, limit: int, alive: int):
    """The flow of the pair (s, t) as the pair loop runs it: to the sink
    {t}; (value, separator)."""
    return _st_vertex_cut(masks, s, 1 << t, limit, alive)[:2]


class TestStVertexCut:
    def test_repeats_and_separates(self):
        rng = random.Random(9)
        g = random_graph(rng, 30, 0.25)
        masks, full = g.adjacency_masks, (1 << g.n) - 1
        pairs = [(s, t) for s in range(g.n) for t in range(s + 1, g.n) if (s, t) not in g.edges]
        for s, t in rng.sample(pairs, 20):
            first = pair_cut(masks, s, t, g.n, full)
            assert pair_cut(masks, s, t, g.n, full) == first
            value, sep = first
            assert sep.bit_count() == value and not (sep >> s | sep >> t) & 1
            assert splits(g, full, sep, s, t)

    def test_capped_flow_reports_the_cap(self):
        # K6 without the edge 05: four disjoint 0-5 paths
        g = SimpleGraph.from_edges(6, [e for e in SimpleGraph.complete(6).edges if e != (0, 5)])
        assert pair_cut(g.adjacency_masks, 0, 5, 3, 0b111111) == (3, None)
        assert pair_cut(g.adjacency_masks, 0, 5, 5, 0b111111) == (4, mask({1, 2, 3, 4}))

    def test_source_next_to_the_sink_reports_the_cap(self):
        # no vertex set cuts s from a sink it touches
        masks, full = SimpleGraph.path(4).adjacency_masks, 0b1111
        for limit in (1, 3):
            assert _st_vertex_cut(masks, 0, 0b0010, limit, full) == (limit, None, 0)
            assert _st_vertex_cut(masks, 1, 0b1100, limit, full) == (limit, None, 0)

    def test_on_a_vertex_mask(self):
        # K6 less the edge 05, without vertices 2 and 3: the cut is {1, 4}
        g = SimpleGraph.from_edges(6, [e for e in SimpleGraph.complete(6).edges if e != (0, 5)])
        assert pair_cut(g.adjacency_masks, 0, 5, 6, 0b110011) == (2, mask({1, 4}))
        # on random sets the separator names only live vertices, in graph ids
        rng = random.Random(31)
        g = random_graph(rng, 40, 0.2)
        for _ in range(30):
            alive = rng.getrandbits(40)
            live = [v for v in range(40) if alive >> v & 1]
            pairs = [(s, t) for s in live for t in live if s < t and (s, t) not in g.edges]
            s, t = rng.choice(pairs)
            value, sep = pair_cut(g.adjacency_masks, s, t, 40, alive)
            assert sep.bit_count() == value and set(_bits(sep)) <= set(live) - {s, t}
            assert splits(g, alive, sep, s, t)

    def test_flow_sent_back_through_a_vertex(self):
        # a later search must send a unit back through the whole of a vertex
        # that an earlier one filled, and free it; networkx also finds 3
        g = SimpleGraph.from_edges(16, [
            (0, 4), (0, 8), (0, 9), (0, 12), (0, 15), (1, 3), (1, 6), (1, 14), (2, 6),
            (2, 7), (3, 10), (3, 12), (4, 6), (4, 7), (4, 10), (5, 11), (6, 8), (7, 8),
            (7, 12), (9, 11), (9, 12), (9, 13), (10, 15), (11, 12), (12, 15), (13, 14),
        ])
        full = (1 << 16) - 1
        assert pair_cut(g.adjacency_masks, 6, 9, 16, full) == (3, mask({0, 1, 12}))
        assert pair_cut(g.adjacency_masks, 6, 9, 3, full) == (3, None)

    def test_matches_networkx_on_the_split_network(self):
        # each flow starts with one unit on s-a-sink for each neighbour a of s
        # next to the sink and on a greedily routed s-a-b-sink for each other
        # a, to the sink {t} and to a ball's sink alike; the value must be
        # min(kappa, limit), the separator the vertices whose in-node but not
        # out-node the source reaches in the residual network, and the side
        # the vertices whose out-node it reaches: s's component of alive - X.
        # Both kinds of sink must see routed starts. Pairs run to the
        # sink {t}, the others to the complement of a ball around s that
        # misses s's lowest non-neighbour t0. ``_local_cut`` does not build
        # these sinks, but they are valid kernel inputs, and in them a
        # neighbour of s may touch the sink
        nx = pytest.importorskip("networkx")
        rng = random.Random(2020)
        compared = seeded = routed = routed_ball = off_t0 = 0
        for _ in range(240):
            n = rng.randint(5, 40)
            g = random_graph(rng, n, rng.uniform(0.05, 0.9))
            masks = g.adjacency_masks
            alive = rng.getrandbits(n) | rng.choice([0, (1 << n) - 1])
            live = [v for v in range(n) if alive >> v & 1]
            pairs = [(s, t) for s in live for t in live if s < t and not masks[s] >> t & 1]
            if not pairs:
                continue
            s, t = rng.choice(pairs)
            limit = rng.randint(1, len(live))
            rest = alive & ~masks[s] & ~(1 << s)
            t0 = (rest & -rest).bit_length() - 1
            ball, layer = 1 << s, masks[s] & alive
            for _ in range(rng.randint(1, 3)):
                ball |= layer
                layer = _near(masks, layer) & alive & ~(1 << t0) & ~ball
            for sink in (1 << t, alive & ~ball):
                kappa, x_in, x_out = networkx_cut(nx, g, alive, s, sink)
                value, sep, side = _st_vertex_cut(masks, s, sink, limit, alive)
                assert value == min(kappa, limit), (sorted(g.edges), alive, s, sink, limit)
                compared += 1
                direct = masks[s] & alive & _near(masks, sink)  # the units on s-a-sink
                if sink == 1 << t:
                    seeded += 0 < direct.bit_count() < limit
                else:  # in a 1-step ball some a may touch the sink besides t0
                    off_t0 += direct != masks[s] & masks[t0] & alive
                if kappa >= limit:
                    assert (sep, side) == (None, 0)
                    continue
                assert set(_bits(sep)) == x_in and set(_bits(side)) == x_out
                assert side == component_by_search(g, alive & ~sep, s)
                # some a not next to the sink has a b next to it and to the
                # sink, not in the sink and not next to s: a unit is routed on s-a-b-sink
                lasts = alive & ~sink & ~masks[s] & _near(masks, sink)
                routes = direct.bit_count() < limit and any(
                    masks[a] & lasts for a in _bits(masks[s] & alive & ~direct))
                if sink == 1 << t:
                    routed += routes
                else:
                    routed_ball += routes
        assert compared >= 400 and seeded >= 50 and routed >= 20 and routed_ball >= 20 and off_t0 >= 40

    def test_routed_unit_sent_back(self):
        # 0 reaches 5 through 1 or 2, then 3 or 4; 2 only through 3. The paths
        # are routed greedily, so 1 takes 3 and the flow starts with one unit
        # on 0-1-3-5; the search must send it back from 3 to reach 0-2-3-5 and
        # 0-1-4-5. 6 hangs off 0 and 1, on the source side of the cut {1, 2}
        nx = pytest.importorskip("networkx")
        g = SimpleGraph.from_edges(7, [(0, 1), (0, 2), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3), (3, 5), (4, 5)])
        full = (1 << 7) - 1
        expected = (2, mask({1, 2}), mask({0, 6}))
        assert _st_vertex_cut(g.adjacency_masks, 0, 1 << 5, 3, full) == expected
        kappa, x_in, x_out = networkx_cut(nx, g, full, 0, 1 << 5)
        assert (kappa, mask(x_in), mask(x_out)) == expected
        assert _st_vertex_cut(g.adjacency_masks, 0, 1 << 5, 2, full) == (2, None, 0)

    def test_routed_unit_sent_back_to_a_set_sink(self):
        # the same graph with a sink of two vertices, 5 and 7, where 7 hangs off
        # 4: b is next to the sink, not in it. 1 takes 3 first, so the flow
        # starts with one unit on 0-1-3-5, which the search must send back
        nx = pytest.importorskip("networkx")
        g = SimpleGraph.from_edges(8, [(0, 1), (0, 2), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3), (3, 5), (4, 5), (4, 7)])
        full, sink = (1 << 8) - 1, 1 << 5 | 1 << 7
        expected = (2, mask({1, 2}), mask({0, 6}))
        assert _st_vertex_cut(g.adjacency_masks, 0, sink, 3, full) == expected
        kappa, x_in, x_out = networkx_cut(nx, g, full, 0, sink)
        assert (kappa, mask(x_in), mask(x_out)) == expected
        assert _st_vertex_cut(g.adjacency_masks, 0, sink, 2, full) == (2, None, 0)

    def test_common_neighbours_reach_the_limit(self):
        # K(2,5): 0 and 1 share five neighbours, so five disjoint paths
        g = SimpleGraph.from_edges(7, [(a, b) for a in range(2) for b in range(2, 7)])
        full = (1 << 7) - 1
        for limit in range(1, 6):
            assert pair_cut(g.adjacency_masks, 0, 1, limit, full) == (limit, None)
        assert pair_cut(g.adjacency_masks, 0, 1, 6, full) == (5, mask(range(2, 7)))


class TestHasCutVertex:
    """``_has_cut_of_at_most_one``: a cut vertex, or a disconnected set."""

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(1973)
        answers = []
        for _ in range(300):
            n = rng.randint(1, 30)
            g = random_graph(rng, n, rng.uniform(1, 5) / n)
            alive = rng.getrandbits(n) | rng.choice([0, (1 << n) - 1]) or 1 << rng.randrange(n)
            h = nx.Graph()
            h.add_nodes_from(v for v in range(n) if alive >> v & 1)
            h.add_edges_from((u, v) for u, v in g.edges if alive >> u & 1 and alive >> v & 1)
            cut_vertex = any(True for _ in nx.articulation_points(h))
            expected = cut_vertex or not nx.is_connected(h)
            assert _has_cut_of_at_most_one(g.adjacency_masks, alive) == expected, (sorted(g.edges), alive)
            answers.append((cut_vertex, expected))
        # cut vertices, disconnected sets without one, and neither all occur
        assert {(True, True), (False, True), (False, False)} <= set(answers)

    @pytest.mark.parametrize("edges, expected", [
        ([(0, 1), (1, 2), (2, 3)], True),  # path
        ([(0, 1)], False),  # a single edge has no inner vertex
        ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], False),  # cycle
        # two triangles sharing vertex 2, which the search meets as a non-root
        ([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], True),
        ([(0, 1), (0, 2)], True),  # the root 0 has two children
        # two triangles apart: no cut vertex, but the empty cut
        ([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], True),
    ])
    def test_small_shapes(self, edges, expected):
        g = SimpleGraph.from_edges(1 + max(map(max, edges)), edges)
        assert _has_cut_of_at_most_one(g.adjacency_masks, (1 << g.n) - 1) == expected

    def test_on_a_vertex_mask(self):
        # the 6-cycle without vertex 0 is the path 1..5
        masks = SimpleGraph.cycle(6).adjacency_masks
        assert not _has_cut_of_at_most_one(masks, 0b111111)
        assert _has_cut_of_at_most_one(masks, 0b111110)
        assert not _has_cut_of_at_most_one(masks, 0b000110)

    def test_long_cycle(self):
        # the search runs 3000 vertices deep, past the default recursion limit
        masks = SimpleGraph.cycle(3000).adjacency_masks
        full = (1 << 3000) - 1
        assert not _has_cut_of_at_most_one(masks, full)
        assert _has_cut_of_at_most_one(masks, full & ~(1 << 1500))


class TestDominatingPairs:
    """``_dominating_pairs`` yields each source with the bitmask of its
    partners; flattened, the pairs keep the order the golden digests were
    taken in: s against each non-neighbour in ascending order, then the
    non-adjacent pairs of s's sorted neighbours in ``combinations`` order."""

    @staticmethod
    def check(masks, alive, s):
        nbrs = masks[s] & alive
        expected = [(s, t) for t in _bits(alive & ~nbrs & ~(1 << s))]
        expected += [(x, y) for x, y in combinations(_bits(nbrs), 2) if not masks[x] >> y & 1]
        pairs = [(x, y) for x, partners in _dominating_pairs(masks, alive, s) for y in _bits(partners)]
        assert pairs == expected, (alive, s)
        return len(pairs)

    def test_random_graphs(self):
        rng = random.Random(34)
        pairs = 0
        for _ in range(200):
            n = rng.randint(1, 30)
            g = random_graph(rng, n, rng.uniform(0.05, 0.95))
            alive = rng.getrandbits(n) | rng.choice([0, (1 << n) - 1]) or 1 << rng.randrange(n)
            pairs += self.check(g.adjacency_masks, alive, rng.choice(_bits(alive)))
        assert pairs >= 2_000  # 2,724

    def test_every_set_of_an_extraction(self, monkeypatch):
        sets = []
        min_cut_capped = connectivity._min_cut_capped

        def ask(masks, alive, degrees, cap):
            low = degrees[min(degrees)]
            sets.append((masks, alive, (low & -low).bit_length() - 1))
            return min_cut_capped(masks, alive, degrees, cap)

        monkeypatch.setattr(connectivity, "_min_cut_capped", ask)
        e = build_extremal(2, 2, 6)
        extract(relabelled(e.graph, 6), 2, e.sigma)
        assert len(sets) >= 60 and sum(self.check(*case) for case in sets) >= 2_000  # 63 sets, 2,110 pairs


class TestFlowCount:
    """Flows saved by the cut-vertex search, the stop at the first cut of at
    most k and the skip of decided pairs."""

    @pytest.fixture
    def flows(self, monkeypatch):
        pairs = []
        st_vertex_cut = connectivity._st_vertex_cut

        def counted(masks, s, sink, limit, alive):
            pairs.append((s, sink))
            return st_vertex_cut(masks, s, sink, limit, alive)

        monkeypatch.setattr(connectivity, "_st_vertex_cut", counted)
        return pairs

    def test_long_cycle_runs_no_flow(self, flows):
        g = SimpleGraph.cycle(3000)
        w = min_vertex_cut(g)
        assert w.kappa == 2 and removing_disconnects(g, w.separator)
        assert len(flows) == 0

    def test_extremal_separation(self, flows):
        # minimum degree 3; the first flow finds a 2-cut and the search ends it
        g = relabelled(build_extremal(2, 2, 6).graph, 6)
        sep = find_separation(g, 2)
        sep.validate(g, 2)
        assert len(flows) == 1 < g.n

    def test_first_cut_ends_the_search(self, flows):
        # each set stops at its first cut of at most 3 vertices, mostly the
        # local flow's, not at a minimum cut
        e = build_extremal(3, 3, 5)
        extract(relabelled(e.graph, 5), 3, e.sigma)
        assert len(flows) <= 50  # 123 when each search runs on to a minimum cut

    def test_decided_pairs_run_no_flow(self, flows):
        # a pair (x, y) runs no flow when y has at least best neighbours that
        # are neighbours of x or earlier partners of x
        e = build_extremal(3, 3, 5)
        extract(relabelled(e.graph, 5), 3, e.sigma)
        assert len(flows) <= 140  # 204 when every pair runs its flow

    def test_closure_decides_the_certifying_pairs(self, flows):
        # a graph at the k=3 alt3 density threshold, drawn as an experiment
        # trial draws it; certifying its FOUND set, a pair (x, y) runs no
        # flow when y joins the closure of x's good vertices
        g = threshold_graph(random.Random(2), 50, 3, 3)
        found = extract(g, 3, get_alternative(3).sigma).subgraph
        flows.clear()
        assert is_k1_connected(g, 3, mask(found)) and len(found) == 49
        assert len(flows) <= 5  # 22 when each y is tested only when the loop reaches it

    def test_one_cap_per_ask(self, monkeypatch, glued_k4s):
        # an ask with cap c caps every flow at c, and a flow that returns a
        # cut below that cap is the ask's last
        asks = []
        min_cut_capped, st_vertex_cut = connectivity._min_cut_capped, connectivity._st_vertex_cut

        def ask(masks, alive, degrees, cap):
            asks.append((cap, []))
            return min_cut_capped(masks, alive, degrees, cap)

        def flow(masks, s, sink, limit, alive):
            found = st_vertex_cut(masks, s, sink, limit, alive)
            asks[-1][1].append((limit, found[0]))
            return found

        monkeypatch.setattr(connectivity, "_min_cut_capped", ask)
        monkeypatch.setattr(connectivity, "_st_vertex_cut", flow)
        e22, e33 = build_extremal(2, 2, 6), build_extremal(3, 3, 5)
        for g, k, sigma in ((relabelled(e22.graph, 6), 2, e22.sigma),
                            (relabelled(e33.graph, 5), 3, e33.sigma), (glued_k4s, 2, 1)):
            extract(g, k, sigma)
            min_vertex_cut(g)
        for cap, ran in asks:
            assert all(limit == cap for limit, _ in ran)
            below = [i for i, (limit, value) in enumerate(ran) if value < limit]
            assert below in ([], [len(ran) - 1])
        assert sum(bool(ran) and ran[-1][1] < cap for cap, ran in asks) >= 50  # 98 of 104 asks
        assert sum(len(ran) > 1 for _, ran in asks) >= 10  # 12


class TestLocalFlow:
    """The local flow runs only at a cap c of at least 3, an ask for a cut
    of fewer than c vertices: below that the pair loop alone finds the
    cut."""

    @pytest.fixture
    def local_flows(self, monkeypatch):
        calls = []
        local_cut = connectivity._local_cut

        def counted(masks, alive, s, cap):
            calls.append(cap)
            return local_cut(masks, alive, s, cap)

        monkeypatch.setattr(connectivity, "_local_cut", counted)
        return calls

    def test_exact_question_at_a_cut_vertex(self, local_flows):
        # bowtie: two triangles sharing the cut vertex 2
        bowtie = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert min_vertex_cut(bowtie) == CutWitness(1, frozenset({2}))
        assert local_flows == []

    def test_k1_extraction(self, local_flows):
        assert extract(triangle_chain(60), 1, 3).outcome == SEPARABLE
        assert local_flows == []

    def test_k2_separation(self, local_flows):
        g = relabelled(build_extremal(2, 2, 6).graph, 6)
        find_separation(g, 2).validate(g, 2)
        assert local_flows and set(local_flows) == {3}

    @pytest.fixture
    def local_answers(self, monkeypatch):
        # for each ``_local_cut`` call that ran a flow, whether it gave a cut
        answers, flows = [], []
        local_cut, st_vertex_cut = connectivity._local_cut, connectivity._st_vertex_cut

        def flow(masks, s, sink, limit, alive):
            flows.append(sink)
            return st_vertex_cut(masks, s, sink, limit, alive)

        def counted(masks, alive, s, cap):
            flows.clear()
            answer = local_cut(masks, alive, s, cap)
            if flows:
                answers.append(answer is not None)
            return answer

        monkeypatch.setattr(connectivity, "_st_vertex_cut", flow)
        monkeypatch.setattr(connectivity, "_local_cut", counted)
        return answers

    @staticmethod
    def extract_as_built(sigma_k, level):
        # as built, s's lowest non-neighbour lies next to s's leaf, so a
        # sink that must hold it cannot be cut off by k vertices
        e = build_extremal(2, sigma_k, level)
        res = extract(e.graph, 2, e.sigma)
        assert res.outcome == SEPARABLE
        validate_decomposition(e.graph, 2, e.sigma, res.tree)

    def test_every_local_flow_settles_on_2_2_as_built(self, local_answers):
        self.extract_as_built(2, 10)
        assert len(local_answers) >= 500 and all(local_answers)  # 67 of 505 miss when the ball keeps t0 out

    def test_local_flows_settle_on_2_4_as_built(self, local_answers):
        self.extract_as_built(4, 8)
        assert sum(local_answers) >= 50  # none of 79 when the ball keeps t0 out


class TestNoWalk:
    """The kernel has no walk for connectivity: a disconnected set's empty
    cut is found by the degree, a flow or, at k = 1, the depth-first
    search."""

    def test_path_at_k1(self):
        assert extract(SimpleGraph.path(1200), 1, 1).outcome == SEPARABLE

    def test_extremal_relabelled(self):
        e = build_extremal(2, 2, 9)
        assert extract(relabelled(e.graph, 9), 2, e.sigma).outcome == SEPARABLE

    @pytest.mark.parametrize("k, side_a", [(1, {0, 1, 2, 3}), (2, {0, 1, 2, 3, 4})])
    def test_disjoint_k4s(self, k, side_a):
        # minimum degree 3 > k: at k = 1 the search finds no cut vertex but
        # a second root; a flow from 0 into the other K4 returns the empty
        # cut, padded with 0 and, at k = 2, with 4
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        g = SimpleGraph.from_edges(8, edges + [(a + 4, b + 4) for a, b in edges])
        sep = find_separation(g, k)
        sep.validate(g, k)
        assert (sep.side_a, sep.side_b) == (side_a, {0, 4, 5, 6, 7})
        assert not is_k1_connected(g, k)
        assert min_vertex_cut(g) == CutWitness(0, frozenset())


class TestIsK1Connected:
    def test_k4(self):
        assert is_k1_connected(SimpleGraph.complete(4), 2)

    def test_glued(self, glued_k4s):
        assert not is_k1_connected(glued_k4s, 2)

    def test_too_few_vertices(self):
        assert not is_k1_connected(SimpleGraph.complete(3), 2)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            is_k1_connected(SimpleGraph.complete(3), 0)


class TestFindSeparation:
    def test_glued_exact_core(self, glued_k4s):
        sep = find_separation(glued_k4s, 2)
        assert sep.side_a == {0, 1, 2, 3}
        assert sep.side_b == {2, 3, 4, 5}
        assert sep.core == {2, 3}
        sep.validate(glued_k4s, 2)

    def test_glued_padded(self, glued_k4s):
        # at k = 3 the degree cut N(0) = {1, 2, 3} comes first, before the
        # minimum cut {2, 3}; it needs no padding
        sep = find_separation(glued_k4s, 3)
        assert sep.side_a == {0, 1, 2, 3}
        assert sep.side_b == {1, 2, 3, 4, 5}
        assert sep.core == {1, 2, 3}
        sep.validate(glued_k4s, 3)
        # no edges between the private sides {0} and {4, 5}
        assert (0, 4) not in glued_k4s.edges and (0, 5) not in glued_k4s.edges

    def test_absent_for_highly_connected(self):
        assert find_separation(SimpleGraph.complete(4), 2) is None

    def test_absent_for_tiny(self):
        assert find_separation(SimpleGraph.complete(3), 2) is None

    def test_k_must_be_positive(self, glued_k4s):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            find_separation(glued_k4s, 0)

    def test_on_a_vertex_mask(self, glued_k4s):
        # without vertex 0 the set {1..5} is separated by {2, 3} alone
        sep = find_separation(glued_k4s, 2, 0b111110)
        assert sep.side_a == {1, 2, 3} and sep.side_b == {2, 3, 4, 5}
        sep.validate(glued_k4s, 2, 0b111110)
        with pytest.raises(ValueError):
            sep.validate(glued_k4s, 2)
        assert is_k1_connected(glued_k4s, 2, 0b001111)
        with pytest.raises(ValueError):
            find_separation(glued_k4s, 2, 1 << 6)

    @pytest.mark.parametrize("a, b, message", [
        ({0, 1, 2, 3}, {2, 3, 4}, "do not cover"),
        ({0, 1, 2, 3}, {3, 4, 5}, "core has 1 vertices"),
        ({0, 1, 2, 3, 4, 5}, {2, 3}, "whole vertex set"),
        ({0, 1, 2}, {1, 2, 3, 4, 5}, "edge between"),  # the edge 0-3
        ({1, 2, 3, 4, 5}, {0, 1, 2}, "edge between"),
    ])
    def test_validate_rejects(self, glued_k4s, a, b, message):
        sep = Separation(sum(1 << v for v in a), sum(1 << v for v in b))
        assert (sep.side_a, sep.side_b, sep.core) == (a, b, a & b)
        with pytest.raises(ValueError, match=message):
            sep.validate(glued_k4s, 2)

    def test_parent_must_own_the_side(self, glued_k4s):
        parent = find_separation(glued_k4s, 2)
        assert find_separation(glued_k4s, 2, parent.mask_b, parent=parent) is None
        with pytest.raises(ValueError, match="not a side"):
            find_separation(glued_k4s, 2, 0b011111, parent=parent)

    def test_disconnected_padding(self):
        g = SimpleGraph.empty(5)
        sep = find_separation(g, 2)
        sep.validate(g, 2)

    def test_present_iff_brute_force_cut_at_most_k(self):
        # the separation pads the first cut of at most k, which need not be a
        # minimum one; it exists exactly when the least cut has at most k
        rng = random.Random(37)
        for _ in range(100):
            g = random_graph(rng, rng.randint(4, 10), rng.random())
            sep = find_separation(g, 3)
            assert (sep is not None) == (g.n >= 5 and brute_force_min_cut(g).kappa <= 3), sorted(g.edges)
            if sep is not None:
                sep.validate(g, 3)

    def test_absent_iff_connected_or_tiny(self):
        rng = random.Random(31)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 11), rng.random())
            for k in (1, 2, 3):
                sep = find_separation(g, k)
                expected_absent = is_k1_connected(g, k) or g.n <= k + 1
                assert (sep is None) == expected_absent, (sorted(g.edges), k)
                if sep is not None:
                    sep.validate(g, k)


def test_bits_matches_a_scan():
    # masks of at most 128 members are read from the top bit down, larger ones
    # from their binary digits: dense masks, sparse masks as wide as a large
    # graph, and masks whose lowest or highest possible bit is set, on both sides
    rng = random.Random(5)
    masks = []
    for length in (0, 1, 64, 128, 129, 130, 700, 4100):
        for p in (0.0, 0.05, 0.5, 1.0):
            masks.append((length, sum(1 << v for v in range(length) if rng.random() < p)))
    for width in (1, 2, 127, 128, 129, 130, 1200, 1201, 4100):
        masks += [(width, 1 << width - 1), (width, 1 | 1 << width - 1)]
        for count in (1, 2, 4, 6, 127, 128, 129, 130):
            if count <= width:
                masks.append((width, sum(1 << v for v in rng.sample(range(width), count))))
            if 2 <= count <= width:
                rest = rng.sample(range(1, width - 1), count - 2)
                masks.append((width, sum(1 << v for v in rest) | 1 | 1 << width - 1))
    assert {1, 4, 128, 129} <= {mask.bit_count() for _, mask in masks}
    names = [f"v{v}" for v in range(4100)]
    for width, mask in masks:
        expected = [v for v in range(width) if mask >> v & 1]
        assert _bits(mask) == expected
        assert _members(mask, range(width)) == expected
        assert _members(mask, names) == [names[v] for v in expected]
