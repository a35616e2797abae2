import random
from fractions import Fraction

import pytest

from hcs import (
    AnticliqueProfile,
    SimpleGraph,
    average_degree,
    graph_from_json_dict,
    graph_to_dot,
)
from conftest import graph_to_json_dict, induced_subgraph, random_graph


class TestSimpleGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            SimpleGraph(3, frozenset({(2, 1)}))  # not normalized

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            SimpleGraph(-1, frozenset())

    def test_duplicate_edges_collapse(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_builders(self):
        assert SimpleGraph.complete(4).edge_count == 6
        assert SimpleGraph.cycle(5).edge_count == 5
        assert SimpleGraph.path(4).edge_count == 3
        assert SimpleGraph.empty(7).edge_count == 0

    def test_adjacency(self):
        g = SimpleGraph.path(3)
        assert g.adjacency_masks == (0b010, 0b101, 0b010)
        assert (1, 2) in g.edges
        assert (0, 2) not in g.edges


class TestAverageDegree:
    def test_complete(self):
        assert average_degree(SimpleGraph.complete(4)) == 3

    def test_cycle(self):
        assert average_degree(SimpleGraph.cycle(5)) == 2

    def test_edgeless(self):
        assert average_degree(SimpleGraph.empty(7)) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            average_degree(SimpleGraph.empty(0))

    def test_exact_fraction(self):
        g = SimpleGraph.path(3)
        assert average_degree(g) == Fraction(4, 3)


class TestInducedSubgraph:
    def test_triangle_from_k4(self):
        ind = induced_subgraph(SimpleGraph.complete(4), {0, 2, 3})
        assert ind.graph.n == 3
        assert ind.graph.edge_count == 3
        assert ind.vertices == (0, 2, 3)
        assert ind.to_original(1) == 2

    def test_adjacent_pair_from_cycle(self):
        ind = induced_subgraph(SimpleGraph.cycle(5), {1, 2})
        assert ind.graph.edge_count == 1

    def test_empty_selection(self):
        ind = induced_subgraph(SimpleGraph.cycle(5), set())
        assert ind.graph.n == 0 and ind.graph.edge_count == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(SimpleGraph.cycle(5), {4, 5})

    def test_idempotent_and_monotone(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng, 8, 0.5)
            w = {v for v in range(8) if rng.random() < 0.6}
            ind = induced_subgraph(g, w)
            again = induced_subgraph(ind.graph, range(ind.graph.n))
            assert again.graph == ind.graph
            w2 = {v for v in w if rng.random() < 0.7}
            small = induced_subgraph(g, w2)
            # edges of the smaller induced graph embed into the larger one
            big_edges = {
                (ind.to_original(u), ind.to_original(v)) for u, v in ind.graph.edges
            }
            small_edges = {
                (small.to_original(u), small.to_original(v)) for u, v in small.graph.edges
            }
            assert small_edges <= big_edges


class TestSerialization:
    def test_json_round_trip(self):
        g = SimpleGraph.from_edges(5, [(0, 4), (1, 2)])
        assert graph_from_json_dict(graph_to_json_dict(g)) == g

    def test_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            graph_from_json_dict({"n": 2})
        with pytest.raises(ValueError):
            graph_from_json_dict({"n": 2, "edges": [[0]]})

    def test_json_checks_and_normalizes_each_edge(self):
        g = graph_from_json_dict({"n": 5, "edges": [[4, 0], [1, 2], [2, 1], (3, 4)]})
        assert g == SimpleGraph.from_edges(5, [(0, 4), (1, 2), (3, 4)])
        assert g.adjacency_masks == SimpleGraph.from_edges(5, g.edges).adjacency_masks
        rng = random.Random(11)
        for _ in range(20):
            ref = random_graph(rng, 12, 0.4)
            flipped = [[v, u] if rng.random() < 0.5 else [u, v] for u, v in ref.edges]
            assert graph_from_json_dict({"n": 12, "edges": flipped}) == ref
        for data, message in (
            ({"n": 3, "edges": [[1, 1]]}, "loop at vertex 1"),
            ({"n": 3, "edges": [[3, 0]]}, r"edge \(0, 3\) out of range"),
            ({"n": 3, "edges": [[-1, 2]]}, r"edge \(-1, 2\) out of range"),
            ({"n": -1, "edges": []}, "vertex count must be non-negative"),
            ({"n": 3, "edges": [[0, 1, 2]]}, "malformed edge entry"),
            ({"n": 3, "edges": [[0, False]]}, "malformed edge entry"),
            ({"n": 3, "edges": [{"u": 0}]}, "malformed edge entry"),
        ):
            with pytest.raises(ValueError, match=message):
                graph_from_json_dict(data)

    @pytest.mark.parametrize("edges", [
        [],
        [[0, 1], [0, 5], [1, 2], [2, 4], [3, 4]],
        [[1, 0], [2, 1], [4, 3]],  # flipped, but ascending once normalized
    ], ids=["empty", "ascending", "flipped-ascending"])
    def test_json_keeps_a_strictly_ascending_edge_order(self, edges):
        g = graph_from_json_dict({"n": 6, "edges": edges})
        assert vars(g)["sorted_edges"] == tuple(sorted(g.edges))
        assert g == SimpleGraph.from_edges(6, edges)
        assert g.adjacency_masks == SimpleGraph.from_edges(6, edges).adjacency_masks

    @pytest.mark.parametrize("edges", [
        [[0, 1], [2, 1], [0, 5]],
        [[1, 2], [0, 1], [3, 4]],
        [[0, 1], [1, 2], [1, 2], [3, 4]],
    ], ids=["flipped", "unordered", "repeated"])
    def test_json_out_of_order_sorts_on_first_use(self, edges):
        g = graph_from_json_dict({"n": 6, "edges": edges})
        assert g.adjacency_masks == SimpleGraph.from_edges(6, edges).adjacency_masks
        assert "sorted_edges" not in vars(g)  # neither the load nor the masks sorted
        assert g.sorted_edges == tuple(sorted(g.edges))
        assert g == SimpleGraph.from_edges(6, edges)

    @pytest.mark.parametrize("g", [
        SimpleGraph.from_edges(6, [(5, 0), (2, 1), (3, 4), (0, 1), (1, 5)]),
        SimpleGraph.cycle(12),
        SimpleGraph.path(12),
    ], ids=["from_edges", "cycle", "path"])
    def test_json_lists_the_edges_in_order(self, g):
        assert graph_to_json_dict(g) == {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
        assert g.sorted_edges == tuple(sorted(g.edges))

    def test_dot_output(self):
        text = graph_to_dot(SimpleGraph.path(3))
        assert "0 -- 1;" in text and "1 -- 2;" in text
        assert text.startswith("graph G {")


class TestAnticliqueProfile:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AnticliqueProfile.of(-1)

    def test_square_sum_and_fit(self):
        p = AnticliqueProfile.of(Fraction(1, 2), 1)
        assert p.square_sum == Fraction(5, 4)
