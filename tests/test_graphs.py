import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from hcs import (
    AnticliqueProfile,
    ExperimentConfig,
    SimpleGraph,
    average_degree,
    build_extremal,
    extract,
    find_separation,
    get_alternative,
    graph_from_json_dict,
    graph_to_dot,
    is_k1_connected,
    min_vertex_cut,
    separable_density_check,
    size_threshold,
    validate_decomposition,
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
        with pytest.raises(ValueError, match="at least 3 vertices"):
            SimpleGraph.cycle(2)

    def test_adjacency(self):
        g = SimpleGraph.path(3)
        assert g.adjacency_masks == (0b010, 0b101, 0b010)
        assert (1, 2) in g.edges
        assert (0, 2) not in g.edges


class TestOneEdgeRule:
    """``SimpleGraph``, ``from_edges`` and the JSON loader apply one edge rule."""

    def test_a_repeated_edge_counts_once(self):
        g = SimpleGraph(3, [(0, 1), (0, 1)])
        assert g.edge_count == 1 and hash(g) == hash(SimpleGraph(3, frozenset({(0, 1)})))

    def test_a_list_of_edges_makes_the_same_graph(self):
        assert SimpleGraph(3, [(0, 1), (1, 2)]) == SimpleGraph.path(3)

    def test_any_iterable_is_read_once(self):
        g = SimpleGraph(3, iter([(0, 1)]))
        assert g.edge_count == 1 and g.edges == frozenset({(0, 1)})

    @pytest.mark.parametrize("entry", [5, (0,), (0, 1, 2), "01", {"u": 0}], ids=repr)
    def test_a_malformed_entry_is_a_value_error(self, entry):
        for call in (lambda: SimpleGraph.from_edges(3, [entry]), lambda: SimpleGraph(3, [entry]),
                     lambda: graph_from_json_dict({"n": 3, "edges": [entry]})):
            with pytest.raises(ValueError, match="malformed edge entry"):
                call()

    def test_a_swapped_pair_is_turned_only_by_from_edges(self):
        assert SimpleGraph.from_edges(3, [(2, 1)]).edges == frozenset({(1, 2)})
        with pytest.raises(ValueError, match="out of range or not normalized"):
            SimpleGraph(3, [(2, 1)])

    def test_an_int_subclass_is_refused_as_an_endpoint(self):
        class Label(int):
            pass
        for call in (SimpleGraph.from_edges, SimpleGraph):
            with pytest.raises(ValueError, match="malformed edge entry"):
                call(3, [(0, Label(1))])


_G = build_extremal(2, 2, 2).graph
_SEPARATION = find_separation(_G, 2)
_K = "k must be a positive integer"
_MASK = "vertex mask must be an integer"
_EXTREMAL = "'k', 'sigma_k' and 'level' must be integers"
_CONFIG = "'trials', 'k', 'n_range' and 'seed' must be integers"
_ALT = "alternative id must be an integer"


def _config(**bad) -> ExperimentConfig:
    return ExperimentConfig(**{"trials": 1, "k": 2, "n_range": (15, 50), "alternative_id": 3, "seed": 1, **bad})


# each public entry that takes an integer: a call with the value where that
# integer goes, and the message that refuses it
INTEGER_ENTRIES = {
    "SimpleGraph n": (lambda x: SimpleGraph(x, frozenset()), "vertex count must be an integer"),
    "SimpleGraph endpoint": (lambda x: SimpleGraph(3, frozenset({(0, x)})), "malformed edge entry"),
    "from_edges n": (lambda x: SimpleGraph.from_edges(x, [(0, 1)]), "vertex count must be an integer"),
    "from_edges endpoint": (lambda x: SimpleGraph.from_edges(3, [(x, 0)]), "malformed edge entry"),
    "complete n": (SimpleGraph.complete, "vertex count must be an integer"),
    "path n": (SimpleGraph.path, "vertex count must be an integer"),
    "cycle n": (SimpleGraph.cycle, "vertex count must be an integer"),
    "size_threshold k": (lambda x: size_threshold(x, 1), _K),
    "extract k": (lambda x: extract(_G, x, 1), _K),
    "validate_decomposition k": (lambda x: validate_decomposition(_G, x, 1, extract(_G, 2, 1).tree), _K),
    "find_separation k": (lambda x: find_separation(_G, x), _K),
    "is_k1_connected k": (lambda x: is_k1_connected(_G, x), _K),
    "find_separation alive": (lambda x: find_separation(_G, 2, x), _MASK),
    "is_k1_connected alive": (lambda x: is_k1_connected(_G, 2, x), _MASK),
    "Separation.validate alive": (lambda x: _SEPARATION.validate(_G, 2, x), _MASK),
    "separable_density_check k": (lambda x: separable_density_check(_G, x, get_alternative(3)), _K),
    "build_extremal k": (lambda x: build_extremal(x, 2, 1), _EXTREMAL),
    "build_extremal sigma_k": (lambda x: build_extremal(2, x, 1), _EXTREMAL),
    "build_extremal level": (lambda x: build_extremal(2, 2, x), _EXTREMAL),
    "ExperimentConfig trials": (lambda x: _config(trials=x), _CONFIG),
    "ExperimentConfig k": (lambda x: _config(k=x), _CONFIG),
    "ExperimentConfig n_range": (lambda x: _config(n_range=(x, 50)), _CONFIG),
    "ExperimentConfig seed": (lambda x: _config(seed=x), _CONFIG),
    "ExperimentConfig alternative_id": (lambda x: _config(alternative_id=x), _ALT),
}


class TestIntegerRule:
    """Every public entry takes an int, never a float or a bool, where it takes
    an integer, as the JSON loaders do; anything else is a ValueError."""

    @pytest.mark.parametrize("value", [2.0, 1.5, True], ids=["2.0", "1.5", "True"])
    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    def test_non_integers_are_refused(self, entry, value):
        call, message = INTEGER_ENTRIES[entry]
        with pytest.raises(ValueError, match=message):
            call(value)

    def test_the_entries_take_their_ints(self):
        assert size_threshold(2, 1) == 4
        validate_decomposition(_G, 2, 1, extract(_G, 2, 1).tree)
        assert find_separation(_G, 2) is not None and not is_k1_connected(_G, 2)
        full = (1 << _G.n) - 1
        assert find_separation(_G, 2, full) == _SEPARATION and not is_k1_connected(_G, 2, full)
        _SEPARATION.validate(_G, 2, full)
        assert _config().seed == 1

    @pytest.mark.parametrize("good, bad", [(2, 2.0), (1, True), (2, "2"), (2, [2])])
    def test_alternative_ids_after_the_int_is_cached(self, good, bad):
        # get_alternative caches by value: 2.0 and True must not find the entries of 2 and 1
        assert get_alternative(good).id == good and _config(alternative_id=good).alternative_id == good
        for call in (get_alternative, lambda x: _config(alternative_id=x)):
            with pytest.raises(ValueError, match=_ALT):
                call(bad)
        with pytest.raises(ValueError, match="unknown alternative id 7"):
            _config(alternative_id=7)

    def test_numpy_endpoints_are_refused(self):
        # a numpy int64 endpoint made a numpy mask that dropped every bit above 63
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="malformed edge entry"):
            SimpleGraph.from_edges(80, [(np.int64(0), np.int64(70))])
        with pytest.raises(ValueError, match="malformed edge entry"):
            SimpleGraph(80, frozenset({(np.int64(0), np.int64(70))}))
        with pytest.raises(ValueError, match="vertex count must be an integer"):
            SimpleGraph.from_edges(np.int64(80), [(0, 70)])
        g = SimpleGraph.from_edges(80, [(int(u), int(v)) for u, v in np.array([[0, 70]])])
        assert g.adjacency_masks[0] == 1 << 70
        assert min_vertex_cut(g).kappa == 0


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


def _edge_form_pairs():
    """(n, edges) for seeded random graphs and extremal graphs, edgeless ones included."""
    rng = random.Random(29)
    cases = [pytest.param(n, set(), id=f"edgeless-{n}") for n in (0, 1, 5)]
    cases += [pytest.param(n, random_graph(rng, n, p).edges, id=f"random-{n}-{p}")
              for n in (2, 7, 16, 31) for p in (0.1, 0.5, 0.9)]
    cases += [pytest.param(e.graph.n, e.graph.edges, id=f"extremal-{e.k}-{e.sigma_k}-{e.level}")
              for e in (build_extremal(1, 1, 6), build_extremal(2, 2, 5),
                        build_extremal(3, 4, 3), build_extremal(6, 6, 2))]
    return cases


class TestEdgeForms:
    # a graph holds its edges as a frozenset or as the ascending tuple and builds
    # the other form only on first use; both must answer every question alike
    @pytest.mark.parametrize("n, edges", _edge_form_pairs())
    def test_tuple_and_set_forms_agree(self, n, edges):
        ordered = graph_from_json_dict({"n": n, "edges": [list(e) for e in sorted(edges)]})
        unordered = SimpleGraph(n, frozenset(edges))
        assert "edges" not in vars(ordered) and "sorted_edges" not in vars(unordered)
        assert ordered.edge_count == unordered.edge_count == len(edges)
        assert sorted(ordered.held_edges) == sorted(unordered.held_edges)
        assert ordered.adjacency_masks == unordered.adjacency_masks
        # nothing above built the form a graph lacks
        assert "edges" not in vars(ordered) and "sorted_edges" not in vars(unordered)
        assert ordered == unordered and unordered == ordered
        assert hash(ordered) == hash(unordered)
        assert ordered.sorted_edges == unordered.sorted_edges == tuple(sorted(edges))
        assert ordered.edges == unordered.edges == frozenset(edges)
        assert ordered == unordered and hash(ordered) == hash(unordered)

    def test_graphs_that_differ_are_unequal_in_either_form(self):
        g = SimpleGraph.path(6)
        ordered = graph_from_json_dict({"n": 6, "edges": [list(e) for e in g.sorted_edges]})
        for other in (SimpleGraph.cycle(6), SimpleGraph.path(7), SimpleGraph.empty(6)):
            twin = graph_from_json_dict({"n": other.n, "edges": [list(e) for e in other.sorted_edges]})
            for a, b in ((ordered, other), (ordered, twin), (g, twin)):
                assert a != b and b != a
        assert g != "x" and "x" != ordered
        assert repr(SimpleGraph.path(3)) == "SimpleGraph(n=3, edges=frozenset({(0, 1), (1, 2)}))"

    @pytest.mark.parametrize("form", ["tuple", "set"])
    def test_setting_or_deleting_an_attribute_raises(self, form):
        if form == "tuple":
            g = graph_from_json_dict({"n": 3, "edges": [[0, 1], [1, 2]]})
        else:
            g = SimpleGraph.path(3)
        for name, value in (("n", 4), ("edges", frozenset()), ("sorted_edges", ()),
                            ("adjacency_masks", ()), ("other", 1)):
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, value)
        for name in ("n", "edges", "sorted_edges"):
            with pytest.raises(FrozenInstanceError):
                delattr(g, name)
        assert g == SimpleGraph.path(3)


class TestAnticliqueProfile:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AnticliqueProfile.of(-1)

    def test_square_sum_and_fit(self):
        p = AnticliqueProfile.of(Fraction(1, 2), 1)
        assert p.square_sum == Fraction(5, 4)
