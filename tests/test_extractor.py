import hashlib
import io
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from hcs import (
    FOUND,
    LEAF_SMALL,
    SEPARABLE,
    SEPARATED,
    SimpleGraph,
    average_degree,
    build_extremal,
    density_threshold,
    extract,
    get_alternative,
    is_k1_connected,
    size_threshold,
    validate_decomposition,
)
from hcs import extractor
from hcs.extractor import DecompositionNode, ExtractionResult, _size_floor, write_result_json
from hcs.field import Surd, sqrt
from conftest import (
    brute_force_hcs,
    extract_by_find_separation,
    induced_subgraph,
    k1_connected_by_removal,
    random_graph,
    result_to_json_dict,
    same_tree,
    tree_check_oracle,
)
from test_golden import EXTREMAL, case_ids, digest, relabelled


def tree_depth(root, children) -> int:
    """Levels of a tree, the root counted as 1, walked without recursion."""
    depth, stack = 0, [(root, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in children(node))
    return depth


def tree_size(root, children) -> int:
    """Nodes of a tree, walked without recursion."""
    size, stack = 0, [root]
    while stack:
        size += 1
        stack.extend(children(stack.pop()))
    return size


def streamed(result) -> dict:
    buf = io.StringIO()
    write_result_json(result, buf)
    return json.loads(buf.getvalue())


def assert_written_as_dumped(result) -> None:
    """write_result_json's text is the compact json.dumps of the result's dict, byte for byte."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))  # json.dumps recurses once per level
    try:
        expected = json.dumps(result_to_json_dict(result), separators=(",", ":"))
    finally:
        sys.setrecursionlimit(limit)
    buf = io.StringIO()
    write_result_json(result, buf)
    text = buf.getvalue()
    if text != expected:  # name the first difference; a diff of megabytes takes minutes
        at = len(os.path.commonprefix([text, expected]))
        pytest.fail(f"texts differ at {at}: {text[at - 30:at + 30]!r} against {expected[at - 30:at + 30]!r}")


def side_a_kinds(root) -> tuple[int, int]:
    """(leaf, separated): how many separated nodes of the tree have a leaf as
    side A and how many a separated node."""
    counts, stack = [0, 0], [root]
    while stack:
        node = stack.pop()
        if node.children:
            counts[bool(node.children[0].children)] += 1
            stack += node.children
    return counts[0], counts[1]


def triangle_chain(m: int) -> SimpleGraph:
    """m triangles in a row, each sharing one vertex with the next.

    Triangle i is x_i y_i x_{i+1}, with x_i = m + i and y_i = m - 1 - i, so
    at k = 1 each separation peels the last triangle's y and x, which are
    the lowest and the highest id of the vertex set it splits.
    """
    edges = []
    for i in range(m):
        edges += [(m + i, m - 1 - i), (m - 1 - i, m + i + 1), (m + i, m + i + 1)]
    return SimpleGraph.from_edges(2 * m + 1, edges)


class TestSizeThreshold:
    def test_exact_rational(self):
        assert size_threshold(2, Fraction(1, 5)) == 2
        assert size_threshold(5, Fraction(1, 5)) == 6
        assert size_threshold(2, 1) == 4

    def test_enclosure(self):
        # the irrational sigma of alternative 1, exactly
        sigma1 = (sqrt(2) + 1) / sqrt(3)
        assert size_threshold(2, sigma1) == 4  # (1+sigma)*2 ~ 4.787
        assert size_threshold(5, sigma1) == 11  # (1+sigma)*5 ~ 11.97

    def test_float_accepted(self):
        assert size_threshold(2, 0.2) == 2
        # read as 3/10, as the CLI reads --sigma 0.3; the binary float is below it
        assert size_threshold(10, 0.3) == 13
        assert extract(SimpleGraph.complete(13), 10, 0.3).outcome == SEPARABLE

    def test_float_read_exactly_by_the_field(self):
        # Surd and sqrt read a float as size_threshold does, as its decimal
        assert Surd(0.3) == Fraction(3, 10)
        assert size_threshold(10, Surd(0.3)) == 13
        assert sqrt(0.3) == sqrt(Fraction(3, 10))

    def test_rejects_nonpositive(self):
        for _ in range(2):  # a refusal is not memoized
            with pytest.raises(ValueError):
                size_threshold(2, 0)
        with pytest.raises(ValueError):
            size_threshold(0, Fraction(1, 5))
        # a zero Surd and a negative one: the sign test against 0 reads the Surd itself
        for sigma in (sqrt(2) - sqrt(2), 1 - sqrt(2)):
            with pytest.raises(ValueError, match="sigma must be positive"):
                size_threshold(2, sigma)

    def test_floors_of_the_irrational_sigmas(self):
        # alt 1's sigma (sqrt(3) + sqrt(6))/3 ~ 1.394 and alt 2's sqrt(10)/6 ~ 0.527
        floors = {1: [2, 4, 7, 9, 11, 14, 16, 19, 21, 23, 26, 28], 2: [1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18]}
        for alt, expected in floors.items():
            sigma = get_alternative(alt).sigma
            assert [size_threshold(k, sigma) for k in range(1, 13)] == expected, alt

    @pytest.mark.parametrize("order", [(0.3, Fraction(0.3)), (Fraction(0.3), 0.3)], ids=["float-first", "binary-first"])
    def test_memo_keyed_on_the_exact_sigma(self, order):
        # 0.3 == Fraction(0.3) and both hash alike, but 0.3 reads as 3/10: a memo
        # keyed on the argument hands the second of them the first one's answer
        _size_floor.cache_clear()
        for sigma in order * 2:
            assert size_threshold(10, sigma) == (13 if isinstance(sigma, float) else 12), sigma


class TestExtract:
    def test_complete_graph_found_whole(self):
        res = extract(SimpleGraph.complete(7), 2, Fraction(1, 5))
        assert res.outcome == FOUND
        assert res.subgraph == frozenset(range(7))

    def test_glued_finds_one_copy(self, glued_k4s):
        res = extract(glued_k4s, 2, Fraction(1, 5))
        assert res.outcome == FOUND
        assert res.subgraph == frozenset({0, 1, 2, 3})

    def test_diamond_small(self, diamond):
        res = extract(diamond, 2, 1)
        assert res.outcome == SEPARABLE
        assert res.tree.kind == LEAF_SMALL

    def test_cycle_separable_tree(self):
        g = SimpleGraph.cycle(8)
        res = extract(g, 2, Fraction(1, 5))
        assert res.outcome == SEPARABLE
        assert res.tree.kind == SEPARATED
        validate_decomposition(g, 2, Fraction(1, 5), res.tree)

    def test_every_large_node_is_separated(self):
        g = SimpleGraph.cycle(9)
        res = extract(g, 2, Fraction(1, 5))
        threshold = size_threshold(2, Fraction(1, 5))
        stack = [res.tree]
        while stack:
            node = stack.pop()
            if len(node.vertices) > max(threshold, 3):
                assert node.kind == SEPARATED
            stack.extend(node.children)

    def test_found_set_is_verified(self):
        rng = random.Random(4)
        for _ in range(30):
            g = random_graph(rng, rng.randint(5, 12), 0.6)
            res = extract(g, 2, Fraction(1, 5))
            if res.outcome == FOUND:
                assert k1_connected_by_removal(g, res.subgraph, 2)
                assert len(res.subgraph) >= 3

    def test_found_set_node_connectivity(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(15)
        found = 0
        for _ in range(20):
            g = random_graph(rng, rng.randint(15, 40), rng.choice([0.15, 0.3, 0.5]))
            for k in (2, 3):
                res = extract(g, k, Fraction(1, 5))
                if res.outcome == FOUND:
                    found += 1
                    h = nx.Graph()
                    h.add_nodes_from(res.subgraph)
                    h.add_edges_from(e for e in g.edges if set(e) <= res.subgraph)
                    assert nx.node_connectivity(h) >= k + 1
                    assert len(res.subgraph) > size_threshold(k, Fraction(1, 5))
        assert found >= 10

    def test_long_cycle_found_whole(self):
        res = extract(SimpleGraph.cycle(700), 1, 1)
        assert res.outcome == FOUND
        assert res.subgraph == frozenset(range(700))

    def test_long_path_separable(self):
        # the tree is 1199 levels deep: extraction, validation and the JSON
        # dict must not recurse per level
        g = SimpleGraph.path(1200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            res = extract(g, 1, 1)
            validate_decomposition(g, 1, 1, res.tree)
            data = result_to_json_dict(res)
        finally:
            sys.setrecursionlimit(limit)
        assert res.outcome == SEPARABLE
        assert tree_depth(res.tree, lambda node: node.children) == 1199
        # max(1, 2(n - k) - 1) bounds every search; a path meets it
        assert tree_size(res.tree, lambda node: node.children) == 2397
        assert data["tree"]["vertices"] == list(range(1200))
        assert tree_depth(data["tree"], lambda node: node.get("children", ())) == 1199

    def test_long_path_tree_hashes_compares_and_prints(self):
        # the generated hash, == and repr recursed once per level of the tree
        g = SimpleGraph.path(1200)
        res, other = extract(g, 1, 1), extract(g, 1, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert len({res.tree, other.tree, res.tree}) == 2
            assert res.tree == res.tree and res.tree != other.tree
            assert res == res and hash(res) == hash(res)
            text = repr(res)
        finally:
            sys.setrecursionlimit(limit)
        assert repr(res.tree) == "DecompositionNode(kind='SEPARATED', vertices=1200, children=2)"
        assert text.endswith(f"tree={res.tree!r})")

    def test_validate_rejects_tampered_trees(self):
        g = SimpleGraph.cycle(12)
        tree = extract(g, 2, Fraction(1, 5)).tree
        left, right = tree.children
        cases = [
            (replace(tree, children=(left,)), "two children"),
            (replace(tree, children=()), "too large"),
        ]
        validate_decomposition(g, 2, Fraction(1, 5), tree)
        # the sides in the other order are a separation too
        validate_decomposition(g, 2, Fraction(1, 5), replace(tree, children=(right, left)))
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                validate_decomposition(g, 2, Fraction(1, 5), bad)

    def test_validate_rejects_a_root_that_misses_vertices(self):
        e = build_extremal(2, 2, 4)
        tree = extract(e.graph, 2, e.sigma).tree
        validate_decomposition(e.graph, 2, e.sigma, tree)
        with pytest.raises(ValueError, match="every vertex"):
            validate_decomposition(e.graph, 2, e.sigma, tree.children[1])
        with pytest.raises(ValueError, match="every vertex"):
            validate_decomposition(SimpleGraph(e.graph.n + 1, e.graph.edges), 2, e.sigma, tree)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            extract(SimpleGraph.complete(3), 2, 0)

    def test_empty_graph(self):
        res = extract(SimpleGraph.empty(0), 2, 1)
        assert res.outcome == SEPARABLE

    def test_petersen(self):
        # 3-regular and 3-connected: qualifies at k=2, never at k=3
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        petersen = SimpleGraph.from_edges(10, edges)
        res = extract(petersen, 2, Fraction(1, 5))
        assert res.outcome == FOUND and len(res.subgraph) == 10
        res = extract(petersen, 3, Fraction(1, 5))
        assert res.outcome == SEPARABLE
        assert brute_force_hcs(petersen, 3, Fraction(1, 5)) is None

    @pytest.mark.parametrize("params", [(3, 3, 9), (6, 6, 7)], ids=lambda p: "-".join(map(str, p)))
    def test_extremal_at_scale(self, params):
        # k >= 3 on 1539 and 774 vertices, relabelled: the root's search
        # stops at its first cut of at most k instead of proving kappa = k
        k, sigma_k, level = params
        e = build_extremal(k, sigma_k, level)
        g = relabelled(e.graph, level)
        res = extract(g, k, e.sigma)
        assert res.outcome == SEPARABLE
        validate_decomposition(g, k, e.sigma, res.tree)

    def test_complete_bipartite(self):
        k33 = SimpleGraph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
        assert extract(k33, 2, Fraction(1, 5)).outcome == FOUND
        assert extract(k33, 3, Fraction(1, 5)).outcome == SEPARABLE


def _mutation_cases() -> list[tuple]:
    """(graph, k, sigma, SEPARABLE tree) on extremal graphs, a path and seeded random graphs.

    A larger sigma leaves room in the leaves, so a vertex moved between two
    leaves may break only the separation's private-edge condition.
    """
    e22, e33 = build_extremal(2, 2, 4), build_extremal(3, 3, 3)
    cases = [(g, k, sigma, extract(g, k, sigma).tree) for g, k, sigma in
             [(relabelled(e22.graph, 4), 2, e22.sigma), (e33.graph, 3, e33.sigma), (SimpleGraph.path(30), 1, Fraction(1))]]
    rng = random.Random(36)
    for k in (1, 2, 3):
        count = 0
        while count < 3:
            g = random_graph(rng, rng.randint(10, 24), rng.choice([0.15, 0.25, 0.35]))
            sigma = rng.choice([Fraction(1, 2), Fraction(2), Fraction(3)])
            res = extract(g, k, sigma)
            if res.outcome == SEPARABLE and res.tree.children:
                cases.append((g, k, sigma, res.tree))
                count += 1
    return cases


def _nodes_with_paths(root) -> list[tuple]:
    """Every node of the tree with its path from the root, as (parent, child index) pairs."""
    found, stack = [], [(root, ())]
    while stack:
        node, path = stack.pop()
        found.append((node, path))
        stack.extend((child, path + ((node, i),)) for i, child in enumerate(node.children))
    return found


def _put(path, node):
    """The root of the tree with node in place of the one at the end of path, its ancestors rebuilt."""
    for parent, i in reversed(path):
        children = list(parent.children)
        children[i] = node
        node = replace(parent, children=tuple(children))
    return node


def _vertex(rng: random.Random, mask: int) -> int:
    """A random bit of mask, which is not 0, as a single-bit mask."""
    return 1 << rng.choice([v for v in range(mask.bit_length()) if mask >> v & 1])


def _mutated(rng: random.Random, mutation: str, node, small_cap: int, n: int):
    """node with one fault of the named kind, or None when node cannot take it."""
    if mutation == "widen leaf":
        if node.children or n <= small_cap:
            return None
        mask = node.mask
        while mask.bit_count() <= small_cap:
            mask |= _vertex(rng, (1 << n) - 1 & ~mask)
        return replace(node, mask=mask)
    if not node.children:
        return None
    i = rng.randrange(2)
    one, other = node.children[i], node.children[1 - i]

    def with_sides(one_mask: int, other_mask: int):
        sides = (replace(one, mask=one_mask), replace(other, mask=other_mask))
        return replace(node, children=sides[::-1] if i else sides)

    if mutation == "move private vertex":
        v = _vertex(rng, one.mask & ~other.mask)
        return with_sides(one.mask & ~v, other.mask | v)
    if mutation == "add vertex to both":
        return with_sides(one.mask, other.mask | _vertex(rng, one.mask & ~other.mask))
    if mutation == "drop core vertex":
        return with_sides(one.mask & ~_vertex(rng, one.mask & other.mask), other.mask)
    if mutation == "swap children":
        return replace(node, children=node.children[::-1])
    if mutation == "split to leaf":
        return replace(node, children=())
    assert mutation == "keep one child"
    return replace(node, children=(one,))


MUTATIONS = ["move private vertex", "add vertex to both", "drop core vertex", "swap children",
             "split to leaf", "keep one child", "widen leaf", "child as root"]


class TestValidateMutations:
    def test_agrees_with_the_oracle(self):
        cases = _mutation_cases()
        for g, k, sigma, tree in cases:
            assert tree_check_oracle(g, k, sigma, tree)
            validate_decomposition(g, k, sigma, tree)
        rng = random.Random(2026)
        seen = set()
        for _ in range(400):
            g, k, sigma, tree = rng.choice(cases)
            mutation = rng.choice(MUTATIONS)
            nodes = _nodes_with_paths(tree)
            if mutation == "child as root":
                bad = rng.choice(nodes[1:])[0]
            else:
                small_cap = max(size_threshold(k, sigma), k + 1)
                bad = None
                while bad is None:
                    node, path = rng.choice(nodes)
                    mutated = _mutated(rng, mutation, node, small_cap, g.n)
                    bad = None if mutated is None else _put(path, mutated)
            try:
                validate_decomposition(g, k, sigma, bad)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == tree_check_oracle(g, k, sigma, bad), mutation
            assert accepted or mutation != "swap children"
            seen.add(mutation)
        assert seen == set(MUTATIONS)


class TestAgainstFindSeparation:
    """extract runs the separation step unchecked and carries each side's
    degree classes down from its parent; its answer must be the one that
    asking the public ``find_separation``, which counts each set's classes
    afresh, at each set gives, node for node."""

    @staticmethod
    def assert_same_answer(g, k, sigma) -> str:
        got, expected = extract(g, k, sigma), extract_by_find_separation(g, k, sigma)
        assert got.outcome == expected.outcome and got.subgraph == expected.subgraph
        assert got.tree is None and expected.tree is None or same_tree(got.tree, expected.tree)
        return got.outcome

    def test_random_graphs(self):
        rng = random.Random(4545)
        outcomes = {k: set() for k in range(1, 5)}
        for i in range(200):
            k = 1 + i % 4
            g = random_graph(rng, rng.randint(6, 32), rng.choice([0.1, 0.2, 0.35, 0.5, 0.7]))
            outcomes[k].add(self.assert_same_answer(g, k, rng.choice([Fraction(1, 5), Fraction(1), Fraction(2)])))
        assert all(seen == {FOUND, SEPARABLE} for seen in outcomes.values()), outcomes

    @pytest.mark.parametrize("case", ["path", "triangle chain"])
    def test_long_trees(self, case):
        g, k, sigma = {"path": (SimpleGraph.path(300), 1, 1), "triangle chain": (triangle_chain(100), 1, 3)}[case]
        assert self.assert_same_answer(g, k, sigma) == SEPARABLE

    @pytest.mark.parametrize("params", [(2, 2, 6), (3, 3, 5), (2, 4, 5)], ids=["2-2-6", "3-3-5", "2-4-5"])
    @pytest.mark.parametrize("relabel", [False, True], ids=["as built", "relabelled"])
    def test_extremal(self, params, relabel):
        k, sigma_k, level = params
        e = build_extremal(k, sigma_k, level)
        g = relabelled(e.graph, level) if relabel else e.graph
        assert self.assert_same_answer(g, k, e.sigma) == SEPARABLE


class TestInheritedBound:
    def test_disconnected_child(self):
        # Vertex 0 has degree 2, so the root's core is its neighbourhood
        # {1, 2}. The child {1..10} is then two K4's, one with vertex 1 and
        # one with vertex 2 joined to three of its vertices: disconnected, of
        # minimum degree 3 > k. No walk finds that; the flow from 1 to 2
        # returns the empty cut, and the child's core {1, 2} is padded from it.
        edges = [(0, 1), (0, 2)] + [(1, v) for v in (3, 4, 5)] + [(2, v) for v in (7, 8, 9)]
        edges += [(a, b) for a in range(3, 7) for b in range(a + 1, 7)]
        edges += [(a, b) for a in range(7, 11) for b in range(a + 1, 11)]
        g = SimpleGraph.from_edges(11, edges)
        res = extract(g, 2, 2)
        validate_decomposition(g, 2, 2, res.tree)
        data = result_to_json_dict(res)
        assert data["tree"]["separation"]["core"] == [1, 2]
        child = data["tree"]["children"][1]
        assert child["vertices"] == list(range(1, 11))
        assert child["separation"]["side_a"] == [1, 2, 3, 4, 5, 6]
        assert child["separation"]["side_b"] == [1, 2, 7, 8, 9, 10]
        assert digest(data) == "b6ebd057fd339d37fe2d0eee6b860bee9d952c83b5cb8473f3a648d30de95cf2"


class TestBruteForce:
    def test_glued(self, glued_k4s):
        assert brute_force_hcs(glued_k4s, 2, Fraction(1, 5)) == (0, 1, 2, 3)

    def test_cycle_has_none(self):
        assert brute_force_hcs(SimpleGraph.cycle(6), 2, Fraction(1, 5)) is None

    def test_complete_k3(self):
        assert brute_force_hcs(SimpleGraph.complete(5), 3, Fraction(1, 5)) == (0, 1, 2, 3, 4)

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_hcs(SimpleGraph.empty(19), 2, Fraction(1, 5))

    def test_lexicographically_first(self):
        # two disjoint K4's: the one on lower labels wins
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a + 4, b + 4) for a in range(4) for b in range(a + 1, 4)]
        g = SimpleGraph.from_edges(8, edges)
        assert brute_force_hcs(g, 2, Fraction(1, 5)) == (0, 1, 2, 3)

    def test_agreement_with_extract(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_graph(rng, rng.randint(4, 11), rng.choice([0.2, 0.5, 0.8]))
            for k, sigma in ((2, Fraction(1, 5)), (3, 1)):
                res = extract(g, k, sigma)
                hit = brute_force_hcs(g, k, sigma)
                assert (res.outcome == FOUND) == (hit is not None)
                if hit is not None:
                    ind = induced_subgraph(g, hit)
                    assert is_k1_connected(ind.graph, k)
                    assert len(hit) > size_threshold(k, sigma)


class TestDensityImplication:
    # a graph whose average degree reaches delta*k - 1 must give FOUND
    def test_complete_seven(self):
        alt = get_alternative(3)
        assert density_threshold(alt, 2) == Fraction(5218, 1000)
        assert average_degree(SimpleGraph.complete(7)) == 6 >= density_threshold(alt, 2)
        result = extract(SimpleGraph.complete(7), 2, alt.sigma)
        assert result.outcome == FOUND and len(result.subgraph) == 7

    def test_extremal_below_alt1_threshold(self):
        g = build_extremal(2, 2, 2).graph
        assert average_degree(g) < density_threshold(get_alternative(1), 2)
        # and the construction is indeed separable at sigma = 1
        assert extract(g, 2, 1).outcome == SEPARABLE

    def test_edgeless_never_applicable(self):
        for alt_id in (1, 2, 3):
            assert average_degree(SimpleGraph.empty(6)) < density_threshold(get_alternative(alt_id), 3)

    def test_empty_graph(self):
        # no average degree, so no claim; extraction still answers
        with pytest.raises(ValueError):
            average_degree(SimpleGraph.empty(0))
        assert extract(SimpleGraph.empty(0), 2, get_alternative(3).sigma).outcome == SEPARABLE


class TestSerialization:
    def test_found_json(self, glued_k4s):
        res = extract(glued_k4s, 2, Fraction(1, 5))
        data = result_to_json_dict(res)
        assert data == {"outcome": "FOUND", "subgraph": [0, 1, 2, 3]}

    def test_separable_json(self):
        res = extract(SimpleGraph.cycle(6), 2, 1)
        data = result_to_json_dict(res)
        assert data["outcome"] == "SEPARABLE"
        root = data["tree"]
        assert root["kind"] == "SEPARATED"
        assert len(root["separation"]["core"]) == 2
        assert {tuple(c["vertices"]) for c in root["children"]}

    @pytest.mark.parametrize("params", sorted(EXTREMAL), ids=case_ids(EXTREMAL))
    def test_streamed_json_matches_dict_extremal(self, params):
        k, sigma_k, level = params
        e = build_extremal(k, sigma_k, level)
        res = extract(relabelled(e.graph, level), k, e.sigma)
        assert streamed(res) == result_to_json_dict(res)

    def test_streamed_json_matches_dict_random(self):
        rng = random.Random(2718)
        outcomes = set()
        for _ in range(40):
            g = random_graph(rng, rng.randint(8, 30), rng.choice([0.2, 0.35, 0.5, 0.7]))
            for k in (2, 3):
                for sigma in (Fraction(1, 5), Fraction(1)):
                    res = extract(g, k, sigma)
                    outcomes.add(res.outcome)
                    assert streamed(res) == result_to_json_dict(res)
        assert outcomes == {FOUND, SEPARABLE}

    @pytest.mark.parametrize("case", ["path", "relabelled path", "triangle chain"])
    def test_written_text_is_dumped_text_long_trees(self, case):
        # ids cross 9 -> 10, 99 -> 100 and 999 -> 1000; the path peels the
        # first id of each set, the triangle chain its first and last ids
        g, k, sigma = {
            "path": (SimpleGraph.path(1200), 1, 1),
            "relabelled path": (relabelled(SimpleGraph.path(1200), 0), 1, 1),
            "triangle chain": (triangle_chain(600), 1, 3),
        }[case]
        res = extract(g, k, sigma)
        assert res.outcome == SEPARABLE
        if case == "triangle chain":  # the root peels its lowest and its highest id
            assert res.tree.separation.mask_a & ~res.tree.separation.mask_b == 1 | 1 << 1200
        # every side A is a leaf: the writer goes down side B in place
        assert side_a_kinds(res.tree) == ((599 if case == "triangle chain" else 1198), 0)
        assert_written_as_dumped(res)

    @pytest.mark.parametrize("params", sorted(EXTREMAL), ids=case_ids(EXTREMAL))
    def test_written_text_is_dumped_text_extremal(self, params):
        # the writer writes a leaf side A in place and walks a separated one:
        # these trees have both
        k, sigma_k, level = params
        e = build_extremal(k, sigma_k, level)
        res = extract(relabelled(e.graph, level), k, e.sigma)
        leaves, separated = side_a_kinds(res.tree)
        assert leaves > 0 and separated > 0
        assert_written_as_dumped(res)

    @staticmethod
    def cuts_made(res, monkeypatch) -> list[list[str]]:
        """The ids the writer deletes from a parent's list text, one list a side,
        once its text is checked against the dumped text."""
        cuts = []
        without = extractor._without
        monkeypatch.setattr(extractor, "_without", lambda text, names: cuts.append(names) or without(text, names))
        assert_written_as_dumped(res)
        return cuts

    def test_side_cut_when_it_lacks_at_most_a_64th(self, monkeypatch):
        # a tree made by hand, over ids 0..199: the root's side A lacks only
        # 199 and is cut from the root's text, its side B {0, 199} is encoded;
        # side A splits into the leaf {0, 1}, encoded, and {1..198}, which
        # lacks only 0 and is cut
        leaf_a, leaf_b = DecompositionNode(0b11), DecompositionNode((1 << 199) - 2)
        side_a = DecompositionNode((1 << 199) - 1, (leaf_a, leaf_b))
        root = DecompositionNode((1 << 200) - 1, (side_a, DecompositionNode(1 | 1 << 199)))
        assert self.cuts_made(ExtractionResult(SEPARABLE, None, root), monkeypatch) == [["199"], ["0"]]

    def test_written_text_is_dumped_text_both_sides_cut(self, monkeypatch):
        # K66 less the edge {0, 65} at k = 64: the core is the other 64
        # vertices, each private part is one vertex, and 1 * 64 <= 65, so both
        # sides' lists are cut out of the root's list text
        g = SimpleGraph.from_edges(66, [e for e in SimpleGraph.complete(66).edges if e != (0, 65)])
        res = extract(g, 64, Fraction(1, 64))
        assert [child.mask for child in res.tree.children] == [(1 << 65) - 1, (1 << 66) - 2]
        assert self.cuts_made(res, monkeypatch) == [["65"], ["0"]]

    # sha256 and size of the `extract --out` file, write_result_json's text and a
    # newline, for trees larger than the golden digests': the extremal graphs as
    # built, a chain of triangles and a path whose file is 6.4 MB
    OUT_FILES = {
        "extremal-2-2-9": ("cfae4c83cf62590bbb3789945cec78a082f61006d46c4e31c522c3b2b3d31b6b", 1_160_302),
        "extremal-2-4-8": ("b71e3f6ff6db0f240f09ee4a49bcac101d3fed8f18bfb45a0835866dc4351f3f", 269_809),
        "triangle-chain-300": ("44b903c89efb484e691455c7ccb64998390129c8a64c90c4800b50fdee851fe7", 758_786),
        "path-1200": ("55c4364246d709cd3a60370119184bd0c9cbe103d946bc081e7ef1b6ba1ef5f0", 6_367_709),
    }

    @pytest.mark.parametrize("case", sorted(OUT_FILES))
    def test_out_file_bytes(self, case):
        g, k, sigma = {
            "extremal-2-2-9": (build_extremal(2, 2, 9).graph, 2, 1),
            "extremal-2-4-8": (build_extremal(2, 4, 8).graph, 2, 2),
            "triangle-chain-300": (triangle_chain(300), 1, 3),
            "path-1200": (SimpleGraph.path(1200), 1, 1),
        }[case]
        buf = io.StringIO()
        write_result_json(extract(g, k, sigma), buf)
        data = (buf.getvalue() + "\n").encode()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == self.OUT_FILES[case]

    class CountingFile:
        """Records the length of each text it is written; ``writelines`` writes
        each line in a call of its own, as a text file's does."""

        def __init__(self):
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    def test_written_in_blocks(self):
        # a tree goes to the file in blocks of more than 64 pieces, each at most
        # 64 pieces and one node's more, and a piece is at most one vertex list
        # (4,891 characters for all of path(1200)); a FOUND answer in one call
        spy = self.CountingFile()
        write_result_json(extract(SimpleGraph.path(1200), 1, 1), spy)
        assert sum(spy.sizes) == 6_367_708
        assert len(spy.sizes) <= 400 and max(spy.sizes) <= 80 * 4_891
        spy = self.CountingFile()
        write_result_json(extract(SimpleGraph.complete(6), 2, Fraction(1, 5)), spy)
        assert spy.sizes == [len('{"outcome":"FOUND","subgraph":[0,1,2,3,4,5]}')]

    def test_written_text_is_dumped_text_random(self):
        rng = random.Random(2718)
        for _ in range(40):
            g = random_graph(rng, rng.randint(8, 30), rng.choice([0.2, 0.35, 0.5, 0.7]))
            for k in (2, 3):
                for sigma in (Fraction(1, 5), Fraction(1)):
                    assert_written_as_dumped(extract(g, k, sigma))
