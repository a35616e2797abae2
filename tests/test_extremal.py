import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from hcs import (
    SEPARABLE,
    DecompositionNode,
    ExtractionResult,
    SimpleGraph,
    build_extremal,
    extremal_from_json_dict,
    average_degree,
    find_separation,
    sharpness_rate,
    verify_extremal,
)
import hcs.extremal
from hcs.cli import dispatch
from hcs.bounds import _alt1_constants
from hcs.extremal import ExtremalGraph, _edge_lower_bound, _split_parts
from hcs.graphs import _unchecked_graph
from conftest import (
    build_extremal_oracle,
    certificate_check_oracle,
    component_by_search,
    extremal_to_json_dict,
    induced_subgraph,
    partition_check_oracle,
)


class TestBuild:
    def test_level_zero_is_complete(self):
        e = build_extremal(2, 2, 0)
        assert e.graph.n == 4 and e.graph.edge_count == 6
        assert e.graph.edge_count == 4 * 3 // 2
        assert e.parts == ((0, 1, 2, 3),)
        assert e.glue_history == ()

    def test_level_one_counts(self):
        e = build_extremal(2, 2, 1)
        assert (e.graph.n, e.graph.edge_count) == (6, 11)

    def test_level_two_counts(self):
        e = build_extremal(2, 2, 2)
        assert (e.graph.n, e.graph.edge_count) == (10, 22)

    def test_doubling_recurrence(self):
        # each level doubles the edges and removes exactly the glue-set edges
        prev = build_extremal(2, 4, 0)
        for level in range(1, 5):
            e = build_extremal(2, 4, level)
            y = e.glue_history[level - 1]
            y_set = set(y)
            shared = sum(
                1 for u, v in prev.graph.edges if u in y_set and v in y_set
            )
            assert e.graph.edge_count == 2 * prev.graph.edge_count - shared
            assert e.graph.n == 2 * prev.graph.n - 2
            prev = e

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            build_extremal(2, 1, 0)  # sigma < 1
        with pytest.raises(ValueError):
            build_extremal(0, 1, 0)
        with pytest.raises(ValueError):
            build_extremal(2, 2, -1)

    def test_split_parts_needs_a_pool_of_2k(self):
        assert _split_parts(((0, 1, 2), (3,)), 2) == ([(0,), (3,)], [(1, 2), ()])
        with pytest.raises(ValueError):
            _split_parts(((0,),), 1)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            build_extremal(2, 2, 16)  # 131074 vertices, above VERTEX_CAP


class TestVerify:
    @pytest.mark.parametrize("level", range(4))
    def test_small_levels_pass(self, level):
        report = verify_extremal(build_extremal(2, 2, level))
        assert report.passed
        assert report.certificate_ok
        assert report.extraction_ok is True
        assert report.edge_margin >= 0

    def test_extraction_runs_up_to_the_cap(self):
        assert hcs.extremal.EXTRACTION_VERTEX_CAP == 256
        report = verify_extremal(build_extremal(2, 2, 6))  # 130 vertices
        assert report.extraction_ok is True and report.passed
        report = verify_extremal(build_extremal(2, 2, 7))  # 258 vertices
        assert report.extraction_ok is None and report.passed

    def test_complete_graph_fails_extraction(self):
        e = build_extremal(2, 2, 3)
        report = verify_extremal(replace(e, graph=SimpleGraph.complete(e.graph.n)))
        assert report.extraction_ok is False
        assert not report.no_large_subgraph_ok
        assert not report.passed

    def test_extraction_tree_must_check_out(self, monkeypatch):
        # a SEPARABLE answer counts only with a tree that fits the graph
        e = build_extremal(2, 2, 3)
        whole = DecompositionNode((1 << e.graph.n) - 1)
        monkeypatch.setattr(hcs.extremal, "extract",
                            lambda *args: ExtractionResult(SEPARABLE, None, whole))
        report = verify_extremal(e)
        assert report.extraction_ok is False and report.certificate_ok
        assert not report.passed

    def test_other_parameters(self):
        for k, sigma_k in ((1, 1), (1, 3), (3, 3), (2, 5)):
            report = verify_extremal(build_extremal(k, sigma_k, 2))
            assert report.passed, (k, sigma_k)

    def test_level_one_bound_is_tight(self):
        report = verify_extremal(build_extremal(2, 2, 1))
        assert report.edge_lower_bound == 11
        assert report.edge_margin == 0

    def test_glue_sets_separate_their_snapshots(self):
        e = build_extremal(2, 2, 3)
        for j, y in enumerate(e.glue_history):
            assert len(y) == e.k
            snapshot_n = e.k + (1 << (j + 1)) * e.sigma_k
            snap = induced_subgraph(e.graph, range(snapshot_n)).graph
            alive = (1 << snap.n) - 1
            for v in y:
                alive &= ~(1 << v)
            assert component_by_search(snap, alive, (alive & -alive).bit_length() - 1) != alive

    def test_glue_edge_halving(self):
        # the gluing sets keep at most a 2^-j share of the complete edge count
        for k, sigma_k in ((2, 2), (3, 3), (2, 4)):
            e = build_extremal(k, sigma_k, 4)
            for j, y in enumerate(e.glue_history):
                y_set = set(y)
                e_y = sum(1 for u, v in e.graph.edges if u in y_set and v in y_set)
                assert 2 * e_y * (1 << j) <= k * k - k

    def test_deleted_glue_edge_breaks_edge_bound_only(self):
        e = build_extremal(2, 2, 1)
        y = e.glue_history[0]
        shared = [
            (u, v) for u, v in e.graph.edges if u in set(y) and v in set(y)
        ]
        assert shared, "level-1 gluing on a complete base must share an edge"
        smaller = SimpleGraph(e.graph.n, e.graph.edges - {shared[0]})
        mutated = replace(e, graph=smaller)
        report = verify_extremal(mutated)
        assert report.edge_margin == -1
        assert not report.edge_bound_ok
        assert report.extraction_ok  # still no large connected subgraph
        assert report.certificate_ok  # leaf-size certificate is edge-insensitive
        assert not report.passed

    def test_malformed_metadata_rejected(self):
        e = build_extremal(2, 2, 1)
        bad = ExtremalGraph(e.graph, e.k, e.sigma_k, e.level, e.parts, ((0, 1, 2),))
        with pytest.raises(ValueError):
            verify_extremal(bad)
        bad = ExtremalGraph(e.graph, e.k, e.sigma_k, e.level, ((0, 1), (1, 2)), e.glue_history)
        with pytest.raises(ValueError):
            verify_extremal(bad)


class TestSharpnessRate:
    def test_level_two(self):
        lhs, rhs = sharpness_rate(build_extremal(2, 2, 2))
        assert lhs == Fraction(11, 2)
        assert rhs == Fraction(16, 3)

    def test_level_zero(self):
        lhs, rhs = sharpness_rate(build_extremal(2, 2, 0))
        assert lhs == 6 and rhs == Fraction(16, 3)

    def test_unit_k_equality(self):
        lhs, rhs = sharpness_rate(build_extremal(1, 1, 0))
        assert lhs == rhs == 2

    def test_violated_rate_raises(self):
        e = build_extremal(1, 1, 0)  # single edge on two vertices
        mutated = replace(e, graph=SimpleGraph.empty(2))
        with pytest.raises(ArithmeticError):
            sharpness_rate(mutated)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_floor_sits_below_the_edge_bound(self, k):
        # certify's edge bound exceeds the rate's floor, as an edge count, by
        # (2/3) 2^-level C(k, 2) >= 0, so the rate line can fail only when
        # edge-bound fails; both depend on the parameters only, not the edges
        for sigma_k in range(k, 2 * k + 2):
            gamma, delta = _alt1_constants(Fraction(sigma_k, k))
            for level in range(9):
                v = k + (1 << level) * sigma_k
                e = ExtremalGraph(SimpleGraph.empty(v), k, sigma_k, level, (), ())
                floor_edges = (delta * k - 1 - gamma) * (v - k) / 2
                assert _edge_lower_bound(e) - floor_edges == Fraction(2, 3) / (1 << level) * (k * (k - 1) // 2)


class TestDegreeTarget:
    # the average-degree target delta*k - 2 of alternative 1 at k = 2, sigma = 1
    target = _alt1_constants(Fraction(1))[1] * 2 - 2

    def test_target_value(self):
        assert self.target == Fraction(14, 3)

    def test_first_level_for_k2_sigma1(self):
        # levels 0..2 stay below 14/3; the level-3 instance reaches 44/9
        degrees = [average_degree(build_extremal(2, 2, level).graph) for level in range(4)]
        assert [d > self.target for d in degrees] == [False, False, False, True]
        assert degrees[3] == Fraction(44, 9)


class TestSerialization:
    def test_round_trip(self):
        e = build_extremal(2, 2, 2)
        data = extremal_to_json_dict(e)
        back = extremal_from_json_dict(data)
        assert back == e

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            extremal_from_json_dict({"graph": {"n": 1, "edges": []}})


class TestOneValidation:
    # an instance is validated when its pool map is first read: certify's loader
    # reads it and verify_extremal reuses it. Any other instance, a
    # dataclasses.replace copy of a loaded one too, is validated on its first
    # verify_extremal

    @pytest.fixture
    def validated(self, monkeypatch):
        seen = []
        validate = hcs.extremal._validate_structure

        def spy(e):
            seen.append(e)
            return validate(e)

        monkeypatch.setattr(hcs.extremal, "_validate_structure", spy)
        return seen

    def test_one_certify_validates_once(self, validated, capsys, tmp_path):
        out = tmp_path / "g.json"
        assert dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "5", "--out", str(out)]) == 0
        assert dispatch(["certify", "--in", str(out)]) == 0
        assert len(validated) == 1

    def test_a_replaced_instance_is_validated_afresh(self, validated):
        e = extremal_from_json_dict(extremal_to_json_dict(build_extremal(2, 2, 3)))
        assert verify_extremal(e).passed and validated == [e]
        first, second = [p for p in e.parts if p][:2]
        repeated = replace(e, parts=tuple(first if p == second else p for p in e.parts))
        with pytest.raises(ValueError, match="repeated"):
            verify_extremal(repeated)
        assert verify_extremal(replace(e)).passed and len(validated) == 3


class TestSeparationInterplay:
    def test_level_one_separates_along_glue(self):
        e = build_extremal(2, 2, 1)
        sep = find_separation(e.graph, 2)
        assert sep is not None
        assert sep.core == set(e.glue_history[0])


def _with_edge(e: ExtremalGraph, u: int, v: int) -> ExtremalGraph:
    edge = (min(u, v), max(u, v))
    assert edge not in e.graph.edges
    return replace(e, graph=SimpleGraph(e.graph.n, e.graph.edges | {edge}))


def _private_side_edges(e: ExtremalGraph, rng: random.Random) -> list[tuple[int, int]]:
    """One edge per level between the two private sides of a gluing-tree node.

    The level-j node on the first-copy path is the prefix range(v_j): its
    private sides are range(v_(j-1)) less glue j-1, and range(v_(j-1), v_j).
    From level 2 on, one more edge joins the private sides of the root's
    second copy, whose labels are the image of the copy embedding.
    """
    k, sigma_k = e.k, e.sigma_k
    size = [k + (1 << j) * sigma_k for j in range(e.level + 1)]
    edges = []
    for j in range(1, e.level + 1):
        y = set(e.glue_history[j - 1])
        u = rng.choice([v for v in range(size[j - 1]) if v not in y])
        edges.append((u, rng.randrange(size[j - 1], size[j])))
    if e.level >= 2:
        y_top, y = set(e.glue_history[-1]), set(e.glue_history[-2])
        others = [v for v in range(size[-2]) if v not in y_top]
        image = {v: v if v in y_top else size[-2] + others.index(v) for v in range(size[-2])}
        u = rng.choice([v for v in range(size[-3]) if v not in y])
        edges.append((image[u], image[rng.randrange(size[-3], size[-2])]))
    return edges


class TestCertificateOracle:
    """verify_extremal against the per-node set-and-bitmask oracles of conftest."""

    @pytest.fixture(autouse=True)
    def _no_extraction(self, monkeypatch):
        # only the certificate and the partition are compared here
        monkeypatch.setattr(hcs.extremal, "EXTRACTION_VERTEX_CAP", -1)

    @staticmethod
    def _agree(e: ExtremalGraph):
        report = verify_extremal(e)
        assert report.certificate_ok == certificate_check_oracle(e)
        assert report.partition_ok == partition_check_oracle(e)
        return report

    @pytest.mark.parametrize("k, sigma_k", [(2, 2), (3, 3), (1, 3)])
    @pytest.mark.parametrize("level", range(8))
    def test_matches_oracle(self, k, sigma_k, level):
        e = build_extremal(k, sigma_k, level)
        report = self._agree(e)
        assert report.certificate_ok and report.partition_ok
        rng = random.Random(f"{k}/{sigma_k}/{level}")
        if level > 0:  # level 0 is complete
            n = e.graph.n
            while True:
                u, v = rng.sample(range(n), 2)
                if (min(u, v), max(u, v)) not in e.graph.edges:
                    break
            self._agree(_with_edge(e, u, v))
        for u, v in _private_side_edges(e, rng):
            assert not self._agree(_with_edge(e, u, v)).certificate_ok, (u, v)
        # one vertex more than the level has: it lies in no leaf
        assert not self._agree(replace(e, graph=SimpleGraph(e.graph.n + 1, e.graph.edges))).certificate_ok
        parts = [p for p in e.parts if p]
        if len(parts) >= 2:
            first, second = rng.sample(parts, 2)
            mutated = _with_edge(e, rng.choice(first), rng.choice(second))
            assert not self._agree(mutated).partition_ok
            # a vertex of a smallest part moved to a largest: two sizes apart,
            # whether or not some part is empty
            ordered = sorted(parts, key=len)
            src, dst = ordered[0], ordered[-1]
            moved = tuple(p[1:] if p == src else p + src[:1] if p == dst else p for p in e.parts)
            assert not self._agree(replace(e, parts=moved)).partition_ok

    def test_pool_check_walks_no_more_pairs_than_edges(self):
        # a file may claim a pool far larger than its edge list: with k = sigma_k
        # = 300, 90,000 pairs join the two parts, but the graph has no edges
        k = 300
        e = ExtremalGraph(
            graph=SimpleGraph.empty(3 * k), k=k, sigma_k=k, level=1,
            parts=(tuple(range(k, 2 * k)), tuple(range(2 * k, 3 * k))),
            glue_history=(tuple(range(k)),),
        )
        assert self._agree(e).partition_ok
        assert not self._agree(_with_edge(e, k, 2 * k)).partition_ok

    @pytest.mark.parametrize("k, sigma_k, level", [(2, 2, 5), (3, 3, 4), (1, 3, 6)])
    def test_pool_check_on_both_edge_forms(self, k, sigma_k, level):
        # the ascending tuple as built and the set hold the same edges; an edge
        # between two parts fails, one with only its larger end in the pool passes.
        # With the labels 0 and n - 1 swapped into the pool, the pool vertices'
        # slices of the tuple reach both its ends, and n - 1 has an empty slice
        e = build_extremal(k, sigma_k, level)
        n = e.graph.n
        pool = sorted(v for p in e.parts for v in p)
        first, second = [p for p in e.parts if p][:2]
        outside = min(v for v in range(pool[-1]) if v not in pool and (v, pool[-1]) not in e.graph.edges)
        moved = _swapped(_swapped(e, pool[0], 0), pool[-1], n - 1)
        low, high = (next(p for p in moved.parts if v in p) for v in (0, n - 1))
        moved_pool = {v for p in moved.parts for v in p}
        below_top = min(v for v in range(n) if v not in moved_pool and (v, n - 1) not in moved.graph.edges)
        for inst, u, v, ok in (
            (e, first[0], second[0], False),
            (e, outside, pool[-1], True),
            (moved, 0, min(moved_pool - set(low)), False),
            (moved, max(moved_pool - set(high)), n - 1, False),
            (moved, below_top, n - 1, True),
        ):
            edges = inst.graph.edges | {(min(u, v), max(u, v))}
            for graph in (_unchecked_graph(n, tuple(sorted(edges))), SimpleGraph(n, edges)):
                assert self._agree(replace(inst, graph=graph)).partition_ok is ok, (u, v)


def _swapped(e: ExtremalGraph, a: int, b: int) -> ExtremalGraph:
    """The instance with the labels a and b exchanged in its graph and its pool."""
    def label(v: int) -> int:
        return b if v == a else a if v == b else v

    edges = {tuple(sorted(map(label, edge))) for edge in e.graph.edges}
    return replace(e, graph=SimpleGraph(e.graph.n, edges), parts=tuple(tuple(map(label, p)) for p in e.parts))


def _toggled(e: ExtremalGraph, edge: tuple[int, int]) -> ExtremalGraph:
    """The instance with one edge added, or deleted if the graph has it."""
    return replace(e, graph=SimpleGraph(e.graph.n, e.graph.edges ^ {edge}))


class TestCertificateMutations:
    """One-edge additions and deletions, checked against the conftest oracles.

    The graph is the union of its leaves' cliques, so every added edge
    joins the private sides of some node and must fail the certificate,
    and every deleted edge must keep it.
    """

    @pytest.fixture(autouse=True)
    def _no_extraction(self, monkeypatch):
        monkeypatch.setattr(hcs.extremal, "EXTRACTION_VERTEX_CAP", -1)

    @staticmethod
    def _check(e: ExtremalGraph, edges) -> None:
        for edge in edges:
            report = TestCertificateOracle._agree(_toggled(e, edge))
            assert report.certificate_ok == (edge in e.graph.edges), edge

    @pytest.mark.parametrize("k, sigma_k, level", [(2, 2, 4), (3, 3, 3), (1, 3, 4), (2, 4, 3)])
    def test_every_one_edge_change(self, k, sigma_k, level):
        e = build_extremal(k, sigma_k, level)
        n = e.graph.n
        self._check(e, [(u, w) for u in range(n) for w in range(u + 1, n)])

    @pytest.mark.parametrize("k, sigma_k, level", [(2, 2, 10), (3, 3, 8)])
    def test_sampled_changes_at_depth(self, k, sigma_k, level):
        # deep nodes are reached through composed copy maps
        e = build_extremal(k, sigma_k, level)
        rng = random.Random(f"mutations {k}/{sigma_k}/{level}")
        absent: set[tuple[int, int]] = set()
        while len(absent) < 30:
            u, w = sorted(rng.sample(range(e.graph.n), 2))
            if (u, w) not in e.graph.edges:
                absent.add((u, w))
        self._check(e, sorted(absent) + rng.sample(sorted(e.graph.edges), 30))

    def test_level_fourteen_as_built(self):
        report = verify_extremal(build_extremal(2, 2, 14))  # 32,770 vertices
        assert report.certificate_ok and report.partition_ok

    def test_pool_order_does_not_matter(self):
        # an edge between two parts is found whatever order the pool is listed in
        e = build_extremal(2, 2, 3)
        first, second = [p for p in e.parts if p][:2]
        mutated = _toggled(e, (first[0], second[0]))
        mutated = replace(mutated, parts=tuple(p[::-1] for p in reversed(e.parts)))
        assert not TestCertificateOracle._agree(mutated).partition_ok


class TestUncheckedBuild:
    # build_extremal skips SimpleGraph's range check; the checked constructor must accept its output
    @pytest.mark.parametrize("k, sigma_k", [(1, 1), (2, 2), (3, 3), (2, 4), (6, 6)])
    def test_checked_constructor_accepts_the_built_graph(self, k, sigma_k):
        for level in range(7):
            g = build_extremal(k, sigma_k, level).graph
            assert SimpleGraph(g.n, g.edges) == g


class TestOneEdgeForm:
    # the builder and a loaded file keep one form of the edges, and the checks
    # read that form without building the other
    @pytest.mark.parametrize("k, sigma_k, level", [(2, 2, 10), (1, 1, 12), (3, 3, 8)])
    def test_built_instance_never_builds_its_edge_set(self, k, sigma_k, level):
        e = build_extremal(k, sigma_k, level)
        assert verify_extremal(e).passed
        sharpness_rate(e)
        assert "edges" not in vars(e.graph)

    @pytest.mark.parametrize("k, sigma_k, level", [(2, 2, 10), (2, 4, 7)])
    def test_shuffled_instance_is_never_sorted(self, k, sigma_k, level):
        data = extremal_to_json_dict(build_extremal(k, sigma_k, level))
        random.Random(level).shuffle(data["graph"]["edges"])
        e = extremal_from_json_dict(data)
        report = verify_extremal(e)
        sharpness_rate(e)
        assert "sorted_edges" not in vars(e.graph)
        assert report == verify_extremal(build_extremal(k, sigma_k, level))


def _same_outcome(build, oracle) -> None:
    """build and oracle either raise the same error or make the same instance,
    and the instance holds its edges in ascending order."""
    try:
        n, edges, parts, glue = oracle()
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            build()
        return
    e = build()
    assert (e.graph.n, e.graph.edges, e.parts, e.glue_history) == (n, edges, parts, glue)
    assert vars(e.graph)["sorted_edges"] == tuple(sorted(edges))


class TestOrderedBuild:
    # build_extremal keeps its edges as one ascending list; the set-based loop it
    # replaced is the oracle
    @pytest.mark.parametrize(
        "k, sigma_k", [(k, sigma_k) for k in range(1, 5) for sigma_k in range(k, 2 * k + 2)]
    )
    def test_matches_the_set_based_builder(self, k, sigma_k):
        for level in range(9):
            _same_outcome(lambda: build_extremal(k, sigma_k, level),
                          lambda: build_extremal_oracle(k, sigma_k, level))

    @pytest.mark.parametrize("k, sigma_k, level", [
        (0, 1, 0), (2, 1, 0), (2, 2, -1), (2, 2, 16), (2, 2, 17), (1, 1, 1000), (7, 7, 14),
    ])
    def test_refuses_as_the_set_based_builder(self, k, sigma_k, level):
        with pytest.raises(ValueError):
            build_extremal_oracle(k, sigma_k, level)
        _same_outcome(lambda: build_extremal(k, sigma_k, level),
                      lambda: build_extremal_oracle(k, sigma_k, level))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts_the_edges_a_gluing_set_keeps(self, monkeypatch, k):
        # a splitter that glues along the pool's first k vertices, which share
        # edges, trips the share check at level 1
        def clumped(parts, k):
            pool = sorted(v for p in parts for v in p)
            rest = [()] * (len(parts) - 1)
            return [tuple(pool[:k]), *rest], [tuple(pool[k:]), *rest]

        with pytest.raises(RuntimeError, match="gluing set 1 keeps more"):
            build_extremal_oracle(k, k, 3, split=clumped)
        monkeypatch.setattr(hcs.extremal, "_split_parts", clumped)
        _same_outcome(lambda: build_extremal(k, k, 3),
                      lambda: build_extremal_oracle(k, k, 3, split=clumped))
        _same_outcome(lambda: build_extremal(k, k, 1),
                      lambda: build_extremal_oracle(k, k, 1, split=clumped))


class TestSparsePool:
    # build_extremal splits only the non-empty pool parts, at most 2k of the 2^level
    @pytest.mark.parametrize("k, sigma_k, level", [(2, 2, 13), (3, 3, 10)])
    def test_splits_only_non_empty_parts(self, monkeypatch, k, sigma_k, level):
        calls = []

        def spy(parts, k):
            calls.append(parts)
            return _split_parts(parts, k)

        monkeypatch.setattr(hcs.extremal, "_split_parts", spy)
        e = build_extremal(k, sigma_k, level)
        assert len(calls) == level and len(e.parts) == 1 << level
        for parts in calls:
            assert all(parts) and len(parts) <= 2 * k

    @pytest.mark.parametrize("k, sigma_k, level", [
        *((1, 1, level) for level in range(14, 17)),
        *((2, 2, level) for level in range(9, 14)),
        (3, 3, 10),
        (4, 5, 11),
    ])
    def test_matches_the_set_based_builder_deep(self, k, sigma_k, level):
        _same_outcome(lambda: build_extremal(k, sigma_k, level),
                      lambda: build_extremal_oracle(k, sigma_k, level))
