"""Self-tests for the benchmark's checkers, tracer and clock.

Run from the root of the repository: python3 -m pytest perfbench -q

Each checker must accept a correct output and reject a corrupted one.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import speed
import tracing
from checks import CheckError

K4_GLUED = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5), (2, 4), (2, 5), (4, 5)]


def _leaf(vertices):
    return {"vertices": sorted(vertices), "kind": "LEAF_SMALL"}


def _separated(vertices, side_a, side_b, children):
    return {
        "vertices": sorted(vertices),
        "kind": "SEPARATED",
        "separation": {"side_a": sorted(side_a), "side_b": sorted(side_b),
                       "core": sorted(set(side_a) & set(side_b))},
        "children": children,
    }


def _path_tree(n: int) -> dict:
    """The SEPARABLE tree of a path at k=1: peel one end vertex per node."""
    node = _leaf({n - 2, n - 1})
    for first in range(n - 3, -1, -1):
        rest = set(range(first + 1, n))
        node = _separated(rest | {first}, {first, first + 1}, rest, [_leaf({first, first + 1}), node])
    return {"outcome": "SEPARABLE", "tree": node}


class TestSeparableTree:
    def test_accepts_path_tree(self):
        payload = _path_tree(5)
        edges = [(i, i + 1) for i in range(4)]
        assert checks.check_separable_tree(payload, 5, edges, 1, Fraction(1)) == (7, 4)

    def test_walks_deep_trees_without_recursion(self):
        n = 3000
        edges = [(i, i + 1) for i in range(n - 1)]
        nodes, depth = checks.check_separable_tree(_path_tree(n), n, edges, 1, Fraction(1))
        assert (nodes, depth) == (2 * n - 3, n - 1)

    def test_rejects_edge_between_private_sides(self):
        edges = [(0, 1), (1, 2), (0, 2)]  # a triangle: {1} does not separate 0 from 2
        with pytest.raises(CheckError, match="private sides"):
            checks.check_separable_tree(_path_tree(3), 3, edges, 1, Fraction(1))

    def test_rejects_core_of_wrong_size(self):
        edges = [(0, 1), (1, 2)]
        with pytest.raises(CheckError, match="core"):
            checks.check_separable_tree(_path_tree(3), 3, edges, 2, Fraction(1))

    def test_rejects_large_leaf(self):
        payload = {"outcome": "SEPARABLE", "tree": _leaf({0, 1, 2})}
        with pytest.raises(CheckError, match="leaf"):
            checks.check_separable_tree(payload, 3, [(0, 1), (1, 2)], 1, Fraction(1))

    def test_rejects_child_not_smaller(self):
        whole = {0, 1, 2}
        node = _separated(whole, whole, {1, 2}, [_leaf(whole), _leaf({1, 2})])
        payload = {"outcome": "SEPARABLE", "tree": node}
        with pytest.raises(CheckError, match="strictly smaller"):
            checks.check_separable_tree(payload, 3, [(0, 1), (1, 2)], 2, Fraction(1, 2))


def _complete(vertices):
    vertices = sorted(vertices)
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]


class TestFoundSet:
    def test_accepts_complete_graph(self):
        checks.check_found_set(5, _complete(range(5)), 2, 3, list(range(5)))

    def test_rejects_cut_vertex(self):
        edges = _complete(range(5)) + _complete(range(4, 9))  # two K5 sharing vertex 4
        with pytest.raises(CheckError, match="connectivity 1"):
            checks.check_found_set(9, edges, 2, 3, list(range(9)))

    def test_rejects_small_set(self):
        with pytest.raises(CheckError, match="only 2"):
            checks.check_found_set(3, _complete(range(3)), 2, 3, [0, 1])

    def test_threshold_edge_count(self):
        # k=2, delta=3.109: 2e/15 >= 5.218 first holds at e = 40
        checks.check_threshold_graph(15, 40, 2, 3)
        for e in (39, 41):
            with pytest.raises(CheckError, match="threshold"):
                checks.check_threshold_graph(15, e, 2, 3)

    def test_size_floors(self):
        assert [checks.size_floor(k, alt) for k, alt in ((2, 3), (3, 3), (2, 1), (2, 2))] == [2, 3, 4, 3]


def _level_one(edges=K4_GLUED):
    return {
        "graph": {"n": 6, "edges": [list(e) for e in edges]},
        "metadata": {"k": 2, "sigma_k": 2, "level": 1, "parts": [[1, 3], [4, 5]],
                     "glue_history": [[0, 2]]},
    }


class TestExtremalInstance:
    def test_accepts_level_one(self):
        assert checks.edge_lower_bound(2, 2, 1) == 11
        checks.check_extremal_instance(_level_one(), 2, 2, 1)

    def test_rejects_edge_across_pool_parts(self):
        with pytest.raises(CheckError, match="pool parts"):
            checks.check_extremal_instance(_level_one(K4_GLUED[1:] + [(1, 4)]), 2, 2, 1)

    def test_rejects_missing_edge(self):
        with pytest.raises(CheckError, match="below the bound"):
            checks.check_extremal_instance(_level_one(K4_GLUED[1:]), 2, 2, 1)

    def test_certify_output(self):
        good = "\n".join(f"{name}: PASS" for name in checks.CERTIFY_CHECKS) + "\nrate: 2e/(v-k) = 11/2 >= 5"
        checks.check_certify_output(good)
        with pytest.raises(CheckError, match="edge-bound"):
            checks.check_certify_output(good.replace("edge-bound: PASS", "edge-bound: FAIL"))


def _report(oid, margin, tolerance="0", verdict="PASS"):
    return {"obligation_id": oid, "margin_exact": str(margin), "tolerance": tolerance, "verdict": verdict}


class TestBoundReports:
    def table(self):
        return [
            _report("basic[s=1/sqrt2]/base-range", "-1/10000000000000000000000000000000", "1/1000000000"),
            _report("alt3/base/g[1.2,1.6]", "1/7"),
            _report(checks.SMALL_SIDE_ID, "943/27000"),
        ]

    def test_accepts_table(self):
        assert checks.SMALL_SIDE_MARGIN == Fraction(943, 27000)
        checks.check_bound_reports(self.table())

    def test_rejects_wrong_margin(self):
        table = self.table()
        table[2]["margin_exact"] = "944/27000"
        with pytest.raises(CheckError, match="small-side"):
            checks.check_bound_reports(table)

    def test_rejects_alt3_tolerance(self):
        table = self.table()
        table[1]["tolerance"] = "1/1000000000"
        with pytest.raises(CheckError, match="tolerance"):
            checks.check_bound_reports(table)

    def test_rejects_failed_verdict(self):
        table = self.table()
        table[0]["verdict"] = "FAIL"
        with pytest.raises(CheckError, match="FAIL"):
            checks.check_bound_reports(table)


def test_tracer_counts_repeat_and_patches_are_restored():
    cli = pytest.importorskip("hcs.cli")
    bounds = pytest.importorskip("hcs.bounds")
    original = bounds._interval_report
    tracer = tracing.Tracer()
    tracer.install()
    try:
        snaps = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.dispatch(["verify-bounds", "--alt", "3"]) == 0
            snaps.append(tracer.take())
    finally:
        tracer.uninstall()
    assert bounds._interval_report is original and cli.json.load is json.load
    counts = [tracing.round_counts(s) for s in snaps]
    assert counts[0] == counts[1]
    assert counts[0]["bounds.obligation.interval.calls"] == 5
    assert counts[0]["bounds.obligation.point.calls"] == 4


def test_clock_scales_by_the_samples_near_a_span():
    clock = speed.Clock()
    ref = speed.REFERENCE_S
    clock.times = [0.0, 1.0, 2.0, 10.0]
    clock.samples = [2 * ref, 2 * ref, 2 * ref, ref]
    assert clock.scaled(0.5, 1.5, 1.0) == pytest.approx(0.5)  # the machine ran at half speed
    assert clock.scaled(9.95, 10.05, 1.0) == pytest.approx(1.0)
    assert clock.scaled(5.0, 5.1, 1.0) == pytest.approx(1 / 1.5)  # no sample near: its neighbours


def test_benchmark_declares_the_measured_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    empty = {"calls": {}, "seconds": {}, "counts": {}}
    measured = set(tracing.layer_metrics([empty], None)) | {"trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == measured
