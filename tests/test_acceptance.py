"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import csv
import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from hcs import (
    FOUND,
    OptimizationInstance,
    SimpleGraph,
    build_extremal,
    dispatch,
    extract,
    get_alternative,
    min_vertex_cut,
    separable_density_check,
    sharpness_rate,
    size_threshold,
    split_maximum,
    verify_all_bounds,
    verify_extremal,
)
from hcs.bounds import reports_to_json, split_is_feasible
from conftest import (
    brute_force_hcs,
    brute_force_min_cut,
    k1_connected_by_removal,
    random_graph,
    split_maximum_grid,
)


def report(criterion: int, started: float, limit: float, detail: str):
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE criterion {criterion}: PASS ({elapsed:.1f}s) {detail}")
    assert elapsed < limit, f"criterion {criterion} exceeded its {limit}s budget"


def run_cli(args: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(args)
    return code, buf.getvalue()


def test_criterion_1_bound_certification():
    started = time.perf_counter()
    reports = verify_all_bounds()
    for r in reports:
        assert r.verdict == "PASS", r
        assert r.margin >= 0, r  # exact: no obligation passes within a tolerance
    ids = {r.obligation_id for r in reports}
    required = {
        "alt1/base/identity",            # the base-case factorization
        "alt1/induction/small-side",     # 2 sqrt(2/3) b <= (delta-2) b
        "alt2/induction/small-side",     # (1/4+1) sqrt(2/3) b < (delta-2) b
        "alt3/induction/small-side",     # (2/27+1) b < 1.109 b
        "alt3/base/g[1.2,1.6]",
        "alt3/base/g[1.6,2.04]",
        "alt3/base/g[2.04,2.08]",
        "alt3/base/g[2.08,2.4]",
        "alt3/base/derivative-sign",
    }
    assert required <= ids
    # every obligation is certified with zero tolerance
    assert {row["tolerance"] for row in reports_to_json(reports)} == {"0"}
    code, out = run_cli(["verify-bounds", "--alt", "all"])
    assert code == 0
    assert f"{len(reports)}/{len(reports)} obligations passed" in out
    report(1, started, 5.0, f"{len(reports)} obligations certified")


def test_criterion_2_sharpness_construction():
    started = time.perf_counter()
    floor_rate = Fraction(16, 3)
    for level in range(9):
        e = build_extremal(2, 2, level)
        rep = verify_extremal(e)
        assert rep.vertex_count_ok and rep.partition_ok and rep.edge_bound_ok, level
        assert rep.certificate_ok, level
        if level <= 6:  # at most EXTRACTION_VERTEX_CAP vertices
            assert rep.extraction_ok is True, level
        lhs, rhs = sharpness_rate(e)
        assert rhs == floor_rate
        assert lhs >= floor_rate, level
        if level == 1:
            assert (e.graph.n, e.graph.edge_count) == (6, 11)
        if level == 2:
            assert (e.graph.n, e.graph.edge_count) == (10, 22)
            assert lhs == Fraction(11, 2)
    report(2, started, 30.0, "levels 0-8 verified, counts and rates exact")


def test_criterion_3_optimization_oracle():
    started = time.perf_counter()
    assert split_maximum(OptimizationInstance(2.0, (), 0.5))[2] == pytest.approx(2.5)
    assert split_maximum(OptimizationInstance(2.0, (1.0,), 0.5))[2] == pytest.approx(2.0)
    assert split_maximum(OptimizationInstance(2.0, (1.0,), 1.0))[2] == pytest.approx(1.5)
    rng = random.Random(20260810)
    for length in (1, 2, 3):
        for _ in range(100):
            z = rng.uniform(0.5, 1.6)
            raw = [rng.random() + 1e-3 for _ in range(length)]
            norm = sum(v * v for v in raw) ** 0.5
            scale = rng.uniform(0.0, 0.95) * z / norm
            zs = tuple(v * scale for v in raw)
            tau = rng.uniform(0.0, z / 2)
            inst = OptimizationInstance(z, zs, tau)
            x, xs, best = split_maximum(inst)
            assert split_is_feasible(inst, x, xs)
            grid = split_maximum_grid(inst, Fraction(1, 64))
            assert grid <= best + 1e-9, (inst, grid, best)
    report(3, started, 60.0, "300 grid instances never beat the closed form")


def test_criterion_4_extraction_soundness_completeness():
    started = time.perf_counter()
    rng = random.Random(424242)
    cases = 0
    for _ in range(300):
        n = rng.randint(4, 16)
        p = rng.choice([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
        g = random_graph(rng, n, p)
        for k in (2, 3):
            for sigma in (Fraction(1, 5), Fraction(1)):
                result = extract(g, k, sigma)
                oracle = brute_force_hcs(g, k, sigma)
                assert (result.outcome == FOUND) == (oracle is not None), (
                    sorted(g.edges), k, sigma,
                )
                if result.outcome == FOUND:
                    assert k1_connected_by_removal(g, result.subgraph, k)
                    assert len(result.subgraph) > size_threshold(k, sigma)
                cases += 1
    report(4, started, 300.0, f"{cases} extract/oracle cases agree on 300 graphs")


def _check_experiment_csv(path: str, k: int, alt_id: int) -> int:
    alt = get_alternative(alt_id)
    need = size_threshold(k, alt.sigma) + 1
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert row["outcome"] == FOUND, row
        assert int(row["h_size"]) >= need, row
        assert Fraction(row["d_bar"]) >= Fraction(2 * int(row["e"]), int(row["n"]))
    return len(rows)


def test_criterion_5_density_implication_experiments(tmp_path):
    started = time.perf_counter()
    runs = [
        (200, 2, 3, 1001),
        (200, 3, 3, 1002),
        (100, 2, 1, 1003),
        (100, 2, 2, 1004),
    ]
    total = 0
    for trials, k, alt_id, seed in runs:
        out = tmp_path / f"exp_k{k}_alt{alt_id}.csv"
        code, _ = run_cli([
            "experiment", "--trials", str(trials), "--k", str(k),
            "--alt", str(alt_id), "--seed", str(seed), "--csv", str(out),
        ])
        assert code == 0, (k, alt_id)
        total += _check_experiment_csv(str(out), k, alt_id)
    assert total == 600
    report(5, started, 600.0, "600 trials, zero failures across all alternatives")


def test_criterion_6_separable_consequence():
    started = time.perf_counter()
    rng = random.Random(606)
    corpus = [
        SimpleGraph.cycle(8),
        SimpleGraph.cycle(5),
        SimpleGraph.path(7),
        SimpleGraph.complete(4),
        SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
        SimpleGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        build_extremal(2, 2, 1).graph,
        build_extremal(2, 2, 2).graph,
    ]
    corpus += [random_graph(rng, rng.randint(6, 14), 0.2) for _ in range(8)]
    k = 2
    applicable = 0
    for g in corpus:
        for alt_id in (1, 2, 3):
            alt = get_alternative(alt_id)
            rep = separable_density_check(g, k, alt)
            assert rep.verdict in ("PASS", "NOT_APPLICABLE"), (sorted(g.edges), alt_id)
            if rep.verdict == "PASS":
                applicable += 1
                assert rep.margin >= 0  # exact arithmetic for every alternative
    assert applicable >= 5, "corpus produced too few separable instances"
    c8 = separable_density_check(SimpleGraph.cycle(8), 2, get_alternative(3))
    assert c8.verdict == "PASS"
    assert c8.margin == Fraction(11981, 3000)  # 3.109*3 + 2/3 - 6, exactly
    report(6, started, 120.0, f"{applicable} applicable separable instances all pass")


def test_criterion_7_connectivity_kernel(glued_k4s):
    started = time.perf_counter()
    w = min_vertex_cut(glued_k4s)
    assert w.kappa == 2 and w.separator == {2, 3}
    rng = random.Random(708090)
    for _ in range(500):
        n = rng.randint(1, 12)
        p = rng.random()
        g = random_graph(rng, n, p)
        assert min_vertex_cut(g).kappa == brute_force_min_cut(g).kappa, sorted(g.edges)
    report(7, started, 120.0, "500 random graphs agree with the exhaustive oracle")
