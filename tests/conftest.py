import random
from itertools import combinations

import pytest

from hcs import SimpleGraph


def pytest_runtest_logreport(report):
    # keep one visible line per acceptance criterion even on failure
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE {name}: FAIL")


@pytest.fixture
def glued_k4s() -> SimpleGraph:
    """Two K4's on {0,1,2,3} and {2,3,4,5}; unique minimum cut {2,3}."""
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(a, b) for a in (2, 3, 4, 5) for b in (2, 3, 4, 5) if a < b]
    return SimpleGraph.from_edges(6, edges)


@pytest.fixture
def diamond() -> SimpleGraph:
    """Two triangles sharing an edge."""
    return SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def k1_connected_by_removal(g: SimpleGraph, vertices, k: int) -> bool:
    """Whether g on vertices is (k+1)-connected, by brute force.

    The set needs more than k+1 vertices and must stay connected after
    removing any k or fewer of them. Plain adjacency sets and a graph
    search: no code is shared with the connectivity kernel.
    """
    vs = set(vertices)
    if len(vs) < k + 2:
        return False
    adj = {v: set() for v in vs}
    for u, v in g.edges:
        if u in vs and v in vs:
            adj[u].add(v)
            adj[v].add(u)
    for size in range(k + 1):
        for removed in combinations(sorted(vs), size):
            rest = vs - set(removed)
            start = min(rest)
            seen = {start}
            stack = [start]
            while stack:
                for w in adj[stack.pop()] & rest - seen:
                    seen.add(w)
                    stack.append(w)
            if seen != rest:
                return False
    return True
