"""Extraction of large highly connected subgraphs via separations.

The extractor recursively splits vertex sets of one graph, passed to the
connectivity kernel as bitmasks, along separations with a k-vertex core.
A (k+1)-connected subgraph can never be split by such a core, so it
survives inside one side; if the recursion bottoms out without finding
one, the resulting decomposition tree certifies that no induced subgraph
on more than (1+sigma)k vertices is (k+1)-connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .connectivity import Separation, find_separation, is_k1_connected
from .enclosure import Enclosure
from .graphs import SimpleGraph, average_degree

FOUND = "FOUND"
SEPARABLE = "SEPARABLE"

SEPARATED = "SEPARATED"
LEAF_SMALL = "LEAF_SMALL"

SigmaLike = Union[int, float, Fraction, Enclosure]


class BudgetExceededError(RuntimeError):
    """Raised when exploration would exceed its vertex-set budget.

    This is a resource refusal, never a verdict: callers get no FOUND or
    SEPARABLE answer when it is raised.
    """


def size_threshold(k: int, sigma: SigmaLike) -> int:
    """floor((1 + sigma) k): subgraphs must have more vertices than this."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if isinstance(sigma, Enclosure):
        if sigma.lo <= 0:
            raise ValueError("sigma must be positive")
        return ((sigma + 1) * k).floor()
    s = Fraction(sigma)
    if s <= 0:
        raise ValueError("sigma must be positive")
    return math.floor((1 + s) * k)


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


@dataclass(frozen=True)
class DecompositionNode:
    """One node of the decomposition tree over original vertex ids."""

    vertices: frozenset[int]
    kind: str
    separation: Optional[Separation]
    children: tuple["DecompositionNode", ...]


@dataclass(frozen=True)
class ExtractionResult:
    outcome: str  # FOUND | SEPARABLE
    subgraph: Optional[frozenset[int]]
    tree: Optional[DecompositionNode]


def extract(
    g: SimpleGraph,
    k: int,
    sigma: SigmaLike,
    *,
    budget: int = 10**6,
) -> ExtractionResult:
    """Find a (k+1)-connected induced subgraph on more than (1+sigma)k vertices.

    Returns FOUND with the vertex set, or SEPARABLE with a decomposition
    tree whose separations certify that no such subgraph exists. Both
    sides of every separation are explored, with memoization on vertex
    sets; exceeding the budget raises BudgetExceededError.

    A FOUND set is certified once, by the search itself: ``find_separation``
    returns None on a set of more than k+1 vertices only when its capped
    minimum vertex cut reaches k+1, so the set is (k+1)-connected.

    Each side is searched with its parent separation, whose connectivity
    and core bound the side's connectivity from below (see
    ``find_separation``); the answers do not depend on it.
    """
    threshold = size_threshold(k, sigma)
    # sets of at most k+1 vertices cannot host a (k+1)-connected subgraph either
    small_cap = max(threshold, k + 1)
    memo: dict[frozenset[int], DecompositionNode] = {}
    explored = 0

    def explore(w: frozenset[int], parent: Optional[Separation] = None):
        nonlocal explored
        node = memo.get(w)
        if node is not None:
            return node
        explored += 1
        if explored > budget:
            raise BudgetExceededError(
                f"exploration budget of {budget} vertex sets exceeded"
            )
        if len(w) <= small_cap:
            node = DecompositionNode(w, LEAF_SMALL, None, ())
        else:
            sep = find_separation(g, k, _mask(w), parent=parent)
            if sep is None:
                return w  # found
            left = explore(sep.side_a, sep)
            if isinstance(left, frozenset):
                return left
            right = explore(sep.side_b, sep)
            if isinstance(right, frozenset):
                return right
            node = DecompositionNode(w, SEPARATED, sep, (left, right))
        memo[w] = node
        return node

    outcome = explore(frozenset(range(g.n)))
    if isinstance(outcome, frozenset):
        return ExtractionResult(FOUND, outcome, None)
    return ExtractionResult(SEPARABLE, None, outcome)


def validate_decomposition(
    g: SimpleGraph, k: int, sigma: SigmaLike, node: DecompositionNode
) -> None:
    """Raise ValueError unless the tree is internally consistent for g."""
    threshold = size_threshold(k, sigma)
    small_cap = max(threshold, k + 1)
    if node.kind == LEAF_SMALL:
        if len(node.vertices) > small_cap:
            raise ValueError("LEAF_SMALL node too large")
        return
    if node.kind != SEPARATED:
        raise ValueError(f"unknown node kind {node.kind}")
    sep = node.separation
    if sep is None or len(node.children) != 2:
        raise ValueError("SEPARATED node needs a separation and two children")
    sep.validate(g, k, _mask(node.vertices))
    for child, side in zip(node.children, (sep.side_a, sep.side_b)):
        if child.vertices != side:
            raise ValueError("child vertex set does not match its separation side")
        if len(child.vertices) >= len(node.vertices):
            raise ValueError("child not strictly smaller")
        validate_decomposition(g, k, sigma, child)


def scan_connected_subgraph(
    g: SimpleGraph, k: int, min_size: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically first vertex set of size >= min_size inducing a
    (k+1)-connected subgraph, or None.

    The scan prunes to the (k+1)-core first (every (k+1)-connected
    subgraph survives the peeling) and walks candidate sets in prefix
    order, which coincides with lexicographic order on sorted tuples.
    """
    need = max(min_size, k + 2)
    if g.n < need:
        return None
    masks = g.adjacency_masks
    alive = (1 << g.n) - 1
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if alive >> v & 1 and (masks[v] & alive).bit_count() < k + 1:
                alive &= ~(1 << v)
                changed = True
    core = [v for v in range(g.n) if alive >> v & 1]
    if len(core) < need:
        return None
    suffix = [0] * (len(core) + 1)
    for i in range(len(core) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << core[i])

    def dfs(prefix: list[int], pmask: int, idx: int) -> Optional[tuple[int, ...]]:
        for j in range(idx, len(core)):
            if len(prefix) + 1 + (len(core) - j - 1) < need:
                break  # later starts only get shorter
            v = core[j]
            nmask = pmask | (1 << v)
            prefix.append(v)
            potential = nmask | suffix[j + 1]
            if all((masks[u] & potential).bit_count() >= k + 1 for u in prefix):
                if len(prefix) >= need and all(
                    (masks[u] & nmask).bit_count() >= k + 1 for u in prefix
                ):
                    if is_k1_connected(g, k, nmask):
                        hit = tuple(prefix)
                        prefix.pop()
                        return hit
                hit = dfs(prefix, nmask, j + 1)
                if hit is not None:
                    prefix.pop()
                    return hit
            prefix.pop()
        return None

    return dfs([], 0, 0)


def brute_force_hcs(
    g: SimpleGraph, k: int, sigma: SigmaLike, *, max_vertices: int = 18
) -> Optional[tuple[int, ...]]:
    """Exhaustive oracle for extract; refuses graphs above the size guard."""
    if g.n > max_vertices:
        raise ValueError(f"brute force limited to {max_vertices} vertices, got {g.n}")
    return scan_connected_subgraph(g, k, size_threshold(k, sigma) + 1)


@dataclass(frozen=True)
class DensityImplicationReport:
    """Outcome of testing the average-degree implication on one graph."""

    applicable: bool
    average_degree: Optional[Fraction]
    threshold: tuple[Fraction, Fraction]  # certified bounds on delta*k - 1
    outcome: Optional[str]
    subgraph_size: Optional[int]
    passed: bool
    note: str = ""


def check_density_implication(
    g: SimpleGraph, k: int, alt, *, budget: int = 10**6
) -> DensityImplicationReport:
    """If the average degree reaches delta*k - 1, extraction must FIND.

    Graphs below the threshold produce a NOT_APPLICABLE-style report
    with passed=True (no claim is being tested).
    """
    from .bounds import density_threshold  # local import to avoid a cycle

    thr = density_threshold(alt, k)
    if g.n == 0:
        return DensityImplicationReport(False, None, thr, None, None, True, "empty graph")
    dbar = average_degree(g)
    if dbar < thr[1]:  # premise not certain: no claim
        return DensityImplicationReport(False, dbar, thr, None, None, True, "below threshold")
    result = extract(g, k, alt.sigma, budget=budget)
    size = len(result.subgraph) if result.subgraph is not None else None
    passed = result.outcome == FOUND
    note = "" if passed else "dense graph without extraction result"
    return DensityImplicationReport(True, dbar, thr, result.outcome, size, passed, note)


# --- serialization ----------------------------------------------------------------

def _node_to_json(node: DecompositionNode) -> dict:
    data: dict = {"vertices": sorted(node.vertices), "kind": node.kind}
    if node.separation is not None:
        data["separation"] = {
            "side_a": sorted(node.separation.side_a),
            "side_b": sorted(node.separation.side_b),
            "core": sorted(node.separation.core),
        }
        data["children"] = [_node_to_json(c) for c in node.children]
    return data


def result_to_json_dict(result: ExtractionResult) -> dict:
    if result.outcome == FOUND:
        return {"outcome": FOUND, "subgraph": sorted(result.subgraph)}
    return {"outcome": SEPARABLE, "tree": _node_to_json(result.tree)}
