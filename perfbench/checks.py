"""Output checkers for the benchmark, worked out without importing hcs.

Every checker reads what the CLI wrote (or what was captured at a call
boundary) and compares it with facts fixed by the paper or computed here
from first principles. A checker raises CheckError with a one-line reason
on the first fact that does not hold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class CheckError(Exception):
    """An output of the program contradicts an independently known fact."""


def _adjacency(n: int, edges: Iterable[Sequence[int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# --- separable-extract ---------------------------------------------------------

def leaf_cap(k: int, sigma: Fraction) -> int:
    """Largest leaf a SEPARABLE tree may have: max(floor((1+sigma)k), k+1)."""
    return max(math.floor((1 + Fraction(sigma)) * k), k + 1)


def check_separable_tree(
    payload: dict, n: int, edges: Iterable[Sequence[int]], k: int, sigma: Fraction
) -> tuple[int, int]:
    """Check a SEPARABLE extraction result against the input graph.

    The tree is walked with an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit. Returns (nodes, depth) as
    serialized, shared subtrees counted once per occurrence.
    """
    if payload.get("outcome") != "SEPARABLE":
        raise CheckError(f"outcome is {payload.get('outcome')!r}, expected SEPARABLE")
    adj = _adjacency(n, edges)
    cap = leaf_cap(k, sigma)
    root = payload["tree"]
    if set(root["vertices"]) != set(range(n)):
        raise CheckError("the root does not hold every vertex")
    nodes = depth = 0
    stack = [(root, 1)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        verts = set(node["vertices"])
        if node["kind"] == "LEAF_SMALL":
            if len(verts) > cap:
                raise CheckError(f"leaf of {len(verts)} vertices exceeds {cap}")
            continue
        if node["kind"] != "SEPARATED":
            raise CheckError(f"unexpected node kind {node['kind']!r}")
        sep = node["separation"]
        side_a, side_b = set(sep["side_a"]), set(sep["side_b"])
        if side_a | side_b != verts:
            raise CheckError("a separation does not cover its node")
        core = side_a & side_b
        if len(core) != k or set(sep["core"]) != core:
            raise CheckError(f"a separation core has {len(core)} vertices, expected {k}")
        private_b = side_b - side_a
        for v in side_a - side_b:
            if adj[v] & private_b:
                raise CheckError("an edge joins the two private sides")
        children = node["children"]
        if len(children) != 2:
            raise CheckError("a separated node needs two children")
        for child, side in zip(children, (side_a, side_b)):
            if set(child["vertices"]) != side:
                raise CheckError("a child is not its separation side")
            if len(side) >= len(verts):
                raise CheckError("a child is not strictly smaller than its node")
            stack.append((child, level + 1))
    return nodes, depth


# --- density-trials ------------------------------------------------------------

_SQRT2, _SQRT3, _SQRT10 = math.sqrt(2), math.sqrt(3), math.sqrt(10)
_SIGMA1 = (_SQRT2 + 1) / _SQRT3

# (sigma, delta) of the three admissible tuples, from the paper's constants
ALTERNATIVES = {
    1: (_SIGMA1, 2 + _SIGMA1 + 1 / (3 * _SIGMA1)),
    2: (_SQRT10 / 6, 2 + 11 / (3 * _SQRT10)),
    3: (0.2, 3.109),
}


def size_floor(k: int, alt_id: int) -> int:
    """floor((1+sigma)k); a FOUND set must have more vertices than this."""
    value = (1 + ALTERNATIVES[alt_id][0]) * k
    if abs(value - round(value)) < 1e-9:
        raise CheckError(f"(1+sigma)k = {value} is too close to an integer to floor")
    return math.floor(value)


def check_threshold_graph(n: int, e: int, k: int, alt_id: int) -> None:
    """The trial graph has the fewest edges that reach delta*k - 1."""
    threshold = ALTERNATIVES[alt_id][1] * k - 1
    if not (2 * e / n >= threshold > 2 * (e - 1) / n):
        raise CheckError(f"n={n}, e={e} does not sit at the density threshold {threshold}")


def check_found_set(
    n: int, edges: Iterable[Sequence[int]], k: int, alt_id: int, found: Sequence[int]
) -> None:
    """A FOUND set is large enough and (k+1)-connected, by networkx."""
    import networkx as nx

    members = set(found)
    if len(members) != len(found) or not members <= set(range(n)):
        raise CheckError("the FOUND set is not a set of graph vertices")
    if len(members) <= size_floor(k, alt_id):
        raise CheckError(f"the FOUND set has only {len(members)} vertices")
    g = nx.Graph()
    g.add_nodes_from(members)
    g.add_edges_from((u, v) for u, v in edges if u in members and v in members)
    kappa = nx.node_connectivity(g)
    if kappa < k + 1:
        raise CheckError(f"the FOUND set has connectivity {kappa}, below {k + 1}")


def check_trial_row(row: dict, n: int, e: int, found: Sequence[int]) -> None:
    """The CSV row reports the captured graph and FOUND set."""
    if row["outcome"] != "FOUND":
        raise CheckError(f"trial outcome is {row['outcome']!r}, expected FOUND")
    if (int(row["n"]), int(row["e"]), int(row["h_size"])) != (n, e, len(found)):
        raise CheckError("the CSV row disagrees with the graph and set captured")


# --- extremal-certify ----------------------------------------------------------

def edge_lower_bound(k: int, sigma_k: int, level: int) -> Fraction:
    """2^i (C(k+sigma k, 2) - (2/3)(1 - 4^-i) C(k, 2)), the paper's edge bound."""
    return 2**level * (
        math.comb(k + sigma_k, 2)
        - Fraction(2, 3) * (1 - Fraction(1, 4**level)) * math.comb(k, 2)
    )


def check_extremal_instance(payload: dict, k: int, sigma_k: int, level: int) -> None:
    """Vertex count, edge bound and pool independence of a constructed instance."""
    meta = payload["metadata"]
    if (meta["k"], meta["sigma_k"], meta["level"]) != (k, sigma_k, level):
        raise CheckError("the metadata names other parameters")
    n = payload["graph"]["n"]
    if n != k + 2**level * sigma_k:
        raise CheckError(f"n = {n}, expected {k + 2**level * sigma_k}")
    edges = {tuple(edge) for edge in payload["graph"]["edges"]}
    if len(edges) != len(payload["graph"]["edges"]):
        raise CheckError("an edge is listed twice")
    if any(not (0 <= u < v < n) for u, v in edges):
        raise CheckError("an edge is out of range or not normalized")
    if len(edges) < edge_lower_bound(k, sigma_k, level):
        raise CheckError(f"{len(edges)} edges, below the bound {edge_lower_bound(k, sigma_k, level)}")
    part_of: dict[int, int] = {}
    for index, part in enumerate(meta["parts"]):
        for v in part:
            if v in part_of:
                raise CheckError(f"pool vertex {v} is in two parts")
            part_of[v] = index
    for u, v in edges:
        if u in part_of and v in part_of and part_of[u] != part_of[v]:
            raise CheckError(f"edge ({u}, {v}) joins two pool parts")


CERTIFY_CHECKS = ("no-large-connected-subgraph", "vertex-count", "pool-partition", "edge-bound")


def check_certify_output(text: str) -> None:
    """certify printed PASS for each of its checks and a rate line."""
    verdicts = {}
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        verdicts[name] = rest
    for name in CERTIFY_CHECKS:
        if not verdicts.get(name, "").startswith("PASS"):
            raise CheckError(f"certify check {name} did not pass")
    if verdicts.get("rate", "FAIL").startswith("FAIL"):
        raise CheckError("certify rate line failed")


# --- bound-table ---------------------------------------------------------------

SMALL_SIDE_ID = "alt3/induction/small-side"
# (delta - 2) - (2/27 + 1) with delta = 3109/1000
SMALL_SIDE_MARGIN = Fraction(1109, 1000) - Fraction(29, 27)


def check_bound_reports(reports: list[dict]) -> None:
    """Every verdict PASS; alt3 exact with margin >= 0; the small-side margin."""
    if not reports:
        raise CheckError("the bound table is empty")
    for r in reports:
        if r["verdict"] != "PASS":
            raise CheckError(f"{r['obligation_id']} has verdict {r['verdict']}")
        if r["obligation_id"].startswith("alt3/"):
            if Fraction(r["tolerance"]) != 0:
                raise CheckError(f"{r['obligation_id']} uses tolerance {r['tolerance']}")
            if Fraction(r["margin_exact"]) < 0:
                raise CheckError(f"{r['obligation_id']} has a negative margin")
    small = [r for r in reports if r["obligation_id"] == SMALL_SIDE_ID]
    if len(small) != 1 or Fraction(small[0]["margin_exact"]) != SMALL_SIDE_MARGIN:
        raise CheckError(f"{SMALL_SIDE_ID} margin is not {SMALL_SIDE_MARGIN}")
