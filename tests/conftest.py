import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

import pytest

from hcs import CutWitness, OptimizationInstance, SimpleGraph, find_separation, get_alternative, size_threshold
from hcs.cli import _threshold_edge_count
from hcs.connectivity import _bits
from hcs.extractor import FOUND, LEAF_SMALL, SEPARABLE, SEPARATED, DecompositionNode, ExtractionResult
from hcs.extremal import _split_parts
from hcs.graphs import VERTEX_CAP


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


def threshold_graph(rng: random.Random, n: int, alternative_id: int, k: int) -> SimpleGraph:
    """A graph drawn as an experiment trial draws it: the first
    ceil(n * threshold / 2) of all vertex pairs, shuffled, at the density
    threshold of the alternative and k."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return SimpleGraph(n, frozenset(pairs[:_threshold_edge_count(get_alternative(alternative_id), k, n)]))


def _adjacency_sets(g: SimpleGraph, vs: set[int]) -> dict[int, set[int]]:
    adj = {v: set() for v in vs}
    for u, v in g.edges:
        if u in vs and v in vs:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _connected(adj: dict[int, set[int]], rest: set[int]) -> bool:
    """Whether the non-empty set rest is connected, by a plain graph search."""
    start = min(rest)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()] & rest - seen:
            seen.add(w)
            stack.append(w)
    return seen == rest


def component_by_search(g: SimpleGraph, alive: int, start: int) -> int:
    """The bitmask of the component of g on the bitmask alive that holds the
    vertex start, by a plain graph search over the edge list: no code is
    shared with the connectivity kernel."""
    vs = {v for v in range(g.n) if alive >> v & 1}
    adj = _adjacency_sets(g, vs)
    seen = {start}
    queue = [start]
    for v in queue:
        for w in adj[v] - seen:
            seen.add(w)
            queue.append(w)
    return sum(1 << v for v in seen)


def k1_connected_by_removal(g: SimpleGraph, vertices, k: int) -> bool:
    """Whether g on vertices is (k+1)-connected, by brute force.

    The set needs more than k+1 vertices and must stay connected after
    removing any k or fewer of them. Plain adjacency sets and a graph
    search: no code is shared with the connectivity kernel.
    """
    vs = set(vertices)
    if len(vs) < k + 2:
        return False
    adj = _adjacency_sets(g, vs)
    return all(
        _connected(adj, vs - set(removed))
        for size in range(k + 1)
        for removed in combinations(sorted(vs), size)
    )


# --- exhaustive oracles -------------------------------------------------------
# Exponential scans that the connectivity kernel and the extractor are compared
# against on small graphs. They share no code with either.

def brute_force_min_cut(g: SimpleGraph, *, max_vertices: int = 14) -> CutWitness:
    """Exhaustive minimum vertex cut; refuses graphs above the size guard.

    Scans vertex subsets by increasing size (lexicographic within a size)
    and returns the first one whose removal disconnects the graph.
    """
    n = g.n
    if n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if n > max_vertices:
        raise ValueError(f"brute force limited to {max_vertices} vertices, got {n}")
    if n == 1:
        return CutWitness(0, None)
    vs = set(range(n))
    adj = _adjacency_sets(g, vs)
    for size in range(0, n - 1):
        for subset in combinations(range(n), size):
            if not _connected(adj, vs - set(subset)):
                return CutWitness(size, frozenset(subset))
    return CutWitness(n - 1, None)


def scan_connected_subgraph(
    g: SimpleGraph, k: int, min_size: int
) -> Optional[tuple[int, ...]]:
    """Lexicographically first vertex set of size >= min_size inducing a
    (k+1)-connected subgraph, or None.

    The scan prunes to the (k+1)-core first (every (k+1)-connected
    subgraph survives the peeling) and walks candidate sets in prefix
    order, which coincides with lexicographic order on sorted tuples.
    Each candidate is decided by ``k1_connected_by_removal``.
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
                    if k1_connected_by_removal(g, prefix, k):
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
    g: SimpleGraph, k: int, sigma, *, max_vertices: int = 18
) -> Optional[tuple[int, ...]]:
    """Exhaustive oracle for extract; refuses graphs above the size guard."""
    if g.n > max_vertices:
        raise ValueError(f"brute force limited to {max_vertices} vertices, got {g.n}")
    return scan_connected_subgraph(g, k, size_threshold(k, sigma) + 1)


# --- extraction by the public separation step ------------------------------------

def extract_by_find_separation(g: SimpleGraph, k: int, sigma) -> ExtractionResult:
    """extract's answer, built by asking the public
    ``find_separation(g, k, w, parent=...)`` at each set W of more than
    max(floor((1+sigma)k), k+1) vertices, side A first, on an explicit stack;
    the first set it finds no separation of is FOUND. A stack frame is a
    set with the separation it is a side of, or a set whose two children
    are the last two nodes finished."""
    cap = max(size_threshold(k, sigma), k + 1)
    stack: list = [((1 << g.n) - 1, None, False)]
    done: list[DecompositionNode] = []
    while stack:
        w, parent, split = stack.pop()
        if split:
            b, a = done.pop(), done.pop()
            done.append(DecompositionNode(w, (a, b)))
            continue
        if w.bit_count() <= cap:
            done.append(DecompositionNode(w))
            continue
        sep = find_separation(g, k, w, parent=parent)
        if sep is None:
            return ExtractionResult(FOUND, frozenset(_bits(w)), None)
        stack += [(w, None, True), (sep.mask_b, sep, False), (sep.mask_a, sep, False)]
    return ExtractionResult(SEPARABLE, None, done.pop())


def same_tree(left: DecompositionNode, right: DecompositionNode) -> bool:
    """Whether two trees have the same set at every node, children in order."""
    stack = [(left, right)]
    while stack:
        a, b = stack.pop()
        if a.mask != b.mask or len(a.children) != len(b.children):
            return False
        stack += zip(a.children, b.children)
    return True


# --- extremal certificate oracles ---------------------------------------------
# The set-and-bitmask checks that verify_extremal used before it tested private
# sides with adjacency lists: one walk per node of the gluing tree, every
# condition checked on the node's own vertex sets.

def _copy_embedding(v_prev: int, y) -> list[int]:
    """Second-copy labels for level v_prev vertices glued along y."""
    y_set = set(y)
    others = [v for v in range(v_prev) if v not in y_set]
    image = [0] * v_prev
    for v in y:
        image[v] = v
    for j, v in enumerate(others):
        image[v] = v_prev + j
    return image


def certificate_check_oracle(e) -> bool:
    """Whether every recorded gluing set is a k-core separation of its node."""
    g = e.graph
    masks = g.adjacency_masks
    k = e.k

    def walk(level: int, phi: tuple[int, ...]) -> bool:
        if level == 0:
            return len(set(phi)) == e.leaf_size
        y = e.glue_history[level - 1]
        v_prev = k + (1 << (level - 1)) * e.sigma_k
        phi1 = phi[:v_prev]
        mu = _copy_embedding(v_prev, y)
        phi2 = tuple(phi[mu[x]] for x in range(v_prev))
        w = set(phi)
        w1, w2 = set(phi1), set(phi2)
        core = {phi[v] for v in y}
        if len(core) != k or (w1 | w2) != w or (w1 & w2) != core:
            return False
        if w1 == w or w2 == w:
            return False
        mask2 = 0
        for v in w2 - core:
            mask2 |= 1 << v
        for v in w1 - core:
            if masks[v] & mask2:
                return False
        return walk(level - 1, phi1) and walk(level - 1, phi2)

    return walk(e.level, tuple(range(g.n)))


def partition_check_oracle(e) -> bool:
    """Pool parts balanced within one, with no edge between two parts."""
    sizes = [len(p) for p in e.parts]
    if max(sizes) - min(sizes) > 1:
        return False
    masks = e.graph.adjacency_masks
    part_masks = [sum(1 << v for v in p) for p in e.parts]
    pool = sum(part_masks)
    return not any(masks[v] & pool & ~own for p, own in zip(e.parts, part_masks) for v in p)


def tree_check_oracle(g: SimpleGraph, k: int, sigma, root) -> bool:
    """Whether root is a decomposition tree of g, checked with plain sets.

    The root holds every vertex; a leaf holds at most
    max(floor((1+sigma)k), k+1) vertices; every other node has two children
    A and B with A | B its set W, |A & B| = k, neither side W and no edge
    between A - B and B - A.
    """
    def members(mask: int) -> set[int]:
        return {v for v in range(mask.bit_length()) if mask >> v & 1}

    cap = max(math.floor((1 + Fraction(sigma)) * k), k + 1)
    if members(root.mask) != set(range(g.n)):
        return False
    stack = [root]
    while stack:
        node = stack.pop()
        w = members(node.mask)
        if not node.children:
            if len(w) > cap:
                return False
            continue
        if len(node.children) != 2:
            return False
        a, b = (members(child.mask) for child in node.children)
        if a | b != w or len(a & b) != k or w in (a, b):
            return False
        only_a, only_b = a - b, b - a
        if any(u in only_a and v in only_b or u in only_b and v in only_a for u, v in g.edges):
            return False
        stack += node.children
    return True


# --- extremal builder oracle ------------------------------------------------------
# The set-based loop that build_extremal ran before it kept its edges as one
# ascending list: each level adds the copy-two images to a set, and the gluing
# set's edge share is counted by probing every pair of its vertices.

def build_extremal_oracle(k: int, sigma_k: int, level: int, split=_split_parts):
    """(n, edges, parts, glue_history) of the level-``level`` instance, or the
    error build_extremal raises for these parameters; ``split`` stands in for
    the pool splitter."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if sigma_k < k:
        raise ValueError("needs sigma_k >= k (sigma >= 1)")
    if level < 0:
        raise ValueError("level must be non-negative")
    if level >= VERTEX_CAP.bit_length():
        raise ValueError(f"level {level} would need more than {VERTEX_CAP} vertices, the cap")
    final_n = k + (1 << level) * sigma_k
    if final_n > VERTEX_CAP:
        raise ValueError(
            f"level {level} would need {final_n} vertices, above the cap {VERTEX_CAP}"
        )
    n = k + sigma_k
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)}
    parts = (tuple(range(2 * k)),)
    glue = []
    for i in range(level):
        y_parts, z_parts = split(parts, k)
        y = tuple(sorted(v for p in y_parts for v in p))
        y_set = set(y)
        e_y = sum(p in edges for p in combinations(y, 2))
        if 2 * e_y * (1 << i) > k * k - k:
            raise RuntimeError(f"gluing set {i} keeps more than a 2^-{i} share of its edges")
        others = [v for v in range(n) if v not in y_set]
        remap = list(range(n))
        for j, v in enumerate(others, n):
            remap[v] = j
        edges.update([
            (remap[u], remap[v]) if remap[u] < remap[v] else (remap[v], remap[u])
            for u, v in edges
        ])
        parts = tuple(z_parts) + tuple(
            tuple(sorted([remap[v] for v in p])) if p else p for p in z_parts
        )
        glue.append(y)
        n = 2 * n - k
    return n, edges, parts, tuple(glue)


# --- JSON oracles ----------------------------------------------------------------
# The instance data construct writes and the extraction data extract writes,
# built as plain lists from each object's own fields, so the expected values
# do not come from the package's writers.

def graph_to_json_dict(g: SimpleGraph) -> dict:
    """``{"n": n, "edges": [[u, v], ...]}`` with the edges ascending."""
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def extremal_to_json_dict(e) -> dict:
    """The graph and the metadata block of an extremal instance, as lists."""
    return {
        "graph": graph_to_json_dict(e.graph),
        "metadata": {
            "k": e.k,
            "sigma_k": e.sigma_k,
            "level": e.level,
            "parts": [list(p) for p in e.parts],
            "glue_history": [list(y) for y in e.glue_history],
        },
    }


def result_to_json_dict(result: ExtractionResult) -> dict:
    if result.outcome == FOUND:
        return {"outcome": FOUND, "subgraph": sorted(result.subgraph)}
    root: dict = {}
    stack = [(result.tree, root)]
    while stack:
        node, data = stack.pop()
        data["vertices"] = _bits(node.mask)
        data["kind"] = node.kind
        sep = node.separation
        if sep is not None:
            data["separation"] = {
                "side_a": _bits(sep.mask_a),
                "side_b": _bits(sep.mask_b),
                "core": _bits(sep.mask_a & sep.mask_b),
            }
            data["children"] = [{}, {}]
            stack.extend(zip(node.children, data["children"]))
    return {"outcome": SEPARABLE, "tree": root}


def tree_from_json_dict(data: dict) -> DecompositionNode:
    """The tree of a SEPARABLE answer's JSON as nodes, read back recursively, so
    for small trees only. Each vertex list must ascend without repeats, a
    SEPARATED node's sides must be its children's lists and its core their
    common ids, and a LEAF_SMALL node must have no separation."""
    vertices, kind = data["vertices"], data["kind"]
    assert vertices == sorted(set(vertices)) and all(type(v) is int for v in vertices)
    children = data.get("children", [])
    if kind == SEPARATED:
        sep = data["separation"]
        assert [sep["side_a"], sep["side_b"]] == [child["vertices"] for child in children]
        assert sep["core"] == sorted(set(sep["side_a"]) & set(sep["side_b"]))
    else:
        assert kind == LEAF_SMALL and set(data) == {"vertices", "kind"}
    return DecompositionNode(sum(1 << v for v in vertices), tuple(map(tree_from_json_dict, children)))


# --- relabelled induced subgraphs ------------------------------------------------
# The kernel and the extractor work on one graph and a vertex bitmask; the
# property tests compare them with the same questions asked of a relabelled
# copy of the set.

class InducedSubgraph(NamedTuple):
    """A relabeled induced subgraph together with its vertex map.

    ``vertices[i]`` is the original id of the new vertex i; the map is
    sorted ascending, so relabeling is order preserving.
    """

    graph: SimpleGraph
    vertices: tuple[int, ...]

    def to_original(self, new_id: int) -> int:
        return self.vertices[new_id]


def induced_subgraph(g: SimpleGraph, w: Iterable[int]) -> InducedSubgraph:
    """Subgraph induced by the vertex set w, relabeled to 0..|w|-1."""
    wset = set(w)
    for v in wset:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    order = tuple(sorted(wset))
    index = {v: i for i, v in enumerate(order)}
    edges = frozenset(
        (index[u], index[v]) for u, v in g.edges if u in wset and v in wset
    )
    return InducedSubgraph(SimpleGraph(len(order), edges), order)


# --- split optimization oracle -------------------------------------------------------

def split_maximum_grid(inst: OptimizationInstance, resolution=Fraction(1, 64)) -> float:
    """Grid brute force over the feasible region (independent of split_maximum).

    Refuses vectors longer than 3 and resolutions finer than 1/256.
    Returns -inf when no grid point is feasible. Skips the calling test
    when numpy is not installed.
    """
    np = pytest.importorskip("numpy")
    step = float(Fraction(resolution))
    if step < 1 / 256:
        raise ValueError("grid resolution must be at least 1/256")
    if len(inst.zs) > 3:
        raise ValueError("grid oracle limited to mass vectors of length 3")
    z, zs, tau = inst.z, inst.zs, inst.tau

    def axis(lo: float, hi: float):
        if hi < lo:
            return np.empty(0)
        count = int(math.floor((hi - lo) / step + 1e-9))
        pts = lo + step * np.arange(count + 1)
        if pts.size == 0 or pts[-1] < hi - 1e-12:
            pts = np.append(pts, hi)
        return pts

    x_axis = axis(tau, z / 2)
    if not zs:
        vals = x_axis * x_axis + (z - x_axis) ** 2
        return float(vals.max()) if vals.size else -math.inf
    mesh = np.meshgrid(*(axis(0.0, zi) for zi in zs), indexing="ij")
    sq = sum(m * m for m in mesh)
    sqz = sum((zi - m) ** 2 for zi, m in zip(zs, mesh))
    best = -math.inf
    for x in x_axis:
        feasible = (sq <= x * x) & (sqz <= (z - x) ** 2)
        if feasible.any():
            vals = x * x - sq + (z - x) ** 2 - sqz
            best = max(best, float(vals[feasible].max()))
    return best
