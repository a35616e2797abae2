"""Vertex connectivity, minimum vertex separators, and separations.

The connectivity kernel runs max-flow on the vertex-split network (unit
capacity per interior vertex). Pairs are restricted to the classic
dominating strategy: one minimum-degree vertex against all of its
non-neighbors, then all non-adjacent pairs of its neighbors. A slow
exhaustive oracle is provided for cross-checking on small graphs.

The kernel works on one graph and a vertex set given as a bitmask over
it (``alive``, all of the graph by default); separators and sides are
returned in the graph's own vertex ids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple, Optional

from .graphs import SimpleGraph


@dataclass(frozen=True)
class CutWitness:
    """Vertex connectivity together with a minimum separator.

    ``separator`` is None exactly when the graph is complete (complete
    graphs have no separator; their connectivity is n-1 by convention).
    A disconnected graph has kappa 0 with the empty separator.
    """

    kappa: int
    separator: Optional[frozenset[int]]


@dataclass(frozen=True)
class Separation:
    """A bipartition witness certifying that the graph is not (k+1)-connected.

    ``side_a`` and ``side_b`` cover all vertices, intersect in exactly k
    vertices (the core), neither side is everything, and no edge joins the
    private part of one side to the private part of the other.
    """

    side_a: frozenset[int]
    side_b: frozenset[int]

    @property
    def core(self) -> frozenset[int]:
        return self.side_a & self.side_b

    def validate(self, g: SimpleGraph, k: int, alive: Optional[int] = None) -> None:
        """Raise ValueError unless all separation invariants hold in g on alive."""
        all_v = frozenset(_bits(_vertex_mask(g, alive)))
        if self.side_a | self.side_b != all_v:
            raise ValueError("sides do not cover the vertex set")
        if len(self.core) != k:
            raise ValueError(f"core has {len(self.core)} vertices, expected {k}")
        if self.side_a == all_v or self.side_b == all_v:
            raise ValueError("a side equals the whole vertex set")
        priv_a = self.side_a - self.side_b
        priv_b = self.side_b - self.side_a
        masks = g.adjacency_masks
        mask_b = 0
        for v in priv_b:
            mask_b |= 1 << v
        for v in priv_a:
            if masks[v] & mask_b:
                raise ValueError("edge between the two private sides")


# --- bitmask traversal helpers ------------------------------------------------

def _components(masks: tuple[int, ...], alive: int) -> list[int]:
    """Connected components of the subgraph on the ``alive`` bitmask."""
    comps = []
    rem = alive
    while rem:
        start = rem & -rem
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                nxt |= masks[v]
            frontier = nxt & alive & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def _is_connected(masks: tuple[int, ...], alive: int) -> bool:
    if alive == 0:
        return True
    if alive & (alive - 1) == 0:
        return True
    return len(_components(masks, alive)) == 1


def _bits(mask: int) -> list[int]:
    """The vertex ids in a bitmask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _vertex_mask(g: SimpleGraph, alive: Optional[int]) -> int:
    """``alive``, or all of g when it is None; it must name only vertices of g."""
    if alive is None:
        return (1 << g.n) - 1
    if alive < 0 or alive >> g.n:
        raise ValueError("vertex mask names vertices outside the graph")
    return alive


# --- Dinic max-flow on the vertex-split network -------------------------------

class _Dinic:
    __slots__ = ("num", "to", "cap", "adj")

    def __init__(self, num: int):
        self.num = num
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num)]

    def add(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int, limit: int) -> int:
        flow = 0
        while flow < limit:
            level = [-1] * self.num
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for eid in self.adj[u]:
                    w = self.to[eid]
                    if self.cap[eid] > 0 and level[w] < 0:
                        level[w] = level[u] + 1
                        q.append(w)
            if level[t] < 0:
                break
            it = [0] * self.num
            while flow < limit:
                pushed = self._augment(s, t, limit - flow, level, it)
                if pushed == 0:
                    break
                flow += pushed
        return flow

    def _augment(self, u: int, t: int, up: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return up
        while it[u] < len(self.adj[u]):
            eid = self.adj[u][it[u]]
            w = self.to[eid]
            if self.cap[eid] > 0 and level[w] == level[u] + 1:
                pushed = self._augment(w, t, min(up, self.cap[eid]), level, it)
                if pushed:
                    self.cap[eid] -= pushed
                    self.cap[eid ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def residual_reachable(self, s: int) -> list[bool]:
        seen = [False] * self.num
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                w = self.to[eid]
                if self.cap[eid] > 0 and not seen[w]:
                    seen[w] = True
                    q.append(w)
        return seen


class _FlowGraph(NamedTuple):
    """A vertex set relabelled 0..n-1 in id order, as a plain edge list.

    One is built per min-cut call, and every flow network of that call is
    built from it.
    """

    n: int
    edges: list[tuple[int, int]]


def _st_vertex_cut(g: _FlowGraph, s: int, t: int, limit: int) -> tuple[int, Optional[frozenset[int]]]:
    """Minimum s-t vertex cut for non-adjacent s, t, capped at ``limit``.

    Returns (limit, None) when the cut is at least ``limit``; otherwise the
    exact value together with a witness separator extracted from the
    residual network (interior vertices v with in(v) reachable, out(v) not).
    """
    n = g.n
    net = _Dinic(2 * n)
    big = n  # exceeds any vertex cut, so edge arcs never saturate
    for v in range(n):
        net.add(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for u, v in g.edges:
        net.add(2 * u + 1, 2 * v, big)
        net.add(2 * v + 1, 2 * u, big)
    value = net.max_flow(2 * s + 1, 2 * t, limit)
    if value >= limit:
        return limit, None
    reach = net.residual_reachable(2 * s + 1)
    sep = frozenset(v for v in range(n) if reach[2 * v] and not reach[2 * v + 1])
    if len(sep) != value:
        raise RuntimeError("residual cut does not match the flow value")
    return value, sep


def _dominating_pairs(masks: tuple[int, ...], alive: int, s: int) -> Iterator[tuple[int, int]]:
    """Pairs to cut: s, of minimum degree, against each non-neighbor, then
    each non-adjacent pair of its neighbors."""
    nbrs = masks[s] & alive
    for t in _bits(alive & ~nbrs & ~(1 << s)):
        yield s, t
    for x, y in combinations(_bits(nbrs), 2):
        if not masks[x] >> y & 1:
            yield x, y


def _min_cut_capped(g: SimpleGraph, cap: int, alive: Optional[int] = None) -> CutWitness:
    """Minimum vertex cut of g on alive, with work capped: kappa is min(true kappa, cap).

    When the reported kappa equals cap the true connectivity may be larger
    and no separator is produced.
    """
    alive = _vertex_mask(g, alive)
    ids = _bits(alive)
    n = len(ids)
    if n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if n == 1:
        return CutWitness(0, None)
    masks = g.adjacency_masks
    degree = {v: (masks[v] & alive).bit_count() for v in ids}
    if sum(degree.values()) == n * (n - 1):
        return CutWitness(min(n - 1, cap), None)
    if not _is_connected(masks, alive):
        return CutWitness(0, frozenset())
    s = min(ids, key=lambda v: (degree[v], v))
    best = degree[s]
    best_sep: Optional[frozenset[int]] = frozenset(_bits(masks[s] & alive))
    if best >= cap:
        best, best_sep = cap, None
    index = {v: i for i, v in enumerate(ids)}
    flow_graph = _FlowGraph(
        n, [(index[v], index[w]) for v in ids for w in _bits(masks[v] & alive) if v < w]
    )
    for x, y in _dominating_pairs(masks, alive, s):
        if best <= 1:
            break
        value, sep = _st_vertex_cut(flow_graph, index[x], index[y], best)
        if value < best:
            best, best_sep = value, frozenset(ids[v] for v in sep)
    return CutWitness(best, best_sep)


# --- public operations ---------------------------------------------------------

def min_vertex_cut(g: SimpleGraph) -> CutWitness:
    """Exact vertex connectivity with a minimum-separator witness."""
    return _min_cut_capped(g, g.n if g.n else 1)


def is_k1_connected(g: SimpleGraph, k: int, alive: Optional[int] = None) -> bool:
    """Whether g on alive is (k+1)-connected: at least k+2 vertices and kappa >= k+1."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    alive = _vertex_mask(g, alive)
    if alive.bit_count() < k + 2:
        return False
    return _min_cut_capped(g, k + 1, alive).kappa >= k + 1


def find_separation(g: SimpleGraph, k: int, alive: Optional[int] = None) -> Optional[Separation]:
    """A separation of g on alive whose core has exactly k vertices, if one exists.

    Exists iff the set has at least k+2 vertices and kappa <= k. A minimum
    separator is padded up to k vertices by repeatedly moving the
    lowest-indexed private vertex of the currently larger side into the
    core (ties prefer side A); moves that would empty a private side are
    redirected to the other side.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    alive = _vertex_mask(g, alive)
    if alive.bit_count() < k + 2:
        return None
    witness = _min_cut_capped(g, k + 1, alive)
    if witness.kappa > k or witness.separator is None:
        return None
    core = set(witness.separator)
    rest = alive
    for v in core:
        rest &= ~(1 << v)
    comps = _components(g.adjacency_masks, rest)
    if len(comps) < 2:
        raise RuntimeError("minimum separator does not disconnect the vertex set")
    comp_a = frozenset(_bits(comps[0]))
    side_a = comp_a | core
    side_b = frozenset(_bits(alive)) - comp_a
    while len(core) < k:
        priv_a = side_a - side_b
        priv_b = side_b - side_a
        prefer_a = len(side_a) >= len(side_b)
        if prefer_a and len(priv_a) < 2:
            prefer_a = False
        elif not prefer_a and len(priv_b) < 2:
            prefer_a = True
        if prefer_a:
            x = min(priv_a)
            side_b = side_b | {x}
        else:
            x = min(priv_b)
            side_a = side_a | {x}
        core.add(x)
    return Separation(frozenset(side_a), frozenset(side_b))


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
    masks = g.adjacency_masks
    full = (1 << n) - 1
    for size in range(0, n - 1):
        for subset in combinations(range(n), size):
            removed = 0
            for v in subset:
                removed |= 1 << v
            if not _is_connected(masks, full & ~removed):
                return CutWitness(size, frozenset(subset))
    return CutWitness(n - 1, None)
