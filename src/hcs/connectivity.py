"""Vertex connectivity, minimum vertex separators, and separations.

The connectivity kernel runs max-flow on the vertex-split network (unit
capacity per vertex), augmented one unit path at a time by breadth-first
search, never by recursion. The network is never built: a search walks
the graph's adjacency bitmasks restricted to the vertex set, and the flow
is one dict naming, for each vertex that carries a unit, the neighbour
the unit comes from (see ``_st_vertex_cut``). Pairs are
restricted to the classic dominating strategy: one minimum-degree vertex
against all of its non-neighbors, then all non-adjacent pairs of its
neighbors. A slow exhaustive oracle is provided for cross-checking on
small graphs.

Once the best cut found is 2, only a 1-vertex cut could lower it, and a
connected set has one exactly when it has a cut vertex. So the first time
the best cut reaches 2, one depth-first search (Hopcroft–Tarjan low
points) decides whether any remaining flow can change the answer; when
the set has no cut vertex the pair loop stops there, and otherwise it
runs on unchanged. Either way the answer is the one the full loop gives.

The kernel works on one graph and a vertex set given as a bitmask over
it (``alive``, all of the graph by default); separators and sides are
returned in the graph's own vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

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


def _has_cut_vertex(masks: tuple[int, ...], alive: int) -> bool:
    """Whether the subgraph on the ``alive`` bitmask has a cut vertex.

    One depth-first search per component, kept on an explicit stack, with
    Hopcroft–Tarjan low points: a non-root v is a cut vertex when some
    child w has low(w) >= disc(v), a root when it has two children. The
    edge back to the parent may lower low(w) to disc(v), which leaves that
    test unchanged.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    rem = alive
    while rem:
        root = (rem & -rem).bit_length() - 1
        disc[root] = low[root] = len(disc)
        seen = 1 << root
        children = 0
        stack = [(root, masks[root] & alive)]
        while stack:
            v, todo = stack[-1]
            if todo:
                bit = todo & -todo
                stack[-1] = (v, todo ^ bit)
                w = bit.bit_length() - 1
                if w in disc:
                    low[v] = min(low[v], disc[w])
                else:
                    disc[w] = low[w] = len(disc)
                    seen |= bit
                    stack.append((w, masks[w] & alive))
            else:
                stack.pop()
                if stack:  # v is done: hand its low point to its parent u
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if u == root:
                        children += 1
                        if children > 1:
                            return True
                    elif low[v] >= disc[u]:
                        return True
        rem &= ~seen
    return False


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


# --- unit augmenting paths on the implicit vertex-split network ---------------

def _st_vertex_cut(masks: tuple[int, ...], s: int, t: int, limit: int, alive: int) -> tuple[int, Optional[frozenset[int]]]:
    """Minimum s-t vertex cut in the set ``alive`` for non-adjacent s, t, capped at ``limit``.

    Returns (limit, None) when the cut is at least ``limit``; otherwise the
    exact value together with a witness separator in the graph's own ids.

    Flow runs on the vertex-split network without building it: vertex v is
    in(v) -> out(v), a unit arc, and each edge vw gives arcs out(v) -> in(w)
    and out(w) -> in(v) that no flow fills. Flow goes from out(s) to in(t),
    one unit per breadth-first search; one unit is right because every
    path crosses a unit vertex arc. ``into[w] = u`` records the unit that
    enters w from u, so w's unit arc is full exactly when w is in ``into``.
    The residual network then has few arcs to look at: in(w) leads only to
    out(w) when w is free and only back to out(into[w]) when it is full;
    out(v) leads to in(w) for every neighbour w, and back to in(v) when v
    is full. ``reach_in`` and ``reach_out`` are the bitmasks of in- and
    out-nodes a search has reached. The first search that misses in(t) has
    reached the whole residual reachable set, and the separator is
    ``reach_in & ~reach_out``.
    """
    into: dict[int, int] = {}
    for value in range(limit):
        reach_in, reach_out = 0, 1 << s
        came: dict[int, int] = {}  # in(w) was reached from out(came[w])
        went: dict[int, int] = {}  # out(x) was reached from in(went[x])
        queue = [s]
        for v in queue:  # the list grows while it is walked: a FIFO queue
            new = masks[v] & alive & ~reach_in
            if new >> t & 1:
                break
            if v in into and not reach_in >> v & 1:
                new |= 1 << v  # back along v's own full unit arc
            reach_in |= new
            while new:
                w = (new & -new).bit_length() - 1
                new &= new - 1
                came[w] = v
                x = into.get(w, w)
                if not reach_out >> x & 1:
                    reach_out |= 1 << x
                    went[x] = w
                    queue.append(x)
        else:
            sep = frozenset(_bits(reach_in & ~reach_out))
            if len(sep) != value:
                raise RuntimeError("residual cut does not match the flow value")
            return value, sep
        u = v  # out(v) reached in(t); walk the path back, moving each unit it crosses
        while u != s:
            w = went[u]
            u = came[w]
            if u == w:
                del into[w]  # the path sent w's unit back: w is free again
            else:
                into[w] = u
    return limit, None


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

    The best cut starts at the minimum degree (or cap) and drops only when
    a flow returns less. The first time it is 2, whether from the degree
    or from a flow, ``_has_cut_vertex`` is asked once: without a cut
    vertex no flow can return 1, so the loop ends with the answer it would
    have reached anyway.
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
    if best <= 1:  # a connected set has no smaller cut, so no flow runs
        return CutWitness(best, best_sep)
    if best == 2 and not _has_cut_vertex(masks, alive):
        return CutWitness(best, best_sep)
    for x, y in _dominating_pairs(masks, alive, s):
        if best <= 1:
            break
        value, sep = _st_vertex_cut(masks, x, y, best, alive)
        if value < best:
            best, best_sep = value, sep
            if best == 2 and not _has_cut_vertex(masks, alive):
                break
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
