"""Vertex connectivity, minimum vertex separators, and separations.

The connectivity kernel runs max-flow on the vertex-split network (unit
capacity per vertex), augmented one unit path at a time by breadth-first
search, never by recursion. The network is never built: a search walks
the graph's adjacency bitmasks restricted to the vertex set, and the flow
is one dict naming, for each vertex that carries a unit, the neighbour
the unit comes from (see ``_st_vertex_cut``). Pairs are
restricted to the classic dominating strategy: one minimum-degree vertex
against all of its non-neighbors, then all non-adjacent pairs of its
neighbors. The loop walks them by source: each source x is cut from
its partners in ascending order.

Most of these flows are decided before they run (Menger's fan argument,
as in Esfahanian–Hakimi's dominating-set test). An ask with cap c (see
below) looks for a cut of fewer than c vertices, and c stays fixed for
the whole ask. For the loop's current source x, call a vertex z good
when z is a neighbour of x, a partner of x cut earlier in the loop, or z
has at least c good neighbours; then kappa(x, z) >= c for every good z
other than x. An earlier pair's flow found no cut below c, since a cut
would have ended the ask, or was skipped because its vertex was good. A
vertex y with at least c good neighbours has kappa(x, y) >= c:
  - a set X of fewer than c vertices misses some good neighbour z of y,
    so z is in y's component of W - X;
  - if z is a neighbour of x, the path x-z-y avoids X;
  - otherwise kappa(x, z) >= c > |X|, so x is in z's component too.
So X does not separate x from y, and the argument applies again to every
vertex that the new good vertices give enough good neighbours. Before a
flow would run, the good set is grown to this closure, and the flow of a
pair (x, y) is skipped when y is good. The closure keeps a worklist: only
the neighbours of vertices that became good since the last closure are
looked at again. x itself may join the good set, which adds nothing: its
neighbours are good already. A skipped pair has no cut below c, so the
first cut the loop finds is the full loop's first, and the pair order and
every output are those of the full loop.

Each flow does less work than a plain augmenting-path search in two ways.
It starts from a feasible flow instead of from zero, built in one pass
over the neighbours a of s in ascending order: when a is next to the
sink, one unit on s-a-sink, as an augmenting path along it would leave
it; otherwise one unit on s-a-b-sink, with b the lowest vertex next to a
and to the sink, not in the sink and not next to s, that no unit uses
yet. To the one sink vertex t of a pair of the loop these b are t's
neighbours; to the sink of a local flow (below) they are the vertices of
the ball next to it, picked from the second neighbours of s. Its value is
the number of these paths,
and when they reach ``limit`` the pass stops and no search runs.
Augmenting from any feasible flow reaches a maximum flow (Edmonds-Karp,
J. ACM 19, 1972), and every maximum flow leaves the same
residual-reachable set, so the separator and the side read from it are
unchanged. And each breadth-first search stops when it first reaches a
vertex next to the sink, not when it takes that vertex from its queue:
the queue is first in, first out, so the path it augments is the same.

The kernel answers one question, through ``_min_cut_capped``: given a
cap c, the first cut of fewer than c vertices that its search meets, or
None. The separation step ``_separate``, which ``find_separation`` runs
after its checks and ``extract`` runs at each set of its tree, asks it
with c = k + 1: padded to k vertices, any such cut is the core of a
separation, and only the answer None needs the proof that kappa >= k+1. ``min_vertex_cut`` asks it again and again,
each time with the size of the last cut found as the cap, until an ask
finds no cut; Even's test of kappa >= k (SIAM J. Comput. 4, 1975) gets
connectivity from such witness-giving asks too. The search returns its
first cut of fewer than c vertices, from the minimum degree, the local
flow below or a pair of the loop. It misses no such cut: the full loop
would find one if the set has one, and a pair is skipped only when it
has none.

A disconnected set needs no walk of its own: a vertex of minimum degree
below c gives a cut at once, and otherwise a flow into another component
returns the empty separator, with its source's component as side A. At
c = 1 the fan closure covers the source's component at once, so only the
flows into other components run. With a cap of 2 and a minimum degree of
at least 2, one depth-first search (Hopcroft–Tarjan low points) decides
whether the set has a cut of at most one vertex: a cut vertex, or a
vertex the search from the lowest vertex never reaches, where a second
search would need a second root. Without one no flow can return less
than 2, and the search ends there, with the answer the full loop gives;
with one the loop runs on until it finds such a cut.

Most of the sets extraction splits peel a small leaf off a large rest,
and the loop's first flow, from s to its lowest non-neighbour t0, walks
the whole set. So a local flow is tried first: R is a ball around s,
grown by breadth-first steps in W, and the flow runs from s to the sink
W - R, capped at c. Let (S, X) be its source-minimal cut, of fewer than
c vertices. A flow runs only while R holds at most a quarter of W, so
the sink is not empty, X is a cut of W of fewer than c vertices, and the
search ends with it. The ball may hold t0:
any such cut ends the search, so the local cut need not be the pair
(s, t0)'s, and on the extremal graphs as built t0 lies next to s's leaf,
where a sink that holds it cannot be cut off by k vertices. The searches
of the local flow walk S and R only. It runs only at a cap of at least
3; below that the pair loop alone finds the cut.

Side A of a separation is the component of W - X that holds the cut's
source: s for the degree cut N(s) and for the local flow, and x for the
flow of a pair (x, y). The last search of a flow reaches exactly that
component (see ``_st_vertex_cut``), so finding it costs no search of its
own, and on the extremal graphs it is the peeled leaf.

The same split fixes the side's degrees. No edge joins the two private
parts of a separation, so a private vertex of a side keeps every
neighbour it had in the separated set, and only the k core vertices
change degree. The separation step reads the degree classes of its set
(each degree mapped to the bitmask of its vertices). ``extract`` counts
them in one pass at the root and carries them down its tree: a side's
classes are its parent's restricted to the side's private part, plus the
k core vertices counted again (``_side_degrees``). ``find_separation``,
which sees one set and no parent, counts them afresh. The minimum degree
and its lowest-numbered vertex are read from the classes, with no pass
over the set, and the set is complete exactly when its minimum degree is
n - 1.

The kernel works on one graph and a vertex set given as a bitmask over
it (``alive``, all of the graph by default). Separators are bitmasks in
the graph's own vertex ids, made into a frozenset only for the
``CutWitness`` that ``min_vertex_cut`` returns, and a separation holds
its sides as bitmasks, with frozensets built only on access.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Optional, Sequence, TypeVar

from .graphs import SimpleGraph, _check_k, _is_int

T = TypeVar("T")


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

    The sides are held as bitmasks over the graph's vertex ids, ``mask_a``
    and ``mask_b``; ``side_a``, ``side_b`` and ``core`` are the same sets
    as frozensets, built on access. The sides cover all vertices,
    intersect in exactly k vertices (the core), neither side is
    everything, and no edge joins the private part of one side to the
    private part of the other.

    The core claims nothing about the connectivity of the separated set:
    ``find_separation`` pads the first cut of at most k vertices it meets,
    not a minimum one.
    """

    mask_a: int
    mask_b: int

    @property
    def side_a(self) -> frozenset[int]:
        return frozenset(_bits(self.mask_a))

    @property
    def side_b(self) -> frozenset[int]:
        return frozenset(_bits(self.mask_b))

    @property
    def core(self) -> frozenset[int]:
        return frozenset(_bits(self.mask_a & self.mask_b))

    def validate(self, g: SimpleGraph, k: int, alive: Optional[int] = None) -> None:
        """Raise ValueError unless all separation invariants hold in g on alive."""
        all_v = _vertex_mask(g, alive)
        a, b = self.mask_a, self.mask_b
        if a | b != all_v:
            raise ValueError("sides do not cover the vertex set")
        core = (a & b).bit_count()
        if core != k:
            raise ValueError(f"core has {core} vertices, expected {k}")
        if a == all_v or b == all_v:
            raise ValueError("a side equals the whole vertex set")
        priv_a, priv_b = a & ~b, b & ~a
        if priv_a.bit_count() > priv_b.bit_count():  # an edge has an end in each: walk the smaller
            priv_a, priv_b = priv_b, priv_a
        if _near(g.adjacency_masks, priv_a) & priv_b:
            raise ValueError("edge between the two private sides")


# --- bitmask traversal helpers ------------------------------------------------

_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")

def _near(masks: tuple[int, ...], vertices: int) -> int:
    """The union of the neighbourhoods of the vertices in a bitmask."""
    near = 0
    while vertices:
        v = (vertices & -vertices).bit_length() - 1
        vertices &= vertices - 1
        near |= masks[v]
    return near


def _has_cut_of_at_most_one(masks: tuple[int, ...], alive: int) -> bool:
    """Whether the subgraph on the non-empty ``alive`` bitmask has a vertex
    cut of at most one vertex: whether it is disconnected or has a cut vertex.

    One depth-first search from the lowest vertex, kept on an explicit
    stack, with Hopcroft–Tarjan low points: a non-root v is a cut vertex
    when some child w has low(w) >= disc(v), the root when it has two
    children. The edge back to the parent may lower low(w) to disc(v),
    which leaves that test unchanged. A vertex the search never reaches
    would need a second root: the set is disconnected.
    """
    root = (alive & -alive).bit_length() - 1
    disc = {root: 0}
    low = {root: 0}
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
    return len(disc) < alive.bit_count()


def _members(mask: int, items: Sequence[T]) -> list[T]:
    """``items[v]`` for each vertex id v in a bitmask, in ascending order of v.

    A mask of few vertices is read from its top bit down, and the list is
    reversed at the end: each step takes the highest vertex v left and
    clears bit v, which builds two ints no wider than what is left of the
    mask. Each step still costs time in proportion to that width, so a
    mask of many vertices is read instead from its binary digits, in one
    pass that runs in C.
    """
    if mask.bit_count() > 128:
        flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)  # flags[v] is 1 iff v is in mask
        return list(compress(items, flags))
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(items[v])
        mask ^= 1 << v
    out.reverse()
    return out


def _bits(mask: int) -> list[int]:
    """The vertex ids in a bitmask, ascending."""
    return _members(mask, range(mask.bit_length()))


def _vertex_mask(g: SimpleGraph, alive: Optional[int]) -> int:
    """``alive``, or all of g when it is None; it must be an int (not a bool)
    that names only vertices of g."""
    if alive is None:
        return (1 << g.n) - 1
    if not _is_int(alive):
        raise ValueError("vertex mask must be an integer")
    if alive < 0 or alive >> g.n:
        raise ValueError("vertex mask names vertices outside the graph")
    return alive


# --- unit augmenting paths on the implicit vertex-split network ---------------

def _st_vertex_cut(
    masks: tuple[int, ...], s: int, sink: int, limit: int, alive: int
) -> tuple[int, Optional[int], int]:
    """Minimum vertex cut in the set ``alive`` between s and the bitmask
    ``sink``, capped at ``limit``.

    Returns (limit, None, 0) when the cut is at least ``limit``, as it is
    when s has a neighbour in the sink; otherwise
    the exact value, a witness separator X (a bitmask over the graph's own
    ids, of no sink vertex) and the source side: the component of alive - X
    that holds s.

    Flow runs on the vertex-split network without building it: vertex v is
    in(v) -> out(v), a unit arc, and each edge vw gives arcs out(v) -> in(w)
    and out(w) -> in(v) that no flow fills. Flow goes from out(s) to the
    in-nodes of the sink, which take any number of units, one unit per
    breadth-first search; one unit is right because every path crosses a
    unit vertex arc. ``into[w] = u`` records the unit that enters w from u,
    so w's unit arc is full exactly when w is in ``into``. The residual
    network then has few arcs to look at: in(w) leads only to out(w) when w
    is free and only back to out(into[w]) when it is full; out(v) leads to
    in(w) for every neighbour w, and back to in(v) when v is full.
    ``reach_in`` and ``reach_out`` are the bitmasks of in- and out-nodes a
    search has reached. The first search that reaches no sink vertex has
    reached the whole residual reachable set: the separator is
    ``reach_in & ~reach_out``, and the source side is ``reach_out``. That
    is s's component of alive - X: a vertex outside X next to a reached
    out-node has its out-node reached, and a reached out-node is joined to
    s outside X, through the free vertex it was reached by or along its
    own flow path, which crosses X exactly once, after it.

    A search stops as soon as it reaches the out-node of a vertex next to
    the sink, not when it takes that vertex from its queue: the queue is
    first in, first out, so it is the vertex the search would have taken
    first, and the path, the moved units and the next search are the same.
    The source's own out-node is never reached that way, so s is tested
    once, before the first search.

    The flow starts with one unit on s-a-sink or on s-a-b-sink for each
    neighbour a of s that the module docstring's one pass routes. A later search may send such a unit back. The flow value
    counts units, one a path, and the flow stops at ``limit`` with no
    search when these paths reach it. Any feasible flow augments to a
    maximum flow (Edmonds-Karp), and every maximum flow has the same
    residual reachable set, so neither the separator nor the side depends
    on where the flow started.
    """
    if masks[s] & sink:
        return limit, None, 0
    into: dict[int, int] = {}
    units = 0
    firsts = masks[s] & alive
    # b of s-a-b-sink: next to the sink, not in it and not next to s, so never an a
    lasts = (sum(1 << b for b in _bits(_near(masks, firsts) & alive & ~sink & ~firsts) if masks[b] & sink)
             if sink & (sink - 1) else masks[sink.bit_length() - 1] & alive & ~firsts)
    while firsts and units < limit:
        a = (firsts & -firsts).bit_length() - 1
        firsts &= firsts - 1
        hop = masks[a] & lasts
        if masks[a] & sink:  # s-a-sink
            into[a] = s
            units += 1
        elif hop:  # s-a-b-sink
            bit = hop & -hop
            lasts ^= bit
            into[a] = s
            into[bit.bit_length() - 1] = a
            units += 1
    for value in range(units, limit):
        reach_in, reach_out = 0, 1 << s
        came: dict[int, int] = {}  # in(w) was reached from out(came[w])
        went: dict[int, int] = {}  # out(x) was reached from in(went[x])
        queue = [s]
        for v in queue:  # the list grows while it is walked: a FIFO queue
            new = masks[v] & alive & ~reach_in
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
                    if masks[x] & sink:
                        break
                    queue.append(x)
            else:
                continue
            break  # out(x) reaches the sink
        else:
            sep = reach_in & ~reach_out
            if sep.bit_count() != value:
                raise RuntimeError("residual cut does not match the flow value")
            return value, sep, reach_out
        u = x  # walk the path back from out(x), moving each unit it crosses
        while u != s:
            w = went[u]
            u = came[w]
            if u == w:
                del into[w]  # the path sent w's unit back: w is free again
            else:
                into[w] = u
    return limit, None, 0


def _dominating_pairs(masks: tuple[int, ...], alive: int, s: int) -> Iterator[tuple[int, int]]:
    """Pairs to cut, by source: (s, the bitmask of s's non-neighbours) for
    s of minimum degree, then, for each neighbour x of s in ascending order,
    (x, the bitmask of the higher neighbours of s that x is not next to).
    Each source is cut from its partners in ascending order."""
    nbrs = masks[s] & alive
    yield s, alive & ~nbrs & ~(1 << s)
    for x in _bits(nbrs):
        yield x, nbrs & ~masks[x] & -(2 << x)


def _fan_closure(masks: tuple[int, ...], alive: int, good: int, fresh: int, cap: int) -> int:
    """``good`` grown to a fixed point by adding every vertex of ``alive``
    with at least ``cap`` neighbours in it (the fan argument of the module
    docstring, for the threshold c = ``cap``).

    ``fresh`` names the good vertices whose neighbours have not been looked
    at since they became good; no other vertex can have gained a good
    neighbour, so only theirs are rechecked.
    """
    while fresh:
        near = _near(masks, fresh) & alive & ~good
        fresh = 0
        while near:
            bit = near & -near
            near ^= bit
            if (masks[bit.bit_length() - 1] & good).bit_count() >= cap:
                good |= bit
                fresh |= bit
    return good


def _side_degrees(masks: tuple[int, ...], degrees: dict[int, int], core: int, side: int) -> dict[int, int]:
    """The degree classes of ``side``, one side of a separation with the
    ``core`` bitmask, from the classes ``degrees`` of the separated set.

    No edge joins the two private parts, so a private vertex of the side
    keeps every neighbour it had; only the core vertices are counted
    again."""
    private = side & ~core
    classes: dict[int, int] = {}
    for d, members in degrees.items():
        members &= private
        if members:
            classes[d] = members
    rest = core
    while rest:
        bit = rest & -rest
        rest ^= bit
        d = (masks[bit.bit_length() - 1] & side).bit_count()
        classes[d] = classes.get(d, 0) | bit
    return classes


def _degree_classes(masks: tuple[int, ...], alive: int) -> dict[int, int]:
    """Each degree in the set ``alive`` mapped to the bitmask of its vertices
    of that degree, every vertex counted: alive is then all core."""
    return _side_degrees(masks, {}, alive, alive)


# The local flow of ``_min_cut_capped`` grows its ball by _LOCAL_STEPS
# breadth-first steps a round, for at most _LOCAL_ROUNDS rounds, and runs no
# flow once the ball holds more than 1/_LOCAL_SHARE of the set, where the
# loop's own first flow walks about as much. Measured with Python 3.11 on a
# 2-CPU machine, extracting from the extremal graphs (2,2) at levels 10-12,
# (3,3) at 9-10, (4,4) at 8 and (6,6) at 8, as built and relabelled, and
# (2,4) at 8-9 and (2,3) at 9-10 as built: every local flow that settled its
# set did so in the first round for (2,2), in the second for (3,3), (4,4)
# and (6,6), and in either for (2,4) and (2,3) (56 and 4 sets at (2,4)
# level 8). With no bound on the rounds, extract took 0.046 s against
# 0.033 s at (2,4) level 9 and 0.118 s against 0.069 s at (2,3) level 10.
# On dense sets, such as the density threshold graphs, two steps reach
# more than a quarter of the set, so no local flow runs there.
_LOCAL_STEPS = 2
_LOCAL_ROUNDS = 2
_LOCAL_SHARE = 4


def _local_cut(masks: tuple[int, ...], alive: int, s: int, cap: int) -> Optional[tuple[int, int]]:
    """The local flow of ``_min_cut_capped``: (separator, source side) of
    the first cut of fewer than ``cap`` vertices between s and the sink
    alive - R, for a ball R around s that grows round by round within
    alive; None when no round finds one. A flow runs only while R holds at
    most a quarter of alive, so the sink is never empty. Once R stops
    growing it is s's component, and that round's flow returns the empty
    separator."""
    most = alive.bit_count() // _LOCAL_SHARE
    layer = masks[s] & alive
    ball = 1 << s
    for _ in range(_LOCAL_ROUNDS):
        for _ in range(_LOCAL_STEPS):
            ball |= layer
            layer = _near(masks, layer) & alive & ~ball
        if ball.bit_count() > most:
            return None
        _, sep, side = _st_vertex_cut(masks, s, alive & ~ball, cap, alive)
        if sep is not None:
            return sep, side
    return None


def _min_cut_capped(
    masks: tuple[int, ...], alive: int, degrees: dict[int, int], cap: int
) -> Optional[tuple[int, int]]:
    """The first vertex cut of fewer than ``cap`` vertices that the search
    meets on the non-empty set alive, as (separator, side), or None when
    the set has none; a complete set has none. side is the component of
    alive less the separator that holds the cut's source (see the module
    docstring).

    ``degrees`` are the degree classes of alive (``_degree_classes``),
    which are only read. They give the minimum degree and the
    lowest-numbered vertex s of that degree without a pass over the set;
    the set is complete exactly when the minimum degree is n - 1, which
    covers a single vertex (degree 0).

    Every step below uses one cap, c = ``cap``. A minimum degree below c
    gives the degree cut N(s) at once. At c = 2, ``_has_cut_of_at_most_one``
    is asked once first: without such a cut no flow can return less than
    2. Above 2, ``_local_cut`` tries the local flow first (see the module
    docstring). Every flow is capped at c, and the first flow that returns
    a separator ends the search.

    ``good`` holds, for the current source x of the pair loop, vertices z
    with kappa(x, z) >= cap: x's neighbours, every partner y already cut
    from x, and every vertex with at least ``cap`` good neighbours (the fan
    argument of the module docstring; x itself may join, which adds
    nothing). A partner that is good has no cut below the cap, so its flow
    is skipped. Before a flow runs, ``_fan_closure`` grows ``good`` to a
    fixed point from ``fresh``, the good vertices added since the last
    closure. ``good`` starts afresh with each source: a cut between x and
    z bounds nothing for another source.
    """
    least = min(degrees)
    if least == alive.bit_count() - 1:
        return None
    low = degrees[least]
    s = (low & -low).bit_length() - 1
    if least < cap:
        return masks[s] & alive, 1 << s
    if cap == 2 and not _has_cut_of_at_most_one(masks, alive):
        return None
    if cap > 2:
        local = _local_cut(masks, alive, s, cap)
        if local is not None:
            return local
    for x, partners in _dominating_pairs(masks, alive, s):
        good = fresh = masks[x] & alive
        while partners:
            bit = partners & -partners
            partners ^= bit
            if not good & bit and (masks[bit.bit_length() - 1] & good).bit_count() < cap:
                good = _fan_closure(masks, alive, good, fresh, cap)
                fresh = 0
                if not good & bit:
                    _, sep, side = _st_vertex_cut(masks, x, bit, cap, alive)
                    if sep is not None:
                        return sep, side
            fresh |= bit & ~good
            good |= bit
    return None


# --- public operations ---------------------------------------------------------

def min_vertex_cut(g: SimpleGraph) -> CutWitness:
    """Exact vertex connectivity with a minimum-separator witness.

    ``_min_cut_capped`` is asked for a cut of fewer than kappa vertices,
    with kappa from n - 1 down to the size of the last cut found, until an
    ask finds none. The first ask returns the degree cut at once unless the
    graph is complete. Each cut found is smaller than the last, so at most
    n asks run, and the last ask proves that no cut has fewer vertices than
    the last cut found, which is therefore a minimum one. A complete graph
    keeps kappa n - 1 and no separator; a disconnected one ends with the
    empty cut. All asks share one set of degree classes.
    """
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    masks, alive = g.adjacency_masks, (1 << g.n) - 1
    degrees = _degree_classes(masks, alive)
    kappa, sep = g.n - 1, None
    while kappa:
        cut = _min_cut_capped(masks, alive, degrees, kappa)
        if cut is None:
            break
        sep = cut[0]
        kappa = sep.bit_count()
    return CutWitness(kappa, None if sep is None else frozenset(_bits(sep)))


def is_k1_connected(g: SimpleGraph, k: int, alive: Optional[int] = None) -> bool:
    """Whether g on alive is (k+1)-connected: at least k+2 vertices and no
    separation with a k-vertex core (``find_separation`` finds none, after
    checking k and alive)."""
    return find_separation(g, k, alive) is None and _vertex_mask(g, alive).bit_count() >= k + 2


def find_separation(g: SimpleGraph, k: int, alive: Optional[int] = None) -> Optional[Separation]:
    """A separation of g on alive whose core has exactly k vertices, if one exists.

    Exists iff the set has at least k+2 vertices and kappa <= k. This checks
    k and alive, counts the set's degree classes, and takes the sides from
    ``_separate``, the step ``extract`` also runs.
    """
    _check_k(k)
    alive = _vertex_mask(g, alive)
    if alive.bit_count() < k + 2:
        return None
    masks = g.adjacency_masks
    sides = _separate(masks, alive, _degree_classes(masks, alive), k)
    return None if sides is None else Separation(*sides)


def _separate(masks: tuple[int, ...], alive: int, degrees: dict[int, int], k: int) -> Optional[tuple[int, int]]:
    """The sides (A, B), as bitmasks, of a separation with a k-vertex core of
    the set alive of at least k+2 vertices, whose degree classes are
    ``degrees``, or None when it has none. Nothing is checked.

    The first separator of at most k vertices that ``_min_cut_capped``
    meets, not necessarily a minimum one, is padded up to k vertices by
    repeatedly moving the lowest-indexed vertex of the larger private part
    into the core (ties go to side A). The move never empties a private
    part: it happens only while the core has fewer than k vertices, so the
    private parts of the k+2 or more vertices hold at least 3 between them
    and the larger holds at least 2. Side A grows from the component, after
    the separator is removed, that holds the cut's source, which
    ``_min_cut_capped`` returns with the cut: the flow that found the cut
    reached it already, so no search runs here.
    """
    cut = _min_cut_capped(masks, alive, degrees, k + 1)
    if cut is None:
        return None
    sep, comp = cut
    if comp | sep == alive:
        raise RuntimeError("separator does not disconnect the vertex set")
    side_a, side_b = comp | sep, alive & ~comp
    for _ in range(k - sep.bit_count()):
        priv_a, priv_b = side_a & ~side_b, side_b & ~side_a
        if priv_a.bit_count() >= priv_b.bit_count():
            side_b |= priv_a & -priv_a
        else:
            side_a |= priv_b & -priv_b
    return side_a, side_b
