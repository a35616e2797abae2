"""Vertex connectivity, minimum vertex separators, and separations.

The connectivity kernel runs max-flow on the vertex-split network (unit
capacity per vertex), augmented one unit path at a time by breadth-first
search, never by recursion. The network is never built: a search walks
the graph's adjacency bitmasks restricted to the vertex set, and the flow
is one dict naming, for each vertex that carries a unit, the neighbour
the unit comes from (see ``_st_vertex_cut``). Pairs are
restricted to the classic dominating strategy: one minimum-degree vertex
against all of its non-neighbors, then all non-adjacent pairs of its
neighbors.

Most of these flows are decided before they run (Menger's fan argument,
as in Esfahanian–Hakimi's dominating-set test). For the loop's current
source x, call a vertex z good when z is a neighbour of x, a pair (x, z)
came earlier in the loop, or z has at least best good neighbours; then
kappa(x, z) >= best for every good z other than x. Best only falls, so a
good vertex stays good: an earlier pair's flow either lowered best to its
own value, found no cut below best, or was skipped because its vertex was
good. A vertex y with at least best good neighbours has kappa(x, y) >= best:
  - a set X of fewer than best vertices misses some good neighbour z of y,
    so z is in y's component of W - X;
  - if z is a neighbour of x, the path x-z-y avoids X;
  - otherwise kappa(x, z) >= best > |X|, so x is in z's component too.
So X does not separate x from y, and the argument applies again to every
vertex that the new good vertices give enough good neighbours. Before a
flow would run, the good set is grown to this closure, and the flow of a
pair (x, y) is skipped when y is good. The closure keeps a worklist: only
the neighbours of vertices that became good since the last closure are
looked at again, and every neighbour of the good set once best falls. x
itself may join the good set, which adds nothing: its neighbours are good
already. A skipped pair could not have lowered the best cut, and the loop
replaces it only on a strict drop, so the pair order, the first minimum
cut and every output are those of the full loop.

Each flow starts from the paths s-w-t through the common neighbours w of
s and t, one unit each, which is the flow those augmenting paths would
leave; when there are at least ``limit`` of them the flow is not run.
Every maximum flow leaves the same residual-reachable set, so the
separator read from it is unchanged.

Once the best cut found is 2, only a 1-vertex cut could lower it, and a
connected set has one exactly when it has a cut vertex. So the first time
the best cut reaches 2, one depth-first search (Hopcroft–Tarjan low
points) decides whether any remaining flow can change the answer; when
the set has no cut vertex the pair loop stops there, and otherwise it
runs on unchanged. Either way the answer is the one the full loop gives.

Extraction asks the question again on each side of a separation, and the
parent's answer bounds the side's (the argument behind split components,
Hopcroft–Tarjan 1973). Let W have connectivity at least c and let U be a
side of a separation of W with core C. For S in U with |S| < c, every
component of U - S meets C - S: one that missed C would have all its
neighbours in U, so it would be a component of W - S as well, beside the
other side's private part, and W would have a cut smaller than c. Hence
kappa(U) >= c unless some non-adjacent pair x, y of C has
kappa_U(x, y) < c, and then kappa(U) is the least such value. The floor
min(c, the flows of the non-adjacent core pairs capped at c) is thus a
lower bound on kappa(U), exact when it is below c; it takes at most
C(k, 2) flows, and none for k = 1. A floor of at least 1 shows the set
connected, and the pair loop stops once its best cut reaches the floor,
so the cut-vertex search is needed only below a floor of 2. The loop
replaces its best cut only on a strict drop and no flow returns less
than the connectivity, so the separator it returns, and every output
built on it, is the one it returns without the floor.

Most of the sets extraction splits peel a small leaf off a large rest,
and the loop's first flow, from s to its lowest non-neighbour t0, walks
the whole set. So a local flow is tried first: R is a ball around s,
grown by breadth-first steps in W - {t0}, and the flow runs from s to the
sink (W - R) + {t0}, capped at floor + 1, where floor is the lower bound
on kappa(W) that the loop holds. Let (S, X) be its source-minimal cut, of
value v <= floor. Then X is the cut the loop returns:
  - t0 is in the sink, so v >= kappa(s, t0) >= kappa(W) >= floor >= v,
    and v = kappa(s, t0) < best;
  - so t0 is not good, the loop runs its first pair (s, t0), and it stops
    there, at a value of at most floor;
  - that flow's source-minimal side S_g is the intersection of the source
    sides of all minimum s-t0 cuts, and X is one, so S_g is in S;
  - S_g + N(S_g) lies in S + X, which misses the sink, so S_g is the
    source side of a minimum cut between s and the sink, and S is in S_g.
So S = S_g and X = N(S). The searches of the local flow walk S and R
only.

Side A of a separation is the component of W - X that holds the cut's
source: s for the degree cut N(s) and for the local flow, x for the flow
of a pair (x, y), and the lowest vertex of a disconnected set. The last
search of a flow reaches exactly that component (see
``_st_vertex_cut``), so finding it costs no search of its own, and on
the extremal graphs it is the peeled leaf.

The same split fixes the side's degrees. No edge joins the two private
parts of a separation, so a private vertex of U keeps every neighbour it
had in W, and only the k core vertices change degree. The degree classes
of a set (each degree mapped to the bitmask of its vertices) are counted
in one pass at the root and then carried down: a side's classes are its
parent's restricted to the side's private part, plus the k core vertices
counted again. The minimum degree and its lowest-numbered vertex are
read from the classes, with no pass over the set, and the set is complete
exactly when its minimum degree is n - 1.

The kernel works on one graph and a vertex set given as a bitmask over
it (``alive``, all of the graph by default). Separators are bitmasks in
the graph's own vertex ids, made into a frozenset only for the
``CutWitness`` that ``min_vertex_cut`` returns, and a separation holds
its sides as bitmasks, with frozensets built only on access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress
from typing import Iterator, Optional, Sequence, TypeVar

from .graphs import SimpleGraph

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

    ``kappa`` is a lower bound on the connectivity of the separated set:
    its exact connectivity when ``find_separation`` made the separation,
    and 0, which claims nothing, by default. ``degrees`` maps each degree
    in the separated set to the bitmask of its vertices of that degree,
    or is None when unknown or forgotten (``forget_degrees``). Neither is
    part of equality.
    """

    mask_a: int
    mask_b: int
    kappa: int = field(default=0, compare=False)
    degrees: Optional[dict[int, int]] = field(default=None, compare=False, repr=False)

    def forget_degrees(self) -> None:
        """Drop ``degrees``, which only the searches of the sides read.

        A tree of n nodes would otherwise keep n sets of degree classes; the
        field is set in place, so no separation is copied."""
        object.__setattr__(self, "degrees", None)

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
        masks = g.adjacency_masks
        while priv_a:
            v = (priv_a & -priv_a).bit_length() - 1
            priv_a &= priv_a - 1
            if masks[v] & priv_b:
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


def _component(masks: tuple[int, ...], alive: int, start: int) -> int:
    """The component of the ``alive`` bitmask that holds the vertex bit ``start``."""
    comp = frontier = start
    while frontier:
        frontier = _near(masks, frontier) & alive & ~comp
        comp |= frontier
    return comp


def _is_connected(masks: tuple[int, ...], alive: int) -> bool:
    return _component(masks, alive, alive & -alive) == alive


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


def _members(mask: int, items: Sequence[T]) -> list[T]:
    """``items[v]`` for each vertex id v in a bitmask, in ascending order of v.

    Each step of the bit-by-bit loop costs time in proportion to the
    mask's length, so a mask of many vertices is read instead from its
    binary digits, in one pass that runs in C.
    """
    if mask.bit_count() > 128:
        flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)  # flags[v] is 1 iff v is in mask
        return list(compress(items, flags))
    out = []
    while mask:
        out.append(items[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return out


def _bits(mask: int) -> list[int]:
    """The vertex ids in a bitmask, ascending."""
    return _members(mask, range(mask.bit_length()))


def _vertex_mask(g: SimpleGraph, alive: Optional[int]) -> int:
    """``alive``, or all of g when it is None; it must name only vertices of g."""
    if alive is None:
        return (1 << g.n) - 1
    if alive < 0 or alive >> g.n:
        raise ValueError("vertex mask names vertices outside the graph")
    return alive


# --- unit augmenting paths on the implicit vertex-split network ---------------

def _st_vertex_cut(
    masks: tuple[int, ...], s: int, sink: int, limit: int, alive: int, seed: int
) -> tuple[int, Optional[int], int]:
    """Minimum vertex cut in the set ``alive`` between s and the bitmask
    ``sink``, capped at ``limit``; s has no neighbour in the sink.

    Returns (limit, None, 0) when the cut is at least ``limit``; otherwise
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

    ``seed`` names neighbours w of s that are each adjacent to the sink;
    the flow starts with one unit on each path s-w-sink, as a search along
    it would leave it (the pair loop passes the common neighbours of s and
    t for the sink ``1 << t``). Every maximum flow has the same residual
    reachable set, so neither the separator nor the side depends on where
    the flow started.
    """
    if seed.bit_count() >= limit:
        return limit, None, 0
    into = dict.fromkeys(_bits(seed), s)  # the flow of the paths s-w-sink
    for value in range(len(into), limit):
        reach_in, reach_out = 0, 1 << s
        came: dict[int, int] = {}  # in(w) was reached from out(came[w])
        went: dict[int, int] = {}  # out(x) was reached from in(went[x])
        queue = [s]
        for v in queue:  # the list grows while it is walked: a FIFO queue
            new = masks[v] & alive & ~reach_in
            if new & sink:
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
            sep = reach_in & ~reach_out
            if sep.bit_count() != value:
                raise RuntimeError("residual cut does not match the flow value")
            return value, sep, reach_out
        u = v  # out(v) reached the sink; walk the path back, moving each unit it crosses
        while u != s:
            w = went[u]
            u = came[w]
            if u == w:
                del into[w]  # the path sent w's unit back: w is free again
            else:
                into[w] = u
    return limit, None, 0


def _dominating_pairs(masks: tuple[int, ...], alive: int, s: int) -> Iterator[tuple[int, int]]:
    """Pairs to cut: s, of minimum degree, against each non-neighbor, then
    each non-adjacent pair of its neighbors."""
    nbrs = masks[s] & alive
    rest = alive & ~nbrs & ~(1 << s)
    while rest:  # one bit at a time: most calls stop after the first flow
        yield s, (rest & -rest).bit_length() - 1
        rest &= rest - 1
    for x, y in combinations(_bits(nbrs), 2):
        if not masks[x] >> y & 1:
            yield x, y


def _fan_closure(masks: tuple[int, ...], alive: int, good: int, fresh: int, best: int) -> int:
    """``good`` grown to a fixed point by adding every vertex of ``alive``
    with at least ``best`` neighbours in it.

    ``fresh`` names the good vertices whose neighbours have not been looked
    at since they became good (or since ``best`` last fell); no other
    vertex can have gained a good neighbour, so only theirs are rechecked.
    """
    while fresh:
        near = _near(masks, fresh) & alive & ~good
        fresh = 0
        while near:
            bit = near & -near
            near ^= bit
            if (masks[bit.bit_length() - 1] & good).bit_count() >= best:
                good |= bit
                fresh |= bit
    return good


def _inherited_floor(masks: tuple[int, ...], alive: int, c: int, core: int) -> int:
    """min(c, the x-y cut in ``alive`` of each non-adjacent pair of the
    ``core`` bitmask), each flow capped at the least value so far; 0 stops
    the search."""
    floor = c
    for x, y in combinations(_bits(core), 2):
        if floor == 0:
            break
        if not masks[x] >> y & 1:
            floor = _st_vertex_cut(masks, x, 1 << y, floor, alive, masks[x] & masks[y] & alive)[0]
    return floor


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
# (3,3) at 9-10, (4,4) at 8 and (6,6) at 8, as built and relabelled: every
# local flow that settled its set did so in the first round for k = 2 and in
# the second for k = 3, 4 and 6. Rounds 3 and 4 settled none and ran most
# of the flows that missed: at (2,4) level 8 as built, where no local flow
# settles, the misses took 6.4 ms of 58 ms with four rounds and 4.3 ms of
# 57 ms with two. On dense sets, such as the density threshold graphs, two
# steps reach more than a quarter of the set, so no local flow runs there.
_LOCAL_STEPS = 2
_LOCAL_ROUNDS = 2
_LOCAL_SHARE = 4


def _local_cut(masks: tuple[int, ...], alive: int, s: int, limit: int) -> Optional[tuple[int, int, int]]:
    """The local flow of ``_min_cut_capped``: (value, separator, source
    side) of the first flow below ``limit`` from s to the sink alive - R,
    for a ball R around s that grows round by round and never holds t, the
    lowest non-neighbour of s; None when no round finds one."""
    rest = alive & ~masks[s] & ~(1 << s)
    t = (rest & -rest).bit_length() - 1
    most = alive.bit_count() // _LOCAL_SHARE
    avail = alive & ~(1 << t)
    seed = masks[s] & masks[t] & alive  # a neighbour of s has every neighbour but t in the ball
    layer = masks[s] & alive
    ball = 1 << s
    for _ in range(_LOCAL_ROUNDS):
        for _ in range(_LOCAL_STEPS):
            ball |= layer
            layer = _near(masks, layer) & avail & ~ball
        if ball.bit_count() > most:
            return None
        value, sep, side = _st_vertex_cut(masks, s, alive & ~ball, limit, alive, seed)
        if value < limit:
            return value, sep, side
        if not layer:
            return None
    return None


def _min_cut_capped(
    g: SimpleGraph,
    cap: int,
    alive: Optional[int] = None,
    inherited: Optional[tuple[int, int]] = None,
    degrees: Optional[dict[int, int]] = None,
) -> tuple[int, Optional[int], int]:
    """Minimum vertex cut of g on alive, with work capped: (kappa, separator, side).

    kappa is min(true kappa, cap) and the separator a bitmask of kappa
    vertices, or None when g on alive is complete or kappa equals cap (the
    true connectivity may then be larger). side is the component of alive
    less the separator that holds the cut's source (see the module
    docstring), or 0 when the separator is None; every return sets it.

    ``degrees`` are the degree classes of alive (``_degree_classes``),
    counted here when None. They give the minimum degree and the
    lowest-numbered vertex s of that degree without a pass over the set;
    the set is complete exactly when the minimum degree is n - 1, which
    covers a single vertex (degree 0).

    The best cut starts at the minimum degree (or cap) and drops only when
    a flow returns less, so the loop may stop as soon as the best cut
    reaches a lower bound on the connectivity: the answer is then the one
    the full loop gives. The bound is 1 for a connected set, and more when
    ``inherited`` is (c, C): alive is then one side of a separation with
    the core bitmask C of a set whose connectivity is at least c, and the
    bound is ``_inherited_floor`` (see the module docstring); a bound of 1
    or more also makes the connectivity check needless. While the bound is
    below 2, the first time the best cut is 2, whether from the degree or
    from a flow, ``_has_cut_vertex`` is asked once: without a cut vertex
    no flow can return 1.

    Before the pair loop, ``_local_cut`` tries the local flow, capped at
    the bound plus 1; a flow below that cap gives the loop's answer (see
    the module docstring). At a bound of 1 it could succeed only at a cut
    vertex, so there it is tried only once ``_has_cut_vertex`` has found
    one (best is then 2); a bound of 1 and no cut vertex is the root of
    every extraction from a 2-connected graph.

    ``good`` holds, for the current source x of the pair loop, vertices z
    with kappa(x, z) >= best: x's neighbours, every y already paired with
    x, and every vertex with at least ``best`` good neighbours (see the
    module docstring; x itself may join, which adds nothing). A pair whose y is good cannot lower the best cut,
    so its flow is skipped. Before a flow runs, ``_fan_closure`` grows
    ``good`` to a fixed point from ``fresh``, the good vertices added since
    the last closure; when ``best`` falls every good vertex is fresh again.
    ``good`` starts afresh with each source: a cut between x and z bounds
    nothing for another source.
    """
    alive = _vertex_mask(g, alive)
    n = alive.bit_count()
    if n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    masks = g.adjacency_masks
    if degrees is None:
        degrees = _degree_classes(masks, alive)
    best = min(degrees)
    if best == n - 1:
        return min(best, cap), None, 0
    floor = 0 if inherited is None else _inherited_floor(masks, alive, *inherited)
    if floor == 0:
        comp = _component(masks, alive, alive & -alive)
        if comp != alive:
            return 0, 0, comp
        floor = 1
    low = degrees[best]
    s = (low & -low).bit_length() - 1
    if best >= cap:
        best, best_sep, best_side = cap, None, 0
    else:
        best_sep, best_side = masks[s] & alive, 1 << s
    if best <= floor or best == 2 and not _has_cut_vertex(masks, alive):
        return best, best_sep, best_side
    if floor >= 2 or best == 2:
        local = _local_cut(masks, alive, s, floor + 1)
        if local is not None:
            return local
    source = -1
    for x, y in _dominating_pairs(masks, alive, s):
        if x != source:
            source, good = x, masks[x] & alive
            fresh = good
        bit = 1 << y
        if not good & bit and (masks[y] & good).bit_count() < best:
            good = _fan_closure(masks, alive, good, fresh, best)
            fresh = 0
            if not good & bit:
                value, sep, side = _st_vertex_cut(masks, x, bit, best, alive, masks[x] & masks[y] & alive)
                if value < best:
                    best, best_sep, best_side = value, sep, side
                    if best <= floor or best == 2 and not _has_cut_vertex(masks, alive):
                        break
                    fresh = good
        fresh |= bit & ~good
        good |= bit
    return best, best_sep, best_side


# --- public operations ---------------------------------------------------------

def min_vertex_cut(g: SimpleGraph) -> CutWitness:
    """Exact vertex connectivity with a minimum-separator witness."""
    kappa, sep, _ = _min_cut_capped(g, g.n)
    return CutWitness(kappa, None if sep is None else frozenset(_bits(sep)))


def is_k1_connected(g: SimpleGraph, k: int, alive: Optional[int] = None) -> bool:
    """Whether g on alive is (k+1)-connected: at least k+2 vertices and no
    separation with a k-vertex core (``find_separation`` finds none)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    alive = _vertex_mask(g, alive)
    return alive.bit_count() >= k + 2 and find_separation(g, k, alive) is None


def find_separation(
    g: SimpleGraph, k: int, alive: Optional[int] = None, *, parent: Optional[Separation] = None
) -> Optional[Separation]:
    """A separation of g on alive whose core has exactly k vertices, if one exists.

    Exists iff the set has at least k+2 vertices and kappa <= k. A minimum
    separator is padded up to k vertices by repeatedly moving the
    lowest-indexed vertex of the larger private part into the core (ties
    go to side A). The move never empties a private part: it happens only
    while the core has fewer than k vertices, so the private parts of the
    k+2 or more vertices hold at least 3 between them and the larger holds
    at least 2. Side A grows from the component, after the separator is
    removed, that holds the cut's source, which ``_min_cut_capped``
    returns with the cut: the flow that found the cut reached it already,
    so no search runs here. The separation's ``kappa`` is the set's
    exact connectivity, which is below the cap k+1, and its ``degrees``
    are the set's degree classes.

    ``parent``, when given, must be a separation of which alive is one
    side (ValueError otherwise). With c its ``kappa`` and C its core, alive
    is then at least c-connected unless a non-adjacent pair of C is split
    in alive by fewer than c vertices, and the least such split is its
    connectivity (see the module docstring). The minimum cut stops once it
    reaches that bound, and as it only ever keeps the first cut of the
    least size, the separation is the same as without ``parent``. The
    parent's ``degrees``, when known, give alive's degree classes by
    recounting only the core (``_side_degrees``).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    alive = _vertex_mask(g, alive)
    if parent is not None and alive != parent.mask_a and alive != parent.mask_b:
        raise ValueError("alive is not a side of the parent separation")
    if alive.bit_count() < k + 2:
        return None
    masks = g.adjacency_masks
    inherited = degrees = None
    if parent is not None:
        inherited = (parent.kappa, parent.mask_a & parent.mask_b)
        if parent.degrees is not None:
            degrees = _side_degrees(masks, parent.degrees, inherited[1], alive)
    if degrees is None:
        degrees = _degree_classes(masks, alive)
    kappa, core, comp = _min_cut_capped(g, k + 1, alive, inherited, degrees)
    if kappa > k:
        return None
    if comp | core == alive:
        raise RuntimeError("minimum separator does not disconnect the vertex set")
    side_a, side_b = comp | core, alive & ~comp
    for _ in range(k - kappa):
        priv_a, priv_b = side_a & ~side_b, side_b & ~side_a
        if priv_a.bit_count() >= priv_b.bit_count():
            side_b |= priv_a & -priv_a
        else:
            side_a |= priv_b & -priv_b
    return Separation(side_a, side_b, kappa, degrees)
