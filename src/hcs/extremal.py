"""Inductive construction of dense graphs without large highly connected subgraphs.

Level 0 is a complete graph on (1+sigma)k vertices. Each level glues two
copies of the previous graph along a k-vertex set drawn from a spread-out
vertex pool, so the result stays dense while every (k+1)-connected
subgraph remains confined to a single complete leaf of the gluing tree.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Optional, TextIO

from .bounds import _alt1_constants
from .graphs import (
    VERTEX_CAP,
    SimpleGraph,
    _check_k,
    _is_int,
    _unchecked_graph,
    graph_from_json_dict,
)
from .extractor import SEPARABLE, extract, validate_decomposition

# verify_extremal also runs extract on instances up to this size: (2,2) levels 0-6
EXTRACTION_VERTEX_CAP = 256


@dataclass(frozen=True)
class ExtremalGraph:
    """A constructed instance with the metadata needed to re-verify it.

    ``parts`` is the current spread-out pool: 2^level disjoint vertex
    sets totalling 2k vertices, sizes within one of each other, with no
    edges between distinct sets. ``glue_history[j]`` is the k-vertex set
    along which the two level-j copies were identified. Copy-one labels
    persist through later gluings, so entry j separates the subgraph
    induced by the first k + 2^(j+1)*sigma_k vertices (the level-(j+1)
    snapshot); for the last entry that snapshot is the whole graph.
    """

    graph: SimpleGraph
    k: int
    sigma_k: int
    level: int
    parts: tuple[tuple[int, ...], ...]
    glue_history: tuple[tuple[int, ...], ...]

    @property
    def sigma(self) -> Fraction:
        return Fraction(self.sigma_k, self.k)

    @property
    def leaf_size(self) -> int:
        return self.k + self.sigma_k

    # the pool map of _validate_structure, made on first use: the loader and
    # verify_extremal share one validation, and a dataclasses.replace copy is
    # validated afresh
    @cached_property
    def _part_of(self) -> dict[int, int]:
        return _validate_structure(self)


def _split_parts(
    parts: tuple[tuple[int, ...], ...], k: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Split each part into two halves so both sides total exactly k.

    Even positions go to the first side, odd to the second; then one
    element is flipped back in half of the odd-sized parts to balance
    the totals. Sizes within each side stay within one of each other.
    """
    if sum(len(p) for p in parts) != 2 * k:
        raise ValueError(f"pool parts must total {2 * k} vertices")
    # a total of 2k makes the odd parts even in number and both sides total k
    odd = [i for i, p in enumerate(parts) if len(p) % 2 == 1]
    flips = set(odd[: len(odd) // 2])
    first: list[tuple[int, ...]] = []
    second: list[tuple[int, ...]] = []
    for i, p in enumerate(parts):
        y = list(p[0::2])
        z = list(p[1::2])
        if i in flips:
            z.append(y.pop())
        first.append(tuple(y))
        second.append(tuple(z))
    return first, second


def build_extremal(k: int, sigma_k: int, level: int) -> ExtremalGraph:
    """Build the level-``level`` instance for parameters k and sigma_k = sigma*k."""
    if not all(map(_is_int, (k, sigma_k, level))):
        raise ValueError("'k', 'sigma_k' and 'level' must be integers")
    _check_k(k)
    if sigma_k < k:
        raise ValueError("needs sigma_k >= k (sigma >= 1)")
    if level < 0:
        raise ValueError("level must be non-negative")
    if level >= VERTEX_CAP.bit_length():  # 2^level alone is above the cap
        raise ValueError(f"level {level} would need more than {VERTEX_CAP} vertices, the cap")
    final_n = k + (1 << level) * sigma_k
    if final_n > VERTEX_CAP:
        raise ValueError(
            f"level {level} would need {final_n} vertices, above the cap {VERTEX_CAP}"
        )
    n = k + sigma_k
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # the non-empty pool parts by index, ascending: at most 2k of the 2^level.
    # _split_parts gives an empty part two empty halves and no flip, so it
    # splits the others as it would among all the parts
    pool: dict[int, tuple[int, ...]] = {0: tuple(range(2 * k))}
    glue: list[tuple[int, ...]] = []
    for i in range(level):
        y_parts, z_parts = _split_parts(tuple(pool.values()), k)
        y = tuple(sorted(v for p in y_parts for v in p))
        y_set = set(y)
        # copy two keeps the glue labels and numbers the others on from n, in
        # order. y ascends, so the labels between its entries j - 1 and j form
        # a run, which takes the labels from n - j + the run's first label
        remap: list[int] = []
        for j, v in enumerate(y):
            remap += range(n - j + len(remap), n - j + v)
            remap.append(v)
        remap += range(n - k + len(remap), 2 * n - k)
        # an edge inside the gluing set is its own image
        images = [
            (a, b) if a < b else (b, a)
            for u, v in edges
            if v not in y_set or u not in y_set
            for a, b in ((remap[u], remap[v]),)
        ]
        e_y = len(edges) - len(images)
        # the gluing set must keep at most a 2^-i share of the complete edge count
        if 2 * e_y * (1 << i) > k * k - k:
            raise RuntimeError(f"gluing set {i} keeps more than a 2^-{i} share of its edges")
        # edges stays ascending. remap keeps the order of two labels unless a
        # private label lies below a glue label, and an image with a glue end
        # falls below the all-private images, so the images are ascending runs
        # broken only at edges with a glue end: the sort merges these with the
        # old list, itself one run, instead of sorting from scratch
        edges += images
        edges.sort()
        # part j keeps its copy-one half and part j + 2^i, above every j, takes
        # its copy-two image, so the keys stay ascending
        kept = [(j, z) for j, z in zip(pool, z_parts) if z]
        pool = dict(kept)
        pool.update((j + (1 << i), tuple(sorted([remap[v] for v in z]))) for j, z in kept)
        glue.append(y)
        n = 2 * n - k
    parts: list[tuple[int, ...]] = [()] * (1 << level)
    for j, p in pool.items():
        parts[j] = p
    # every edge is normalized and below n by construction
    graph = _unchecked_graph(n, tuple(edges))
    return ExtremalGraph(graph, k, sigma_k, level, tuple(parts), tuple(glue))


@dataclass(frozen=True)
class ExtremalReport:
    """Per-property verification outcome for a constructed instance."""

    vertex_count_ok: bool          # v - k = 2^level * sigma_k
    partition_ok: bool             # pool shape, balance, and no cross edges
    edge_bound_ok: bool
    edge_count: int
    edge_lower_bound: Fraction
    certificate_ok: bool           # gluing-tree certificate for the subgraph property
    extraction_ok: Optional[bool]  # extract's answer checked against its tree; None when too large

    @property
    def no_large_subgraph_ok(self) -> bool:
        if self.extraction_ok is not None:
            return self.extraction_ok
        return self.certificate_ok

    @property
    def edge_margin(self) -> Fraction:
        return Fraction(self.edge_count) - self.edge_lower_bound

    @property
    def passed(self) -> bool:
        return (
            self.vertex_count_ok
            and self.partition_ok
            and self.edge_bound_ok
            and self.no_large_subgraph_ok
        )


def _validate_structure(e: ExtremalGraph) -> dict[int, int]:
    """Refuse a malformed instance; returns the map from each pool vertex to
    its part's index."""
    n = e.graph.n
    if e.k < 1 or e.sigma_k < e.k or e.level < 0:
        raise ValueError("malformed parameters")
    if e.level >= n.bit_length():  # n = k + 2^level sigma_k needs 2^level < n
        raise ValueError(f"level {e.level} is above {n.bit_length() - 1}, the deepest for {n} vertices")
    if len(e.parts) != (1 << e.level):
        raise ValueError(f"expected {1 << e.level} pool parts, got {len(e.parts)}")
    part_of: dict[int, int] = {}
    for i, p in compress(enumerate(e.parts), e.parts):  # most parts are empty
        for v in p:
            if not (0 <= v < n):
                raise ValueError(f"pool vertex {v} out of range")
            if v in part_of:
                raise ValueError(f"pool vertex {v} repeated")
            part_of[v] = i
    if len(part_of) != 2 * e.k:
        raise ValueError(f"pool covers {len(part_of)} vertices, expected {2 * e.k}")
    if len(e.glue_history) != e.level:
        raise ValueError("one gluing set per level is required")
    for j, y in enumerate(e.glue_history):
        if len(y) != e.k or len(set(y)) != e.k:
            raise ValueError(f"gluing set {j} must be {e.k} distinct vertices")
        limit = e.k + (1 << j) * e.sigma_k
        if any(not (0 <= v < limit) for v in y):
            raise ValueError(f"gluing set {j} out of its level range")
    return part_of


def _check_partition(e: ExtremalGraph, part_of: dict[int, int]) -> bool:
    """Pool balance and no edge between parts; ``part_of`` is the map that
    ``_validate_structure`` returns."""
    # the non-empty parts' sizes, read from the map in O(2k) and not from
    # the 2^level parts; if some part is empty, the least size is 0
    sizes = Counter(part_of.values()).values()
    least = min(sizes) if len(sizes) == len(e.parts) else 0
    if max(sizes) - least > 1:
        return False
    # read the edges whose first end is in the pool, not the C(2k, 2) pool
    # pairs, which the file's metadata sets. In the ascending tuple a pool
    # vertex's edges to higher labels are one slice, found by bisection; a set
    # is never sorted, so C picks them out of it before any Python test runs
    edges = e.graph.held_edges
    if type(edges) is tuple:
        in_pool = chain.from_iterable(
            edges[bisect_left(edges, (u,)):bisect_left(edges, (u + 1,))] for u in part_of
        )
    else:
        in_pool = compress(edges, map(part_of.__contains__, map(itemgetter(0), edges)))
    return not any(w in part_of and part_of[u] != part_of[w] for u, w in in_pool)


def _edge_lower_bound(e: ExtremalGraph) -> Fraction:
    def choose2(x: int) -> int:
        return x * (x - 1) // 2
    i = e.level
    return (1 << i) * (
        Fraction(choose2(e.leaf_size))
        - Fraction(2, 3) * (1 - Fraction(1, 4**i)) * choose2(e.k)
    )


def _certificate_check(e: ExtremalGraph) -> bool:
    """Check every recorded separation of the gluing tree on the graph.

    At every internal node the image of the gluing set must be a k-core
    separation of the node's induced subgraph; leaves must have exactly
    (1+sigma)k vertices. A (k+1)-connected subgraph cannot be split by a
    k-vertex core, so passing this check confines any such subgraph to a
    leaf.

    A level-l node has v_l = k + 2^l sigma_k labels. Its first child keeps
    the labels below v_(l-1); its second keeps the gluing set y_l and
    numbers the other labels below v_(l-1) on from v_(l-1), in order. So a
    label of y_l has the same label in both children, any other label lives
    in one child, and a vertex's path down the tree is fixed by its label:
    bit l-1 of ``side`` says which child it takes at level l, bit l-1 of
    ``glue`` whether it lies in y_l. Each level adds v_(l-1) - k labels to
    a leaf's, so the labels cover the graph iff n = k + 2^level sigma_k.
    That is tested first, so the lists never grow past the graph's size,
    whatever the metadata claims.

    An edge joins the private sides of a level-l node only if bit l-1 of
    ``(side[u] ^ side[w]) & ~(glue[u] | glue[w])`` is set. Conversely, at
    the highest set bit l-1, every level above has an end in its gluing set
    (so in both children) or both ends in one child, so some level-l node
    holds both ends on its private sides. The check costs O(n + e).

    The walk visits the edges in the form the graph holds them
    (``held_edges``): in ascending order for a built instance and for a
    file ``construct`` wrote, which ``graph_from_json_dict`` keeps, and in
    the edge set's hash order for a file in any other order, which is not
    sorted here. Ascending pairs read ``side`` and ``glue`` nearly in order;
    hash order scatters the reads and took three to five times as long at
    (2,2) level 13, but sorting first costs more than it saves.
    """
    if e.graph.n != e.k + (e.sigma_k << e.level):
        return False
    side = [0] * e.leaf_size
    glue = [0] * e.leaf_size
    for j, y in enumerate(e.glue_history):
        bit, ends = 1 << j, sorted(y)
        # the first copy's private labels, in order, are the runs between the
        # glue labels, which copy two numbers on from len(side) as build_extremal does
        for lo, hi in zip([0] + [v + 1 for v in ends], ends + [len(side)]):
            side += [x | bit for x in side[lo:hi]]
            glue += glue[lo:hi]
        for x in y:
            glue[x] |= bit
    return not any((side[u] ^ side[w]) & ~(glue[u] | glue[w]) for u, w in e.graph.held_edges)


def _extraction_check(e: ExtremalGraph) -> bool:
    """Whether extract answers SEPARABLE with a tree that checks out on the graph.

    The size threshold floor((1+sigma)k) is the leaf size, so a FOUND set
    is a (k+1)-connected subgraph larger than any leaf: a failure.
    """
    result = extract(e.graph, e.k, e.sigma)
    if result.outcome != SEPARABLE:
        return False
    try:
        validate_decomposition(e.graph, e.k, e.sigma, result.tree)
    except ValueError:
        return False
    return True


def verify_extremal(e: ExtremalGraph) -> ExtremalReport:
    """Re-verify every claimed property of a constructed instance."""
    part_of = e._part_of  # validates the instance unless the loader did
    g = e.graph
    vertex_ok = g.n - e.k == (1 << e.level) * e.sigma_k
    partition_ok = _check_partition(e, part_of)
    bound = _edge_lower_bound(e)
    edge_ok = Fraction(g.edge_count) >= bound
    certificate_ok = _certificate_check(e)
    extraction: Optional[bool] = None
    if g.n <= EXTRACTION_VERTEX_CAP:
        extraction = _extraction_check(e)
    return ExtremalReport(
        vertex_count_ok=vertex_ok,
        partition_ok=partition_ok,
        edge_bound_ok=edge_ok,
        edge_count=g.edge_count,
        edge_lower_bound=bound,
        certificate_ok=certificate_ok,
        extraction_ok=extraction,
    )


def sharpness_rate(e: ExtremalGraph) -> tuple[Fraction, Fraction]:
    """The rate 2e/(v - k) against its guaranteed floor delta*k - 1 - 1/(3 sigma).

    Raises if the guarantee is violated, which would mean the
    construction lost edges somewhere. The floor times (v - k)/2 is
    ``_edge_lower_bound(e)`` less (2/3) 2^-level C(k, 2), so the rate can
    fall below its floor only when the edge count is below that bound.
    """
    lhs = Fraction(2 * e.graph.edge_count, e.graph.n - e.k)
    gamma, delta = _alt1_constants(e.sigma)
    rhs = delta * e.k - 1 - gamma
    if lhs < rhs:
        raise ArithmeticError(f"rate {lhs} fell below the guaranteed {rhs}")
    return lhs, rhs


# --- serialization --------------------------------------------------------------

def _write_extremal_json(e: ExtremalGraph, fh: TextIO) -> None:
    """Write the instance's JSON as construct does, on one line with no spaces
    and the edges ascending. The edge list is written as text joined from the
    ids, a block of edges at a time, where json would encode every id with a
    call of its own; json writes only the small metadata block."""
    meta = {
        "k": e.k,
        "sigma_k": e.sigma_k,
        "level": e.level,
        "parts": e.parts,
        "glue_history": e.glue_history,
    }
    edges = e.graph.sorted_edges
    names = list(map(str, range(e.graph.n)))  # each id's text, made once
    fh.write(f'{{"graph":{{"n":{e.graph.n},"edges":[')
    for i in range(0, len(edges), 4096):  # a block at a time keeps the text small
        if i:
            fh.write(",")
        fh.write(",".join([f"[{names[u]},{names[v]}]" for u, v in edges[i:i + 4096]]))
    fh.write(f']}},"metadata":{json.dumps(meta, separators=(",", ":"))}}}\n')


def extremal_from_json_dict(data: dict) -> ExtremalGraph:
    """Load an instance; every number must be a JSON integer, every set a list."""
    try:
        graph = graph_from_json_dict(data["graph"])
        meta = data["metadata"]
        k, sigma_k, level = meta["k"], meta["sigma_k"], meta["level"]
        parts, glue_history = meta["parts"], meta["glue_history"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed extremal graph JSON") from exc
    if not all(map(_is_int, (k, sigma_k, level))):
        raise ValueError("'k', 'sigma_k' and 'level' must be integers")
    for name, sets in (("parts", parts), ("glue_history", glue_history)):
        # one C-level pass over the sets, one over their members: at level 13
        # parts holds 8,192 lists, most of them empty
        if not (
            isinstance(sets, list)
            and all(map(isinstance, sets, repeat(list)))
            and all(map(_is_int, chain.from_iterable(sets)))
        ):
            raise ValueError(f"'{name}' must be a list of lists of integers")
    e = ExtremalGraph(
        graph=graph,
        k=k,
        sigma_k=sigma_k,
        level=level,
        parts=tuple(map(tuple, parts)),
        glue_history=tuple(map(tuple, glue_history)),
    )
    e._part_of  # refuses a malformed file here; verify_extremal reads the map kept
    return e
