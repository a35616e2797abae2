"""Simple undirected graphs with exact rational counting.

Every vertex count and edge count in this package is tracked exactly
(arbitrary-precision integers and fractions), because the density
thresholds the algorithms compare against must never be blurred by
floating point.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import lt
from typing import Collection, Iterable

Edge = tuple[int, int]

# the largest vertex count that build_extremal builds and graph_from_json_dict loads
VERTEX_CAP = 100_000


class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1, immutable and safe to share
    between tasks.

    Its edges are pairs (u, v) with u < v, held in one of two forms: the
    frozenset ``edges`` or the ascending tuple ``sorted_edges``. The graph
    is built with one of them and derives the other only on first use, so a
    caller that reads only one form never pays for the other.
    ``held_edges`` reads whichever form the graph holds.

    ``SimpleGraph(n, edges)`` takes the pairs so ordered and refuses a pair
    (v, u); ``from_edges`` turns it around. Both apply the edge rule that
    ``graph_from_json_dict`` applies, and hold a repeated edge once.
    """

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        entries = list(edges)  # read once, so any iterable will do
        edge_set = SimpleGraph.from_edges(n, entries).edges
        # from_edges turns a pair (v, u) around; given here, it is refused
        swapped = next((e for e in entries if e[0] > e[1]), None)
        if swapped is not None:
            raise ValueError(f"edge {tuple(swapped)} out of range or not normalized")
        object.__setattr__(self, "n", n)
        vars(self)["edges"] = edge_set

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n!r}, edges={self.edges!r})"

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """The graph with these edges, each pair in either order."""
        _check_count(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        return _unchecked_graph(n, frozenset(_checked_edges(n, edges)))

    @staticmethod
    def empty(n: int) -> "SimpleGraph":
        return SimpleGraph(n, frozenset())

    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        _check_count(n)
        return SimpleGraph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))

    @staticmethod
    def cycle(n: int) -> "SimpleGraph":
        _check_count(n)
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> "SimpleGraph":
        _check_count(n)
        return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edges as a set, built on first use from ``sorted_edges``."""
        return frozenset(vars(self)["sorted_edges"])

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edges in ascending order, as the writers emit them: sorted on
        first use from ``edges``, unless the graph was built with them in order."""
        return tuple(sorted(vars(self)["edges"]))

    @property
    def held_edges(self) -> Collection[Edge]:
        """The edges in a form the graph already holds, for walks whose result
        does not depend on the order: the ascending tuple when there is one,
        which reads vertex data nearly in order, else the set in hash order."""
        held = vars(self)
        return held["sorted_edges"] if "sorted_edges" in held else held["edges"]

    @property
    def edge_count(self) -> int:
        return len(self.held_edges)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbourhood of each vertex as a bitmask over vertex ids."""
        masks = [0] * self.n
        for u, v in self.held_edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)


def average_degree(g: SimpleGraph) -> Fraction:
    """Exact average degree 2e/v."""
    if g.n == 0:
        raise ValueError("average degree of the empty vertex set is undefined")
    return Fraction(2 * g.edge_count, g.n)


@dataclass(frozen=True)
class AnticliqueProfile:
    """Normalized sizes of pairwise disjoint edgeless induced parts."""

    sizes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for s in self.sizes:
            if s < 0:
                raise ValueError("anticlique sizes must be non-negative")

    @staticmethod
    def of(*sizes) -> "AnticliqueProfile":
        return AnticliqueProfile(tuple(Fraction(s) for s in sizes))

    @property
    def square_sum(self) -> Fraction:
        return sum((s * s for s in self.sizes), Fraction(0))


EMPTY_PROFILE = AnticliqueProfile(())


# --- serialization -----------------------------------------------------------

def graph_from_json_dict(data: dict) -> SimpleGraph:
    try:
        n = data["n"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError("graph JSON must contain 'n' and 'edges'") from exc
    if not _is_int(n):
        raise ValueError("'n' must be an integer")
    if not isinstance(edges, list):
        raise ValueError("'edges' must be a list")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > VERTEX_CAP:
        raise ValueError(f"graph has {n} vertices, above the cap {VERTEX_CAP}")
    pairs = _checked_edges(n, edges)
    # construct writes the edges strictly ascending: kept as the graph's only
    # form, that order spares sorted_edges its sort and the graph its edge set,
    # and a strictly ascending list repeats no edge
    if all(map(lt, pairs, islice(pairs, 1, None))):
        return _unchecked_graph(n, tuple(pairs))
    return _unchecked_graph(n, frozenset(pairs))


def _checked_edges(n: int, edges: Iterable) -> list[Edge]:
    """The edge rule of every graph: each entry a list or tuple of two ints in
    0..n-1 that differ, normalized to (u, v) with u < v. One pass checks,
    normalizes and range-checks each edge, in the order given."""
    pairs: list[Edge] = []
    for e in edges:
        if type(e) not in (list, tuple) or len(e) != 2:
            raise ValueError(f"malformed edge entry: {e!r}")
        u, v = e
        # type(u) is int refuses bool and every other int subclass; an _is_int
        # call per endpoint made loading (2,2) level 13 about half again as
        # slow (16 ms against 11 ms, min of 40, Python 3.11 on 2 CPUs)
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"malformed edge entry: {e!r}")
        if u > v:
            u, v = v, u
        elif u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        if u < 0 or v >= n:
            raise ValueError(f"edge ({u}, {v}) out of range or not normalized")
        pairs.append((u, v))
    return pairs


def _unchecked_graph(n: int, edges: frozenset[Edge] | tuple[Edge, ...]) -> SimpleGraph:
    """A graph built without the edge rule, for callers that made its edges
    valid. It holds them in the form given: a frozenset as ``edges``, or
    a strictly ascending tuple as ``sorted_edges``."""
    g = object.__new__(SimpleGraph)
    object.__setattr__(g, "n", n)
    vars(g)["sorted_edges" if type(edges) is tuple else "edges"] = edges
    return g


def _is_int(value) -> bool:
    """An int and not a bool, which JSON ``true`` and ``false`` load as."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_count(n) -> None:
    """Refuse a vertex count that is not an int, before range(n) sees it."""
    if not _is_int(n):
        raise ValueError("vertex count must be an integer")


def _check_k(k) -> None:
    """Refuse a k that is not a positive int."""
    if not _is_int(k) or k < 1:
        raise ValueError("k must be a positive integer")


def graph_to_dot(g: SimpleGraph) -> str:
    names = list(map(str, range(g.n)))  # each id's text, made once
    lines = ["graph G {", *[f"  {v};" for v in names]]
    lines += [f"  {names[u]} -- {names[v]};" for u, v in g.sorted_edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
