"""Extraction of large highly connected subgraphs via separations.

The extractor repeatedly splits vertex sets of one graph, held as
bitmasks, along separations with a k-vertex core. A (k+1)-connected
subgraph can never be split by such a core, so it survives inside one
side; if the splitting bottoms out without finding one, the resulting
decomposition tree certifies that no induced subgraph on more than
(1+sigma)k vertices is (k+1)-connected.

Trees of unbalanced separations, such as those of long paths and of the
extremal graphs, are about as deep as the graph has vertices. So the
search, the tree check and the JSON writer walk the tree on explicit
stacks, never by recursion, and vertex sets become frozensets or sorted
lists only at the public API and in JSON. The nested JSON of such a tree
holds about n^2 ids, so the writer cuts a large side's list out of its
parent's list text by deleting the few ids the side lacks: its Python work
follows the peeled parts, not the output's size. It hands the file the
text in blocks of a few nodes each, not piece by piece, and never holds
the whole document.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, TextIO, Union

from .connectivity import Separation, _bits, _members, _separate, _side_degrees
from .field import Surd, _exact
from .graphs import SimpleGraph, _check_k

FOUND = "FOUND"
SEPARABLE = "SEPARABLE"

SEPARATED = "SEPARATED"
LEAF_SMALL = "LEAF_SMALL"

SigmaLike = Union[int, float, Fraction, Surd]


def size_threshold(k: int, sigma: SigmaLike) -> int:
    """floor((1 + sigma) k): subgraphs must have more vertices than this.

    A float sigma is read as the decimal it prints as, so 0.3 is 3/10.
    """
    _check_k(k)
    s = _exact(sigma)
    if s <= 0:
        raise ValueError("sigma must be positive")
    return _size_floor(k, s)


# keyed on the exact sigma, never the argument: 0.3 == Fraction(0.3) and both hash
# alike, but 0.3 reads as 3/10, which gives 13 at k = 10, and Fraction(0.3) gives 12
@functools.cache
def _size_floor(k: int, s: Fraction | Surd) -> int:
    return math.floor((1 + s) * k)


@dataclass(frozen=True, eq=False)
class DecompositionNode:
    """One node of the decomposition tree over original vertex ids.

    A node is its vertex set, held as the bitmask ``mask``, and its
    children: none for a LEAF_SMALL node, and for a SEPARATED node the two
    sides of the separation that splits it, side A first. ``vertices``,
    ``kind`` and ``separation`` are read from these on access. A tree can
    be as deep as the graph has vertices, so nodes compare and hash by
    identity and the repr counts the children instead of showing them.
    """

    mask: int
    children: tuple["DecompositionNode", ...] = ()

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))

    @property
    def kind(self) -> str:
        return SEPARATED if self.children else LEAF_SMALL

    @property
    def separation(self) -> Optional[Separation]:
        """The separation whose sides are the two children's sets, side A
        first, or None for a leaf."""
        if not self.children:
            return None
        left, right = self.children
        return Separation(left.mask, right.mask)

    def __repr__(self) -> str:
        return f"DecompositionNode(kind={self.kind!r}, vertices={self.mask.bit_count()}, children={len(self.children)})"


@dataclass(frozen=True)
class ExtractionResult:
    outcome: str  # FOUND | SEPARABLE
    subgraph: Optional[frozenset[int]]
    tree: Optional[DecompositionNode]


def extract(g: SimpleGraph, k: int, sigma: SigmaLike) -> ExtractionResult:
    """Find a (k+1)-connected induced subgraph on more than (1+sigma)k vertices.

    Returns FOUND with the vertex set, or SEPARABLE with a decomposition
    tree whose separations certify that no such subgraph exists. Both
    sides of every separation are explored, side A first, and the search
    ends at the first FOUND. No set is explored twice: every side has more
    than k vertices, and two subtrees of one node meet only in its k-vertex
    core, so there is nothing to memoize. The walk keeps its
    path on an explicit stack, so the depth of the tree is not bounded by
    the interpreter's recursion limit.

    The search visits at most max(1, 2(n - k) - 1) vertex sets: a split of
    W into sides A and B with a k-vertex core has |A| - k + |B| - k =
    |W| - k, and both terms are at least 1, so a tree over n > k vertices
    has at most n - k leaves.

    A FOUND set is certified once, by the search itself: the separation
    step ``_separate``, which ``find_separation`` also runs, returns None on
    a set of more than k+1 vertices only when it has no vertex cut of at
    most k vertices, so the set is (k+1)-connected; that is also the test
    ``is_k1_connected`` makes.

    k and sigma are checked once, by ``size_threshold``; the step checks
    nothing. The degree classes of the root are counted once, and each
    side's are its parent's with only the core recounted
    (``_side_degrees``); the answers do not depend on them.
    """
    # sets of at most k+1 vertices cannot host a (k+1)-connected subgraph either
    small_cap = max(size_threshold(k, sigma), k + 1)
    masks = g.adjacency_masks
    # each open SEPARATED node: its vertex set, its side B while side A is
    # searched (then 0), its degree classes and the children finished so far
    path: list[tuple[int, int, dict[int, int], list[DecompositionNode]]] = []
    # the set to search, with its parent's degree classes and the parent's
    # core; the root counts every vertex as core
    w = core = (1 << g.n) - 1
    classes: dict[int, int] = {}
    while True:
        if w.bit_count() > small_cap:
            degrees = _side_degrees(masks, classes, core, w)
            sides = _separate(masks, w, degrees, k)
            if sides is None:
                return ExtractionResult(FOUND, frozenset(_bits(w)), None)
            path.append((w, sides[1], degrees, []))
            w, classes, core = sides[0], degrees, sides[0] & sides[1]
            continue
        node = DecompositionNode(w)
        while path:  # hand the finished node to the open nodes above it
            mask, side_b, classes, children = path[-1]
            children.append(node)
            if side_b:  # side A is done; side B's search is the last to read the classes
                path[-1] = (mask, 0, {}, children)
                w, core = side_b, node.mask & side_b
                break
            path.pop()
            node = DecompositionNode(mask, tuple(children))
        else:
            return ExtractionResult(SEPARABLE, None, node)


def validate_decomposition(
    g: SimpleGraph, k: int, sigma: SigmaLike, node: DecompositionNode
) -> None:
    """Raise ValueError unless the tree is internally consistent for g.

    The root must hold every vertex of g and each leaf at most
    max(floor((1+sigma)k), k+1) vertices. Each other node must have two
    children whose sets form a separation of its set, which
    ``Separation.validate`` checks; neither side is then the whole set, so
    every child is strictly smaller than its parent.
    """
    if node.mask != (1 << g.n) - 1:
        raise ValueError("the root does not hold every vertex of the graph")
    small_cap = max(size_threshold(k, sigma), k + 1)
    stack = [node]
    while stack:
        node = stack.pop()
        if not node.children:
            if node.mask.bit_count() > small_cap:
                raise ValueError("LEAF_SMALL node too large")
            continue
        if len(node.children) != 2:
            raise ValueError("SEPARATED node needs two children")
        node.separation.validate(g, k, node.mask)
        stack += node.children


# --- serialization ----------------------------------------------------------------

def _json_list(mask: int, names: list[str]) -> str:
    """The JSON list of the vertex ids in mask; ``names[v]`` is ``str(v)``."""
    return "[" + ",".join(_members(mask, names)) + "]"


# A side's list is cut out of its parent's list text when the ids it lacks
# number at most 1/_DELETE_RATIO of the ids it keeps; otherwise it is encoded.
# A deleted id costs about 1.4 us (the search, and listing the ids from a
# mask as wide as the graph), an encoded id about 40 ns. Measured with
# Python 3.11 on a 2-CPU machine, with every id of the graph in the parent
# list and the deleted ids drawn at random, the median of five draws:
# deleting 4 of 300 ids took 6 us against 13 us for encoding the rest, 31
# of 2,000 took 43 us against 70 us, 312 of 20,000 took 0.70 ms against
# 0.79 ms, and 62 of 2,000 took 75 us against 70 us. The ratio chooses only
# how a list's text is built, never its bytes.
_DELETE_RATIO = 64


def _without(text: str, names: list[str]) -> str:
    """The JSON id list ``text`` less the ids ``names``, which it holds in the same order.

    Ids are ascending and have no leading zeros, so an id is a prefix only of
    larger ids: the first match of "," + id after the previous cut is the id
    itself, unless it is the first id left, which starts the text there.
    Each search runs in C from the previous cut on, and only the kept text
    is copied.
    """
    pieces, start = ["["], 1  # text[start:] is not copied yet
    for name in names:
        if text.startswith(name, start):  # the first id left: drop it and the comma after it
            start += len(name) + 1
        else:
            cut = text.index("," + name, start)
            pieces.append(text[start:cut])
            start = cut + 1 + len(name)
    pieces.append(text[start:])
    return "".join(pieces)


# write_result_json hands the file one joined string once it holds more
# than this many pieces: about four tree nodes' worth
_BLOCK = 64


def write_result_json(result: ExtractionResult, fh: TextIO) -> None:
    """Write result to fh as compact JSON: ``{"outcome":"FOUND","subgraph":[...]}``
    with the vertex ids ascending, or ``{"outcome":"SEPARABLE","tree":...}``.

    A FOUND answer is written in one call. A tree is written in blocks: the
    pieces of its text are gathered in a list, and the list is joined and
    written whenever it passes 64 pieces, so the text held at any time is a
    few nodes' worth, never the whole document. A node's vertex list is
    built once: a child's ``vertices`` is its side of its parent's
    separation.

    When side A is a leaf, it is written in place and the walk goes on
    down side B. Each node that waits on the stack holds the number of
    closing brackets owed after its subtree: those of the separated nodes
    whose side B it ends.
    """
    if result.outcome == FOUND:
        fh.write('{"outcome":"FOUND","subgraph":[' + ",".join(map(str, sorted(result.subgraph))) + "]}")
        return
    root = result.tree
    names = list(map(str, range(root.mask.bit_length())))
    pieces = ['{"outcome":"SEPARABLE","tree":']
    stack = [(root, _json_list(root.mask, names), 0)]  # (node, its vertex list text, brackets owed)
    while stack:
        if len(pieces) > _BLOCK:
            fh.write("".join(pieces))
            pieces.clear()
        node, vertices, owed = stack.pop()
        if not node.children:  # then a comma before the next node, or the end of the document
            pieces += ('{"vertices":', vertices, ',"kind":"LEAF_SMALL"}' + "]}" * owed + ("," if stack else "}"))
            continue
        left, right = node.children
        a, b = left.mask, right.mask
        only_a, only_b = a & ~b, b & ~a  # the private parts: the ids the other side lacks
        side_a = (_without(vertices, _members(only_b, names)) if only_b.bit_count() * _DELETE_RATIO <= a.bit_count()
                  else _json_list(a, names))
        side_b = (_without(vertices, _members(only_a, names)) if only_a.bit_count() * _DELETE_RATIO <= b.bit_count()
                  else _json_list(b, names))
        pieces += ('{"vertices":', vertices, ',"kind":"SEPARATED","separation":{"side_a":', side_a,
                   ',"side_b":', side_b, ',"core":', _json_list(a & b, names), '},"children":[')
        if left.children:
            stack += ((right, side_b, owed + 1), (left, side_a, 0))
        else:
            pieces += ('{"vertices":', side_a, ',"kind":"LEAF_SMALL"},')
            stack.append((right, side_b, owed + 1))
    fh.write("".join(pieces))
