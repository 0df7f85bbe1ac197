"""Generalized CYK recognition and packed parse forests.

Items are pairs of a nonterminal and a span of positions into the target
path; in a free category every factorization of an arrow is a position
split, so spans capture all of them.  The chart is the least family of
items closed under the rule: a node derives a span whenever its segments
and derived gap items tile the span exactly.

Parsing is lifting along the positions of the word: a segment sits wherever
its generators occur, an identity segment wherever its object does.  The
chart is the item set of ``product.lift``, the semi-naive kernel that
also builds the trimmed pullback along an automaton.  It records every
alternative as it derives it, so the chart and the forest come out of one
pass, and its item set does not depend on the agenda order.

``parse_chart`` lifts the whole placement table: every item of the word.
``parse_forest`` cuts the table to the start color's anchors over the
whole word, and ``recognize`` to every color's, so the kernel's one mode
derives no item that starts where no first segment of a usable node ends,
or ends where no last segment starts; nothing below a root is lost.

A packed forest shares subderivations: each item carries its local
alternatives, ``(node, child items)`` pairs, and unfolding the forest from
the root item reproduces exactly the closed derivation trees of the word.
It is the kernel's own output below the root, each item the one
``ParseItem`` object the kernel derived, walked once by ``_forest``: items
in the order a depth-first search leaves them, so children first unless a
cycle is reachable.  Forest order is pinned, so the forest alone sorts
each item's alternatives (node declaration order, then gap spans
ascending), into a new list; the kernel's output is left as found.  A
forest is a hypergraph like a species, with items as vertices and
alternatives as edges: parse counts and size bounds fold over its items in
key order, and enumeration is ``species.trees_by_size`` on those edges
within those bounds, cut at the caller's limit: its cost is bounded by the
limit, not by the number of trees of a size.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from .errors import InputError
from .grammar import Grammar
from .product import Alt, ParseItem, _acyclic, _anchors, lift
from .species import DerivationTree, Node, trees_by_size
from .freecat import Path


# one way to derive an item: a node applied to child items
Alternative = tuple[Node, tuple[ParseItem, ...]]


class PackedForest(NamedTuple):
    """The root item's alternatives, closed downwards: items children first
    unless ``cyclic``, when a derivation cycle (through empty-segment or
    unit chains) is reachable."""

    root: ParseItem | None
    alternatives: Mapping[ParseItem, tuple[Alternative, ...]]
    cyclic: bool

    @property
    def is_empty(self) -> bool:
        return self.root is None


def _lift(
    grammar: Grammar, w: Path, roots: Iterable[str] | None = None
) -> dict[ParseItem, list[Alt]]:
    """The kernel run along the positions of ``w``: a segment sits wherever
    its generators occur, an identity segment wherever its object does.
    With ``roots``, over the table cut to those colors over the whole path."""
    if not grammar.category.contains_path(w):
        raise InputError("target is not a path of the grammar's category")
    gens = w.gens
    objs = [w.src] + [grammar.category.generator_by_name[name].dst for name in gens]

    def placements(seg: Path) -> list[tuple[int, int]]:
        k = len(seg.gens)
        fits = range(len(gens) - k + 1)
        return [(p, p + k) for p in fits if objs[p] == seg.src and gens[p : p + k] == seg.gens]

    nodes = grammar.species.nodes
    table = [[placements(seg) for seg in grammar.splice_of(node.name).segments] for node in nodes]
    if roots is not None:
        table = _anchors(nodes, table, [(color, 0, len(gens)) for color in roots])
    return lift(nodes, table)


def parse_chart(grammar: Grammar, w: Path) -> frozenset[ParseItem]:
    """The full item set ``(color, start, end)`` for a target path: the
    unanchored least fixed point, whether or not an item spans the path."""
    return frozenset(_lift(grammar, w))


def _whole(derived: dict[ParseItem, list[Alt]], n: int) -> dict[str, ParseItem]:
    """The items spanning the whole path, by color."""
    return {item.color: item for item in derived if item.start == 0 and item.end == n}


def recognize(grammar: Grammar, w: Path) -> frozenset[str]:
    """Nonterminals deriving the whole path."""
    derived = _lift(grammar, w, grammar.species.colors)
    return frozenset(_whole(derived, len(w.gens)))


def parse_forest(grammar: Grammar, w: Path) -> PackedForest:
    """The packed forest of all derivations of the path at the start color."""
    return _forest(grammar, w, _lift(grammar, w, roots=(grammar.start,)))


def _recognize_and_parse(grammar: Grammar, w: Path) -> tuple[frozenset[str], PackedForest]:
    """``recognize`` and ``parse_forest`` of one path from one lifting."""
    derived = _lift(grammar, w, roots=grammar.species.colors)
    return frozenset(_whole(derived, len(w.gens))), _forest(grammar, w, derived)


@_acyclic
def _forest(grammar: Grammar, w: Path, derived: dict[ParseItem, list[Alt]]) -> PackedForest:
    """The items of ``derived`` below the start item over the whole path, in
    the order a depth-first search leaves them, each with its alternatives
    sorted by node index, then placement indexes, into a new list."""
    root = _whole(derived, len(w.gens)).get(grammar.start)
    if root is None:
        return PackedForest(None, {}, False)
    nodes = grammar.species.nodes
    alternatives: dict[ParseItem, tuple[Alternative, ...]] = {}
    # True from entering an item until leaving it, then False
    entered: dict[ParseItem, bool] = {}
    cyclic = False
    # (item, None) enters an item and (item, alts) leaves it
    stack: list[tuple[ParseItem, list[Alt] | None]] = [(root, None)]
    while stack:
        item, alts = stack.pop()
        if alts is not None:
            entered[item] = False
            alternatives[item] = tuple([(nodes[n], kids) for n, _, kids in alts])
            continue
        if item in entered:
            continue
        entered[item] = True
        alts = sorted(derived[item])
        stack.append((item, alts))
        for _, _, kids in alts:
            for child in kids:
                on_path = entered.get(child)
                if on_path is None:
                    stack.append((child, None))
                elif on_path:
                    cyclic = True
    return PackedForest(root, alternatives, cyclic)


def count_parses(forest: PackedForest) -> int | float:
    """Exact number of derivations of the root, or ``math.inf`` when the
    forest is cyclic."""
    if forest.root is None:
        return 0
    if forest.cyclic:
        return math.inf
    counts: dict[ParseItem, int] = {}
    for item, alts in forest.alternatives.items():
        total = 0
        for _, children in alts:
            prod = 1
            for child in children:
                prod *= counts[child]
            total += prod
        counts[item] = total
    return counts[forest.root]


def _size_bounds(forest: PackedForest) -> dict[ParseItem, tuple[int | float, int | float]]:
    """Least and greatest node count of each item's trees; 1..inf for every
    item of a cyclic forest."""
    if forest.cyclic:
        return {item: (1, math.inf) for item in forest.alternatives}
    bounds: dict[ParseItem, tuple[int | float, int | float]] = {}
    for item, alts in forest.alternatives.items():
        lo: int | float = math.inf
        hi: int | float = 0
        for _, children in alts:
            lo = min(lo, 1 + sum(bounds[c][0] for c in children))
            hi = max(hi, 1 + sum(bounds[c][1] for c in children))
        bounds[item] = (lo, hi)
    return bounds


def enumerate_parses(forest: PackedForest, limit: int) -> tuple[DerivationTree, ...]:
    """The first ``limit`` derivation trees in canonical order (node count,
    then preorder on node names); exact when the forest holds fewer.  Each
    item keeps at most ``limit`` trees per size, so the cost grows with the
    limit and the word, not with the number of parses."""
    if limit < 0:
        raise InputError("limit must be nonnegative")
    if forest.root is None or limit == 0:
        return ()
    bounds = _size_bounds(forest)
    trees = trees_by_size(forest.alternatives.__getitem__, bounds.__getitem__, limit)
    collected: list[DerivationTree] = []
    k, most = bounds[forest.root]
    while len(collected) < limit and k <= most:
        collected.extend(trees(forest.root, k))
        k += 1
    return tuple(collected[:limit])
