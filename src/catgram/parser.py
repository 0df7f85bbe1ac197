"""Generalized CYK recognition and packed parse forests.

Items are pairs of a nonterminal and a span of positions into the target
path; in a free category every factorization of an arrow is a position
split, so spans capture all of them.  The chart is the least family of
items closed under the rule: a node derives a span whenever its fixed
segments and already derived gap items tile the span exactly.  The fixed
point is reached by chaotic iteration over spans of increasing width, with
an inner sweep per span to absorb empty-segment and unit dependencies; the
resulting item set is independent of sweep order.

One placement search serves the chart and the forest.  Each node becomes a
rule (segments, their source objects, outer objects, fixed length), and a
span only tries the rules whose outer objects and fixed length fit it.  The
search walks the gaps left to right.  The ends of every gap but the last
come from an index ``(color, start) -> ends`` of derived items, so only
splits that some item covers are tried; the last gap is anchored, ending
where the last segment starts, and costs one chart lookup.

A packed forest shares subderivations: each item carries its local
alternatives (a node plus child items), and unfolding the forest from the
root item reproduces exactly the closed derivation trees of the word.  The
forest is unfolded from the root over the finished chart with the same
search and holds one ``ParseItem`` object per item, so lookups keyed by
items compare by identity.  A forest is a hypergraph like a species, with
items as vertices and alternatives as edges, so its cycle check, parse
counts and size bounds fold over ``species.postorder``, and enumeration is
``species.trees_by_size`` within those bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

from .errors import InputError
from .grammar import Grammar
from .species import DerivationTree, Node, postorder, trees_by_size
from .freecat import Path


@dataclass(frozen=True)
class ParseItem:
    """A nonterminal spanning positions ``start..end`` of the target path."""

    color: str
    start: int
    end: int


@dataclass(frozen=True)
class Alternative:
    """One way to derive an item: a node applied to child items."""

    node: Node
    children: tuple[ParseItem, ...]


@dataclass(frozen=True)
class PackedForest:
    word: Path
    root: ParseItem | None
    alternatives: Mapping[ParseItem, tuple[Alternative, ...]]
    cyclic: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "alternatives", dict(self.alternatives))

    @property
    def is_empty(self) -> bool:
        return self.root is None


class _Rule(NamedTuple):
    """A node as the placement search reads it."""

    node: Node
    output: str
    inputs: tuple[str, ...]
    segments: tuple[tuple[str, ...], ...]  # generator names per segment
    sources: tuple[str, ...]  # source object per segment
    left: str
    right: str
    fixed: int  # total length of the segments
    room: tuple[int, ...]  # room[m]: segment length between gap m and the last segment


def _rules(grammar: Grammar) -> list[_Rule]:
    """One rule per node, in declaration order."""
    rules = []
    for node in grammar.species.nodes:
        splice = grammar.splice_of(node.name)
        lengths = [len(s.gens) for s in splice.segments]
        k = len(node.inputs)
        rules.append(
            _Rule(
                node,
                node.output,
                node.inputs,
                tuple(s.gens for s in splice.segments),
                tuple(s.src for s in splice.segments),
                splice.outer.left,
                splice.outer.right,
                sum(lengths),
                tuple(sum(lengths[m + 1 : k]) for m in range(k)),
            )
        )
    return rules


class _Chart:
    """The items derived so far along one path, with the index the
    placement search reads."""

    def __init__(self, grammar: Grammar, w: Path) -> None:
        if not grammar.category.contains_path(w):
            raise InputError("target is not a path of the grammar's category")
        self.gens = w.gens
        table = grammar.category.generator_by_name
        self.objs = [w.src] + [table[name].dst for name in w.gens]
        self.rules = _rules(grammar)
        self.items: set[tuple[str, int, int]] = set()
        # (color, start) -> ends; items arrive width by width, so each list
        # is ascending
        self.ends: dict[tuple[str, int], list[int]] = {}

    def add(self, color: str, start: int, end: int) -> None:
        self.items.add((color, start, end))
        self.ends.setdefault((color, start), []).append(end)

    def _matches(self, seg: tuple[str, ...], src: str, pos: int) -> bool:
        if seg:
            return self.gens[pos : pos + len(seg)] == seg
        return self.objs[pos] == src

    def placements(self, rule: _Rule, i: int, j: int) -> Iterator[tuple[tuple[int, int], ...]]:
        """The gap spans of every way the rule's segments and derived gap
        items tile ``i..j``, in ascending order of the gap ends."""
        segments, sources = rule.segments, rule.sources
        if rule.fixed > j - i or not self._matches(segments[0], sources[0], i):
            return
        k = len(rule.inputs)
        if k == 0:
            if i + len(segments[0]) == j:
                yield ()
            return
        last = j - len(segments[k])
        if self._matches(segments[k], sources[k], last):
            yield from self._gaps(rule, 0, i + len(segments[0]), last, ())

    def _gaps(
        self, rule: _Rule, m: int, pos: int, last: int, spans: tuple[tuple[int, int], ...]
    ) -> Iterator[tuple[tuple[int, int], ...]]:
        color = rule.inputs[m]
        if m == len(rule.inputs) - 1:
            if (color, pos, last) in self.items:
                yield spans + ((pos, last),)
            return
        seg, src = rule.segments[m + 1], rule.sources[m + 1]
        limit = last - rule.room[m]
        for q in self.ends.get((color, pos), ()):
            if q > limit:
                break
            if self._matches(seg, src, q):
                yield from self._gaps(rule, m + 1, q + len(seg), last, spans + ((pos, q),))


def parse_chart(
    grammar: Grammar, w: Path, reverse_agenda: bool = False
) -> frozenset[tuple[str, int, int]]:
    """The full item set ``(color, start, end)`` for a target path.

    ``reverse_agenda`` flips every iteration order used to reach the fixed
    point; the result is the same least fixed point either way.
    """
    return frozenset(_build_chart(grammar, w, reverse_agenda=reverse_agenda).items)


def _build_chart(grammar: Grammar, w: Path, reverse_agenda: bool = False) -> _Chart:
    chart = _Chart(grammar, w)
    n = len(w.gens)
    objs = chart.objs
    by_outer: dict[tuple[str, str], list[_Rule]] = {}
    for rule in reversed(chart.rules) if reverse_agenda else chart.rules:
        by_outer.setdefault((rule.left, rule.right), []).append(rule)
    for width in range(n + 1):
        starts = range(n - width + 1)
        if reverse_agenda:
            starts = reversed(starts)  # type: ignore[assignment]
        for i in starts:
            j = i + width
            rules = [r for r in by_outer.get((objs[i], objs[j]), ()) if r.fixed <= width]
            changed = True
            while changed:
                changed = False
                for rule in rules:
                    if (rule.output, i, j) in chart.items:
                        continue
                    if next(chart.placements(rule, i, j), None) is not None:
                        chart.add(rule.output, i, j)
                        changed = True
    return chart


def _whole(chart: _Chart) -> frozenset[str]:
    n = len(chart.gens)
    return frozenset(c for (c, i, j) in chart.items if i == 0 and j == n)


def recognize(grammar: Grammar, w: Path, reverse_agenda: bool = False) -> frozenset[str]:
    """Nonterminals deriving the whole path."""
    return _whole(_build_chart(grammar, w, reverse_agenda=reverse_agenda))


def parse_forest(grammar: Grammar, w: Path) -> PackedForest:
    """The packed forest of all derivations of the path at the start color."""
    return _recognize_and_parse(grammar, w)[1]


def _recognize_and_parse(grammar: Grammar, w: Path) -> tuple[frozenset[str], PackedForest]:
    """``recognize`` and ``parse_forest`` of one path from one chart build."""
    chart = _build_chart(grammar, w)
    whole = _whole(chart)
    if grammar.start not in whole:
        return whole, PackedForest(word=w, root=None, alternatives={}, cyclic=False)
    rules_into: dict[str, list[_Rule]] = {}
    for rule in chart.rules:
        rules_into.setdefault(rule.output, []).append(rule)
    interned: dict[tuple[str, int, int], ParseItem] = {}

    def item_of(key: tuple[str, int, int]) -> ParseItem:
        item = interned.get(key)
        if item is None:
            item = interned[key] = ParseItem(*key)
        return item

    root = item_of((grammar.start, 0, len(w.gens)))
    alternatives: dict[ParseItem, tuple[Alternative, ...]] = {}
    stack = [root]
    while stack:
        item = stack.pop()
        if item in alternatives:
            continue
        alts = []
        for rule in rules_into.get(item.color, ()):
            for spans in chart.placements(rule, item.start, item.end):
                children = tuple(item_of((c, a, b)) for c, (a, b) in zip(rule.inputs, spans))
                alts.append(Alternative(rule.node, children))
        alternatives[item] = tuple(alts)
        for alt in alts:
            for child in alt.children:
                if child not in alternatives:
                    stack.append(child)
    forest = PackedForest(
        word=w,
        root=root,
        alternatives=alternatives,
        cyclic=_postorder(root, alternatives) is None,
    )
    return whole, forest


def count_parses(forest: PackedForest) -> int | float:
    """Exact number of derivations of the root, or ``math.inf`` when the
    forest is cyclic."""
    if forest.root is None:
        return 0
    if forest.cyclic:
        return math.inf
    counts: dict[ParseItem, int] = {}
    for item in _postorder(forest.root, forest.alternatives):
        total = 0
        for alt in forest.alternatives[item]:
            prod = 1
            for child in alt.children:
                prod *= counts[child]
                if prod == 0:
                    break
            total += prod
        counts[item] = total
    return counts[forest.root]


def _postorder(
    root: ParseItem, alternatives: Mapping[ParseItem, tuple[Alternative, ...]]
) -> list[ParseItem] | None:
    """Children-first ordering of the root-reachable items, or ``None`` when
    a derivation cycle (through empty-segment or unit chains) is reachable."""
    return postorder(root, lambda item: [c for alt in alternatives[item] for c in alt.children])


def _size_bounds(forest: PackedForest) -> dict[ParseItem, tuple[int | float, int | float]]:
    """Least and greatest node count of each item's trees; 1..inf for every
    item of a cyclic forest."""
    if forest.cyclic:
        return {item: (1, math.inf) for item in forest.alternatives}
    bounds: dict[ParseItem, tuple[int | float, int | float]] = {}
    for item in _postorder(forest.root, forest.alternatives):
        lo: int | float = math.inf
        hi: int | float = 0
        for alt in forest.alternatives[item]:
            lo = min(lo, 1 + sum(bounds[c][0] for c in alt.children))
            hi = max(hi, 1 + sum(bounds[c][1] for c in alt.children))
        bounds[item] = (lo, hi)
    return bounds


def enumerate_parses(forest: PackedForest, limit: int) -> tuple[DerivationTree, ...]:
    """The first ``limit`` derivation trees in canonical order (node count,
    then preorder on node names); exact when the forest holds fewer."""
    if limit < 0:
        raise InputError("limit must be nonnegative")
    if forest.root is None or limit == 0:
        return ()
    total = count_parses(forest)
    goal = limit if total is math.inf else min(limit, int(total))
    bounds = _size_bounds(forest)
    trees = trees_by_size(
        lambda item: ((alt.node, alt.children) for alt in forest.alternatives[item]),
        bounds.__getitem__,
    )
    collected: list[DerivationTree] = []
    k, most = bounds[forest.root]
    while len(collected) < goal and k <= most:
        collected.extend(trees(forest.root, k))
        k += 1
    return tuple(collected[:goal])
