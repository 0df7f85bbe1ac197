"""Lifting a grammar along a functor: parsing and regular intersection.

A grammar lifts along anything that says where each splice segment can sit:
the positions of a word, or the runs of an automaton.  ``lift`` is the
one construction behind both, the Bar-Hillel–Perles–Shamir product run
bottom-up as semi-naive deduction (Shieber, Schabes & Pereira 1995).  An
item ``(color, p, q)`` holds when some node's segment placements chain
through derived gap items from ``p`` to ``q``.  Each popped item is joined
only with itself and the items popped before it, through a ``(color, start)
-> ends`` and a ``(color, end) -> starts`` index, so every alternative is
found exactly once and the fixed point needs no span order.

Given roots, the kernel first computes their anchors, the spliced-arrow
form of top-down prediction (Earley deduction; Graham, Harrison & Ruzzo
1980): where an item below a root can start and end.  It drops every item
outside them, before making it an object, so it derives only what the
roots can use; the items below each root, their alternatives and their
cycles are those of the unanchored fixed point.

Each item is one ``ParseItem`` object from its first derivation on, and
alternatives hold those objects as gap items, so the items ``reachable``
from a root already are its packed forest (Billot & Lang 1989).

The pullback grammar lives over the automaton's state graph.  Its colors are
triples of a source state, a nonterminal and a target state whose gap type
matches the states' underlying objects; its nodes pair a grammar node with a
tuple of runs, one per splice segment.  Trimmed, it is read off the items
reachable from the start item; raw, it is the full product of the same run
lists.  The pullback square maps each run down to the segment it lies over
and each pulled color to its color's gap type, so the grammar for the
intersection of the two languages is the same pulled species over the base
category, each node carrying its base node's own splice.  The trimmed
pullback anchors the kernel at the start item; the raw one lifts nothing.
Both render each chosen ``(node, placements)`` the same way: the parts of
every placement prefix (name, pulled inputs, runs) are made once and shared
by the nodes that extend it, so a node costs one lookup and its last
segment.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import CompositionError
from .automaton import Automaton, runs_by_source
from .freecat import Path, _Memo
from .grammar import Grammar, useful_set
from .species import Node, Species, derivable
from .spliced import GapType, SplicedArrow


class ParseItem(NamedTuple):
    """A color derived from ``start`` to ``end`` (word positions or automaton
    states); it equals, unpacks and hashes like its tuple, in C."""

    color: str
    start: Hashable
    end: Hashable


# (node index, placement index per segment, gap items)
Alt = tuple[int, tuple[int, ...], tuple[ParseItem, ...]]


def lift(
    nodes: Sequence[Node],
    placements: Sequence[Sequence[Sequence[tuple]]],
    reverse_agenda: bool = False,
    roots: Iterable[tuple] | None = None,
) -> dict[ParseItem, list[Alt]]:
    """The least set of items closed under the nodes, each with every way it
    is derived; with ``roots``, only those items that pass the roots'
    anchors (see ``_anchors``).

    ``placements[n][s]`` lists where segment ``s`` of node ``n`` can sit, as
    ``(p, q, *tags)``.  Node ``n`` derives ``(output, P0.p, Pk.q)`` from
    placements ``P0..Pk`` whenever each gap item ``(inputs[m], Pm.q,
    P(m+1).p)`` is derived.  Every item maps to its alternatives ``(n,
    placement indexes, gap items)`` in the order they were found; an item is
    made a ``ParseItem`` when first derived, and gap items are those objects.

    Every item below a root, and every alternative of one, passes the
    anchors, so ``reachable`` from a root gives the same forest either way.
    """
    if roots is not None:
        (start_anywhere, may_start), (end_anywhere, may_end) = _anchors(nodes, placements, roots)
    by_start = [[_group(seg, 0) for seg in segs] for segs in placements]
    by_end = [[_group(seg, 1) for seg in segs] for segs in placements]
    uses: dict[str, list[tuple[int, int]]] = {}
    for n, node in enumerate(nodes):
        for m, color in enumerate(node.inputs):
            uses.setdefault(color, []).append((n, m))
    derived: dict[ParseItem, list[Alt]] = {}
    agenda: deque[ParseItem] = deque()
    pop = agenda.pop if reverse_agenda else agenda.popleft
    # popped items by (color, start) and (color, end); an item enters
    # ``ends`` before it is joined and ``starts`` after, so a placement
    # using it in two gaps is found once
    ends: dict[tuple[str, Hashable], list[ParseItem]] = {}
    starts: dict[tuple[str, Hashable], list[ParseItem]] = {}
    found = [
        ((node.output, p, q), (n, (a,), ()))
        for n, node in enumerate(nodes)
        if not node.inputs
        for a, (p, q, *_) in enumerate(placements[n][0])
    ]
    while True:
        for item, alt in found:
            alts = derived.get(item)
            if alts is None:
                if roots is not None and not (
                    (item[0] in start_anywhere or item[:2] in may_start)
                    and (item[0] in end_anywhere or (item[0], item[2]) in may_end)
                ):
                    continue
                item = ParseItem._make(item)
                alts = derived[item] = []
                agenda.append(item)
            alts.append(alt)
        if not agenda:
            break
        found = []
        popped = pop()
        color, p, q = popped
        ends.setdefault((color, p), []).append(popped)
        for n, m in uses.get(color, ()):
            segs, inputs = placements[n], nodes[n].inputs
            # partial placements right of the gap: (end, indexes, gap items)
            rights = [(segs[m + 1][b][1], (b,), ()) for b in by_start[n][m + 1].get(q, ())]
            for g in range(m + 1, len(inputs)):
                c, seg, at = inputs[g], segs[g + 1], by_start[n][g + 1]
                rights = [
                    (seg[b][1], idx + (b,), kids + (kid,))
                    for y, idx, kids in rights
                    for kid in ends.get((c, y), ())
                    for b in at.get(kid[2], ())
                ]
            if not rights:
                continue
            lefts = [(segs[m][a][0], (a,), (popped,)) for a in by_end[n][m].get(p, ())]
            for g in range(m - 1, -1, -1):
                c, seg, at = inputs[g], segs[g], by_end[n][g]
                lefts = [
                    (seg[a][0], (a,) + idx, (kid,) + kids)
                    for x, idx, kids in lefts
                    for kid in starts.get((c, x), ())
                    for a in at.get(kid[1], ())
                ]
            found += [
                ((nodes[n].output, left, right), (n, lidx + ridx, lkids + rkids))
                for left, lidx, lkids in lefts
                for right, ridx, rkids in rights
            ]
        starts.setdefault((color, q), []).append(popped)
    return derived


def _anchors(
    nodes: Sequence[Node],
    placements: Sequence[Sequence[Sequence[tuple]]],
    roots: Iterable[tuple],
) -> tuple[tuple[set[str], set[tuple[str, Hashable]]], ...]:
    """Where an item below one of the ``(color, p, q)`` roots can start and
    where it can end: for each end, the colors that may sit anywhere and
    the ``(color, position)`` pairs that may.

    Ends are the least sets with each root's end at its color, and, for a
    node whose last segment sits at ``(p, q)`` with ``q`` an end of its
    output, ``p`` an end of its last input; every other input may end
    anywhere.  Starts are the mirror image, through first segments and
    first inputs.  This is top-down prediction (Earley deduction; Graham,
    Harrison & Ruzzo 1980) read on spliced arrows, with one edge per
    placement of an outer segment.
    """
    roots = list(roots)
    inner = [(node, segs) for node, segs in zip(nodes, placements) if node.inputs]
    starts = _anchored(
        [(c, p) for c, p, _ in roots],
        {c for node, _ in inner for c in node.inputs[1:]},
        [(node.output, node.inputs[0], segs[0], 0, 1) for node, segs in inner],
    )
    ends = _anchored(
        [(c, q) for c, _, q in roots],
        {c for node, _ in inner for c in node.inputs[:-1]},
        [(node.output, node.inputs[-1], segs[-1], 1, 0) for node, segs in inner],
    )
    return starts, ends


def _anchored(
    roots: list[tuple[str, Hashable]], anywhere: set[str], links: list[tuple]
) -> tuple[set[str], set[tuple[str, Hashable]]]:
    """One end of ``_anchors``.  A link ``(out, color, seg, x, y)`` says a
    ``color`` item may sit at ``placement[y]`` for each placement of ``seg``
    whose ``placement[x]`` is a place of ``out``."""
    edges: list[tuple[tuple, tuple[str, Hashable]]] = [((), root) for root in roots]
    for out, color, seg, x, y in links:
        if color in anywhere:
            continue
        if out in anywhere:
            edges += [((), (color, placement[y])) for placement in seg]
        else:
            edges += [(((out, placement[x]),), (color, placement[y])) for placement in seg]
    return anywhere, derivable(edges)


def reachable(
    derived: dict[ParseItem, list[Alt]], root: ParseItem
) -> tuple[dict[ParseItem, list[Alt]], bool]:
    """The items below a derived ``root`` in the order a depth-first search
    leaves them (children first unless a cycle is reachable), each with its
    alternatives sorted by node index, then placement indexes; and whether a
    derivation cycle is reachable."""
    out: dict[ParseItem, list[Alt]] = {}
    path: set[ParseItem] = set()  # entered and not yet left
    cyclic = False
    # (item, None) enters an item and (item, alts) leaves it
    stack: list[tuple[ParseItem, list[Alt] | None]] = [(root, None)]
    while stack:
        item, alts = stack.pop()
        if alts is not None:
            path.discard(item)
            out[item] = alts
            continue
        if item in out:
            continue
        alts = sorted(derived[item])
        path.add(item)
        stack.append((item, alts))
        for alt in alts:
            for child in alt[2]:
                if child in path:
                    cyclic = True
                elif child not in out:
                    stack.append((child, None))
    return out, cyclic


def _group(placements: Sequence[tuple], end: int) -> dict[Hashable, list[int]]:
    """Placement indexes keyed by their start (``end=0``) or end (``end=1``)."""
    table: dict[Hashable, list[int]] = {}
    for a, placement in enumerate(placements):
        table.setdefault(placement[end], []).append(a)
    return table


def _run_label(run: Path) -> str:
    return f"{run.src}>{'.'.join(run.gens) if run.gens else 'e'}>{run.dst}"


def pullback_grammar(grammar: Grammar, automaton: Automaton, trim_useless: bool = True) -> Grammar:
    """The grammar of runs refining derivations of the original grammar.

    For every node with splice ``w0-...-wn`` and every choice of runs over
    the segments that chain through a tuple of state pairs, the pullback gets
    one node whose splice is the spliced arrow of those runs.  Trimming of
    useless colors is on by default; disable it to audit the raw node count.
    """
    return _pulled(grammar, automaton, trim_useless, over_runs=True)


def _pulled(grammar: Grammar, automaton: Automaton, trim_useless: bool, over_runs: bool) -> Grammar:
    """The pulled species, with run splices over the state graph when
    ``over_runs`` and with each base node's own splice otherwise."""
    if grammar.category != automaton.base:
        raise CompositionError("grammar and automaton must share the base category")
    start_gap = grammar.gap_of(grammar.start)
    over = automaton.state_over
    if (start_gap.left, start_gap.right) != (over[automaton.initial], over[automaton.final]):
        raise CompositionError(
            "start symbol's gap type does not match the initial/final state objects"
        )

    state_names = [s.name for s in automaton.states]

    def placements(seg: Path) -> list[tuple[str, str, Path, str]]:
        # the source state of each run is a free endpoint choice; only its
        # underlying object is constrained.  Each run's label is made here,
        # once, however many nodes use the run.
        runs = runs_by_source(automaton, seg)
        return [(r.src, r.dst, r, _run_label(r)) for q in state_names for r in runs[q]]

    nodes = grammar.species.nodes
    table = [[placements(seg) for seg in grammar.splice_of(node.name).segments] for node in nodes]
    color_gaps = [(color, grammar.gap_of(color)) for color in grammar.species.colors]
    items = [
        (color, q, q2)
        for q in state_names
        for color, gap in color_gaps
        if over[q] == gap.left
        for q2 in state_names
        if over[q2] == gap.right
    ]
    if trim_useless:
        root = (grammar.start, automaton.initial, automaton.final)
        derived = lift(nodes, table, roots=[root])
        useful = reachable(derived, root)[0] if root in derived else {root: []}
        items = [item for item in items if item in useful]
        chosen = sorted(alt[:2] for alts in useful.values() for alt in alts)
    else:
        chosen = (
            (n, idx)
            for n, segs in enumerate(table)
            for idx in itertools.product(*(range(len(seg)) for seg in segs))
        )

    # pullback color names by (src, color, dst), made once and shared by
    # every node that meets them
    names = _Memo("({},{},{})".format)

    def grow(n: int, head: tuple[int, ...], b: int) -> tuple:
        """The parts of node ``n`` placed at ``head + (b,)``: its name so
        far, pulled inputs and runs, first source, last target."""
        name, inputs, runs, first, last = parts[n, head]
        k = len(head)
        src, dst, run, label = table[n][k][b]
        if k:
            inputs += (names[last, nodes[n].inputs[k - 1], src],)
        else:
            first = src
        return name + "|" + label, inputs, runs + (run,), first, dst

    # the parts of each placement prefix ``(n, head)``, made once and shared
    # by every node whose first segments are placed alike
    parts = _Memo(
        lambda n, head: grow(n, head[:-1], head[-1])
        if head
        else (f"({nodes[n].name}", (), (), None, None)
    )
    if over_runs:
        category = automaton.state_graph
        color_gap = {names[q, c, q2]: GapType(q, q2) for c, q, q2 in items}
    else:
        # a run lies over its segment and a pulled color over its color's
        # gap type, so each pulled node maps down to its base node's splice
        category = grammar.category
        color_gap = {names[q, c, q2]: grammar.gap_of(c) for c, q, q2 in items}

    pulled_nodes: list[Node] = []
    node_splice: dict[str, SplicedArrow] = {}
    for n, idx in chosen:
        name, inputs, runs, first, last = grow(n, idx[:-1], idx[-1])
        name += ")"
        node = nodes[n]
        pulled_nodes.append(Node(name, inputs, names[first, node.output, last]))
        node_splice[name] = SplicedArrow(runs) if over_runs else grammar.node_splice[node.name]
    colors = tuple(names[q, c, q2] for c, q, q2 in items)
    species = Species(colors=colors, nodes=tuple(pulled_nodes))
    start = names[automaton.initial, grammar.start, automaton.final]
    return Grammar(category, species, start, color_gap, node_splice)


def trim(grammar: Grammar) -> Grammar:
    """Restrict a grammar to its useful colors; the language is unchanged.

    When the start color itself is useless the result keeps only the start,
    with no nodes: the empty-language grammar at the same gap type.
    """
    keep = set(useful_set(grammar))
    if grammar.start not in keep:
        return Grammar(
            category=grammar.category,
            species=Species((grammar.start,), ()),
            start=grammar.start,
            color_gap={grammar.start: grammar.gap_of(grammar.start)},
            node_splice={},
        )
    colors = tuple(c for c in grammar.species.colors if c in keep)
    nodes = tuple(
        n
        for n in grammar.species.nodes
        if n.output in keep and all(c in keep for c in n.inputs)
    )
    species = Species(colors, nodes)
    return Grammar(
        category=grammar.category,
        species=species,
        start=grammar.start,
        color_gap={c: grammar.color_gap[c] for c in colors},
        node_splice={n.name: grammar.node_splice[n.name] for n in nodes},
    )


def intersect(grammar: Grammar, automaton: Automaton, trim_useless: bool = True) -> Grammar:
    """A grammar for the intersection of the grammar's language with the
    automaton's, read off the pullback square: the pulled species over the
    base category, each pulled node carrying its base node's splice and each
    pulled color its color's gap type."""
    return _pulled(grammar, automaton, trim_useless, over_runs=False)
