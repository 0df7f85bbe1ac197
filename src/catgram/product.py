"""Lifting a grammar along a functor: parsing and regular intersection.

A grammar lifts along anything that says where each splice segment can sit:
the positions of a word, or the runs of an automaton.  ``lift`` is the
one construction behind both, the Bar-Hillel–Perles–Shamir product run
bottom-up as semi-naive deduction (Shieber, Schabes & Pereira 1995).  An
item ``(color, p, q)`` holds when some node's segment placements chain
through derived gap items from ``p`` to ``q``.  Each popped item is joined
only with itself and the items popped before it, through a ``(color, start)
-> ends`` and a ``(color, end) -> starts`` index, so every alternative is
found exactly once and the fixed point needs no span order.  For each gap
the popped item fills, the side left of it is extended first: it cannot
hold the popped item yet, so a use that item cannot complete stops there.

The kernel has one mode.  Anchoring, top-down prediction read on spliced
arrows (Graham, Harrison & Ruzzo 1980), cuts its placement table to where
items below some roots can start and end (``_anchors``), one least fixed
point over both ends, so the kernel derives only what the roots can use,
and all of what lies below them.

Each item is one ``ParseItem`` object from its first derivation on, and
alternatives hold those objects as gap items, so the kernel's output below
a root already is its packed forest (Billot & Lang 1989).  Each reader
walks that output for its own purpose and leaves it as found.  The parser's
forest keeps a pinned order, so it alone sorts each item's alternatives,
into new lists; the trimmed pullback collects the items its root reaches
with a plain worklist, since it sorts its own head groups.

The pullback grammar lives over the automaton's state graph.  Its colors are
triples of a source state, a nonterminal and a target state whose gap type
matches the states' underlying objects; its nodes pair a grammar node with a
tuple of runs, one per splice segment.  Trimmed, it is read off the items
reachable from the start item; raw, it is the full product of the same run
lists.  The pullback square maps each run down to the segment it lies over
and each pulled color to its color's gap type, so the grammar for the
intersection of the two languages is the same pulled species over the base
category, each node carrying its base node's own splice.  The trimmed
pullback lifts and renders the table cut at the start item; the raw one
lifts nothing.  Both render head groups alike, in sorted ``(node,
placements)`` order, where a node's head is every placement but the last,
so a head's parts (name so far, pulled inputs, runs) are built once.  A
group carries the indexes of its last segment's placements, and the names
that depend on them are read by index from lists made once per node and
state, on first use: per ``(node, last state of the head)`` the pulled last
inputs, and per ``(node, first state)`` the pulled outputs.

A ``Grammar`` is checked when built, so ``_pulled``, ``trim`` and
``functorial_image`` read a valid one and check nothing again.  Every
splice has its node's gap types, so every run endpoint lies over them and
each pulled input and output is one of the pulled ``(state, color,
state)`` triples.  The triples are distinct and so are the ``(node,
placements)`` pairs, so their names are distinct unless two render alike,
which the sizes of the two name tables show and which raises what
``Species`` would.  So pulled nodes, run splices, and the ``Species`` and
``Grammar`` around them are built one way, by ``tuple.__new__``, with no
constructor frame and no check lost.  ``trim`` keeps a subset of a valid
species and ``functorial_image`` keeps its species, so both assemble the
same way.  ``trim`` reads the usable nodes (inputs all productive) off the
productivity pass's fired edges and keeps those whose output is reachable
through them, in one pass over the nodes.

The kernel, the render, ``trim`` and the parser's forest run with the
cyclic collector paused (``_acyclic``).  What they build are acyclic graphs
of tuples, which reference counting frees, so a collection during the build
could free nothing and would only re-scan the objects being built; the
pause leaves no garbage for later, and the first collection after it scans
what was built once.  It is process-wide while a builder runs.
"""

from __future__ import annotations

import functools
import gc
import itertools
from collections import deque
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence, TypeVar

from .errors import CompositionError, InputError
from .automaton import Automaton, runs_by_source
from .freecat import Path
from .grammar import Grammar, _usable
from .species import Node, Species, _name, _output, derivable
from .spliced import GapType, SplicedArrow


class ParseItem(NamedTuple):
    """A color derived from ``start`` to ``end`` (word positions or automaton
    states); it equals, unpacks and hashes like its tuple, in C."""

    color: str
    start: Hashable
    end: Hashable


# (node index, placement index per segment, gap items)
Alt = tuple[int, tuple[int, ...], tuple[ParseItem, ...]]
# per node, per segment, where it can sit: ``(p, q, *tags)``
Table = Sequence[Sequence[Sequence[tuple]]]

F = TypeVar("F", bound=Callable)


def _acyclic(build: F) -> F:
    """``build`` run with the cyclic collector paused, for builders whose
    results and scratch are acyclic: reference counting frees all of it,
    so a collection could free nothing and would only re-scan what is being
    built.  The pause is process-wide while ``build`` runs; the collector is
    enabled again afterwards only if it was enabled on entry."""

    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]


@_acyclic
def lift(nodes: Sequence[Node], placements: Table) -> dict[ParseItem, list[Alt]]:
    """The least set of items closed under the nodes, each with every way it
    is derived, over whatever placement table it is given.

    ``placements[n][s]`` lists where segment ``s`` of node ``n`` can sit, as
    ``(p, q, *tags)``.  Node ``n`` derives ``(output, P0.p, Pk.q)`` from
    placements ``P0..Pk`` whenever each gap item ``(inputs[m], Pm.q,
    P(m+1).p)`` is derived.  Every item maps to its alternatives ``(n,
    placement indexes, gap items)`` in the order they were found; an item is
    made a ``ParseItem`` when first derived, and gap items are those objects.

    A table cut by ``_anchors`` derives only what its roots can use.
    Readers walk the result without changing it.
    """
    by_start = [[_group(seg, 0) for seg in segs] for segs in placements]
    by_end = [[_group(seg, 1) for seg in segs] for segs in placements]
    uses: dict[str, list[tuple[int, int]]] = {}
    for n, node in enumerate(nodes):
        for m, color in enumerate(node.inputs):
            uses.setdefault(color, []).append((n, m))
    derived: dict[ParseItem, list[Alt]] = {}
    agenda: deque[ParseItem] = deque()
    pop = agenda.popleft
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
            # the placements beside the popped item, on both sides; the left
            # side is extended first, since it cannot hold the popped item
            # (not in ``starts`` yet) and so often ends the use early
            at_left, at_right = by_end[n][m].get(p), by_start[n][m + 1].get(q)
            if not (at_left and at_right):
                continue
            segs, inputs = placements[n], nodes[n].inputs
            # partial placements left of the gap: (start, indexes, gap items)
            lefts = [(segs[m][a][0], (a,), (popped,)) for a in at_left]
            for g in range(m - 1, -1, -1):
                c, seg, at = inputs[g], segs[g], by_end[n][g]
                lefts = [
                    (seg[a][0], (a,) + idx, (kid,) + kids)
                    for x, idx, kids in lefts
                    for kid in starts.get((c, x), ())
                    for a in at.get(kid[1], ())
                ]
                if not lefts:
                    break
            if not lefts:
                continue
            # partial placements right of the gap: (end, indexes, gap items)
            rights = [(segs[m + 1][b][1], (b,), ()) for b in at_right]
            for g in range(m + 1, len(inputs)):
                c, seg, at = inputs[g], segs[g + 1], by_start[n][g + 1]
                rights = [
                    (seg[b][1], idx + (b,), kids + (kid,))
                    for y, idx, kids in rights
                    for kid in ends.get((c, y), ())
                    for b in at.get(kid[2], ())
                ]
                if not rights:
                    break
            found += [
                ((nodes[n].output, left, right), (n, lidx + ridx, lkids + rkids))
                for left, lidx, lkids in lefts
                for right, ridx, rkids in rights
            ]
        starts.setdefault((color, q), []).append(popped)
    return derived


def _anchors(nodes: Sequence[Node], placements: Table, roots: Iterable[tuple]) -> Table:
    """The placement table cut to the anchors of the ``(color, p, q)``
    roots, where an item below one of them can start and end: a node keeps
    the placements of its first segment that start where its output may
    start, and of its last segment that end where its output may end, so a
    nullary node's one segment is cut at both ends.  Middle segments are
    shared as they are, and kept placements keep their order.

    The anchors are one least fixed point over vertices ``(end, color,
    place)``, ``end`` 0 for a start and 1 for an end.  Each root holds its
    start and its end at its color, and a node whose first segment sits at
    ``(p, q)`` with ``p`` a start of its output gives ``q`` as a start of
    its first input; ends are the mirror image, through last segments and
    last inputs.  An input with a sibling before it may start anywhere, and
    one with a sibling after it end anywhere, so a node whose output may
    start or end anywhere keeps that outer segment whole.  This is top-down
    prediction (Earley deduction; Graham, Harrison & Ruzzo 1980) read on
    spliced arrows, with one edge per placement of an outer segment.
    """
    anywhere = (
        {c for node in nodes for c in node.inputs[1:]},
        {c for node in nodes for c in node.inputs[:-1]},
    )
    edges = [((), (end, root[0], root[1 + end])) for root in roots for end in (0, 1)]
    for node, segs in zip(nodes, placements):
        # segment and input ``-end``: the first for starts, the last for ends
        for end in (0, 1) if node.inputs else ():
            color, out, seg = node.inputs[-end], node.output, segs[-end]
            if color in anywhere[end]:
                continue
            free = out in anywhere[end]
            edges += [
                (() if free else ((end, out, placed[end]),), (end, color, placed[1 - end]))
                for placed in seg
            ]
    held = derivable(edges)[0]
    table = []
    for node, segs in zip(nodes, placements):
        segs, out = list(segs), node.output
        for end in (0, 1):
            if out not in anywhere[end]:
                segs[-end] = [placed for placed in segs[-end] if (end, out, placed[end]) in held]
        table.append(segs)
    return table


def _group(placements: Sequence[tuple], end: int) -> dict[Hashable, list[int]]:
    """Placement indexes keyed by their start (``end=0``) or end (``end=1``)."""
    table: dict[Hashable, list[int]] = {}
    for a, placement in enumerate(placements):
        table.setdefault(placement[end], []).append(a)
    return table


def pullback_grammar(grammar: Grammar, automaton: Automaton, trim_useless: bool = True) -> Grammar:
    """The grammar of runs refining derivations of the original grammar.

    For every node with splice ``w0-...-wn`` and every choice of runs over
    the segments that chain through a tuple of state pairs, the pullback gets
    one node whose splice is the spliced arrow of those runs.  Trimming of
    useless colors is on by default; disable it to audit the raw node count.
    """
    return _pulled(grammar, automaton, trim_useless, over_runs=True)


@_acyclic
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

    def placements(seg: Path) -> list[tuple[str, str, tuple[Path], str, str]]:
        # the source state of each run is a free endpoint choice; only its
        # underlying object is constrained.  Each run's label is made here,
        # once, however many nodes use the run: with its separator inside a
        # name, and with the closing parenthesis too as a name's last label
        runs = runs_by_source(automaton, seg)
        placed = []
        for q in state_names:
            for r in runs[q]:
                label = f"|{r.src}>{'.'.join(r.gens) or 'e'}>{r.dst}"
                placed.append((r.src, r.dst, (r,), label, label + ")"))
        return placed

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
    # head groups ``(n, head, tails)``: node n's placements of every segment
    # but the last, and the indexes of the last segment's placements that
    # complete them, in sorted order
    if trim_useless:
        root = (grammar.start, automaton.initial, automaton.final)
        table = _anchors(nodes, table, [root])
        derived = lift(nodes, table)
        # the items the root reaches, and the last placement indexes of
        # their alternatives by node and head placement indexes, in no order
        useful = {root}
        todo = [root] if root in derived else []
        heads: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        while todo:
            for n, idx, kids in derived[todo.pop()]:
                heads.setdefault((n, idx[:-1]), []).append(idx[-1])
                for kid in kids:
                    if kid not in useful:
                        useful.add(kid)
                        todo.append(kid)
        items = [item for item in items if item in useful]
        groups = (
            (n, tuple(map(list.__getitem__, table[n], head)), sorted(tails))
            for (n, head), tails in sorted(heads.items())
        )
    else:
        groups = (
            (n, head, range(len(segs[-1])))
            for n, segs in enumerate(table)
            for head in itertools.product(*segs[:-1])
        )

    # pullback color names by (src, color, dst), made once and shared by
    # every node that meets them
    names = functools.cache("({},{},{})".format)
    if over_runs:
        category = automaton.state_graph
        color_gap = {names(q, c, q2): GapType(q, q2) for c, q, q2 in items}
    else:
        # a run lies over its segment and a pulled color over its color's
        # gap type, so each pulled node maps down to its base node's splice
        category = grammar.category
        color_gap = {names(q, c, q2): grammar.gap_of(c) for c, q, q2 in items}

    # by (node, state), over the node's last segment's placements: the
    # pulled last inputs, as 1-tuples, of heads ending at the state, and the
    # pulled outputs of heads starting there (of the placement itself, for
    # a nullary node, keyed by ``None``); each list is made on first use
    last_inputs: dict[tuple[int, str], list[tuple[str]]] = {}
    outputs: dict[tuple[int, str | None], list[str]] = {}
    pulled_nodes: list[Node] = []
    node_splice: dict[str, SplicedArrow] = {}
    # ``tuple.__new__`` skips no check: ``Node`` has none, and the one
    # segment a ``SplicedArrow`` needs is always in ``stem_runs + runs``
    new, append = tuple.__new__, pulled_nodes.append
    for n, head, tails in groups:
        # the parts every node of this head shares: its name so far, pulled
        # inputs, runs (over runs only), and its rows of the name tables
        node, seg = nodes[n], table[n][-1]
        stem = "(" + node.name + "".join([placed[3] for placed in head])
        stem_inputs = tuple(
            [names(a[1], color, b[0]) for a, color, b in zip(head, node.inputs, head[1:])]
        )
        stem_runs = tuple([placed[2][0] for placed in head]) if over_runs else ()
        splice = grammar.node_splice[node.name]
        first = head[0][0] if head else None
        outs = outputs.get((n, first))
        if outs is None:
            outs = outputs[n, first] = [
                names(src if first is None else first, node.output, dst) for src, dst, *_ in seg
            ]
        if head:
            last = head[-1][1]
            ins = last_inputs.get((n, last))
            if ins is None:
                gap = node.inputs[-1]
                ins = last_inputs[n, last] = [(names(last, gap, src),) for src, *_ in seg]
        else:
            ins = [()] * len(seg)
        for b in tails:
            _, _, runs, _, label = seg[b]
            name = stem + label
            append(new(Node, (name, stem_inputs + ins[b], outs[b])))
            node_splice[name] = new(SplicedArrow, (stem_runs + runs,)) if over_runs else splice
    # the colors are distinct triples and the nodes distinct ``(node,
    # placements)`` pairs, so their names are distinct unless two render
    # alike, which the two tables' sizes show
    if len(color_gap) != len(items):
        raise InputError("duplicate color names in species")
    if len(node_splice) != len(pulled_nodes):
        raise InputError("duplicate node names in species")
    species = new(Species, (tuple(color_gap), tuple(pulled_nodes)))
    start = names(automaton.initial, grammar.start, automaton.final)
    return new(Grammar, (category, species, start, color_gap, node_splice))


@_acyclic
def trim(grammar: Grammar) -> Grammar:
    """Restrict a grammar to its useful colors and the start, and to the
    nodes whose colors are all useful; the language is unchanged.

    One productivity pass gives the usable nodes, those whose inputs are
    all productive, in declaration order, and one reachability pass through
    them the reachable colors (``_usable``).  A node is kept when it is
    usable and its output reachable: its output is then productive, and its
    inputs productive and reachable, so this is the filter above without a
    second pass over every node.  A useless start has no closed tree, so no
    color is useful and the result keeps only the start, with no nodes: the
    empty-language grammar at the same gap type.  The grammar is valid, as
    built, so the result is too and is assembled without a second check.
    """
    start = grammar.start
    productive, usable, reachable = _usable(grammar)
    colors = tuple(
        c for c in grammar.species.colors if c in reachable and c in productive or c == start
    )
    nodes = tuple(itertools.compress(usable, map(reachable.__contains__, map(_output, usable))))
    # a subset of a valid species that keeps every color of its nodes needs
    # no re-check, and the two tables are new
    new = tuple.__new__
    species = new(Species, (colors, nodes))
    names = list(map(_name, nodes))
    color_gap = dict(zip(colors, map(grammar.color_gap.__getitem__, colors)))
    node_splice = dict(zip(names, map(grammar.node_splice.__getitem__, names)))
    return new(Grammar, (grammar.category, species, start, color_gap, node_splice))


def intersect(grammar: Grammar, automaton: Automaton, trim_useless: bool = True) -> Grammar:
    """A grammar for the intersection of the grammar's language with the
    automaton's, read off the pullback square: the pulled species over the
    base category, each pulled node carrying its base node's splice and each
    pulled color its color's gap type."""
    return _pulled(grammar, automaton, trim_useless, over_runs=False)
