"""Pulling back a grammar along an automaton: regular intersection.

The pullback grammar lives over the automaton's state graph.  Its colors are
triples of a source state, a nonterminal and a target state whose gap type
matches the states' underlying objects; its nodes pair a grammar node with a
tuple of runs, one per splice segment.  Mapping runs back down to the base
category yields a grammar for the intersection of the two languages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CompositionError
from .automaton import Automaton, runs_by_source
from .freecat import Path
from .grammar import Grammar, functorial_image, useful_set
from .species import Node, Species
from .spliced import GapType, SplicedArrow


@dataclass(frozen=True)
class PullbackColor:
    """A nonterminal of the pullback grammar: state, color, state."""

    src: str
    color: str
    dst: str

    @property
    def name(self) -> str:
        return f"({self.src},{self.color},{self.dst})"


def _run_label(run: Path) -> str:
    return f"{run.src}>{'.'.join(run.gens) if run.gens else 'e'}>{run.dst}"


def pullback_grammar(grammar: Grammar, automaton: Automaton, trim_useless: bool = True) -> Grammar:
    """The grammar of runs refining derivations of the original grammar.

    For every node with splice ``w0-...-wn`` and every choice of runs over
    the segments that chain through a tuple of state pairs, the pullback gets
    one node whose splice is the spliced arrow of those runs.  Trimming of
    useless colors is on by default; disable it to audit the raw node count.
    """
    if grammar.category != automaton.base:
        raise CompositionError("grammar and automaton must share the base category")
    start_gap = grammar.gap_of(grammar.start)
    over = automaton.state_over
    if start_gap != GapType(over[automaton.initial], over[automaton.final]):
        raise CompositionError(
            "start symbol's gap type does not match the initial/final state objects"
        )

    state_names = [s.name for s in automaton.states]
    colors: list[PullbackColor] = []
    for q in state_names:
        for color in grammar.species.colors:
            gap = grammar.gap_of(color)
            if over[q] != gap.left:
                continue
            for q2 in state_names:
                if over[q2] == gap.right:
                    colors.append(PullbackColor(q, color, q2))

    run_table: dict[tuple[str, ...], dict[str, tuple[Path, ...]]] = {}

    def runs_from(seg: Path, q: str) -> tuple[Path, ...]:
        key = (seg.src, *seg.gens)
        if key not in run_table:
            run_table[key] = dict(runs_by_source(automaton, seg))
        return run_table[key][q]

    nodes: list[Node] = []
    node_splice: dict[str, SplicedArrow] = {}

    for node in grammar.species.nodes:
        # the source state of each run is a free endpoint choice; only its
        # underlying object is constrained
        per_segment = [
            [run for q in state_names if over[q] == seg.src for run in runs_from(seg, q)]
            for seg in grammar.splice_of(node.name).segments
        ]
        for runs in itertools.product(*per_segment):
            q, q2 = runs[0].src, runs[-1].dst
            inputs = tuple(
                PullbackColor(runs[i].dst, c, runs[i + 1].src).name
                for i, c in enumerate(node.inputs)
            )
            name = f"({node.name}|{'|'.join(_run_label(r) for r in runs)})"
            nodes.append(Node(name, inputs, PullbackColor(q, node.output, q2).name))
            node_splice[name] = SplicedArrow(
                outer=GapType(q, q2),
                gaps=tuple(GapType(runs[i].dst, runs[i + 1].src) for i in range(len(runs) - 1)),
                segments=runs,
            )

    species = Species(
        colors=tuple(c.name for c in colors),
        nodes=tuple(nodes),
    )
    color_gap = {c.name: GapType(c.src, c.dst) for c in colors}
    start = PullbackColor(automaton.initial, grammar.start, automaton.final).name
    result = Grammar(automaton.state_graph, species, start, color_gap, node_splice)
    return trim(result) if trim_useless else result


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
    automaton's: the functorial image of the pullback along the functor that
    re-reads runs as base arrows."""
    pulled = pullback_grammar(grammar, automaton, trim_useless=trim_useless)
    return functorial_image(pulled, automaton.functor)
