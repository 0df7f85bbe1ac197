"""Context-free grammars of arrows.

A grammar is a finite species together with a start color and an assignment
sending every color to a gap type and every node to a spliced arrow of the
matching shape.  Closed derivation trees evaluate to constants, i.e. arrows;
the language of the grammar is the set of arrows derived at the start color.

The module also provides the classical import/export over a one-object
category, the nullable and useful nonterminals, the closure constructions
(union, spliced concatenation, functorial image), bilinearization, and a
bounded language equivalence check, which diffs the two grammars' bounded
languages as ``catgram.oracle`` computes them (least fixed points on word
sets).  Union, spliced concatenation, bilinearization and the chromatic
collapse rewrite rule data, read off with ``_rules``, and build through
``grammar_from_rules``, which only assembles: the ``Grammar`` constructor is
the one statement of a valid grammar.  The functorial image maps each
splice's segments.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import Callable, Iterable, Mapping, Sequence

from .errors import Checked, CompositionError, InputError
from .freecat import (
    STAR,
    FiniteGraph,
    FreeFunctor,
    Path,
    apply_functor,
    monoid_graph,
)
from .species import DerivationTree, Leaf, Node, Species, _inputs, _output, derivable, root_color, walk
from .spliced import GapType, SplicedArrow


class Grammar(Checked, namedtuple("Grammar", "category species start color_gap node_splice")):
    """A grammar checks itself when built: the color/node assignment is a
    species map into the spliced-arrow operad.  ``Grammar(...)`` and
    ``_replace`` raise its first fault as an ``InputError``, reading the
    start, then each color's gap type, then node by node its spliced arrow
    and segment by segment its paths; a segment that is no path says why,
    or which type it has.  So no consumer re-checks a grammar.  ``_make``
    is the one path that skips the check."""

    __slots__ = ()

    def __new__(
        cls,
        category: FiniteGraph,
        species: Species,
        start: str,
        color_gap: Mapping[str, GapType],
        node_splice: Mapping[str, SplicedArrow],
    ) -> Grammar:
        grammar = super().__new__(cls, category, species, start, dict(color_gap), dict(node_splice))
        color_gap, node_splice = grammar.color_gap, grammar.node_splice
        if start not in set(species.colors):
            raise InputError(f"start symbol {start!r} is not a declared color")
        for c in species.colors:
            gap = color_gap.get(c)
            if gap is None:
                raise InputError(f"color {c!r} has no gap type")
            if not category.has_object(gap.left) or not category.has_object(gap.right):
                raise InputError(f"color {c!r} has gap type outside the category")
        # every color has a gap type now
        for node in species.nodes:
            splice = node_splice.get(node.name)
            if splice is None:
                raise InputError(f"node {node.name!r} has no spliced arrow")
            if splice.arity != node.arity:
                raise InputError(
                    f"node {node.name!r} has arity {node.arity} but its spliced arrow has "
                    f"arity {splice.arity}"
                )
            outer = color_gap[node.output]
            if splice.outer != outer:
                raise InputError(
                    f"node {node.name!r}: outer type ({splice.outer.left},{splice.outer.right}) "
                    f"differs from gap type ({outer.left},{outer.right}) of {node.output!r}"
                )
            for i, (got, c) in enumerate(zip(splice.gaps, node.inputs)):
                want = color_gap[c]
                if got != want:
                    raise InputError(
                        f"node {node.name!r}: gap {i} is ({got.left},{got.right}), expected "
                        f"({want.left},{want.right}) for input {c!r}"
                    )
            for i, seg in enumerate(splice.segments):
                if category.contains_path(seg):
                    continue
                try:  # walked again, only for the message
                    walked = category.path(seg.gens, src=None if seg.gens else seg.src)
                except (InputError, CompositionError) as exc:
                    fault = f": {exc}"
                else:
                    fault = f" has type {walked.src}->{walked.dst}, expected {seg.src}->{seg.dst}"
                raise InputError(f"node {node.name!r}: segment {i}{fault}")
        return grammar

    def gap_of(self, color: str) -> GapType:
        return self.color_gap[color]

    def splice_of(self, node_name: str) -> SplicedArrow:
        return self.node_splice[node_name]

    __hash__ = None  # type: ignore[assignment]


def grammar_from_rules(
    category: FiniteGraph,
    start: str,
    nonterminals: Mapping[str, tuple[str, str]],
    rules: Iterable[tuple[str, str, Sequence[str], Sequence[Sequence[str]]]],
) -> Grammar:
    """Assemble a grammar from rule data; ``Grammar`` checks it.

    Each rule is ``(name, output, inputs, segments)`` with one more segment
    than inputs, each given as a sequence of generator names and run between
    the ends the gap types force, so an empty segment is an identity path
    there.  A wrong segment count is an ``InputError`` that names its rule;
    ``Species`` refuses an undeclared color, and ``Grammar`` any other
    fault.
    """
    color_gap = {c: GapType(left, right) for c, (left, right) in nonterminals.items()}
    rules = list(rules)
    nodes = tuple(Node(name, tuple(inputs), output) for name, output, inputs, _ in rules)
    species = Species(colors=tuple(nonterminals), nodes=nodes)
    node_splice: dict[str, SplicedArrow] = {}
    for name, output, inputs, segments in rules:
        if len(segments) != len(inputs) + 1:
            raise InputError(
                f"rule {name!r} needs {len(inputs) + 1} segments, got {len(segments)}"
            )
        outer = color_gap[output]
        ends = [outer.left, *(end for c in inputs for end in color_gap[c]), outer.right]
        node_splice[name] = SplicedArrow(tuple(map(Path, ends[::2], ends[1::2], map(tuple, segments))))
    return Grammar(category, species, start, color_gap, node_splice)


def eval_tree(grammar: Grammar, tree: DerivationTree) -> SplicedArrow:
    """Evaluate a derivation tree to a spliced arrow, homomorphically.

    Closed trees yield constants; a leaf evaluates to the identity operation
    on its gap type.  One walk along the contour builds the result: each
    corner ``(t, i)`` appends segment ``i`` of ``t``'s splice to the current
    segment, and each leaf closes the segment at its gap.  The grammar is
    valid, so a tree of its own nodes is well typed; a node that is not one
    of them, or a root leaf of a color it lacks, is an ``InputError``.
    """
    if isinstance(tree, Leaf) and tree.color not in grammar.species.colors:
        raise InputError(f"tree leaf {tree.color!r} is not a color of the grammar")
    species, splices = grammar.species, grammar.node_splice
    segments: list[list[str]] = [[]]
    gaps: list[GapType] = []
    for t, i in walk(tree):
        if isinstance(t, Leaf):
            gaps.append(grammar.gap_of(t.color))
            segments.append([])
            continue
        if i == 0:
            species.check_own(t.node, "grammar")
        segments[-1] += splices[t.node.name].segments[i].gens
    outer = grammar.gap_of(root_color(tree))
    ends = [outer.left, *(end for gap in gaps for end in (gap.left, gap.right)), outer.right]
    return SplicedArrow(
        tuple(Path(ends[2 * k], ends[2 * k + 1], tuple(gens)) for k, gens in enumerate(segments))
    )


# ---------------------------------------------------------------------------
# nullable and useful colors


def nullable_set(grammar: Grammar) -> tuple[str, ...]:
    """Colors deriving an identity arrow, as a least fixed point."""
    nullable, _ = derivable(
        (node.inputs, node.output)
        for node in grammar.species.nodes
        if all(seg.is_identity for seg in grammar.splice_of(node.name).segments)
    )
    return tuple(c for c in grammar.species.colors if c in nullable)


def useful_set(grammar: Grammar) -> tuple[str, ...]:
    """Colors with a closed tree below them and a one-holed context up to the
    start color, read off ``_usable``."""
    productive, _, reachable = _usable(grammar)
    return tuple(c for c in grammar.species.colors if c in productive and c in reachable)


def _usable(grammar: Grammar) -> tuple[set[str], list[Node], set[str]]:
    """The productive colors, the usable nodes (those whose inputs are all
    productive: the productivity pass's fired edges) in declaration order,
    and the colors reachable from the start through usable nodes.

    The context search walks down only through usable nodes: the rest of
    a context must be completable to a closed tree, and a productive color
    below a node whose siblings are productive makes the node's output
    productive too.  So the useful colors are the productive reachable
    ones, and a usable node with a reachable output has useful colors only.
    """
    nodes = grammar.species.nodes
    productive, fired = derivable(zip(map(_inputs, nodes), map(_output, nodes)))
    usable = list(itertools.compress(nodes, fired))
    reachable, _ = derivable(
        [((), grammar.start)]
        + [((node.output,), c) for node in usable for c in node.inputs]
    )
    return productive, usable, reachable


# ---------------------------------------------------------------------------
# classical import / export


def import_classical(
    sigma: Iterable[str],
    nonterminals: Iterable[str],
    start: str,
    productions: Iterable[tuple[str, Sequence[str]]],
) -> Grammar:
    """Read a classical context-free grammar as a grammar of arrows over the
    one-object category of the alphabet.

    Each production is ``(lhs, rhs)`` where rhs is a sequence of symbols; a
    symbol matching a nonterminal name is a nonterminal occurrence, anything
    else is a word of terminal letters.
    """
    sigma = tuple(sigma)
    nts = tuple(nonterminals)
    category = monoid_graph(sigma)
    letters = set(sigma)
    nt_set = set(nts)
    rules = []
    for idx, (lhs, rhs) in enumerate(productions):
        if lhs not in nt_set:
            raise InputError(f"production {idx}: unknown nonterminal {lhs!r}")
        segments: list[list[str]] = [[]]
        inputs: list[str] = []
        for symbol in rhs:
            if symbol in nt_set:
                inputs.append(symbol)
                segments.append([])
            else:
                for ch in symbol:
                    if ch not in letters:
                        raise InputError(f"production {idx}: unknown symbol {ch!r}")
                    segments[-1].append(ch)
        rules.append((f"p{idx}", lhs, tuple(inputs), tuple(tuple(s) for s in segments)))
    return grammar_from_rules(
        category,
        start,
        {nt: (STAR, STAR) for nt in nts},
        rules,
    )


def parse_classical_text(text: str) -> tuple[tuple[str, ...], tuple[str, ...], str, list[tuple[str, list[str]]]]:
    """Parse the line format ``R -> w0 R1 w1 ... Rn wn`` with ``_`` for the
    empty word; alternatives may be separated by ``|``.

    Returns (alphabet, nonterminals, start, productions); the start symbol is
    the first left-hand side.
    """
    raw: list[tuple[str, list[str]]] = []
    lhss: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise InputError(f"line {lineno}: expected 'R -> ...'")
        lhs, rhs_text = line.split("->", 1)
        lhs = lhs.strip()
        if not lhs:
            raise InputError(f"line {lineno}: missing left-hand side")
        if lhs not in lhss:
            lhss.append(lhs)
        for alt in rhs_text.split("|"):
            tokens = [t for t in alt.split() if t != "_"]
            raw.append((lhs, tokens))
    if not raw:
        raise InputError("no productions found")
    nts = tuple(lhss)
    letters = {ch for _, tokens in raw for t in tokens if t not in nts for ch in t}
    return tuple(sorted(letters)), nts, nts[0], raw


def export_classical(grammar: Grammar) -> str:
    """Write a grammar over a one-object category back to the line format."""
    if len(grammar.category.objects) != 1:
        raise InputError("classical export needs a one-object category")
    lines = []
    for node in grammar.species.nodes:
        splice = grammar.splice_of(node.name)
        tokens: list[str] = []
        for i, seg in enumerate(splice.segments):
            if seg.gens:
                tokens.append("".join(seg.gens))
            if i < node.arity:
                tokens.append(node.inputs[i])
        lines.append(f"{node.output} -> {' '.join(tokens) if tokens else '_'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closure constructions


def _rules(
    grammar: Grammar, tag: str = "", color: Callable[[str], str] | None = None
) -> tuple[dict[str, tuple[str, str]], list[tuple]]:
    """The rule data of a grammar as ``grammar_from_rules`` reads it, in
    species order: node names end in ``tag``, and colors are renamed by
    ``color``, which by default appends ``tag`` too."""
    color = color or (lambda c: c + tag)
    gaps = grammar.color_gap
    nonterminals = {color(c): (gaps[c].left, gaps[c].right) for c in grammar.species.colors}
    rules = [
        (n.name + tag, color(n.output), tuple(map(color, n.inputs)),
         tuple(seg.gens for seg in grammar.node_splice[n.name].segments))
        for n in grammar.species.nodes
    ]
    return nonterminals, rules


def union(g1: Grammar, g2: Grammar) -> Grammar:
    """Union of two languages over the same gap type: disjoint union of the
    species plus a fresh start with two identity injections."""
    if g1.category != g2.category:
        raise CompositionError("union needs grammars over the same category")
    (nts1, rules1), (nts2, rules2) = _rules(g1, "#u1"), _rules(g2, "#u2")
    gap = g1.gap_of(g1.start)
    if gap != g2.gap_of(g2.start):
        raise CompositionError("union needs start symbols of the same gap type")
    injections = [(f"i{k}#u", "S#u", (f"{g.start}#u{k}",), ((), ())) for k, g in ((1, g1), (2, g2))]
    nonterminals = {"S#u": (gap.left, gap.right), **nts1, **nts2}
    return grammar_from_rules(g1.category, "S#u", nonterminals, injections + rules1 + rules2)


def spliced_concat(
    op: SplicedArrow,
    grammars: Sequence[Grammar],
    category: FiniteGraph | None = None,
) -> Grammar:
    """The language ``w0 L1 w1 ... Ln wn``: one fresh n-ary node splicing the
    component languages into the gaps of ``op``.

    The ambient category is taken from the grammars; the nullary case has
    none to take it from, so ``category`` must be passed explicitly there.
    """
    if len(grammars) != op.arity:
        raise CompositionError(f"operation of arity {op.arity} needs {op.arity} grammars")
    if grammars:
        if category is None:
            category = grammars[0].category
        if any(g.category != category for g in grammars):
            raise CompositionError("spliced_concat needs grammars over one category")
    elif category is None:
        raise InputError("spliced_concat with no grammars needs an explicit category")
    nonterminals = {"S#cat": (op.outer.left, op.outer.right)}
    inputs = tuple(f"{g.start}#cat{i + 1}" for i, g in enumerate(grammars))
    rules = [("x#cat", "S#cat", inputs, tuple(seg.gens for seg in op.segments))]
    for i, g in enumerate(grammars):
        more_nonterminals, more_rules = _rules(g, f"#cat{i + 1}")
        if op.gaps[i] != g.gap_of(g.start):
            raise CompositionError(
                f"gap {i} of the operation does not match the start type of grammar {i}"
            )
        nonterminals.update(more_nonterminals)
        rules += more_rules
    return grammar_from_rules(category, "S#cat", nonterminals, rules)


def functorial_image(grammar: Grammar, functor: FreeFunctor) -> Grammar:
    """Transport a grammar along a functor of categories: same species and
    start, segments replaced by their images."""
    if functor.domain != grammar.category:
        raise CompositionError("functor domain does not match the grammar's category")
    # each distinct segment (checked by ``apply_functor``) and gap type is
    # mapped once; an image is as long as its splice, so needs no check
    obj = functor.object_map
    gaps = functools.cache(lambda left, right: GapType(obj[left], obj[right]))
    images = functools.cache(functools.partial(apply_functor, functor))
    new, splices = tuple.__new__, grammar.node_splice
    node_splice = {
        node.name: new(SplicedArrow, (tuple(map(images, splices[node.name].segments)),))
        for node in grammar.species.nodes
    }
    # the image keeps its species, and both tables are new
    color_gap = {c: gaps(g.left, g.right) for c, g in grammar.color_gap.items()}
    return new(Grammar, (functor.codomain, grammar.species, grammar.start, color_gap, node_splice))


def bilinearize(grammar: Grammar) -> Grammar:
    """Rewrite every node of arity three or more as a chain of one nullary
    and n binary nodes over fresh interface colors, preserving derivations
    one-to-one.  Nodes of arity at most two pass through unchanged."""
    nonterminals, rules = _rules(grammar)
    chained = []
    for name, output, inputs, segments in rules:
        n = len(inputs)
        if n <= 2:
            chained.append((name, output, inputs, segments))
            continue
        # I(name,i) refines (A, A_i): the output's left end to input i's
        chain = [f"I({name},{i})" for i in range(n)] + [output]
        for link, c in zip(chain, inputs):
            if link in nonterminals:
                raise InputError(f"duplicate color name {link!r} in species")
            nonterminals[link] = (nonterminals[output][0], nonterminals[c][0])
        chained.append((f"{name}#b0", chain[0], (), segments[:1]))
        chained += [
            (f"{name}#b{i}", chain[i], (chain[i - 1], inputs[i - 1]), ((), (), segments[i]))
            for i in range(1, n + 1)
        ]
    return grammar_from_rules(grammar.category, grammar.start, nonterminals, chained)


def check_equiv_bounded(g1: Grammar, g2: Grammar, max_len: int) -> Path | None:
    """Compare the two languages on all words up to ``max_len``: the least
    word (length first, then generator names) in exactly one of the two
    bounded languages, or None when they agree.  This is a bounded check,
    not a decision procedure.
    """
    # imported at call time: the oracle imports this module
    from .oracle import _path_key, enumerate_language

    if g1.category != g2.category:
        raise CompositionError("bounded equivalence needs grammars over one category")
    if g1.gap_of(g1.start) != g2.gap_of(g2.start):
        raise CompositionError("start symbols have different gap types")
    differ = set(enumerate_language(g1, max_len)) ^ set(enumerate_language(g2, max_len))
    return min(differ, key=_path_key, default=None)
