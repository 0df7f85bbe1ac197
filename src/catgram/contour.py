"""Contour categories of species and the Chomsky-Schutzenberger pipeline.

The contour category of a species is the free category on corners: a node of
arity n contributes n+1 generators that walk its boundary, from the upward
side of the output color, across each input, back down to the output.  A
closed derivation tree traces out a contour word, the sequence of corners
met when walking around the tree; this encoding is faithful, and every
grammar on the species factors through it.

The decomposition splits a grammar into (i) the universal grammar of its
chromatic species, whose nonterminals are gap types only, (ii) a finite
automaton on oriented colors checking that contours can be recolored
consistently, and (iii) a functor interpreting corners as the grammar's
actual segments.  The grammar's language is the image under (iii) of the
intersection of the languages of (i) and (ii).

The contour category depends only on the species, so it is built once per
species value, and every construction here reads that one table: the
graph, each corner's node and index, endpoints and two Dyck letters, the
corner of each letter pair, and each node's corner names.  Translating a
contour word to letters and back is then one lookup per corner.  Contour
categories are built only for free operads here; general operads would need
the quotient presentation and a word-problem solver.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import CompositionError, InputError
from .automaton import Automaton, automaton_of
from .freecat import FiniteGraph, FreeFunctor, Generator, Path
from .grammar import Grammar, _rules, functorial_image, grammar_from_rules
from .species import DerivationTree, Leaf, Node, Species, SpeciesMap, walk
from .spliced import GapType, SplicedArrow

UP = "↑"
DOWN = "↓"


def up(color: str) -> str:
    return color + UP


def down(color: str) -> str:
    return color + DOWN


def corner_name(node_name: str, index: int) -> str:
    return f"({node_name},{index})"


class DyckLetter(NamedTuple):
    bracket: str
    node: str
    index: int


class _Table(NamedTuple):
    """What every contour function reads of one species."""

    graph: FiniteGraph
    corners: Mapping[str, tuple[Node, int]]  # name -> (node, index)
    names: Mapping[str, tuple[str, ...]]  # node name -> its corner names
    encode: Mapping[str, tuple[str, str, DyckLetter, DyckLetter]]  # name -> (src, dst, letters)
    decode: Mapping[tuple[DyckLetter, DyckLetter], str]  # letter pair -> corner name


@lru_cache(maxsize=64)
def _contour_table(species: Species) -> _Table:
    """The contour category of a species, its corners by name and by letter
    pair, and each node's corner names; built once per species value.

    A node of arity n has corners 0..n: corner i leaves the output color
    upward (i = 0) or input i-1 downward, and arrives at input i upward or
    at the output downward (i = n).  Generators come node by node, each
    node's corners in index order.  Corner i first closes the edge it
    arrives on, unless it arrives from above (i = 0), and then opens the
    edge it leaves on, unless it leaves downward (i = n): its two letters.
    """
    objects = tuple(o for c in species.colors for o in (up(c), down(c)))
    generators: list[Generator] = []
    corners: dict[str, tuple[Node, int]] = {}
    names: dict[str, tuple[str, ...]] = {}
    encode: dict[str, tuple[str, str, DyckLetter, DyckLetter]] = {}
    for node in species.nodes:
        sources = (up(node.output), *map(down, node.inputs))
        targets = (*map(up, node.inputs), down(node.output))
        own = names[node.name] = tuple(corner_name(node.name, i) for i in range(node.arity + 1))
        for i, (name, src, dst) in enumerate(zip(own, sources, targets)):
            generators.append(Generator(name, src, dst))
            corners[name] = (node, i)
            first = DyckLetter("[" if i == 0 else "]", node.name, i)
            second = DyckLetter("[" if i < node.arity else "]", node.name, i)
            encode[name] = (src, dst, first, second)
    decode = {(first, second): name for name, (_, _, first, second) in encode.items()}
    return _Table(
        FiniteGraph(objects, tuple(generators)),
        *map(MappingProxyType, (corners, names, encode, decode)),
    )


def contour_category(species: Species) -> FiniteGraph:
    """The free category on oriented colors and corners."""
    return _contour_table(species).graph


def universal_grammar(species: Species, start: str) -> Grammar:
    """The grammar of tree contours over the contour category: each color
    refines its own oriented pair and each node splices its own corners."""
    graph = contour_category(species)
    color_gap = {c: GapType(up(c), down(c)) for c in species.colors}
    corners = iter(graph.generators)  # node by node, each in index order
    node_splice = {
        node.name: SplicedArrow(
            tuple(Path(g.src, g.dst, (g.name,)) for g in islice(corners, node.arity + 1))
        )
        for node in species.nodes
    }
    return Grammar(graph, species, start, color_gap, node_splice)


def contour_word(species: Species, tree: DerivationTree) -> Path:
    """The corner sequence traced by walking around a closed tree; equals the
    evaluation of the tree in the universal grammar."""
    names = _contour_table(species).names
    gens: list[str] = []
    for t, i in walk(tree):
        if isinstance(t, Leaf):
            raise InputError("contour words are defined for closed trees")
        if i == 0:
            species.check_own(t.node, "species")
        gens.append(names[t.node.name][i])
    root = tree.node.output  # type: ignore[union-attr]
    return Path(up(root), down(root), tuple(gens))


def contour_interpretation(grammar: Grammar) -> FreeFunctor:
    """The functor from the contour category of the grammar's species to its
    base category, reading each corner as the matching splice segment."""
    table = _contour_table(grammar.species)
    dom, corners = table.graph, table.corners
    object_map = {}
    for c in grammar.species.colors:
        gap = grammar.gap_of(c)
        object_map[up(c)] = gap.left
        object_map[down(c)] = gap.right
    generator_map = {
        name: grammar.splice_of(node.name).segments[i] for name, (node, i) in corners.items()
    }
    return FreeFunctor(
        domain=dom,
        codomain=grammar.category,
        object_map=object_map,
        generator_map=generator_map,
    )


def contour_functor(phi: SpeciesMap) -> FreeFunctor:
    """The functor between contour categories induced by a species map; it
    sends corners to corners, so it is a finitary ULF functor."""
    table = _contour_table(phi.source)
    dom, corners = table.graph, table.corners
    cod = contour_category(phi.target)
    object_map = {}
    for c in phi.source.colors:
        object_map[up(c)] = up(phi.apply_color(c))
        object_map[down(c)] = down(phi.apply_color(c))
    generator_map = {}
    for g in dom.generators:
        # FreeFunctor checks that the target species has this corner
        node, i = corners[g.name]
        image = corner_name(phi.apply_node(node.name), i)
        generator_map[g.name] = Path(object_map[g.src], object_map[g.dst], (image,))
    return FreeFunctor(dom, cod, object_map, generator_map)


def gap_color(gap: GapType) -> str:
    return f"({gap.left},{gap.right})"


def chromatic_factorization(grammar: Grammar) -> tuple[Grammar, SpeciesMap]:
    """Collapse nonterminals to their gap types.

    Returns the chromatic grammar, whose colors are exactly the gap types
    occurring in the original grammar, and the species map performing the
    collapse (identity on nodes).  The chromatic language only loses
    coloring constraints, so it contains the original one.
    """
    def recolor(c: str) -> str:
        return gap_color(grammar.gap_of(c))

    nonterminals, rules = _rules(grammar, color=recolor)
    chromatic = grammar_from_rules(grammar.category, recolor(grammar.start), nonterminals, rules)
    collapse = SpeciesMap(
        source=grammar.species,
        target=chromatic.species,
        color_map={c: recolor(c) for c in grammar.species.colors},
        node_map={n.name: n.name for n in grammar.species.nodes},
    )
    return chromatic, collapse


class CSDecomposition(NamedTuple):
    """The three components exhibiting a language as an image of a chromatic
    tree contour language intersected with a regular language."""

    universal: Grammar
    automaton: Automaton
    interpretation: FreeFunctor
    chromatic: Grammar
    collapse: SpeciesMap


def cs_decompose(grammar: Grammar) -> CSDecomposition:
    chromatic, collapse = chromatic_factorization(grammar)
    return CSDecomposition(
        universal=universal_grammar(chromatic.species, chromatic.start),
        # the colors automaton, read off the collapse at hand: its runs recolor
        # chromatic contours back to the species; every oriented color is a state
        automaton=automaton_of(contour_functor(collapse), up(grammar.start), down(grammar.start)),
        interpretation=contour_interpretation(chromatic),
        chromatic=chromatic,
        collapse=collapse,
    )


def cs_check(grammar: Grammar, max_len: int) -> tuple[bool, tuple[Path, ...], tuple[Path, ...]]:
    """Bounded verification of the decomposition: compare the language with
    the image of the intersection, on all arrows up to ``max_len``."""
    from .oracle import enumerate_language
    from .product import intersect

    parts = cs_decompose(grammar)
    lhs = enumerate_language(grammar, max_len)
    recolored = intersect(parts.universal, parts.automaton)
    image = functorial_image(recolored, parts.interpretation)
    rhs = enumerate_language(image, max_len)
    return (set(lhs) == set(rhs), lhs, rhs)


# ---------------------------------------------------------------------------
# Dyck translation


_NO_TREE = "not the contour of a closed tree"
_NO_PATH = "not a path of the contour category"


def _pairing_fault(out_of_turn: tuple[int, str, int] | None, waiting: list) -> None:
    """Raise the first fault of a stack pass over the second letters of a
    path's corners.  Letters obeying the orientation rules pair as the
    translation pairs them, so each corner ``(x,i)`` with i > 0 must be the
    next one of the innermost open node; ``out_of_turn`` is the first ``(k,
    x, i)`` that was not, ``waiting`` the next corner of each node left open."""
    if out_of_turn is not None:
        k, name, i = out_of_turn
        raise InputError(f"corner {k} {corner_name(name, i)} is out of turn: {_NO_TREE}")
    if waiting:
        raise InputError(f"the path ends inside {len(waiting)} open node(s): {_NO_TREE}")


def dyck_translate(species: Species, cw: Path) -> tuple[DyckLetter, ...]:
    """Expand each corner into its two annotated brackets, doubling the word
    length.  A path whose corners do not compose from its source to its
    target, or that is the contour of no closed tree, is rejected, in one
    pass that raises a pairing fault only once the corners compose."""
    if cw.is_identity:
        raise InputError(f"identity path at {cw.src!r} is {_NO_TREE}")
    encode = _contour_table(species).encode
    letters: list[DyckLetter] = []
    waiting: list[tuple[str, int]] = []  # the next corner of each open node
    at, out_of_turn = cw.src, None
    for k, name in enumerate(cw.gens):
        corner = encode.get(name)
        if corner is None:
            raise InputError(f"unknown corner {name!r}")
        src, at_next, first, second = corner
        if src != at:
            raise InputError(f"corner {k} {name} starts at {src!r}, not at {at!r}: {_NO_PATH}")
        at = at_next
        letters += (first, second)
        bracket, node, i = second
        if i and (not waiting or waiting.pop() != (node, i)):
            out_of_turn = out_of_turn or (k, node, i)
        elif bracket == "[":
            waiting.append((node, i + 1))
    if at != cw.dst:
        raise InputError(f"the corners end at {at!r}, not at {cw.dst!r}: {_NO_PATH}")
    _pairing_fault(out_of_turn, waiting)
    return tuple(letters)


def dyck_decode(species: Species, letters: Iterable[DyckLetter]) -> Path:
    """Recover the contour word from its bracket expansion, validating the
    pairing, the two orientation rules and that it is a tree's contour, in
    one pass: composition and pairing faults are raised after it, in turn."""
    letters = tuple(letters)
    if not letters:
        raise InputError("empty letter sequence")
    if len(letters) % 2 != 0:
        raise InputError("odd number of letters")
    table = _contour_table(species)
    corner_of, encode = table.decode.get, table.encode
    gens: list[str] = []
    waiting: list[tuple[str, int]] = []
    at, out_of_turn, composes = None, None, True
    for j, pair in enumerate(zip(letters[::2], letters[1::2])):
        name = corner_of(pair)
        # 1.0 and True equal the index 1, but name no corner
        if name is None or type(pair[0].index) is not int:
            name = _corner_of_pair(species, 2 * j, *pair)
        gens.append(name)
        corner = encode.get(name)
        composes = composes and corner is not None and (not j or corner[0] == at)
        at = corner and corner[1]
        bracket, node, i = pair[1]
        if i and (not waiting or waiting.pop() != (node, i)):
            out_of_turn = out_of_turn or (j, node, i)
        elif bracket == "[":
            waiting.append((node, i + 1))
    if not composes:
        try:
            table.graph.path(gens)  # raises the first fault
        except CompositionError as exc:
            raise InputError(f"letters do not decode to a contour path: {exc}") from exc
    _pairing_fault(out_of_turn, waiting)
    return Path(encode[gens[0]][0], at, tuple(gens))


def _corner_of_pair(species: Species, k: int, first: DyckLetter, second: DyckLetter) -> str:
    """The corner that letters ``k`` and ``k + 1`` annotate, by the pairing
    and orientation rules; the error names the first rule they break."""
    if (first.node, first.index) != (second.node, second.index):
        raise InputError(
            f"letters {k} and {k + 1} do not annotate the same corner: "
            f"({first.node},{first.index}) vs ({second.node},{second.index})"
        )
    node = species.node_by_name.get(first.node)
    if node is None:
        raise InputError(f"unknown node {first.node!r}")
    i = first.index
    if not 0 <= i <= node.arity:
        raise InputError(f"corner index {i} out of range for node {node.name!r}")
    if first.bracket != ("[" if i == 0 else "]"):
        raise InputError(f"letter {k} violates the arrival orientation rule")
    if second.bracket != ("[" if i < node.arity else "]"):
        raise InputError(f"letter {k + 1} violates the departure orientation rule")
    return corner_name(node.name, i)


def brackets(letters: Iterable[DyckLetter]) -> str:
    return "".join(l.bracket for l in letters)
