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

Contour categories are built only for free operads here; general operads
would need the quotient presentation and a word-problem solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CompositionError, InputError
from .automaton import Automaton, State, Transition
from .freecat import FiniteGraph, FreeFunctor, Generator, Path
from .grammar import Grammar
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


@dataclass(frozen=True)
class Corner:
    """Generating arrow of the contour category: a node and a boundary index."""

    node: Node
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index <= self.node.arity:
            raise InputError(
                f"corner index {self.index} out of range for arity {self.node.arity}"
            )

    @property
    def name(self) -> str:
        return corner_name(self.node.name, self.index)

    @property
    def src(self) -> str:
        if self.index == 0:
            return up(self.node.output)
        return down(self.node.inputs[self.index - 1])

    @property
    def dst(self) -> str:
        if self.index == self.node.arity:
            return down(self.node.output)
        return up(self.node.inputs[self.index])


def corners_of(species: Species) -> tuple[Corner, ...]:
    return tuple(
        Corner(node, i) for node in species.nodes for i in range(node.arity + 1)
    )


def contour_category(species: Species) -> FiniteGraph:
    """The free category on oriented colors and corners."""
    objects: list[str] = []
    for c in species.colors:
        objects.append(up(c))
        objects.append(down(c))
    generators = tuple(Generator(c.name, c.src, c.dst) for c in corners_of(species))
    return FiniteGraph(tuple(objects), generators)


def universal_grammar(species: Species, start: str) -> Grammar:
    """The grammar of tree contours over the contour category: each color
    refines its own oriented pair and each node splices its own corners."""
    if start not in set(species.colors):
        raise InputError(f"unknown start color {start!r}")
    graph = contour_category(species)
    color_gap = {c: GapType(up(c), down(c)) for c in species.colors}
    node_splice = {}
    for node in species.nodes:
        corners = [Corner(node, i) for i in range(node.arity + 1)]
        node_splice[node.name] = SplicedArrow(
            outer=color_gap[node.output],
            gaps=tuple(color_gap[c] for c in node.inputs),
            segments=tuple(Path(c.src, c.dst, (c.name,)) for c in corners),
        )
    return Grammar(graph, species, start, color_gap, node_splice)


def contour_word(species: Species, tree: DerivationTree) -> Path:
    """The corner sequence traced by walking around a closed tree; equals the
    evaluation of the tree in the universal grammar."""
    gens: list[str] = []
    for t, i in walk(tree):
        if isinstance(t, Leaf):
            raise InputError("contour words are defined for closed trees")
        gens.append(corner_name(t.node.name, i))
    root = tree.node.output  # type: ignore[union-attr]
    return Path(up(root), down(root), tuple(gens))


def contour_interpretation(grammar: Grammar) -> FreeFunctor:
    """The functor from the contour category of the grammar's species to its
    base category, reading each corner as the matching splice segment."""
    dom = contour_category(grammar.species)
    object_map = {}
    for c in grammar.species.colors:
        gap = grammar.gap_of(c)
        object_map[up(c)] = gap.left
        object_map[down(c)] = gap.right
    generator_map = {}
    for node in grammar.species.nodes:
        splice = grammar.splice_of(node.name)
        for i in range(node.arity + 1):
            generator_map[corner_name(node.name, i)] = splice.segments[i]
    return FreeFunctor(
        domain=dom,
        codomain=grammar.category,
        object_map=object_map,
        generator_map=generator_map,
    )


def contour_functor(phi: SpeciesMap) -> FreeFunctor:
    """The functor between contour categories induced by a species map; it
    sends corners to corners, so it is a finitary ULF functor."""
    dom = contour_category(phi.source)
    cod = contour_category(phi.target)
    object_map = {}
    for c in phi.source.colors:
        object_map[up(c)] = up(phi.apply_color(c))
        object_map[down(c)] = down(phi.apply_color(c))
    generator_map = {}
    for corner in corners_of(phi.source):
        image = Corner(phi.target.node_by_name[phi.apply_node(corner.node.name)], corner.index)
        generator_map[corner.name] = Path(image.src, image.dst, (image.name,))
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
    seen: list[str] = []
    gap_of_color: dict[str, str] = {}
    for c in grammar.species.colors:
        name = gap_color(grammar.gap_of(c))
        gap_of_color[c] = name
        if name not in seen:
            seen.append(name)
    chrom_species = Species(
        colors=tuple(seen),
        nodes=tuple(
            Node(n.name, tuple(gap_of_color[c] for c in n.inputs), gap_of_color[n.output])
            for n in grammar.species.nodes
        ),
    )
    chromatic = Grammar(
        category=grammar.category,
        species=chrom_species,
        start=gap_of_color[grammar.start],
        color_gap={name: grammar.gap_of(c) for c, name in gap_of_color.items()},
        node_splice=dict(grammar.node_splice),
    )
    collapse = SpeciesMap(
        source=grammar.species,
        target=chrom_species,
        color_map=gap_of_color,
        node_map={n.name: n.name for n in grammar.species.nodes},
    )
    return chromatic, collapse


def colors_automaton(grammar: Grammar) -> Automaton:
    """The finite automaton on oriented colors over the chromatic contour
    category; its runs recolor chromatic contours back to the original
    species.  All oriented colors are kept as states, reachable or not."""
    chromatic, collapse = chromatic_factorization(grammar)
    base = contour_category(chromatic.species)
    states = []
    for c in grammar.species.colors:
        target = collapse.apply_color(c)
        states.append(State(up(c), up(target)))
        states.append(State(down(c), down(target)))
    transitions = tuple(
        Transition(corner.name, corner.src, corner.dst, corner.name)
        for corner in corners_of(grammar.species)
    )
    return Automaton(
        base=base,
        states=tuple(states),
        transitions=transitions,
        initial=up(grammar.start),
        final=down(grammar.start),
    )


@dataclass(frozen=True)
class CSDecomposition:
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
        automaton=colors_automaton(grammar),
        interpretation=contour_interpretation(chromatic),
        chromatic=chromatic,
        collapse=collapse,
    )


def cs_check(grammar: Grammar, max_len: int) -> tuple[bool, tuple[Path, ...], tuple[Path, ...]]:
    """Bounded verification of the decomposition: compare the language with
    the image of the intersection, on all arrows up to ``max_len``."""
    from .grammar import functorial_image
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


@dataclass(frozen=True)
class DyckLetter:
    bracket: str
    node: str
    index: int

    def __post_init__(self) -> None:
        if self.bracket not in ("[", "]"):
            raise InputError(f"bracket must be '[' or ']', got {self.bracket!r}")


def dyck_translate(species: Species, cw: Path) -> tuple[DyckLetter, ...]:
    """Expand each corner into two annotated brackets.

    A corner first closes the edge it arrives on (opening at index 0, where
    it arrives from above) and then opens the edge it leaves on (closing at
    the last index, where it leaves downward), doubling the word length.
    """
    table = {c.name: c for c in corners_of(species)}
    letters: list[DyckLetter] = []
    for name in cw.gens:
        corner = table.get(name)
        if corner is None:
            raise InputError(f"unknown corner {name!r}")
        n = corner.node.arity
        i = corner.index
        letters.append(DyckLetter("[" if i == 0 else "]", corner.node.name, i))
        letters.append(DyckLetter("[" if i < n else "]", corner.node.name, i))
    return tuple(letters)


def dyck_decode(species: Species, letters: Iterable[DyckLetter]) -> Path:
    """Recover the contour word from its bracket expansion, validating the
    pairing and the two orientation rules."""
    letters = tuple(letters)
    if not letters:
        raise InputError("empty letter sequence")
    if len(letters) % 2 != 0:
        raise InputError("odd number of letters")
    gens: list[str] = []
    for k in range(0, len(letters), 2):
        first, second = letters[k], letters[k + 1]
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
        gens.append(corner_name(node.name, i))
    graph = contour_category(species)
    try:
        return graph.path(tuple(gens))
    except CompositionError as exc:
        raise InputError(f"letters do not decode to a contour path: {exc}") from exc


def brackets(letters: Iterable[DyckLetter]) -> str:
    return "".join(l.bracket for l in letters)
