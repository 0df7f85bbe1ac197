"""``Grammar`` and ``SpeciesMap`` refuse the first fault in reading order.

Each constructor raises where it finds a fault.  The references below
list every fault instead, in the reading order the constructors keep: a
grammar's start, then each color's gap type, then node by node its spliced
arrow and segment by segment its paths; a species map's colors, then node
by node.  A value made by ``_make``, with no fault or several, must be
refused with the reference's first message, or build when it lists none.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catgram import (
    CompositionError,
    GapType,
    InputError,
    Path,
    SplicedArrow,
    chromatic_factorization,
    identity_path,
)
from catgram.fixtures import G_AB, G_AMB, G_END, G_TERN, GRAPH_AB_END, SPC_FIG3
from catgram.grammar import Grammar
from catgram.species import Node, Species, SpeciesMap, identity_species_map
from test_automaton import _alternating_ta
from test_parser import random_grammars

TOP = "⊤"


def reference_validate(grammar):
    """Every fault of a grammar, in reading order."""
    problems = []
    cat = grammar.category
    if grammar.start not in set(grammar.species.colors):
        problems.append(f"start symbol {grammar.start!r} is not a declared color")
    for c in grammar.species.colors:
        gap = grammar.color_gap.get(c)
        if gap is None:
            problems.append(f"color {c!r} has no gap type")
        elif not cat.has_object(gap.left) or not cat.has_object(gap.right):
            problems.append(f"color {c!r} has gap type outside the category")
    for node in grammar.species.nodes:
        splice = grammar.node_splice.get(node.name)
        if splice is None:
            problems.append(f"node {node.name!r} has no spliced arrow")
            continue
        expected_outer = grammar.color_gap.get(node.output)
        expected_gaps = tuple(grammar.color_gap.get(c) for c in node.inputs)
        if splice.arity != node.arity:
            problems.append(
                f"node {node.name!r} has arity {node.arity} but its spliced arrow has "
                f"arity {splice.arity}"
            )
            continue
        if expected_outer is not None and splice.outer != expected_outer:
            problems.append(
                f"node {node.name!r}: outer type ({splice.outer.left},{splice.outer.right}) "
                f"differs from gap type ({expected_outer.left},{expected_outer.right}) of "
                f"{node.output!r}"
            )
        for i, (got, want) in enumerate(zip(splice.gaps, expected_gaps)):
            if want is not None and got != want:
                problems.append(
                    f"node {node.name!r}: gap {i} is ({got.left},{got.right}), expected "
                    f"({want.left},{want.right}) for input {node.inputs[i]!r}"
                )
        for i, seg in enumerate(splice.segments):
            if cat.contains_path(seg):
                continue
            try:
                walked = cat.path(seg.gens, src=None if seg.gens else seg.src)
            except (InputError, CompositionError) as exc:
                fault = f": {exc}"
            else:
                fault = f" has type {walked.src}->{walked.dst}, expected {seg.src}->{seg.dst}"
            problems.append(f"node {node.name!r}: segment {i}{fault}")
    return problems


def reference_validate_species_map(phi):
    """Every fault of a species map, in reading order."""
    problems = []
    declared = set(phi.target.colors)
    for c in phi.source.colors:
        if c not in phi.color_map:
            problems.append(f"color {c!r} missing from color map")
        elif phi.color_map[c] not in declared:
            problems.append(f"color {c!r} mapped to undeclared color {phi.color_map[c]!r}")
    for n in phi.source.nodes:
        if n.name not in phi.node_map:
            problems.append(f"node {n.name!r} missing from node map")
            continue
        image_name = phi.node_map[n.name]
        image = phi.target.node_by_name.get(image_name)
        if image is None:
            problems.append(f"node {n.name!r} mapped to undeclared node {image_name!r}")
            continue
        expected_inputs = tuple(phi.color_map.get(c, "?") for c in n.inputs)
        expected_output = phi.color_map.get(n.output, "?")
        if image.inputs != expected_inputs or image.output != expected_output:
            problems.append(
                f"node {n.name!r}: image {image_name!r} has type "
                f"{image.inputs} -> {image.output!r}, expected "
                f"{expected_inputs} -> {expected_output!r}"
            )
    return problems


def _check_first_fault(cls, fields, reference):
    """``cls(*fields)`` raises the reference's first message, or builds a
    value equal to the unchecked one when the reference lists none."""
    report = reference(cls._make(fields))
    if report:
        with pytest.raises(InputError) as info:
            cls(*fields)
        assert str(info.value) == report[0]
    else:
        assert cls(*fields) == cls._make(fields)
    return report


# -- grammars ------------------------------------------------------------------


@st.composite
def faulty_grammars(draw):
    """The fields of a random or fixture grammar with up to three faults
    planted, of the kinds the reference reports, any of them at once."""
    grammar = draw(st.one_of(st.sampled_from([G_AB, G_AMB, G_END, G_TERN]), random_grammars()))
    category, species, start = grammar.category, grammar.species, grammar.start
    color_gap, node_splice = dict(grammar.color_gap), dict(grammar.node_splice)
    objects = st.sampled_from([*category.objects, "x"])
    gens = st.lists(st.sampled_from([g.name for g in category.generators] + ["z"]), max_size=2)
    colors, names = species.colors, [n.name for n in species.nodes]
    for _ in range(draw(st.integers(0, 3))):
        # what is read first is planted least often; Hypothesis draws the
        # first entries most
        kind = draw(
            st.sampled_from(["segment"] * 5 + ["splice", "no-splice", "gap", "gap", "start"])
        )
        if kind == "start":
            start = "U"
        elif kind == "gap":
            # no gap type, or another one, inside the category or not
            c = draw(st.sampled_from(colors))
            color_gap.pop(c, None)
            if draw(st.booleans()):
                color_gap[c] = GapType(draw(objects), draw(objects))
        elif kind == "no-splice":
            node_splice.pop(draw(st.sampled_from(names)), None)
        elif kind == "splice":
            # another node's splice: another arity or other types
            other = grammar.node_splice[draw(st.sampled_from(names))]
            node_splice[draw(st.sampled_from(names))] = other
        else:
            # one segment of a node replaced by any generators, between its
            # own ends or any objects: an unknown generator, generators that
            # do not compose, a wrong type, or a wrong outer or gap type
            name = draw(st.sampled_from(names))
            segments = list(grammar.node_splice[name].segments)
            at = draw(st.integers(0, len(segments) - 1))
            src, dst = segments[at].src, segments[at].dst
            if draw(st.booleans()):
                src, dst = draw(objects), draw(objects)
            segments[at] = Path(src, dst, tuple(draw(gens)))
            node_splice[name] = SplicedArrow(tuple(segments))
    return category, species, start, color_gap, node_splice


@pytest.mark.deep
@given(faulty_grammars())
def test_grammar_raises_the_first_fault_on_random_grammars(fields):
    _check_first_fault(Grammar, fields, reference_validate)


def _g_ab(start="S", color_gap=None, **splices):
    node_splice = {**G_AB.node_splice, **splices}
    return (
        G_AB.category,
        G_AB.species,
        start,
        G_AB.color_gap if color_gap is None else color_gap,
        {k: v for k, v in node_splice.items() if v is not None},
    )


_OUT_OF_TYPE = SplicedArrow((Path("*", "*", ("a",)), Path(TOP, TOP, ())))
# a segment over the end marker that claims the type *->*
_MISTYPED = SplicedArrow((Path("*", "*", ("$",)), identity_path("*")))


@pytest.mark.parametrize(
    "fields, first, count",
    [
        (_g_ab(), None, 0),
        (_g_ab(start="X", color_gap={}, r0=None), "start symbol 'X' is not a declared color", 3),
        # a color without a gap type, and a node of another outer type
        (_g_ab(color_gap={}, r1=_OUT_OF_TYPE), "color 'S' has no gap type", 2),
        (
            _g_ab(color_gap={"S": GapType("*", "x")}, r0=None),
            "color 'S' has gap type outside the category",
            4,
        ),
        # r1 is read before r0, whatever fault each has
        (
            _g_ab(r1=_OUT_OF_TYPE, r0=None),
            "node 'r1': outer type (*,⊤) differs from gap type (*,*) of 'S'",
            4,
        ),
        (
            _g_ab(r1=G_AB.splice_of("r0"), r0=SplicedArrow((Path("*", "*", ("z",)),))),
            "node 'r1' has arity 1 but its spliced arrow has arity 0",
            2,
        ),
        (
            _g_ab(r1=SplicedArrow((Path("*", "*", ("z",)), Path("*", "*", ("b", "b", "c"))))),
            "node 'r1': segment 0: unknown generator(s) ['z']",
            2,
        ),
        (
            (GRAPH_AB_END, *_g_ab(r1=_MISTYPED)[1:]),
            "node 'r1': segment 0 has type *->⊤, expected *->*",
            1,
        ),
    ],
    ids=["valid", "start", "no-gap", "gap-outside", "outer", "arity", "segments", "segment-type"],
)
def test_grammar_raises_the_first_fault_on_pinned_cases(fields, first, count):
    report = _check_first_fault(Grammar, fields, reference_validate)
    assert (report[:1], len(report)) == ([first] if first else [], count)


# -- species maps --------------------------------------------------------------


@st.composite
def faulty_species_maps(draw):
    """The fields of an identity, chromatic or tree-automaton species map
    with up to three faults planted, any of them at once."""
    phi = draw(
        st.one_of(
            st.sampled_from([identity_species_map(SPC_FIG3), _alternating_ta()]),
            random_grammars().map(lambda g: chromatic_factorization(g)[1]),
            random_grammars().map(lambda g: identity_species_map(g.species)),
        )
    )
    color_map, node_map = dict(phi.color_map), dict(phi.node_map)
    colors = phi.source.colors
    names = [n.name for n in phi.source.nodes]
    targets = [n.name for n in phi.target.nodes]
    for _ in range(draw(st.integers(0, 3))):
        # colors are read first, so they are planted least often
        kind = draw(st.sampled_from(["node"] * 3 + ["no-node", "color", "no-color"]))
        if kind == "no-color":
            color_map.pop(draw(st.sampled_from(colors)), None)
        elif kind == "color":
            image = draw(st.sampled_from([*phi.target.colors, "x"]))
            color_map[draw(st.sampled_from(colors))] = image
        elif kind == "no-node":
            node_map.pop(draw(st.sampled_from(names)), None)
        else:
            node_map[draw(st.sampled_from(names))] = draw(st.sampled_from([*targets, "z"]))
    return phi.source, phi.target, color_map, node_map


@pytest.mark.deep
@given(faulty_species_maps())
def test_species_map_raises_the_first_fault_on_random_maps(fields):
    _check_first_fault(SpeciesMap, fields, reference_validate_species_map)


_ST = Species(("S", "T"), (Node("m", ("S", "T"), "S"), Node("s", (), "S"), Node("t", (), "T")))


@pytest.mark.parametrize(
    "fields, first, count",
    [
        (tuple(identity_species_map(_ST)), None, 0),
        # a color missing, and a node mapped outside
        (
            (_ST, _ST, {"T": "T"}, {"m": "m", "s": "z", "t": "t"}),
            "color 'S' missing from color map",
            3,
        ),
        (
            (_ST, _ST, {"S": "S", "T": "x"}, {"m": "m", "s": "s"}),
            "color 'T' mapped to undeclared color 'x'",
            3,
        ),
        # m is read before s and t, whatever fault each has
        (
            (_ST, _ST, {"S": "T", "T": "T"}, {"m": "t", "t": "z"}),
            "node 'm': image 't' has type () -> 'T', expected ('T', 'T') -> 'T'",
            3,
        ),
        (
            (_ST, _ST, {"S": "S", "T": "T"}, {"m": "m", "s": "t", "t": "t"}),
            "node 's': image 't' has type () -> 'T', expected () -> 'S'",
            1,
        ),
    ],
    ids=["valid", "missing-color", "undeclared-color", "node-order", "node-type"],
)
def test_species_map_raises_the_first_fault_on_pinned_cases(fields, first, count):
    report = _check_first_fault(SpeciesMap, fields, reference_validate_species_map)
    assert (report[:1], len(report)) == ([first] if first else [], count)
