import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catgram import (
    Automaton,
    CompositionError,
    State,
    Transition,
    apply_functor,
    enumerate_language,
    enumerate_paths,
    enumerate_regular_language,
    grammar_from_rules,
    intersect,
    interval_automaton,
    pullback_grammar,
    run_membership,
    trim,
    word,
)
from catgram.automaton import runs_by_source
from catgram.fixtures import G_AB, G_AMB, G_END, GRAPH_A, GRAPH_AB, M_EVENA
from conftest import words
from test_parser import GRAPH_PQ, RANDOM_WORD_BOUND, random_grammars


def lang(g, n):
    return words(enumerate_language(g, n))


def test_intersection_with_even_a_parity():
    got = intersect(G_AB, M_EVENA)
    assert lang(got, 8) == {"aabb", "aaaabbbb"}
    assert lang(got, 8) == lang(G_AB, 8) & words(enumerate_regular_language(M_EVENA, 8))


def test_run_level_intersection_law():
    # a run is in the pullback language exactly when its image is in the
    # grammar's language
    pulled = pullback_grammar(G_AB, M_EVENA)
    pullback_lang = set(enumerate_language(pulled, 8))
    grammar_lang = set(enumerate_language(G_AB, 8))
    functor = M_EVENA.functor
    for run in enumerate_paths(M_EVENA.state_graph, "e", "e", 8):
        assert (run in pullback_lang) == (apply_functor(functor, run) in grammar_lang), run


def test_pullback_start_color_name():
    pulled = pullback_grammar(G_AB, M_EVENA)
    assert pulled.start == "(e,S,e)"
    assert pulled.category == M_EVENA.state_graph


def test_pullback_along_interval_automaton():
    auto = interval_automaton(GRAPH_AB, word(GRAPH_AB, "aabb"))
    pulled = pullback_grammar(G_AB, auto)
    assert pulled.start == "(0,S,4)"
    # exactly one useful derivation of the full run
    runs = enumerate_language(pulled, 8)
    assert len(runs) == 1 and runs[0].gens == ("s0", "s1", "s2", "s3")
    from catgram import enumerate_closed_trees

    assert len(enumerate_closed_trees(pulled.species, pulled.start, 10)) == 1


def test_intersect_with_singleton_automaton():
    inside = word(GRAPH_AB, "aabb")
    outside = word(GRAPH_AB, "aab")
    got = intersect(G_AB, interval_automaton(GRAPH_AB, inside))
    assert lang(got, 8) == {"aabb"}
    got = intersect(G_AB, interval_automaton(GRAPH_AB, outside))
    assert lang(got, 8) == set()


ALL_LOOP = Automaton(
    base=GRAPH_AB,
    states=(State("q", "*"),),
    transitions=(Transition("la", "q", "q", "a"), Transition("lb", "q", "q", "b")),
    initial="q",
    final="q",
)


def test_neutral_automaton_preserves_language():
    assert lang(intersect(G_AB, ALL_LOOP), 8) == lang(G_AB, 8)


def test_intersect_with_empty_language_automaton():
    empty = Automaton(
        base=GRAPH_AB,
        states=(State("q", "*"), State("r", "*")),
        transitions=(),
        initial="q",
        final="r",
    )
    assert lang(intersect(G_AB, empty), 8) == set()


def test_pullback_requires_matching_types():
    with pytest.raises(CompositionError):
        pullback_grammar(G_END, M_EVENA)  # different base categories
    swapped = Automaton(
        base=GRAPH_AB,
        states=M_EVENA.states,
        transitions=M_EVENA.transitions,
        initial="e",
        final="o",
    )
    # (*, *) still matches (over(e), over(o)), so this is fine
    pullback_grammar(G_AB, swapped)


def test_trim_preserves_language():
    pulled = pullback_grammar(G_AB, M_EVENA, trim_useless=False)
    assert lang(trim(pulled), 8) == lang(pulled, 8)


def test_trim_drops_unreachable_color():
    g = grammar_from_rules(
        GRAPH_AB,
        "S",
        {"S": ("*", "*"), "W": ("*", "*")},
        [("r0", "S", (), (("a",),)), ("w0", "W", (), (("b",),))],
    )
    trimmed = trim(g)
    assert trimmed.species.colors == ("S",)
    assert lang(trimmed, 4) == lang(g, 4)


def test_trim_keeps_fully_useful_grammar():
    assert trim(G_AB) == G_AB


def test_trim_useless_start_keeps_lone_start():
    g = grammar_from_rules(
        GRAPH_AB,
        "S",
        {"S": ("*", "*")},
        [("loop", "S", ("S",), ((), ()))],
    )
    trimmed = trim(g)
    assert trimmed.species.colors == ("S",)
    assert trimmed.species.nodes == ()
    assert lang(trimmed, 6) == set()


def test_pullback_node_count_audit():
    # without trimming, each grammar node contributes the product over its
    # segments of the total number of runs over that segment
    pulled = pullback_grammar(G_AB, M_EVENA, trim_useless=False)
    expected = 0
    for node in G_AB.species.nodes:
        splice = G_AB.splice_of(node.name)
        product = 1
        for seg in splice.segments:
            table = runs_by_source(M_EVENA, seg)
            product *= sum(len(rs) for rs in table.values())
        expected += product
    assert len(pulled.species.nodes) == expected


def test_trimmed_pullback_is_trim_of_raw_product():
    # one item used in both gaps of m: S S must give one node, not two
    for n in (1, 2, 5, 9):
        auto = interval_automaton(GRAPH_A, word(GRAPH_A, "a" * n))
        pulled = pullback_grammar(G_AMB, auto)
        assert pulled == trim(pullback_grammar(G_AMB, auto, trim_useless=False))
        assert len(pulled.species.nodes) == len(set(pulled.species.nodes)) == math.comb(n + 1, 3) + n
    for automaton in (M_EVENA, ALL_LOOP):
        raw = pullback_grammar(G_AB, automaton, trim_useless=False)
        assert pullback_grammar(G_AB, automaton) == trim(raw)


@st.composite
def grammars_and_automata(draw):
    """A random grammar over GRAPH_PQ and a random automaton over the same
    graph: an initial and a final state over the start color's gap type
    (one state when the draw allows it), up to two more states, and a
    random subset of the transitions that lie over generators."""
    grammar = draw(random_grammars())
    gap = grammar.gap_of(grammar.start)
    states = [State("i", gap.left)]
    final = "i"
    if gap.left != gap.right or draw(st.booleans()):
        states.append(State("f", gap.right))
        final = "f"
    for k in range(draw(st.integers(0, 2))):
        states.append(State(f"s{k}", draw(st.sampled_from(GRAPH_PQ.objects))))
    transitions = []
    for src in states:
        for gen in GRAPH_PQ.generators:
            for dst in states:
                if (src.over, dst.over) == (gen.src, gen.dst) and draw(st.booleans()):
                    transitions.append(Transition(f"t{len(transitions)}", src.name, dst.name, gen.name))
    automaton = Automaton(GRAPH_PQ, tuple(states), tuple(transitions), "i", final)
    return grammar, automaton


@given(grammars_and_automata())
def test_intersection_agrees_with_oracles_on_random_automata(pair):
    grammar, automaton = pair
    raw = pullback_grammar(grammar, automaton, trim_useless=False)
    assert pullback_grammar(grammar, automaton) == trim(raw)
    want = tuple(
        w for w in enumerate_language(grammar, RANDOM_WORD_BOUND) if run_membership(automaton, w)
    )
    assert enumerate_language(intersect(grammar, automaton), RANDOM_WORD_BOUND) == want
