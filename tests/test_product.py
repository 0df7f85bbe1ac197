import hashlib
import itertools
import math
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catgram import (
    Automaton,
    CompositionError,
    Grammar,
    InputError,
    Node,
    Path,
    SplicedArrow,
    State,
    Transition,
    apply_functor,
    automaton_of,
    enumerate_language,
    enumerate_paths,
    enumerate_regular_language,
    functorial_image,
    grammar_from_rules,
    identity_functor,
    import_classical,
    import_classical_automaton,
    intersect,
    interval_automaton,
    jsonio,
    parse_classical_text,
    pullback_grammar,
    run_membership,
    trim,
    validate,
    word,
)
import catgram.product
from catgram.automaton import runs_by_source
from catgram.product import lift
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
    # G_END's start is typed (*, top); this automaton starts and ends over *
    loop = Automaton(
        base=G_END.category,
        states=(State("q", "*"),),
        transitions=(Transition("la", "q", "q", "a"),),
        initial="q",
        final="q",
    )
    swapped = Automaton(
        base=GRAPH_AB,
        states=M_EVENA.states,
        transitions=M_EVENA.transitions,
        initial="e",
        final="o",
    )
    for build in (pullback_grammar, intersect):
        with pytest.raises(CompositionError, match="share the base category"):
            build(G_END, M_EVENA)
        with pytest.raises(CompositionError, match="start symbol's gap type"):
            build(G_END, loop)
        # (*, *) still matches (over(e), over(o)), so this is fine
        build(G_AB, swapped)


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
    # segments of the total number of runs over that segment; the unit node
    # S -> S lifts to one identity run per state on each of its segments
    unit = grammar_from_rules(
        GRAPH_AB,
        "S",
        {"S": ("*", "*")},
        [("c", "S", (), (("a",),)), ("u", "S", ("S",), ((), ()))],
    )
    for grammar in (G_AB, unit):
        pulled = pullback_grammar(grammar, M_EVENA, trim_useless=False)
        expected = 0
        for node in grammar.species.nodes:
            splice = grammar.splice_of(node.name)
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
def grammars_and_automata(draw, max_inputs=2):
    """A random grammar over GRAPH_PQ and a random automaton over the same
    graph: an initial and a final state over the start color's gap type
    (one state when the draw allows it), up to two more states, and a
    random subset of the transitions that lie over generators."""
    grammar = draw(random_grammars(max_inputs))
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
    assert automaton_of(automaton.functor, automaton.initial, automaton.final) == automaton
    raw = pullback_grammar(grammar, automaton, trim_useless=False)
    assert pullback_grammar(grammar, automaton) == trim(raw)
    for trim_useless in (False, True):
        assert intersect(grammar, automaton, trim_useless) == functorial_image(
            pullback_grammar(grammar, automaton, trim_useless), automaton.functor
        )
    want = tuple(
        w for w in enumerate_language(grammar, RANDOM_WORD_BOUND) if run_membership(automaton, w)
    )
    assert enumerate_language(intersect(grammar, automaton), RANDOM_WORD_BOUND) == want


@given(grammars_and_automata(max_inputs=3))
def test_pulled_and_transported_grammars_validate_on_random_automata(pair):
    # these grammars are built without grammar_from_rules, so nothing else
    # checks that each node's splice has its colors' gap types
    grammar, automaton = pair
    raw = pullback_grammar(grammar, automaton, trim_useless=False)
    built = [trim(raw), functorial_image(raw, automaton.functor)]
    for trim_useless in (False, True):
        built += [
            pullback_grammar(grammar, automaton, trim_useless),
            intersect(grammar, automaton, trim_useless),
        ]
    for g in built:
        assert validate(g) == []


def _unanchored_lift(nodes, placements, reverse_agenda=False, roots=None):
    """The kernel with its roots ignored: the whole least fixed point."""
    return lift(nodes, placements, reverse_agenda)


def _check_anchored_pullback(grammar, automaton):
    """The trimmed pullback and intersection read off the anchored kernel
    equal those read off the unanchored one by ``reachable``."""
    anchored = (pullback_grammar(grammar, automaton), intersect(grammar, automaton))
    with mock.patch.object(catgram.product, "lift", _unanchored_lift):
        assert (pullback_grammar(grammar, automaton), intersect(grammar, automaton)) == anchored


@given(grammars_and_automata(max_inputs=3))
def test_anchored_pullback_equals_unanchored_on_random_automata(pair):
    _check_anchored_pullback(*pair)


def _naive_runs(automaton, seg):
    """Every run over ``seg``, by source state in declaration order, then by
    the transitions taken in declaration order."""
    runs = []
    for s in automaton.states:
        if s.over != seg.src:
            continue
        partial = [(s.name, ())]
        for letter in seg.gens:
            partial = [
                (t.dst, gens + (t.name,))
                for at, gens in partial
                for t in automaton.transitions
                if (t.src, t.over) == (at, letter)
            ]
        runs += [Path(s.name, at, gens) for at, gens in partial]
    return runs


def _naive_pulled(grammar, automaton, over_runs, trim_useless):
    """The pulled nodes and splices, one node per choice of runs over its
    segments, in node order and then in the order of ``itertools.product``;
    trimmed, only the nodes whose colors are productive and reachable."""
    nodes, splices = [], {}
    for node in grammar.species.nodes:
        segments = grammar.splice_of(node.name).segments
        for runs in itertools.product(*(_naive_runs(automaton, seg) for seg in segments)):
            labels = [f"{r.src}>{'.'.join(r.gens) or 'e'}>{r.dst}" for r in runs]
            name = "(" + "|".join([node.name] + labels) + ")"
            inputs = tuple(
                f"({runs[m].dst},{c},{runs[m + 1].src})" for m, c in enumerate(node.inputs)
            )
            nodes.append(Node(name, inputs, f"({runs[0].src},{node.output},{runs[-1].dst})"))
            splices[name] = SplicedArrow(runs) if over_runs else grammar.splice_of(node.name)
    if trim_useless:
        productive = set()
        while True:
            more = {n.output for n in nodes if productive.issuperset(n.inputs)} - productive
            if not more:
                break
            productive |= more
        reached = {f"({automaton.initial},{grammar.start},{automaton.final})"}
        while True:
            more = {
                c
                for n in nodes
                if n.output in reached and productive.issuperset(n.inputs)
                for c in n.inputs
            } - reached
            if not more:
                break
            reached |= more
        keep = productive & reached
        nodes = [n for n in nodes if keep.issuperset((n.output, *n.inputs))]
        splices = {n.name: splices[n.name] for n in nodes}
    return nodes, splices


@given(grammars_and_automata(max_inputs=3))
def test_pulled_nodes_agree_with_a_naive_product(pair):
    grammar, automaton = pair
    for build, over_runs in ((pullback_grammar, True), (intersect, False)):
        for trim_useless in (False, True):
            got = build(grammar, automaton, trim_useless)
            nodes, splices = _naive_pulled(grammar, automaton, over_runs, trim_useless)
            assert list(got.species.nodes) == nodes
            assert got.node_splice == splices


# -- pinned output ------------------------------------------------------------
#
# Digests of ``jsonio.dumps(grammar_to_json(...))`` of raw and trimmed
# pullbacks and their images, which ``intersect`` must also produce: node
# names, node order, colors and splices must not move.

EXPR = import_classical(*parse_classical_text("E -> E + T | T\nT -> T * F | F\nF -> ( E ) | x\n"))
X_MOD2 = Automaton(
    base=EXPR.category,
    states=(State("0", "*"), State("1", "*")),
    transitions=tuple(
        Transition(f"{g.name}{i}", str(i), str((i + 1) % 2 if g.name == "x" else i), g.name)
        for g in EXPR.category.generators
        for i in range(2)
    ),
    initial="0",
    final="0",
)
PINNED_CASES = {
    **{
        f"g_amb_interval_a{n}": (G_AMB, interval_automaton(GRAPH_A, word(GRAPH_A, "a" * n)))
        for n in range(1, 9)
    },
    "g_ab_evena": (G_AB, M_EVENA),
    "g_end_classical": (
        G_END,
        import_classical_automaton(
            "ab", ["p", "q"], [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")], "p", ["p", "q"]
        ),
    ),
    "expr_x_mod2": (EXPR, X_MOD2),
}


def _digest(grammar) -> str:
    return hashlib.sha256(jsonio.dumps(jsonio.grammar_to_json(grammar)).encode()).hexdigest()[:16]


def _pinned_digests(grammar, automaton) -> tuple[str, ...]:
    """Raw pullback, its image, trimmed pullback, its image."""
    out = []
    for trim_useless in (False, True):
        pulled = pullback_grammar(grammar, automaton, trim_useless=trim_useless)
        out += [_digest(pulled), _digest(functorial_image(pulled, automaton.functor))]
    return tuple(out)


PINNED_DIGESTS = {
    "expr_x_mod2": ("c50ae34051113e4a", "900f4dbac582b153", "c50ae34051113e4a", "900f4dbac582b153"),
    "g_ab_evena": ("b27989aa08eca956", "c9d0dca7f3d0e185", "fbf08c84f2d99877", "e7335431b42dfda7"),
    "g_amb_interval_a1": ("c863467f7db5d1b5", "ef2271307325a4fb", "39b8a09dc772790e", "0cae76a396a63cf3"),
    "g_amb_interval_a2": ("164b18aa8759b939", "866ad765c19c6e08", "796e45509ebc2c27", "05dce61c0ef9927e"),
    "g_amb_interval_a3": ("705f4540db1e61ee", "c9155e50ecd4b95e", "9f182a2735b47064", "9f35bda968a62b1d"),
    "g_amb_interval_a4": ("101001a2bcf9a248", "99ae897405906ffa", "44aa71176b57e17c", "33451afee42e881f"),
    "g_amb_interval_a5": ("502485902b369adc", "44948166b06cc038", "674db2adc2d1c90d", "23f81ef386a3e592"),
    "g_amb_interval_a6": ("230271e478aeae7c", "35e0c6af5d21d607", "b07b334027451753", "c9757249f619784a"),
    "g_amb_interval_a7": ("65e55fa0176f85d3", "76a8b5fd7d764f53", "9d9a8f984b4f4c41", "621942e2e559101f"),
    "g_amb_interval_a8": ("6b6ec29f465fa101", "0e7bfa321d96cab7", "13a6451e0bcc322c", "4a91204082e146aa"),
    "g_end_classical": ("795403606aaa80bf", "646b214c4e0bba06", "c94589a23037d2ad", "f7954ed6e334a4ad"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_intersection_output_is_pinned(name):
    grammar, automaton = PINNED_CASES[name]
    digests = PINNED_DIGESTS[name]
    assert _pinned_digests(grammar, automaton) == digests
    for trim_useless, image in ((False, digests[1]), (True, digests[3])):
        assert _digest(intersect(grammar, automaton, trim_useless=trim_useless)) == image


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_anchored_pullback_equals_unanchored_on_pinned_cases(name):
    _check_anchored_pullback(*PINNED_CASES[name])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_raw_interval_pullback_node_count(n):
    auto = interval_automaton(GRAPH_A, word(GRAPH_A, "a" * n))
    pulled = pullback_grammar(G_AMB, auto, trim_useless=False)
    assert len(pulled.species.nodes) == (n + 1) ** 3 + n


def test_functorial_image_rejects_segment_outside_domain():
    # a grammar over the right graph whose splice holds a path the graph
    # does not have: the image must still refuse it
    bad = Grammar(
        category=GRAPH_AB,
        species=G_AB.species,
        start=G_AB.start,
        color_gap=G_AB.color_gap,
        node_splice={
            **G_AB.node_splice,
            "r0": SplicedArrow((Path("*", "*", ("a", "c")),)),
        },
    )
    with pytest.raises(InputError, match="does not lie in the functor's domain"):
        functorial_image(bad, identity_functor(GRAPH_AB))
