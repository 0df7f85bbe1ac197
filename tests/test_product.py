import gc
import hashlib
import itertools
import math
import re
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
    Species,
    SplicedArrow,
    State,
    Transition,
    apply_functor,
    automaton_of,
    bilinearize,
    enumerate_language,
    enumerate_paths,
    enumerate_regular_language,
    functorial_image,
    grammar_from_rules,
    identity_functor,
    import_classical,
    intersect,
    interval_automaton,
    jsonio,
    parse_classical_text,
    parse_forest,
    pullback_grammar,
    recognize,
    run_membership,
    trim,
    word,
)
import catgram.automaton
import catgram.parser
import catgram.product
from catgram.automaton import runs_by_source
from catgram.parser import _recognize_and_parse
from catgram.product import lift
from catgram.fixtures import G_AB, G_AMB, G_END, G_TERN, GRAPH_A, GRAPH_AB, M_EVENA
from conftest import no_cyclic_garbage, outcome, words
from test_parser import GRAPH_PQ, RANDOM_WORD_BOUND, random_grammars

pytestmark = pytest.mark.deep  # all of it runs under the deep profile in CI


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


def test_trim_useless_start_drops_its_unit_node_and_every_other_color():
    # A derives a, but nothing reaches it from S, whose one node is S -> S
    g = grammar_from_rules(
        GRAPH_AB,
        "S",
        {"A": ("*", "*"), "S": ("*", "*")},
        [("a", "A", (), (("a",),)), ("u", "S", ("S",), ((), ()))],
    )
    trimmed = trim(g)
    assert trimmed.species == Species(("S",), ())
    assert trimmed.node_splice == {}
    assert trimmed.color_gap == {"S": g.gap_of("S")}
    _check_assembled(trimmed)


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


@given(grammars_and_automata(), st.integers(0, 5))
def test_regular_oracle_agrees_with_membership_on_random_automata(pair, n):
    # run enumeration pushed down against subset simulation on every path
    _, automaton = pair
    over = automaton.state_over
    paths = enumerate_paths(automaton.base, over[automaton.initial], over[automaton.final], n)
    want = tuple(w for w in paths if run_membership(automaton, w))
    assert enumerate_regular_language(automaton, n) == want


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
        assert g._replace() == g


def _check_colors_in_product_order(grammar, automaton):
    """Raw, a pullback lists every ``(state, color, state)`` triple over a
    color's gap type, by source state, color and target state in
    declaration order; trimmed, the same list filtered to the colors kept."""
    gap = grammar.gap_of
    product = [
        f"({q.name},{c},{q2.name})"
        for q in automaton.states
        for c in grammar.species.colors
        if q.over == gap(c).left
        for q2 in automaton.states
        if q2.over == gap(c).right
    ]
    for build in (pullback_grammar, intersect):
        assert list(build(grammar, automaton, False).species.colors) == product
        kept = build(grammar, automaton).species.colors
        assert list(kept) == [c for c in product if c in set(kept)]


@given(grammars_and_automata(max_inputs=3))
def test_trimmed_colors_keep_product_order_on_random_automata(pair):
    _check_colors_in_product_order(*pair)


def _uncut(nodes, placements, roots):
    """The placement table as given: the kernel then lifts the whole least
    fixed point."""
    return placements


def _check_anchored_pullback(grammar, automaton):
    """The trimmed pullback and intersection lifted from the cut placement
    table equal those lifted from the whole one."""
    anchored = (pullback_grammar(grammar, automaton), intersect(grammar, automaton))
    with mock.patch.object(catgram.product, "_anchors", _uncut):
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


def _check_naive(grammar, automaton):
    for build, over_runs in ((pullback_grammar, True), (intersect, False)):
        for trim_useless in (False, True):
            got = build(grammar, automaton, trim_useless)
            nodes, splices = _naive_pulled(grammar, automaton, over_runs, trim_useless)
            assert list(got.species.nodes) == nodes
            assert got.node_splice == splices


@given(grammars_and_automata(max_inputs=3))
def test_pulled_nodes_agree_with_a_naive_product(pair):
    _check_naive(*pair)


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


def _counter(graph, k, counted):
    """States 0..k-1 over the one object: ``counted`` steps i -> i+1 mod k,
    every other letter loops."""
    return Automaton(
        base=graph,
        states=tuple(State(str(i), "*") for i in range(k)),
        transitions=tuple(
            Transition(f"{g.name}{i}", str(i), str((i + 1) % k if g.name == counted else i), g.name)
            for g in graph.generators
            for i in range(k)
        ),
        initial="0",
        final="0",
    )


# a ternary node, so heads of three placements share a prefix with the head
# before; bilinearized, two nullary nodes share the empty head and binary
# nodes can repeat the head of the node before
A_MOD4 = _counter(GRAPH_AB, 4, "a")
PINNED_CASES = {
    **{
        f"g_amb_interval_a{n}": (G_AMB, interval_automaton(GRAPH_A, word(GRAPH_A, "a" * n)))
        for n in range(1, 9)
    },
    "g_ab_evena": (G_AB, M_EVENA),
    "g_end_classical": (
        G_END,
        catgram.automaton.import_classical(
            "ab", ["p", "q"], [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")], "p", ["p", "q"]
        ),
    ),
    "expr_x_mod2": (EXPR, X_MOD2),
    "g_tern_a_mod4": (G_TERN, A_MOD4),
    "g_tern_bilinear_a_mod4": (bilinearize(G_TERN), A_MOD4),
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
    "g_tern_a_mod4": ("bda5fc68d622cffd", "5a61a42a29a214bb", "94995625577ec90c", "432ddebae21da8dc"),
    "g_tern_bilinear_a_mod4": ("f6f1aed41479d8af", "9cd1b870e360736f", "9e7a21b8200193ac", "e6169a85c8035b24"),
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


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_pulled_nodes_agree_with_a_naive_product_on_pinned_cases(name):
    _check_naive(*PINNED_CASES[name])


# -- exact value types ---------------------------------------------------------
#
# Equality cannot tell a plain tuple from a named tuple, so the tests above
# would pass if a builder made plain tuples; ``_pulled`` and
# ``functorial_image`` build their values with ``tuple.__new__``.


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_trimmed_colors_keep_product_order_on_pinned_cases(name):
    _check_colors_in_product_order(*PINNED_CASES[name])


def _check_exact_types(grammar, automaton):
    built = []
    for trim_useless in (False, True):
        pulled = pullback_grammar(grammar, automaton, trim_useless)
        built += [
            pulled,
            intersect(grammar, automaton, trim_useless),
            functorial_image(pulled, automaton.functor),
        ]
    built.append(trim(built[0]))
    for g in built:
        assert all(type(n) is Node for n in g.species.nodes)
        assert all(type(s) is SplicedArrow for s in g.node_splice.values())
        _check_assembled(g)


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_pulled_values_have_exact_types_on_pinned_cases(name):
    _check_exact_types(*PINNED_CASES[name])


@given(grammars_and_automata(max_inputs=3))
def test_pulled_values_have_exact_types_on_random_automata(pair):
    _check_exact_types(*pair)


# -- assembled without the constructors' checks -------------------------------
#
# ``_pulled``, ``trim`` and ``functorial_image`` also make their ``Species``
# and ``Grammar`` with ``tuple.__new__``.  ``_check_exact_types`` asserts
# that the constructors accept each one and rebuild it equal, so skipping
# their checks lost none, and each is valid as ``Grammar`` checks it.  A
# faulty input cannot be built: the constructor refuses it with its first
# fault.  ``_pulled`` refuses two names rendered alike itself, with the
# message ``Species`` gives, naming the first repeat.


def _check_assembled(g):
    assert type(g) is Grammar and type(g.species) is Species
    assert Species(g.species.colors, g.species.nodes) == g.species
    assert Grammar(*g) == g


# two nodes rendered alike: m's placements spell the other node's name
_NAMES_ALIKE = grammar_from_rules(
    GRAPH_AB,
    "S",
    {"S": ("*", "*")},
    [("m", "S", ("S",), (("a",), ("b",))), ("m|q>la>q", "S", (), (("b",),))],
)
# two triples rendered alike: (p,A,S,p) is both ("p,A", S, p) and (p, "A,S", p)
_TRIPLES_ALIKE = grammar_from_rules(
    GRAPH_AB,
    "S",
    {"S": ("*", "*"), "A,S": ("*", "*")},
    [("c", "S", (), (("a",),)), ("d", "A,S", (), (("b",),))],
)
_COMMA_STATE = Automaton(
    base=GRAPH_AB,
    states=(State("p", "*"), State("p,A", "*")),
    transitions=(Transition("la", "p", "p", "a"), Transition("lb", "p", "p", "b")),
    initial="p",
    final="p",
)
# faulty values, made without the constructor's check: r0's one segment
# ends over the end marker's object, not E's; an undeclared start; no splice
# for r0
_ILL_TYPED = Grammar._make({
    **G_END._asdict(),
    "node_splice": {
        **G_END.node_splice,
        "r0": SplicedArrow((G_END.category.path(("a", "b", "$")),)),
    },
}.values())
_UNDECLARED_START = Grammar._make({**G_END._asdict(), "start": "Z"}.values())
_MISSING_SPLICE = Grammar._make({
    **G_END._asdict(),
    "node_splice": {name: splice for name, splice in G_END.node_splice.items() if name != "r0"},
}.values())
_ONE_STATE = catgram.automaton.import_classical(
    "ab", ["p"], [("p", "a", "p"), ("p", "b", "p")], "p", ["p"]
)


@pytest.mark.parametrize(
    "grammar, automaton, outcomes",
    [
        (
            _NAMES_ALIKE,
            ALL_LOOP,
            ["InputError: duplicate node name '(m|q>la>q|q>lb>q)' in species"] * 4,
        ),
        (
            _TRIPLES_ALIKE,
            _COMMA_STATE,
            ["InputError: duplicate color name '(p,A,S,p)' in species", "1"] * 2,
        ),
        (
            _ILL_TYPED,
            _ONE_STATE,
            ["InputError: node 'r0': outer type (*,⊤) differs from gap type (*,*) of 'E'"] * 4,
        ),
        (
            _UNDECLARED_START,
            _ONE_STATE,
            ["InputError: start symbol 'Z' is not a declared color"] * 4,
        ),
        (_MISSING_SPLICE, _ONE_STATE, ["InputError: node 'r0' has no spliced arrow"] * 4),
    ],
    ids=[
        "node-names-alike",
        "color-names-alike",
        "ill-typed-splice",
        "undeclared-start",
        "missing-splice",
    ],
)
def test_pulled_grammars_keep_the_constructors_checks(grammar, automaton, outcomes):
    # raw then trimmed pullback, raw then trimmed intersection of the
    # grammar as the constructor builds it: a fault is named the same way
    # for each, and the rest still build
    got = [
        outcome(lambda: len(build(Grammar(*grammar), automaton, trim_useless).species.nodes))
        for build in (pullback_grammar, intersect)
        for trim_useless in (False, True)
    ]
    assert got == outcomes


def test_trim_and_image_name_a_missing_splice():
    # neither checks its grammar again: the constructor reports the fault
    got = [
        outcome(lambda: build(Grammar(*grammar)))
        for grammar in (_MISSING_SPLICE, _UNDECLARED_START)
        for build in (trim, lambda g: functorial_image(g, identity_functor(g.category)))
    ]
    assert got == ["InputError: node 'r0' has no spliced arrow"] * 2 + [
        "InputError: start symbol 'Z' is not a declared color"
    ] * 2


# -- readers of the kernel's output -------------------------------------------
#
# The parser's forest and the trimmed pullback each walk ``lift``'s result
# for themselves, and only the forest sorts alternatives, into new lists:
# no reader changes what the kernel returned.

_A7 = word(GRAPH_A, "a" * 7)
_READERS = {
    "parse_forest": lambda: parse_forest(G_AMB, _A7),
    "recognize_and_parse": lambda: _recognize_and_parse(G_AMB, _A7),
    "pullback_grammar": lambda: pullback_grammar(G_AMB, interval_automaton(GRAPH_A, _A7)),
    "intersect": lambda: intersect(G_AMB, interval_automaton(GRAPH_A, _A7)),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_readers_leave_the_kernels_output_unchanged(reader):
    lifted = []

    def spied(*args, **kwargs):
        derived = lift(*args, **kwargs)
        lifted.append((derived, {item: list(alts) for item, alts in derived.items()}))
        return derived

    with mock.patch.object(catgram.product, "lift", spied), mock.patch.object(
        catgram.parser, "lift", spied
    ):
        _READERS[reader]()
    ((derived, found),) = lifted
    # the kernel finds some items' alternatives out of sorted order
    assert any(alts != sorted(alts) for alts in found.values())
    assert derived == found


# -- the cyclic collector -----------------------------------------------------
#
# ``lift``, ``_pulled``, ``trim`` and ``parser._forest`` run with the
# collector paused, which is sound only while they leave no reference
# cycles: a cycle made in a pause waits for the next collection.


def _check_no_cyclic_garbage(grammar, automaton):
    for trim_useless in (False, True):
        no_cyclic_garbage(pullback_grammar, grammar, automaton, trim_useless)
        no_cyclic_garbage(intersect, grammar, automaton, trim_useless)
    no_cyclic_garbage(trim, pullback_grammar(grammar, automaton, trim_useless=False))


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_pullback_leaves_no_cyclic_garbage_on_pinned_cases(name):
    _check_no_cyclic_garbage(*PINNED_CASES[name])


@given(grammars_and_automata(max_inputs=3))
def test_pullback_leaves_no_cyclic_garbage_on_random_automata(pair):
    _check_no_cyclic_garbage(*pair)


def test_builders_run_with_the_collector_paused():
    # each builder calls the spied name while it runs: ``recognize`` reaches
    # ``deque`` only through ``lift``, and ``parse_forest`` reaches
    # ``PackedForest`` only through ``_forest``
    seen = {}

    def spy(module, attr):
        real = getattr(module, attr)

        def spied(*args):
            seen.setdefault(attr, set()).add(gc.isenabled())
            return real(*args)

        return mock.patch.object(module, attr, spied)

    w = word(GRAPH_A, "aaa")
    with spy(catgram.product, "deque"), spy(catgram.product, "runs_by_source"), spy(
        catgram.product, "_usable"
    ), spy(catgram.parser, "PackedForest"):
        recognize(G_AMB, w)
        parse_forest(G_AMB, w)
        trim(pullback_grammar(G_AB, M_EVENA, trim_useless=False))
    assert gc.isenabled()
    assert seen == dict.fromkeys(["PackedForest", "_usable", "deque", "runs_by_source"], {False})


def test_builders_restore_the_collector():
    w = word(GRAPH_A, "aaa")

    def build_all():
        recognize(G_AMB, w)
        parse_forest(G_AMB, w)
        trim(pullback_grammar(G_AB, M_EVENA, trim_useless=False))
        intersect(G_AB, M_EVENA)
        # raised inside ``_pulled``: the automaton is over another graph
        with pytest.raises(CompositionError, match="share the base category"):
            intersect(G_END, M_EVENA)

    assert gc.isenabled()
    build_all()
    assert gc.isenabled()
    # a caller's pause stays in force
    gc.disable()
    try:
        build_all()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_raw_interval_pullback_node_count(n):
    auto = interval_automaton(GRAPH_A, word(GRAPH_A, "a" * n))
    pulled = pullback_grammar(G_AMB, auto, trim_useless=False)
    assert len(pulled.species.nodes) == (n + 1) ** 3 + n


def test_functorial_image_rejects_segment_outside_domain():
    # a grammar over the right graph whose splice holds a path the graph
    # does not have: the constructor refuses it, and the image of one made
    # without the check still refuses it
    bad = Grammar._make({
        **G_AB._asdict(),
        "node_splice": {**G_AB.node_splice, "r0": SplicedArrow((Path("*", "*", ("a", "c")),))},
    }.values())
    message = "node 'r0': segment 0: unknown generator(s) ['c']"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Grammar(*bad)
    with pytest.raises(InputError, match="does not lie in the functor's domain"):
        functorial_image(bad, identity_functor(GRAPH_AB))
