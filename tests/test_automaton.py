import itertools

import pytest
from hypothesis import given, strategies as st

from catgram import (
    Automaton,
    FreeFunctor,
    InputError,
    Node,
    Path,
    Species,
    SpeciesMap,
    State,
    Transition,
    automaton_of,
    contour_functor,
    contour_word,
    enumerate_closed_trees,
    enumerate_paths,
    enumerate_regular_language,
    identity_functor,
    identity_path,
    interval_automaton,
    monoid_graph,
    node_count,
    run_membership,
    tree_accept,
    ulf_check_bounded,
    validate_species_map,
    word,
)
from catgram.automaton import import_classical, runs_by_source
from catgram.contour import down, up
from catgram.fixtures import GRAPH_AB, GRAPH_AB_END, M_EVENA, SPC_FIG3, fig3_tree
from catgram.species import Apply, Leaf
from conftest import outcome

pytestmark = pytest.mark.deep  # all of it runs under the deep profile in CI

TOP = "⊤"


# -- classical import --------------------------------------------------------


def classical_accepts(delta, q0, finals, text):
    """Independent subset-construction oracle for classical NFAs."""
    current = {q0}
    for ch in text:
        current = {d for (s, a, d) in delta if s in current and a == ch}
    return bool(current & set(finals))


ENDS_IN_A = (["s0", "s1"], [("s0", "a", "s0"), ("s0", "b", "s0"), ("s0", "a", "s1")], "s0", ["s1"])
EPS_OR_A = (["q0", "q1"], [("q0", "a", "q1")], "q0", ["q0", "q1"])


def all_words(max_len):
    for n in range(max_len + 1):
        for chars in itertools.product("ab", repeat=n):
            yield "".join(chars)


@pytest.mark.parametrize("spec", [ENDS_IN_A, EPS_OR_A])
def test_import_matches_classical_oracle(spec):
    states, delta, q0, finals = spec
    imported = import_classical("ab", states, delta, q0, finals)
    for text in all_words(5):
        marked_word = imported.base.path(tuple(text) + ("$",))
        assert run_membership(imported, marked_word) == classical_accepts(
            delta, q0, finals, text
        ), text


def test_import_examples():
    states, delta, q0, finals = ENDS_IN_A
    imported = import_classical("ab", states, delta, q0, finals)
    assert run_membership(imported, imported.base.path(("a", "a", "$")))
    assert not run_membership(imported, imported.base.path(("b", "$")))


def test_import_initial_accepting_has_no_closure_artifact():
    # L = {eps, a} is not closed under concatenation; the end marker keeps
    # the single-final-state construction honest
    states, delta, q0, finals = EPS_OR_A
    imported = import_classical("ab", states, delta, q0, finals)
    accepted = {
        "".join(w.gens[:-1])
        for w in enumerate_regular_language(imported, 6)
    }
    assert accepted == {"", "a"}


def test_import_empty_final_set():
    imported = import_classical("ab", ["q0"], [("q0", "a", "q0")], "q0", [])
    assert enumerate_regular_language(imported, 5) == ()


def test_import_rejects_epsilon_transitions():
    with pytest.raises(InputError):
        import_classical("ab", ["q0"], [("q0", "", "q0")], "q0", ["q0"])


# -- runs ---------------------------------------------------------------------


def _runs(w, src, dst):
    """The runs of ``M_EVENA`` over ``w`` from ``src`` to ``dst``."""
    return tuple(r for r in runs_by_source(M_EVENA, w)[src] if r.dst == dst)


def test_even_a_membership_and_runs():
    w = word(GRAPH_AB, "abab")
    assert run_membership(M_EVENA, w)
    runs = _runs(w, "e", "e")
    assert len(runs) == 1
    assert runs[0].gens == ("a_eo", "b_oo", "a_oe", "b_ee")
    assert not run_membership(M_EVENA, word(GRAPH_AB, "a"))


def test_empty_run_is_identity_lift():
    eps = GRAPH_AB.path((), src="*")
    assert _runs(eps, "e", "e") == (identity_path("e"),)
    assert _runs(eps, "e", "o") == ()
    assert run_membership(M_EVENA, eps)


def test_membership_iff_some_run():
    for w in enumerate_paths(GRAPH_AB, "*", "*", 6):
        assert run_membership(M_EVENA, w) == bool(_runs(w, "e", "e")), w


def test_even_a_language():
    got = {"".join(w.gens) for w in enumerate_regular_language(M_EVENA, 3)}
    assert got == {"", "b", "aa", "bb", "aab", "aba", "baa", "bbb"}


# -- tree automata ------------------------------------------------------------


def tree_automaton(states, transitions, base=SPC_FIG3):
    """The species map of a tree automaton: ``states`` maps each state to
    the base color it lies over, and ``transitions`` lists
    ``(name, base node, input states, output state)``."""
    source = Species(
        tuple(states), tuple(Node(name, tuple(ins), out) for name, _, ins, out in transitions)
    )
    return SpeciesMap(source, base, states, {name: node for name, node, _, _ in transitions})


def _all_accepting_ta():
    return tree_automaton(
        {"q": "1"}, [(f"t_{n.name}", n.name, ("q",) * n.arity, "q") for n in SPC_FIG3.nodes]
    )


def test_tree_automaton_accepting_everything():
    ta = _all_accepting_ta()
    assert validate_species_map(ta) == []
    assert tree_accept(ta, "q", fig3_tree())


def _alternating_ta():
    # nullary letters start in p; f flips p and q; accept q
    return tree_automaton(
        {"p": "1", "q": "1"},
        [
            ("b", "b", (), "p"),
            ("d", "d", (), "p"),
            ("e", "e", (), "p"),
            ("g", "g", (), "p"),
            ("c", "c", ("p", "p"), "p"),
            ("f_pq", "f", ("p",), "q"),
            ("f_qp", "f", ("q",), "p"),
        ],
    )


def test_tree_automaton_alternating_hand_runs():
    ta = _alternating_ta()
    assert validate_species_map(ta) == []
    n = SPC_FIG3.node_by_name
    g = Apply(n["g"], ())
    # f(g): g -> p, f flips to q: accepted
    assert tree_accept(ta, "q", Apply(n["f"], (g,)))
    # f(f(g)): p -> q -> p: rejected
    assert not tree_accept(ta, "q", Apply(n["f"], (Apply(n["f"], (g,)),)))
    # c(d, e): stays in p: rejected
    assert not tree_accept(ta, "q", Apply(n["c"], (Apply(n["d"], ()), Apply(n["e"], ()))))


def test_tree_automaton_missing_transition_rejects():
    ta = _alternating_ta()
    # no transition over node a, so the fig 3 tree cannot be evaluated
    assert not tree_accept(ta, "q", fig3_tree())


def test_tree_accept_rejects_open_trees_with_input_error():
    ta = _alternating_ta()
    f = SPC_FIG3.node_by_name["f"]
    with pytest.raises(InputError, match="closed trees only"):
        tree_accept(ta, "q", Leaf("1"))
    with pytest.raises(InputError, match="closed trees only"):
        tree_accept(ta, "q", Apply(f, (Leaf("1"),)))


def test_tree_automaton_validation_reports():
    # a nullary transition over the unary node f: the species map reports
    # the wrong type of f, and cannot be built for tree_accept to run
    fields = (Species(("p",), (Node("t", (), "p"),)), SPC_FIG3, {"p": "1"}, {"t": "f"})
    problems = validate_species_map(SpeciesMap._make(fields))
    assert problems == ["node 't': image 'f' has type ('1',) -> '1', expected () -> '1'"]
    with pytest.raises(InputError) as info:
        SpeciesMap(*fields)
    assert str(info.value) == problems[0]


def test_tree_accept_rejects_an_accept_state_that_is_no_color():
    with pytest.raises(InputError, match="accept state 'r' is not a color"):
        tree_accept(_alternating_ta(), "r", fig3_tree())


def test_tree_accept_rejects_a_species_map_with_a_missing_node():
    # the species map refuses itself when built, so tree_accept never runs
    ta = _alternating_ta()
    with pytest.raises(InputError, match="node 'd' missing from node map"):
        SpeciesMap(ta.source, ta.target, ta.color_map, {"b": "b"})
    with pytest.raises(InputError, match="color 'q' missing from color map"):
        SpeciesMap(ta.source, ta.target, {"p": "1"}, ta.node_map)


@pytest.mark.parametrize(
    "node",
    [Node("z", (), "1"), Node("g", (), "2"), Node("d", ("1",), "1")],
    ids=["unknown-name", "other-color", "other-arity"],
)
def test_tree_accept_rejects_a_node_of_another_species(node):
    tree = Apply(node, (Apply(SPC_FIG3.node_by_name["g"], ()),) * node.arity)
    message = f"tree node {node.name!r} is not a node of the base species"
    with pytest.raises(InputError, match=message):
        tree_accept(_all_accepting_ta(), "q", tree)


# base species c(X,X), d, e, and transitions d1 -> p, e1 -> r,
# c1: (p,p) -> q, c2: (p,r) -> s, c3: (t,r) -> q, accepting q
SPC_CDE = Species(("X",), (Node("c", ("X", "X"), "X"), Node("d", (), "X"), Node("e", (), "X")))
TA_CDE = tree_automaton(
    {q: "X" for q in "pqrst"},
    [
        ("d1", "d", (), "p"),
        ("e1", "e", (), "r"),
        ("c1", "c", ("p", "p"), "q"),
        ("c2", "c", ("p", "r"), "s"),
        ("c3", "c", ("t", "r"), "q"),
    ],
    base=SPC_CDE,
)


def test_tree_accept_is_not_a_run_of_the_contour_word():
    # the contour word of c(d,e) runs from q-up to q-down on the corners of
    # c1, d1, c2, e1, c3: each corner of c on a different transition
    n = SPC_CDE.node_by_name
    tree = Apply(n["c"], (Apply(n["d"], ()), Apply(n["e"], ())))
    assert not tree_accept(TA_CDE, "q", tree)
    contours = automaton_of(contour_functor(TA_CDE), up("q"), down("q"))
    assert run_membership(contours, contour_word(SPC_CDE, tree))


FIG3_TREES = enumerate_closed_trees(SPC_FIG3, "1", 5)


@st.composite
def fig3_tree_automata(draw):
    """A tree automaton over SPC_FIG3 with one to three states over color 1
    and zero to two transitions over each node, with its accept state."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    state = st.sampled_from(states)
    transitions = [
        (f"{n.name}{k}", n.name, draw(st.tuples(*[state] * n.arity)), draw(state))
        for n in SPC_FIG3.nodes
        for k in range(draw(st.integers(0, 2)))
    ]
    return tree_automaton(dict.fromkeys(states, "1"), transitions), draw(state)


@given(fig3_tree_automata(), st.sampled_from(FIG3_TREES))
def test_tree_accept_agrees_with_a_naive_oracle(automaton, tree):
    # accepted exactly when some tree of the accept color maps onto it
    phi, accept = automaton
    sources = enumerate_closed_trees(phi.source, accept, node_count(tree))
    assert tree_accept(phi, accept, tree) == any(phi.apply_tree(s) == tree for s in sources)


# -- interval automata --------------------------------------------------------


def test_interval_automaton_singleton_language():
    w = word(GRAPH_AB, "aabb")
    auto = interval_automaton(GRAPH_AB, w)
    assert len(auto.states) == 5 and len(auto.transitions) == 4
    assert [x.gens for x in enumerate_regular_language(auto, 6)] == [w.gens]


def test_interval_automaton_empty_word():
    auto = interval_automaton(GRAPH_AB, GRAPH_AB.path((), src="*"))
    assert len(auto.states) == 1
    got = enumerate_regular_language(auto, 4)
    assert len(got) == 1 and got[0].is_identity


def test_interval_automaton_end_marked():
    w = GRAPH_AB_END.path(("a", "b", "$"))
    auto = interval_automaton(GRAPH_AB_END, w)
    assert [s.over for s in auto.states] == ["*", "*", "*", TOP]
    assert [x.gens for x in enumerate_regular_language(auto, 5)] == [w.gens]


# -- ULF and finitary ---------------------------------------------------------


AUTOMATA = [
    M_EVENA,
    interval_automaton(GRAPH_AB, word(GRAPH_AB, "aabb")),
    interval_automaton(GRAPH_AB, GRAPH_AB.path((), src="*")),
    interval_automaton(GRAPH_AB_END, GRAPH_AB_END.path(("a", "b", "$"))),
    import_classical("ab", *ENDS_IN_A),
    import_classical("ab", *EPS_OR_A),
]


def test_automaton_functors_are_ulf():
    for auto in AUTOMATA:
        assert ulf_check_bounded(auto.functor, 4) is None


@pytest.mark.parametrize("auto", AUTOMATA)
def test_automaton_of_inverts_the_automaton_functor(auto):
    assert automaton_of(auto.functor, auto.initial, auto.final) == auto


@pytest.mark.parametrize(
    "image, length",
    [(identity_path("*"), 0), (Path("*", "*", ("a", "b")), 2)],
    ids=["identity", "two-generators"],
)
def test_automaton_of_rejects_a_generator_not_sent_to_one_generator(image, length):
    functor = FreeFunctor(
        domain=monoid_graph(("x", "y")),
        codomain=GRAPH_AB,
        object_map={"*": "*"},
        generator_map={"x": Path("*", "*", ("a",)), "y": image},
    )
    with pytest.raises(InputError, match=f"generator 'y' is sent to {length} generators, not one"):
        automaton_of(functor, "*", "*")


def test_identity_functor_is_ulf():
    assert ulf_check_bounded(identity_functor(GRAPH_AB), 4) is None


def test_collapse_functor_fails_ulf():
    target = monoid_graph(())
    collapse = FreeFunctor(
        domain=monoid_graph(("a",)),
        codomain=target,
        object_map={"*": "*"},
        generator_map={"a": identity_path("*")},
    )
    violation = ulf_check_bounded(collapse, 2)
    assert violation is not None
    assert violation.path.gens == ("a",)
    assert violation.left.is_identity and violation.right.is_identity
    assert violation.lifts == 2


def test_fibers_are_finite():
    # runs_by_source terminates with finitely many lifts of each word
    for w in enumerate_paths(GRAPH_AB, "*", "*", 4):
        for q in ("e", "o"):
            for q2 in ("e", "o"):
                runs = _runs(w, q, q2)
                assert len(runs) <= 1  # this automaton is deterministic


def test_automaton_validation():
    with pytest.raises(InputError):
        Automaton(
            base=GRAPH_AB,
            states=(State("e", "*"),),
            transitions=(Transition("t", "e", "e", "z"),),
            initial="e",
            final="e",
        )
    with pytest.raises(InputError):
        Automaton(
            base=GRAPH_AB_END,
            states=(State("e", "*"), State("t", TOP)),
            transitions=(Transition("x", "e", "e", "$"),),
            initial="e",
            final="t",
        )


# -- branches no other test takes -------------------------------------------


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: Automaton(GRAPH_AB, (State("q", "*"), State("q", "*")), (), "q", "q"),
            "InputError: duplicate state names",
        ),
        (
            lambda: Automaton(
                GRAPH_AB, (State("q", "*"),), (Transition("t", "q", "q", "a"),) * 2, "q", "q"
            ),
            "InputError: duplicate transition names",
        ),
        (
            lambda: import_classical("a", ["qf", "q"], [("qf", "a", "q")], "qf", ["q"]).final,
            "\"qf'\"",
        ),
        (
            lambda: run_membership(M_EVENA, Path("*", "*", ("z",))),
            "InputError: word is not a path of the base category",
        ),
        (
            lambda: run_membership(
                import_classical("a", ["q"], [], "q", ["q"]), identity_path(TOP)
            ),
            "False",
        ),
        (
            lambda: interval_automaton(GRAPH_AB, Path("*", "*", ("z",))),
            "InputError: arrow is not a path of the category",
        ),
    ],
    ids=[
        "duplicate-state",
        "duplicate-transition",
        "final-state-name-taken",
        "membership-of-no-path",
        "membership-from-another-object",
        "interval-of-no-path",
    ],
)
def test_rarely_taken_branches(call, expected):
    assert outcome(call) == expected
