import itertools

import pytest

from catgram import (
    Automaton,
    FreeFunctor,
    InputError,
    State,
    Transition,
    TreeAutomaton,
    TreeTransition,
    enumerate_paths,
    enumerate_regular_language,
    enumerate_runs,
    identity_functor,
    identity_path,
    import_classical_automaton,
    interval_automaton,
    monoid_graph,
    run_membership,
    tree_accept,
    ulf_check_bounded,
    validate_tree_automaton,
    word,
)
from catgram.fixtures import GRAPH_AB, GRAPH_AB_END, M_EVENA, SPC_FIG3, fig3_tree
from catgram.species import Apply, Leaf

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
    imported = import_classical_automaton("ab", states, delta, q0, finals)
    for text in all_words(5):
        marked_word = imported.base.path(tuple(text) + ("$",))
        assert run_membership(imported, marked_word) == classical_accepts(
            delta, q0, finals, text
        ), text


def test_import_examples():
    states, delta, q0, finals = ENDS_IN_A
    imported = import_classical_automaton("ab", states, delta, q0, finals)
    assert run_membership(imported, imported.base.path(("a", "a", "$")))
    assert not run_membership(imported, imported.base.path(("b", "$")))


def test_import_initial_accepting_has_no_closure_artifact():
    # L = {eps, a} is not closed under concatenation; the end marker keeps
    # the single-final-state construction honest
    states, delta, q0, finals = EPS_OR_A
    imported = import_classical_automaton("ab", states, delta, q0, finals)
    accepted = {
        "".join(w.gens[:-1])
        for w in enumerate_regular_language(imported, 6)
    }
    assert accepted == {"", "a"}


def test_import_empty_final_set():
    imported = import_classical_automaton("ab", ["q0"], [("q0", "a", "q0")], "q0", [])
    assert enumerate_regular_language(imported, 5) == ()


def test_import_rejects_epsilon_transitions():
    with pytest.raises(InputError):
        import_classical_automaton("ab", ["q0"], [("q0", "", "q0")], "q0", ["q0"])


# -- runs ---------------------------------------------------------------------


def test_even_a_membership_and_runs():
    w = word(GRAPH_AB, "abab")
    assert run_membership(M_EVENA, w)
    runs = enumerate_runs(M_EVENA, w, "e", "e")
    assert len(runs) == 1
    assert runs[0].gens == ("a_eo", "b_oo", "a_oe", "b_ee")
    assert not run_membership(M_EVENA, word(GRAPH_AB, "a"))


def test_empty_run_is_identity_lift():
    eps = GRAPH_AB.path((), src="*")
    assert enumerate_runs(M_EVENA, eps, "e", "e") == (identity_path("e"),)
    assert enumerate_runs(M_EVENA, eps, "e", "o") == ()
    assert run_membership(M_EVENA, eps)


def test_membership_iff_some_run():
    for w in enumerate_paths(GRAPH_AB, "*", "*", 6):
        assert run_membership(M_EVENA, w) == bool(
            enumerate_runs(M_EVENA, w, "e", "e")
        ), w


def test_even_a_language():
    got = {"".join(w.gens) for w in enumerate_regular_language(M_EVENA, 3)}
    assert got == {"", "b", "aa", "bb", "aab", "aba", "baa", "bbb"}


# -- tree automata ------------------------------------------------------------


def _all_accepting_ta():
    transitions = tuple(
        TreeTransition(f"t_{n.name}", n.name, ("q",) * n.arity, "q")
        for n in SPC_FIG3.nodes
    )
    return TreeAutomaton(SPC_FIG3, ("q",), {"q": "1"}, transitions, "q")


def test_tree_automaton_accepting_everything():
    ta = _all_accepting_ta()
    assert validate_tree_automaton(ta) == []
    assert tree_accept(ta, fig3_tree())


def _alternating_ta():
    # nullary letters start in p; f flips p and q; accept q
    names = SPC_FIG3.node_by_name
    transitions = (
        TreeTransition("b", "b", (), "p"),
        TreeTransition("d", "d", (), "p"),
        TreeTransition("e", "e", (), "p"),
        TreeTransition("g", "g", (), "p"),
        TreeTransition("c", "c", ("p", "p"), "p"),
        TreeTransition("f_pq", "f", ("p",), "q"),
        TreeTransition("f_qp", "f", ("q",), "p"),
    )
    return TreeAutomaton(SPC_FIG3, ("p", "q"), {"p": "1", "q": "1"}, transitions, "q")


def test_tree_automaton_alternating_hand_runs():
    ta = _alternating_ta()
    assert validate_tree_automaton(ta) == []
    n = SPC_FIG3.node_by_name
    g = Apply(n["g"], ())
    # f(g): g -> p, f flips to q: accepted
    assert tree_accept(ta, Apply(n["f"], (g,)))
    # f(f(g)): p -> q -> p: rejected
    assert not tree_accept(ta, Apply(n["f"], (Apply(n["f"], (g,)),)))
    # c(d, e): stays in p: rejected
    assert not tree_accept(ta, Apply(n["c"], (Apply(n["d"], ()), Apply(n["e"], ()))))


def test_tree_automaton_missing_transition_rejects():
    ta = _alternating_ta()
    # no transition over node a, so the fig 3 tree cannot be evaluated
    assert not tree_accept(ta, fig3_tree())


def test_tree_accept_rejects_open_trees_with_input_error():
    ta = _alternating_ta()
    f = SPC_FIG3.node_by_name["f"]
    with pytest.raises(InputError, match="closed trees only"):
        tree_accept(ta, Leaf("1"))
    with pytest.raises(InputError, match="closed trees only"):
        tree_accept(ta, Apply(f, (Leaf("1"),)))


def test_tree_automaton_validation_reports():
    bad = TreeAutomaton(
        SPC_FIG3,
        ("p",),
        {"p": "1"},
        (TreeTransition("t", "f", (), "p"),),
        "p",
    )
    assert any("arity" in line for line in validate_tree_automaton(bad))


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


def test_automaton_functors_are_ulf():
    states, delta, q0, finals = ENDS_IN_A
    fixtures = [
        M_EVENA,
        interval_automaton(GRAPH_AB, word(GRAPH_AB, "aabb")),
        import_classical_automaton("ab", states, delta, q0, finals),
    ]
    for auto in fixtures:
        assert ulf_check_bounded(auto.functor, 4) is None


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
    # enumerate_runs terminates and returns finitely many lifts per word
    for w in enumerate_paths(GRAPH_AB, "*", "*", 4):
        for q in ("e", "o"):
            for q2 in ("e", "o"):
                runs = enumerate_runs(M_EVENA, w, q, q2)
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
