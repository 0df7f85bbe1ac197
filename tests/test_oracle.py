import ast

import pytest

from catgram import (
    Automaton,
    CatgramError,
    State,
    enumerate_closed_trees,
    enumerate_language,
    enumerate_regular_language,
    eval_tree,
    grammar_from_rules,
    interval_automaton,
    word,
)
from catgram import oracle
from catgram.fixtures import G_AB, G_AMB, G_EPS, G_UNIT, GRAPH_AB, M_EVENA
from conftest import outcome, words


def test_language_of_g_ab():
    assert words(enumerate_language(G_AB, 8)) == {"ab", "aabb", "aaabbb", "aaaabbbb"}


def test_language_of_empty_grammar():
    g = grammar_from_rules(
        GRAPH_AB, "S", {"S": ("*", "*")}, [("loop", "S", ("S",), ((), ()))]
    )
    assert enumerate_language(g, 8) == ()


def test_language_of_g_amb():
    assert words(enumerate_language(G_AMB, 3)) == {"a", "aa", "aaa"}


def test_language_includes_empty_word():
    assert words(enumerate_language(G_EPS, 2)) == {"", "a", "aa"}


def test_language_ordering_is_canonical():
    got = enumerate_language(G_AB, 8)
    assert [len(w.gens) for w in got] == sorted(len(w.gens) for w in got)


def test_unit_cycle_language_terminates():
    # the unit production adds no new words, so saturation stops early
    assert words(enumerate_language(G_UNIT, 5, max_sweeps=4)) == {"a"}


def test_sweep_budget_is_enforced():
    with pytest.raises(CatgramError):
        enumerate_language(G_AB, 8, max_sweeps=1)


@pytest.mark.parametrize(
    "grammar,max_len,sweeps",
    [(G_AB, 8, 6), (G_AMB, 8, 10), (G_EPS, 8, 10), (G_UNIT, 8, 10)],
)
def test_saturation_within_documented_bounds(grammar, max_len, sweeps):
    enumerate_language(grammar, max_len, max_sweeps=sweeps)


def test_word_fixed_point_agrees_with_tree_enumeration():
    # two independent oracle routes: bottom-up word sets vs exhaustive trees
    for grammar, max_len, max_nodes in ((G_AB, 8, 5), (G_AMB, 6, 11), (G_EPS, 6, 7)):
        by_trees = {
            eval_tree(grammar, t).as_path()
            for t in enumerate_closed_trees(grammar.species, grammar.start, max_nodes)
        }
        by_trees = {w for w in by_trees if len(w.gens) <= max_len}
        assert set(enumerate_language(grammar, max_len)) == by_trees


def test_regular_language_of_m_evena():
    got = words(enumerate_regular_language(M_EVENA, 3))
    assert got == {"", "b", "aa", "bb", "aab", "aba", "baa", "bbb"}


def test_regular_language_of_empty_automaton():
    empty = Automaton(
        base=GRAPH_AB,
        states=(State("q", "*"), State("r", "*")),
        transitions=(),
        initial="q",
        final="r",
    )
    assert enumerate_regular_language(empty, 5) == ()


def test_regular_language_of_interval():
    auto = interval_automaton(GRAPH_AB, word(GRAPH_AB, "aabb"))
    assert words(enumerate_regular_language(auto, 6)) == {"aabb"}


# The oracle may share data types with the code it checks, but no algorithm:
# anything beyond these names (a shared fixed point, the parser, the
# pullback) would make its agreement with them no evidence at all.
ORACLE_IMPORTS = {
    ("__future__", "annotations"),
    (".automaton", "Automaton"),
    (".errors", "CatgramError"),
    (".errors", "InputError"),
    (".freecat", "Path"),
    (".freecat", "enumerate_paths"),
    (".grammar", "Grammar"),
}


def test_oracle_imports_only_data_types():
    with open(oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported |= {(module, alias.name) for alias in node.names}
    assert imported <= ORACLE_IMPORTS, imported - ORACLE_IMPORTS


# -- branches no other test takes -------------------------------------------


@pytest.mark.parametrize(
    "call, expected",
    [(lambda: enumerate_language(G_AB, -1), "InputError: max_len must be nonnegative")],
    ids=["negative-length"],
)
def test_rarely_taken_branches(call, expected):
    assert outcome(call) == expected
