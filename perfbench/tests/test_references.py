"""The workloads' reference answers against values worked out by hand or
pinned in the library's own tests."""

import random

import pytest

import workloads


def test_catalan():
    assert [workloads.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_tree_count_recurrence_matches_the_figure_species():
    mods = workloads.import_catgram()
    species = mods.fixtures.SPC_FIG3
    assert workloads.count_trees(species, 1) == 4
    for k in (5, 6):
        assert workloads.count_trees(species, k) == len(mods.species.enumerate_closed_trees(species, "1", k))


def test_contour_walk_and_dyck_rule_on_the_worked_tree():
    mods = workloads.import_catgram()
    walk = workloads.contour_walk(mods.fixtures.fig3_tree())
    assert walk[:3] == ["(a,0)", "(b,0)", "(a,1)"] and len(walk) == 13
    letters = workloads.dyck_letters(mods.fixtures.SPC_FIG3, walk)
    assert "".join(l["bracket"] for l in letters) == "[[[]][[[[]][[]]]][[[[]]]]]"


@pytest.mark.parametrize("n", [1, 3, 9, 41])
def test_expr_words_have_the_asked_length_and_parse(n):
    mods = workloads.import_catgram()
    expr = workloads.expr_grammar(mods)
    rng = random.Random(n)
    for _ in range(5):
        text = workloads.expr_word(rng, n)
        assert len(text) == n
        assert expr.start in mods.parser.recognize(expr, workloads.path_of(expr, text))
