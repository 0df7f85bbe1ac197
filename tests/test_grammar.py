import itertools
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catgram import (
    Apply,
    CompositionError,
    FreeFunctor,
    GapType,
    InputError,
    Leaf,
    Path,
    SplicedArrow,
    bilinearize,
    check_equiv_bounded,
    chromatic_factorization,
    count_parses,
    enumerate_closed_trees,
    enumerate_language,
    enumerate_paths,
    eval_tree,
    export_classical,
    functorial_image,
    grammar_from_rules,
    identity_functor,
    identity_path,
    import_classical,
    monoid_graph,
    nullable_set,
    parse_classical_text,
    parse_forest,
    recognize,
    run_membership,
    spliced_compose_parallel,
    spliced_concat,
    spliced_identity,
    trim,
    union,
    useful_set,
    word,
)
from catgram.fixtures import (
    G_AB,
    G_AMB,
    G_END,
    G_EPS,
    G_TERN,
    GRAPH_A,
    GRAPH_AB,
    GRAPH_AB_END,
    G_UNIT,
    M_EVENA,
)
from catgram.grammar import Grammar
from catgram.species import Node, Species, fold, identity_species_map
from conftest import outcome, words
from test_species import _open_trees
from test_parser import (
    EXPR,
    GRAPH_PQ,
    RANDOM_COLORS,
    RANDOM_WORD_BOUND,
    _at_start,
    _segment,
    random_grammars,
)
from test_product import _digest

TOP = "⊤"


def lang(g, n):
    return words(enumerate_language(g, n))


def test_validate_fixtures_ok():
    # ``_replace`` builds through the checking constructor
    for g in (G_AB, G_AMB, G_END, G_EPS, G_TERN):
        assert g._replace() == g


def test_validate_reports_outer_mismatch():
    # S declared over (*, top) while its rule still splices a-b over (*, *)
    good = grammar_from_rules(
        GRAPH_AB_END,
        "S",
        {"S": ("*", "*")},
        [("r1", "S", ("S",), (("a",), ("b",))), ("r0", "S", (), (("a", "b"),))],
    )
    bad = Grammar._make({**good._asdict(), "color_gap": {"S": GapType("*", TOP)}}.values())
    message = "node 'r1': outer type (*,*) differs from gap type (*,⊤) of 'S'"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Grammar(*bad)


def _g_ab_with(start="S", color_gap=None, **splices):
    """G_AB, hand-built without the constructor's check, with another
    start, gap types or node splices; a splice given as None is dropped."""
    node_splice = {**G_AB.node_splice, **splices}
    return Grammar._make((
        GRAPH_AB,
        G_AB.species,
        start,
        G_AB.color_gap if color_gap is None else color_gap,
        {k: v for k, v in node_splice.items() if v is not None},
    ))


@pytest.mark.parametrize(
    "grammar,message",
    [
        (_g_ab_with(start="X"), "start symbol 'X' is not a declared color"),
        (_g_ab_with(color_gap={}), "color 'S' has no gap type"),
        # the first of four faults, the gap type before r1's and r0's types
        (
            _g_ab_with(color_gap={"S": GapType("*", TOP)}),
            "color 'S' has gap type outside the category",
        ),
        (_g_ab_with(r0=None), "node 'r0' has no spliced arrow"),
        (
            _g_ab_with(r0=G_AB.splice_of("r1")),
            "node 'r0' has arity 0 but its spliced arrow has arity 1",
        ),
        (
            _g_ab_with(r0=SplicedArrow((Path("*", "*", ("a", "c")),))),
            "node 'r0': segment 0: unknown generator(s) ['c']",
        ),
        (
            # G_END with r0 splicing the end marker into E, typed (*,*)
            Grammar._make({
                **G_END._asdict(),
                "node_splice": {
                    **G_END.node_splice,
                    "r0": SplicedArrow((GRAPH_AB_END.path(("a", "b", "$")),)),
                },
            }.values()),
            "node 'r0': outer type (*,⊤) differs from gap type (*,*) of 'E'",
        ),
    ],
    ids=["start", "no-gap", "gap-outside", "no-splice", "arity", "segment", "end-marker-splice"],
)
def test_validate_reports_are_pinned(grammar, message):
    # the constructor refuses each with its first fault, so no consumer
    # sees it
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Grammar(*grammar)


def test_replace_builds_through_the_checking_constructor():
    # a copy is checked as a new value is; ``_make`` is the one unchecked path
    with pytest.raises(InputError, match="^start symbol 'X' is not a declared color$"):
        enumerate_language(G_AB._replace(start="X"), 3)
    phi = identity_species_map(G_AB.species)
    with pytest.raises(InputError, match="^node 'r0' missing from node map$"):
        phi._replace(node_map={"r1": "r1"}).apply_tree(Apply(G_AB.species.node_by_name["r0"], ()))
    assert G_AB._replace(start="S") == G_AB and phi._replace() == phi


_R0, _R1 = map(G_AB.species.node_by_name.get, ("r0", "r1"))


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: run_membership(M_EVENA._replace(initial="nope"), word(GRAPH_AB, "aa")),
            "InputError: initial state 'nope' undeclared",
        ),
        (
            lambda: G_AB.species._replace(colors=("S", "S")),
            "InputError: duplicate color name 'S' in species",
        ),
        (
            lambda: GRAPH_AB._replace(objects=("*", "*")),
            "InputError: duplicate object name '*' in graph",
        ),
        (
            lambda: identity_functor(GRAPH_AB)._replace(object_map={}),
            "InputError: object '*' missing from object map",
        ),
        (
            lambda: Apply(_R1, (Apply(_R0, ()),))._replace(children=()),
            "CompositionError: node 'r1' has arity 1, got 0 children",
        ),
        (
            lambda: G_AB.splice_of("r0")._replace(segments=()),
            "CompositionError: a spliced arrow needs at least one segment",
        ),
    ],
    ids=["automaton", "species", "graph", "functor", "tree", "spliced-arrow"],
)
def test_replace_checks_every_value_that_checks_itself(call, expected):
    # each value's copy is checked as a new value is, where it was copied
    # unchecked: the automaton then failed with a bare KeyError in
    # run_membership, and the species held the color S twice
    assert outcome(call) == expected


def test_validate_knuth_end_rule():
    # the end-of-input production is an ordinary unary node into (*, top)
    fin = G_END.splice_of("fin")
    assert fin.outer == GapType("*", TOP)
    assert ["".join(s.gens) for s in fin.segments] == ["", "$"]
    assert G_END._replace() == G_END


def test_import_classical_ab_language():
    g = import_classical("ab", ["S"], "S", [("S", ["a", "S", "b"]), ("S", ["ab"])])
    assert g._replace() == g
    assert lang(g, 8) == lang(G_AB, 8)


def test_import_classical_epsilon_production():
    g = import_classical("a", ["S"], "S", [("S", [])])
    node = g.species.nodes[0]
    assert node.arity == 0
    assert g.splice_of(node.name).segments[0].is_identity
    assert lang(g, 4) == {""}


def test_import_classical_unknown_symbol():
    with pytest.raises(InputError):
        import_classical("ab", ["S"], "S", [("S", ["c"])])


def test_classical_text_roundtrip():
    text = "S -> a S b | ab\n"
    sigma, nts, start, prods = parse_classical_text(text)
    assert (sigma, nts, start) == (("a", "b"), ("S",), "S")
    g = import_classical(sigma, nts, start, prods)
    again = import_classical(*parse_classical_text(export_classical(g)))
    assert lang(again, 8) == lang(G_AB, 8)


def test_export_writes_epsilon_as_underscore():
    assert "S -> _" in export_classical(G_EPS)


def test_eval_tree_examples():
    r0 = G_AB.species.node_by_name["r0"]
    r1 = G_AB.species.node_by_name["r1"]
    got = eval_tree(G_AB, Apply(r1, (Apply(r0, ()),)))
    assert got.is_constant and got.as_path() == word(GRAPH_AB, "aabb")

    assert eval_tree(G_AB, Leaf("S")) == spliced_identity(GapType("*", "*"))

    c = G_AMB.species.node_by_name["c"]
    m = G_AMB.species.node_by_name["m"]
    got = eval_tree(G_AMB, Apply(m, (Apply(c, ()), Apply(c, ()))))
    assert got.as_path() == word(GRAPH_A, "aa")


def test_eval_of_closed_trees_matches_gap_types():
    for g in (G_AB, G_AMB, G_EPS, G_END):
        for color in g.species.colors:
            for t in enumerate_closed_trees(g.species, color, 6):
                value = eval_tree(g, t)
                assert value.is_constant
                assert value.outer == g.gap_of(color)


def eval_tree_by_composing(grammar, tree):
    """The homomorphic value of a tree, node by node: the identity at each
    leaf and the parallel composition of the node's splice with its
    children's values at each node.  The reference for ``eval_tree``."""
    return fold(
        tree,
        lambda leaf: spliced_identity(grammar.gap_of(leaf.color)),
        lambda t, operands: spliced_compose_parallel(grammar.splice_of(t.node.name), operands),
    )


def test_eval_tree_agrees_with_composing_on_fixtures():
    for g in (G_AB, G_AMB, G_EPS, G_END, G_TERN, G_UNIT):
        for color in g.species.colors:
            trees = _open_trees(g.species, color, 6)
            trees += enumerate_closed_trees(g.species, color, 8)
            for t in trees:
                assert eval_tree(g, t) == eval_tree_by_composing(g, t), t


@given(random_grammars(max_inputs=3))
def test_eval_tree_agrees_with_composing_on_random_grammars(grammar):
    trees = [t for c in grammar.species.colors for t in _open_trees(grammar.species, c, 3)]
    for t in trees:
        assert eval_tree(grammar, t) == eval_tree_by_composing(grammar, t), t


def _time_eval_chain(n):
    r0, r1 = G_AB.species.node_by_name["r0"], G_AB.species.node_by_name["r1"]
    tree = Apply(r0, ())
    for _ in range(n - 1):
        tree = Apply(r1, (tree,))
    start = time.perf_counter()
    value = eval_tree(G_AB, tree)
    elapsed = time.perf_counter() - start
    assert value.as_path() == word(GRAPH_AB, "a" * n + "b" * n)
    return elapsed


def test_eval_tree_takes_linear_time():
    # 8x the depth takes 8x the time when evaluation is linear, 64x when it
    # is quadratic; generous constants, this is a shape check
    t_short = _time_eval_chain(2_500)
    t_long = _time_eval_chain(20_000)
    assert t_long <= 24 * max(t_short, 0.005)
    assert t_long < 2.0


def test_properties_g_ab():
    assert nullable_set(G_AB) == ()
    assert useful_set(G_AB) == ("S",)


def test_properties_g_amb():
    assert nullable_set(G_AMB) == ()


def test_properties_epsilon_rule():
    assert nullable_set(G_EPS) == ("S",)


def test_nullable_matches_tree_oracle():
    for g in (G_AB, G_AMB, G_EPS, G_END):
        expected = set()
        for color in g.species.colors:
            for t in enumerate_closed_trees(g.species, color, 8):
                if eval_tree(g, t).as_path().is_identity:
                    expected.add(color)
                    break
        assert set(nullable_set(g)) == expected


def _useful_by_open_trees(g, max_nodes=6):
    """Brute force: a color is useful when some closed tree with at most
    max_nodes nodes exists below it and some one-holed tree of the start
    color with at most max_nodes nodes has it as the hole.

    The trees are counted by size, not listed: closed[c][k] says whether a
    closed tree at c has exactly k nodes, and holes[c][k] holds the hole
    colors of the one-holed trees at c with exactly k nodes (k = 0 is the
    bare leaf).  A node's children are read left to right, keeping for each
    total size whether all children so far are closed and which hole colors
    the ones with exactly one hole among them have.
    """
    colors = g.species.colors
    closed = {c: [False] * (max_nodes + 1) for c in colors}
    holes = {c: [{c}] + [set() for _ in range(max_nodes)] for c in colors}
    for k in range(1, max_nodes + 1):
        for node in g.species.nodes:
            all_closed, one_hole = [True] + [False] * (k - 1), [set() for _ in range(k)]
            for child in node.inputs:
                next_closed, next_hole = [False] * k, [set() for _ in range(k)]
                for s in range(k):
                    for t in range(k - s):
                        if closed[child][t]:
                            next_closed[s + t] |= all_closed[s]
                            next_hole[s + t] |= one_hole[s]
                        if all_closed[s]:
                            next_hole[s + t] |= holes[child][t]
                all_closed, one_hole = next_closed, next_hole
            closed[node.output][k] |= all_closed[k - 1]
            holes[node.output][k] |= one_hole[k - 1]
    productive = {c for c in colors if any(closed[c])}
    contexts = set().union(*holes[g.start])
    return productive & contexts


def test_useful_matches_open_tree_oracle():
    dead = grammar_from_rules(
        GRAPH_AB,
        "S",
        {"S": ("*", "*"), "U": ("*", "*"), "W": ("*", "*")},
        [
            ("r0", "S", (), (("a",),)),
            ("loop", "U", ("U",), (("a",), ())),  # unproductive
            ("orphan", "W", (), (("b",),)),  # unreachable
            ("use", "S", ("U",), ((), ())),
        ],
    )
    for g in (G_AB, G_AMB, G_EPS, dead):
        assert set(useful_set(g)) == _useful_by_open_trees(g)


@st.composite
def random_grammars_with_dead_colors(draw):
    """A random grammar with some of its constants dropped, so that colors
    can be unproductive as well as unreachable."""
    grammar = draw(random_grammars())
    dropped = {f"k{c}" for c in grammar.species.colors if draw(st.booleans())}
    nodes = tuple(n for n in grammar.species.nodes if n.name not in dropped)
    return Grammar(
        grammar.category,
        Species(grammar.species.colors, nodes),
        grammar.start,
        grammar.color_gap,
        {n.name: grammar.node_splice[n.name] for n in nodes},
    )


@pytest.mark.deep
@given(random_grammars_with_dead_colors())
def test_nullable_and_useful_sets_agree_with_oracles(grammar):
    nullable = nullable_set(grammar)
    for color in grammar.species.colors:
        identity = identity_path(grammar.gap_of(color).left)
        empty = enumerate_language(_at_start(grammar, color), 0)
        assert (color in nullable) == (identity in empty), color
    assert set(useful_set(grammar)) == _useful_by_open_trees(grammar)


@pytest.mark.deep
@given(random_grammars_with_dead_colors())
def test_trim_agrees_with_the_open_tree_oracle(grammar):
    # the useful colors in declared order and the start; the nodes whose
    # colors are all useful; both tables cut to them, in the same order
    useful = _useful_by_open_trees(grammar)
    colors = [c for c in grammar.species.colors if c in useful or c == grammar.start]
    nodes = [n for n in grammar.species.nodes if useful.issuperset((n.output, *n.inputs))]
    trimmed = trim(grammar)
    assert trimmed.species == Species(tuple(colors), tuple(nodes))
    assert (trimmed.category, trimmed.start) == (grammar.category, grammar.start)
    assert list(trimmed.color_gap.items()) == [(c, grammar.color_gap[c]) for c in colors]
    assert list(trimmed.node_splice.items()) == [
        (n.name, grammar.node_splice[n.name]) for n in nodes
    ]


def test_union_of_same_language():
    assert lang(union(G_AB, G_AB), 8) == lang(G_AB, 8)


def test_union_with_empty_language():
    empty = grammar_from_rules(
        GRAPH_AB, "S", {"S": ("*", "*")}, [("loop", "S", ("S",), ((), ()))]
    )
    assert lang(union(G_AB, empty), 8) == lang(G_AB, 8)


def test_union_of_singletons():
    ga = grammar_from_rules(GRAPH_AB, "S", {"S": ("*", "*")}, [("a", "S", (), (("a",),))])
    gb = grammar_from_rules(GRAPH_AB, "S", {"S": ("*", "*")}, [("b", "S", (), (("b",),))])
    u = union(ga, gb)
    assert lang(u, 4) == {"a", "b"}
    assert lang(u, 4) == lang(ga, 4) | lang(gb, 4)


def test_union_rejects_mismatched_starts():
    with pytest.raises(CompositionError):
        union(G_END, _end_grammar_over_star())


def _end_grammar_over_star():
    return grammar_from_rules(
        GRAPH_AB_END, "S", {"S": ("*", "*")}, [("r0", "S", (), (("a", "b"),))]
    )


ABCD = monoid_graph(("a", "b", "c", "d"))
G_AB4 = grammar_from_rules(
    ABCD,
    "S",
    {"S": ("*", "*")},
    [("r1", "S", ("S",), (("a",), ("b",))), ("r0", "S", (), (("a", "b"),))],
)


def test_spliced_concat_wraps_language():
    op = SplicedArrow((word(ABCD, "c"), word(ABCD, "d")))
    g = spliced_concat(op, [G_AB4])
    assert lang(g, 8) == {"c" + w + "d" for w in lang(G_AB4, 6)}


def test_spliced_concat_identity_is_neutral():
    g = spliced_concat(spliced_identity(GapType("*", "*")), [G_AB])
    assert lang(g, 8) == lang(G_AB, 8)


def test_spliced_concat_nullary_constant():
    op = SplicedArrow((word(GRAPH_AB, "ab"),))
    g = spliced_concat(op, [], category=GRAPH_AB)
    assert lang(g, 8) == {"ab"}


def test_spliced_concat_two_factors():
    op = SplicedArrow((identity_path("*"), word(ABCD, "c"), identity_path("*")))
    g = spliced_concat(op, [G_AB4, G_AB4])
    expected = {
        u + "c" + v
        for u in lang(G_AB4, 8)
        for v in lang(G_AB4, 8)
        if len(u) + len(v) + 1 <= 8
    }
    assert lang(g, 8) == expected


X = monoid_graph(("x",))
COLLAPSE = FreeFunctor(
    domain=GRAPH_AB,
    codomain=X,
    object_map={"*": "*"},
    generator_map={"a": word(X, "x"), "b": word(X, "x")},
)


def test_functorial_image_collapses_letters():
    g = functorial_image(G_AB, COLLAPSE)
    assert lang(g, 8) == {"xx", "xxxx", "xxxxxx", "xxxxxxxx"}
    assert lang(g, 8) == {"x" * len(w) for w in lang(G_AB, 8)}


def test_functorial_image_identity():
    assert functorial_image(G_AB, identity_functor(GRAPH_AB)) == G_AB


def test_functorial_image_erasing():
    B = monoid_graph(("b",))
    erase_a = FreeFunctor(
        domain=GRAPH_AB,
        codomain=B,
        object_map={"*": "*"},
        generator_map={"a": identity_path("*"), "b": word(B, "b")},
    )
    g = functorial_image(G_AB, erase_a)
    assert lang(g, 8) == {"b" * n for n in range(1, 9)}


def test_bilinearize_chain_structure():
    # the ternary node becomes one nullary chain head plus three binary links
    binned = bilinearize(G_TERN)
    assert all(n.arity <= 2 for n in binned.species.nodes)
    added = [c for c in binned.species.colors if c.startswith("I(")]
    assert added == ["I(t,0)", "I(t,1)", "I(t,2)"]
    head = binned.species.node_by_name["t#b0"]
    assert head.arity == 0
    assert "".join(binned.splice_of("t#b0").segments[0].gens) == "a"
    for i, expected_tail in ((1, ""), (2, ""), (3, "b")):
        link = binned.species.node_by_name[f"t#b{i}"]
        assert link.arity == 2
        assert link.inputs[0] == f"I(t,{i - 1})"
        assert link.inputs[1] == "S"
        splice = binned.splice_of(f"t#b{i}")
        assert splice.segments[0].is_identity and splice.segments[1].is_identity
        assert "".join(splice.segments[2].gens) == expected_tail
    # interface colors refine (A, A_i)
    assert binned.gap_of("I(t,0)") == GapType("*", "*")


def test_bilinearize_leaves_small_grammars_alone():
    assert bilinearize(G_AB) == G_AB
    assert bilinearize(G_AMB) == G_AMB


def test_bilinearize_preserves_language():
    assert lang(bilinearize(G_TERN), 8) == lang(G_TERN, 8) == {"aabababb"}
    assert bilinearize(G_TERN)._replace() == bilinearize(G_TERN)


def test_check_equiv_bounded_equal():
    assert check_equiv_bounded(G_AB, bilinearize(G_AB), 8) is None
    assert check_equiv_bounded(G_TERN, bilinearize(G_TERN), 8) is None


AMB_OVER_AB = grammar_from_rules(
    GRAPH_AB,
    "S",
    {"S": ("*", "*")},
    [("c", "S", (), (("a",),)), ("m", "S", ("S", "S"), ((), (), ()))],
)


def test_check_equiv_bounded_counterexample():
    ce = check_equiv_bounded(G_AB, AMB_OVER_AB, 2)
    assert ce is not None and "".join(ce.gens) == "a"


def test_check_equiv_reflexive():
    assert check_equiv_bounded(G_AMB, G_AMB, 6) is None


# -- bounded equivalence against its reference ------------------------------


def check_equiv_by_recognizing(g1, g2, max_len):
    """Reference for ``check_equiv_bounded``: run the parser on every path
    up to the bound, sharing no algorithm with the oracle's word sets."""
    if g1.category != g2.category:
        raise CompositionError("bounded equivalence needs grammars over one category")
    gap = g1.gap_of(g1.start)
    if gap != g2.gap_of(g2.start):
        raise CompositionError("start symbols have different gap types")
    for w in enumerate_paths(g1.category, gap.left, gap.right, max_len):
        if (g1.start in recognize(g1, w)) != (g2.start in recognize(g2, w)):
            return w
    return None


def _same_as_reference(g1, g2, max_len):
    try:
        expected = check_equiv_by_recognizing(g1, g2, max_len)
    except CompositionError as exc:
        with pytest.raises(CompositionError, match=f"^{re.escape(str(exc))}$"):
            check_equiv_bounded(g1, g2, max_len)
        return
    assert check_equiv_bounded(g1, g2, max_len) == expected


def _with_nodes(grammar, nodes, node_splice):
    species = Species(grammar.species.colors, tuple(nodes))
    return Grammar(grammar.category, species, grammar.start, grammar.color_gap, node_splice)


A_N_B_N_FROM_2 = grammar_from_rules(
    GRAPH_AB,
    "S",
    {"S": ("*", "*")},
    [("r1", "S", ("S",), (("a",), ("b",))), ("r0", "S", (), (("a", "a", "b", "b"),))],
)


@pytest.mark.parametrize(
    "g1,g2,max_len,expected",
    [
        (G_AB, bilinearize(G_AB), 8, None),
        (G_TERN, bilinearize(G_TERN), 8, None),
        (EXPR, bilinearize(EXPR), 4, None),
        (G_AB, AMB_OVER_AB, 4, "a"),
        (G_AB, A_N_B_N_FROM_2, 8, "ab"),
    ],
    ids=["G_AB-bilinear", "G_TERN-bilinear", "expr-bilinear", "G_AB-ambiguous", "G_AB-from-aabb"],
)
def test_check_equiv_bounded_agrees_with_recognizing_on_fixtures(g1, g2, max_len, expected):
    for left, right in ((g1, g2), (g2, g1)):
        found = check_equiv_bounded(left, right, max_len)
        assert found == check_equiv_by_recognizing(left, right, max_len)
        assert (found if found is None else "".join(found.gens)) == expected


@given(random_grammars(max_inputs=3), random_grammars(), st.data())
def test_check_equiv_bounded_agrees_with_recognizing_on_random_grammars(g1, g2, data):
    gap = g1.gap_of(g1.start)
    extra = data.draw(st.sampled_from(enumerate_paths(g1.category, gap.left, gap.right, 3)))
    added = _with_nodes(
        g1,
        g1.species.nodes + (Node("extra", (), g1.start),),
        {**g1.node_splice, "extra": SplicedArrow((extra,))},
    )
    gone = data.draw(st.sampled_from(g1.species.nodes))
    dropped = _with_nodes(
        g1,
        [n for n in g1.species.nodes if n != gone],
        {k: v for k, v in g1.node_splice.items() if k != gone.name},
    )
    # equal pairs, a pair that differs unless ``extra`` is already derived,
    # one that may lose words, and unrelated grammars at each of their colors
    others = [g1, bilinearize(g1), added, dropped]
    others += [_at_start(g2, color) for color in g2.species.colors]
    for other in others:
        _same_as_reference(g1, other, RANDOM_WORD_BOUND)


@pytest.mark.deep
@given(random_grammars(max_inputs=4))
def test_bilinearize_keeps_languages_and_parse_counts_on_random_grammars(grammar):
    binned = bilinearize(grammar)
    assert all(node.arity <= 2 for node in binned.species.nodes)
    bound = RANDOM_WORD_BOUND
    assert enumerate_language(binned, bound) == enumerate_language(grammar, bound)
    gap = grammar.gap_of(grammar.start)
    for w in enumerate_paths(grammar.category, gap.left, gap.right, bound):
        # derivations correspond one to one, so cyclic forests give inf on both sides
        assert count_parses(parse_forest(binned, w)) == count_parses(parse_forest(grammar, w)), w
    assert check_equiv_bounded(grammar, binned, bound) is None


# -- closure constructions: errors, pinned outputs, random languages ---------


def test_union_rejects_two_categories():
    with pytest.raises(CompositionError, match="^union needs grammars over the same category$"):
        union(G_AB, G_AMB)


STAR = GapType("*", "*")


@pytest.mark.parametrize(
    "op,grammars,error,message",
    [
        (spliced_identity(STAR), [], CompositionError,
         "operation of arity 1 needs 1 grammars"),
        (SplicedArrow((identity_path("*"),) * 3), [G_AB, G_AMB],
         CompositionError, "spliced_concat needs grammars over one category"),
        (SplicedArrow((identity_path("*"),)), [], InputError,
         "spliced_concat with no grammars needs an explicit category"),
        (spliced_identity(STAR), [G_END], CompositionError,
         "gap 0 of the operation does not match the start type of grammar 0"),
    ],
    ids=["arity", "two-categories", "no-category", "gap"],
)
def test_spliced_concat_error_messages(op, grammars, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        spliced_concat(op, grammars)


def test_spliced_concat_rejects_a_segment_that_is_no_path():
    # the middle segment claims to run from top to * with no generators
    op = SplicedArrow((identity_path("*"), Path(TOP, "*", ()), identity_path(TOP)))
    message = "node 'x#cat': segment 1 has type ⊤->⊤, expected ⊤->*"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        spliced_concat(op, [G_END, G_END])


RULE_NONTERMINALS = {"S": ("*", TOP), "A": ("*", "*")}


@pytest.mark.parametrize(
    "start,nonterminals,inputs,segments,message",
    [
        ("S", RULE_NONTERMINALS, ("A",), (("$",), ("$",)),
         "node 'x': segment 0 has type *->⊤, expected *->*"),
        ("S", RULE_NONTERMINALS, ("A", "A"), ((), ("$",), ("$",)),
         "node 'x': segment 1 has type *->⊤, expected *->*"),
        ("S", RULE_NONTERMINALS, ("A",), (("a",), ("a",)),
         "node 'x': segment 1 has type *->*, expected *->⊤"),
        # the first fault in reading order: segment 0's type, not segment
        # 1's unknown generator
        ("S", RULE_NONTERMINALS, ("A",), (("$",), ("c",)),
         "node 'x': segment 0 has type *->⊤, expected *->*"),
        ("S", RULE_NONTERMINALS, ("A",), (("a",),), "rule 'x' needs 2 segments, got 1"),
        (
            "S",
            RULE_NONTERMINALS,
            ("A",),
            (("$", "$"), ()),
            "node 'x': segment 0: generators do not compose: "
            "expected source '⊤', got '$' : '*' -> '⊤'",
        ),
        ("S", RULE_NONTERMINALS, ("B",), ((), ()), "node 'x' references undeclared color 'B'"),
        ("S", {**RULE_NONTERMINALS, "A": ("*", "q")}, ("A",), (("a",), ("$",)),
         "color 'A' has gap type outside the category"),
        ("T", RULE_NONTERMINALS, ("A",), (("a",), ("$",)),
         "start symbol 'T' is not a declared color"),
    ],
    ids=[
        "first",
        "middle",
        "last",
        "paths-first",
        "count",
        "compose",
        "undeclared-color",
        "gap-outside",
        "undeclared-start",
    ],
)
def test_grammar_from_rules_error_messages(start, nonterminals, inputs, segments, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        grammar_from_rules(GRAPH_AB_END, start, nonterminals, [("x", "S", inputs, segments)])


@st.composite
def rule_data(draw):
    """Rule data over ``GRAPH_PQ``, each rule with at most one fault: an
    undeclared color ``U``, an unknown generator ``z``, a segment of
    another type or a wrong segment count; sometimes a color ``R`` typed at
    an object of no graph, and sometimes the start ``U``.  Also returns
    whether a fault was planted."""
    real = st.sampled_from(GRAPH_PQ.objects)
    declared = draw(st.lists(st.sampled_from(RANDOM_COLORS), min_size=1, unique=True))
    nonterminals = {c: (draw(real), draw(real)) for c in declared}
    planted = not draw(st.integers(0, 7))
    if planted:
        nonterminals["R"] = ("r", draw(real))
    rules = []
    for index in range(draw(st.integers(0, 4))):
        fault = draw(st.integers(0, 9))
        colors = st.sampled_from(declared + ["U"] if fault == 0 else declared)
        output, inputs = draw(colors), tuple(draw(st.lists(colors, max_size=2)))
        planted |= "U" in (output, *inputs)
        gaps = [nonterminals.get(c, ("p", "q")) for c in (output, *inputs)]
        ends = [gaps[0][0], *(end for gap in gaps[1:] for end in gap), gaps[0][1]]
        spans = list(zip(ends[::2], ends[1::2]))
        segments = [_segment(draw, src, dst) for src, dst in spans]
        at = draw(st.integers(0, len(segments) - 1))
        if fault == 1:
            segments[at] = draw(st.sampled_from([("z",), ("a", "z")]))
            planted = True
        elif fault == 2:
            src, dst = draw(real), draw(real)
            segments[at] = _segment(draw, src, dst)
            # an empty segment is a path at every object, so it is a fault
            # only where the forced ends differ
            wrong = spans[at][0] != spans[at][1] if not segments[at] else (src, dst) != spans[at]
            planted |= wrong
        elif fault == 3:
            segments = draw(st.sampled_from([segments[:-1], segments + [()]]))
            planted = True
        rules.append((f"n{index}", output, inputs, tuple(segments)))
    start = draw(st.sampled_from(declared * 3 + ["U"]))
    return start, nonterminals, rules, planted or start == "U"


@given(rule_data())
def test_grammar_from_rules_builds_only_grammars_validate_accepts(data):
    # every grammar file is read through grammar_from_rules, so `catgram
    # validate -g` exits 0 or 2, never 1 with a report; and a draw is
    # refused exactly when it has a fault
    start, nonterminals, rules, planted = data
    try:
        grammar = grammar_from_rules(GRAPH_PQ, start, nonterminals, rules)
    except InputError:
        assert planted
        return
    assert not planted
    assert grammar._replace() == grammar


# a^n b^n with arity four and interface colors of two gap types: a b b $
G_QUAD = grammar_from_rules(
    GRAPH_AB_END,
    "Q",
    {"Q": ("*", TOP), "A": ("*", "*"), "Z": (TOP, TOP)},
    [
        ("q", "Q", ("A", "A", "Z", "Z"), (("a",), (), ("$",), (), ())),
        ("ra", "A", (), (("b",),)),
        ("rz", "Z", (), ((),)),
    ],
)
FIXTURES = {
    "g_ab": G_AB, "g_amb": G_AMB, "g_end": G_END, "g_eps": G_EPS, "g_tern": G_TERN,
    "g_unit": G_UNIT,
}
PINNED_CONSTRUCTIONS = {
    **{
        f"union {n1} {n2}": lambda g1=g1, g2=g2: union(g1, g2)
        for (n1, g1), (n2, g2) in itertools.product(FIXTURES.items(), repeat=2)
        if g1.category == g2.category and g1.gap_of(g1.start) == g2.gap_of(g2.start)
    },
    "spliced_concat identity g_ab": lambda: spliced_concat(spliced_identity(STAR), [G_AB]),
    "spliced_concat wrap g_end": lambda: spliced_concat(
        SplicedArrow((word(GRAPH_AB_END, "ab"), identity_path(TOP))),
        [G_END],
    ),
    "spliced_concat two factors": lambda: spliced_concat(
        SplicedArrow((identity_path("*"), word(GRAPH_AB, "b"), word(GRAPH_AB, "a"))),
        [G_AB, G_TERN],
    ),
    "spliced_concat nullary": lambda: spliced_concat(
        SplicedArrow((word(GRAPH_AB, "ab"),)), [], category=GRAPH_AB
    ),
    **{f"bilinearize {n}": lambda g=g: bilinearize(g) for n, g in FIXTURES.items()},
    "bilinearize expr": lambda: bilinearize(EXPR),
    "bilinearize g_quad": lambda: bilinearize(G_QUAD),
    **{f"chromatic {n}": lambda g=g: chromatic_factorization(g)[0] for n, g in FIXTURES.items()},
    "chromatic g_quad": lambda: chromatic_factorization(G_QUAD)[0],
}
PINNED_CONSTRUCTION_DIGESTS = {
    "bilinearize expr": "76718a3aca1410d4",
    "bilinearize g_ab": "15fe24af26937558",
    "bilinearize g_amb": "06e9554c3126eb1f",
    "bilinearize g_end": "9c8e8d3ba13a2ed3",
    "bilinearize g_eps": "cbb51941cca04254",
    "bilinearize g_quad": "bfcdfb858f1ca56d",
    "bilinearize g_tern": "074753ac3abaaa21",
    "bilinearize g_unit": "d6cdff75c37295b8",
    "chromatic g_ab": "ee0424d1ee344fd4",
    "chromatic g_amb": "3d361c3d588d0da9",
    "chromatic g_end": "6a2bc53f64228f22",
    "chromatic g_eps": "d0522997dfef517d",
    "chromatic g_quad": "53c34244fb7ad419",
    "chromatic g_tern": "970b52ffbd562128",
    "chromatic g_unit": "426b7819187c6a89",
    "spliced_concat identity g_ab": "02c7ac120cca60e6",
    "spliced_concat nullary": "55c7dbce4c91d816",
    "spliced_concat two factors": "fc863641e04eb1bf",
    "spliced_concat wrap g_end": "90ea85158fb383c9",
    "union g_ab g_ab": "08e981d000f31b5a",
    "union g_ab g_tern": "aba111ea46acf36c",
    "union g_amb g_amb": "a1b1c5a2f6f9a6f1",
    "union g_amb g_eps": "fddc968544bd7c81",
    "union g_amb g_unit": "9a8f3b482c12d2e0",
    "union g_end g_end": "8848807672ce9722",
    "union g_eps g_amb": "b44cb9d0f6b1f1c5",
    "union g_eps g_eps": "6f11e939a58f16a2",
    "union g_eps g_unit": "a5ce0f6ad170b567",
    "union g_tern g_ab": "39aef9add51a4550",
    "union g_tern g_tern": "2ef61f99ba377a34",
    "union g_unit g_amb": "b427c94a681570e6",
    "union g_unit g_eps": "ec9c726e0fe699dd",
    "union g_unit g_unit": "02f5cac361e4af24",
}


@pytest.mark.parametrize("name", sorted(PINNED_CONSTRUCTIONS))
def test_construction_output_is_pinned(name):
    # digests of the outputs as the constructions built them by hand
    assert _digest(PINNED_CONSTRUCTIONS[name]()) == PINNED_CONSTRUCTION_DIGESTS[name]


def test_bilinearize_of_g_quad():
    binned = bilinearize(G_QUAD)
    assert binned._replace() == binned
    # I(q,i) refines (*, left end of input i)
    end = GapType("*", TOP)
    assert [binned.gap_of(f"I(q,{i})") for i in range(4)] == [STAR, STAR, end, end]
    assert lang(binned, 6) == lang(G_QUAD, 6) == {"abb$"}


NOT_A_PATH = _g_ab_with(r0=SplicedArrow((Path("*", "*", ("a", "c")),)))


@pytest.mark.parametrize(
    "construct",
    [
        lambda: union(Grammar(*NOT_A_PATH), G_AB),
        lambda: union(G_AB, Grammar(*NOT_A_PATH)),
        lambda: spliced_concat(spliced_identity(STAR), [Grammar(*NOT_A_PATH)]),
        lambda: bilinearize(Grammar(*NOT_A_PATH)),
        lambda: chromatic_factorization(Grammar(*NOT_A_PATH)),
    ],
    ids=["union-left", "union-right", "spliced_concat", "bilinearize", "chromatic"],
)
def test_constructions_reject_a_grammar_that_validate_faults(construct):
    # the faulty operand cannot be built, so no construction carries it on
    message = "node 'r0': segment 0: unknown generator(s) ['c']"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        construct()


def test_bilinearize_rejects_an_interface_color_that_is_taken():
    taken = grammar_from_rules(
        GRAPH_AB,
        "T",
        {"S": ("*", "*"), "T": ("*", "*"), "I(t,1)": ("*", "*")},
        [("r0", "S", (), (("a", "b"),)), ("t", "T", ("S", "S", "S"), (("a",), (), (), ("b",)))],
    )
    with pytest.raises(InputError, match=r"^duplicate color name 'I\(t,1\)' in species$"):
        bilinearize(taken)


@pytest.mark.deep
@given(random_grammars(), random_grammars(), st.data())
def test_union_language_is_the_union_on_random_grammars(g1, g2, data):
    gap = g1.gap_of(g1.start)
    same = [c for c in g2.species.colors if g2.gap_of(c) == gap]
    if not same:
        with pytest.raises(CompositionError):
            union(g1, g2)
        return
    g2 = _at_start(g2, data.draw(st.sampled_from(same)))
    bound = RANDOM_WORD_BOUND
    expected = set(enumerate_language(g1, bound)) | set(enumerate_language(g2, bound))
    assert set(enumerate_language(union(g1, g2), bound)) == expected


@pytest.mark.deep
@given(st.lists(random_grammars(), max_size=2), st.data())
def test_spliced_concat_language_is_the_spliced_words_on_random_grammars(grammars, data):
    objects = st.sampled_from(GRAPH_PQ.objects)
    outer = GapType(data.draw(objects), data.draw(objects))
    gaps = tuple(g.gap_of(g.start) for g in grammars)
    ends = [outer.left, *(end for gap in gaps for end in (gap.left, gap.right)), outer.right]
    segments = tuple(
        GRAPH_PQ.path(_segment(data.draw, src, dst), src=src) for src, dst in zip(ends[::2], ends[1::2])
    )
    op = SplicedArrow(segments)
    bound = RANDOM_WORD_BOUND
    expected = set()
    for factors in itertools.product(*(enumerate_language(g, bound) for g in grammars)):
        gens = segments[0].gens
        for factor, segment in zip(factors, segments[1:]):
            gens += factor.gens + segment.gens
        if len(gens) <= bound:
            expected.add(Path(outer.left, outer.right, gens))
    result = spliced_concat(op, grammars, category=GRAPH_PQ)
    assert set(enumerate_language(result, bound)) == expected


# -- branches no other test takes -------------------------------------------


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: import_classical("a", ["S"], "S", [("T", ["a"])]),
            "InputError: production 0: unknown nonterminal 'T'",
        ),
        (
            lambda: parse_classical_text("# comment\n\nS -> b a | a"),
            "(('a', 'b'), ('S',), 'S', [('S', ['b', 'a']), ('S', ['a'])])",
        ),
        (lambda: parse_classical_text("S a"), "InputError: line 1: expected 'R -> ...'"),
        (lambda: parse_classical_text(" -> a"), "InputError: line 1: missing left-hand side"),
        (lambda: parse_classical_text("# none\n"), "InputError: no productions found"),
        (
            lambda: export_classical(G_END),
            "InputError: classical export needs a one-object category",
        ),
        (
            lambda: functorial_image(G_AB, identity_functor(GRAPH_A)),
            "CompositionError: functor domain does not match the grammar's category",
        ),
        (
            lambda: check_equiv_bounded(G_AB, G_AMB, 2),
            "CompositionError: bounded equivalence needs grammars over one category",
        ),
        (
            lambda: eval_tree(G_AB, Apply(G_AMB.species.node_by_name["c"], ())),
            "InputError: tree node 'c' is not a node of the grammar",
        ),
        (lambda: eval_tree(G_AB, Leaf("T")), "InputError: tree leaf 'T' is not a color of the grammar"),
    ],
    ids=[
        "classical-unknown-lhs",
        "classical-text-skips-comments",
        "classical-text-no-arrow",
        "classical-text-no-lhs",
        "classical-text-empty",
        "classical-export-two-objects",
        "image-along-another-domain",
        "equivalence-across-categories",
        "eval-foreign-node",
        "eval-foreign-leaf",
    ],
)
def test_rarely_taken_branches(call, expected):
    assert outcome(call) == expected
