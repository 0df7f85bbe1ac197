import math
import time
from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catgram import (
    InputError,
    Path,
    bilinearize,
    count_parses,
    enumerate_closed_trees,
    enumerate_parses,
    enumerate_paths,
    eval_tree,
    intersect,
    interval_automaton,
    leaf_colors,
    parse_chart,
    parse_forest,
    recognize,
    word,
)
from catgram.fixtures import G_AB, G_AMB, G_END, G_EPS, G_TERN, G_UNIT, GRAPH_A, GRAPH_AB
from catgram.freecat import FiniteGraph, Generator
from catgram.grammar import Grammar, grammar_from_rules, import_classical, parse_classical_text
from catgram.oracle import enumerate_language
import catgram.parser
from catgram.parser import PackedForest, ParseItem, _forest, _lift, _recognize_and_parse
from catgram.product import lift
from catgram.species import Apply, node_count, tree_key, trees_by_size
from conftest import lifo, no_cyclic_garbage

# per-fixture tree bounds covering every word up to length 8:
# G_AB derives a^k b^k from k+1 nodes, G_AMB derives a^n from 2n-1 nodes,
# G_EPS derives a^n from n+1 nodes, G_END derives a^n b^n $ from n+1 nodes
FIXTURES = [
    (G_AB, "*", "*", 8, 5),
    (G_AMB, "*", "*", 8, 15),
    (G_EPS, "*", "*", 8, 9),
    (G_END, "*", "⊤", 8, 6),
]


def _oracle_colors(grammar, max_len, max_nodes):
    """Color sets per word, from exhaustive closed-tree enumeration."""
    table = {}
    for color in grammar.species.colors:
        for t in enumerate_closed_trees(grammar.species, color, max_nodes):
            w = eval_tree(grammar, t).as_path()
            if len(w.gens) <= max_len:
                table.setdefault(w, set()).add(color)
    return table


def _oracle_parses(grammar, max_len, max_nodes):
    table = {}
    for t in enumerate_closed_trees(grammar.species, grammar.start, max_nodes):
        w = eval_tree(grammar, t).as_path()
        if len(w.gens) <= max_len:
            table.setdefault(w, []).append(t)
    return table


def test_recognize_examples():
    assert recognize(G_AB, word(GRAPH_AB, "aabb")) == {"S"}
    assert recognize(G_AB, word(GRAPH_AB, "aab")) == frozenset()
    assert recognize(G_AB, GRAPH_AB.path((), src="*")) == frozenset()


def test_recognize_rejects_foreign_word():
    with pytest.raises(InputError):
        recognize(G_AB, Path("*", "*", ("z",)))


@pytest.mark.parametrize("grammar,src,dst,max_len,max_nodes", FIXTURES)
def test_recognizer_agrees_with_tree_oracle(grammar, src, dst, max_len, max_nodes):
    expected = _oracle_colors(grammar, max_len, max_nodes)
    for w in enumerate_paths(grammar.category, src, dst, max_len):
        got = recognize(grammar, w)
        assert got == frozenset(expected.get(w, set())), w
    # membership also matches at other gap types of the category
    for w in enumerate_paths(grammar.category, src, src, max_len):
        got = recognize(grammar, w)
        assert got == frozenset(expected.get(w, set())), w


@pytest.mark.parametrize("grammar,src,dst,max_len,max_nodes", FIXTURES)
def test_parse_counts_agree_with_tree_oracle(grammar, src, dst, max_len, max_nodes):
    expected = _oracle_parses(grammar, max_len, max_nodes)
    for w in enumerate_paths(grammar.category, src, dst, max_len):
        forest = parse_forest(grammar, w)
        assert count_parses(forest) == len(expected.get(w, [])), w


def test_catalan_parse_counts():
    got = [count_parses(parse_forest(G_AMB, word(GRAPH_A, "a" * n))) for n in range(1, 6)]
    assert got == [1, 1, 2, 5, 14]
    # the oracle grows the same numbers out of raw tree enumeration
    oracle = _oracle_parses(G_AMB, 5, 9)
    assert [len(oracle[word(GRAPH_A, "a" * n)]) for n in range(1, 6)] == [1, 1, 2, 5, 14]


def test_forest_soundness_and_completeness():
    for grammar, src, dst, max_len, max_nodes in FIXTURES:
        expected = _oracle_parses(grammar, 6, max_nodes)
        for w in enumerate_paths(grammar.category, src, dst, 6):
            forest = parse_forest(grammar, w)
            parses = enumerate_parses(forest, 10_000)
            for t in parses:
                assert not leaf_colors(t)
                assert eval_tree(grammar, t).as_path() == w
            assert len(parses) == len(set(parses))
            assert set(parses) == set(expected.get(w, [])), w


def test_empty_forest_for_non_members():
    forest = parse_forest(G_AB, word(GRAPH_AB, "aab"))
    assert forest.is_empty
    assert count_parses(forest) == 0
    assert enumerate_parses(forest, 5) == ()


def test_enumerate_parses_examples():
    forest = parse_forest(G_AMB, word(GRAPH_A, "aaaa"))
    got = enumerate_parses(forest, 10)
    assert len(got) == 5
    assert enumerate_parses(forest, 0) == ()
    assert enumerate_parses(forest, 3) == got[:3]


@pytest.mark.parametrize("w", [word(GRAPH_AB, "aab"), word(GRAPH_AB, "ab")])
def test_enumerate_parses_refuses_a_negative_limit(w):
    # the check precedes the empty-root return, so an empty forest raises too
    forest = parse_forest(G_AB, w)
    with pytest.raises(InputError, match="limit must be nonnegative"):
        enumerate_parses(forest, -1)


def test_enumerate_parses_canonical_order():
    from catgram.species import tree_key

    forest = parse_forest(G_AMB, word(GRAPH_A, "aaaaa"))
    got = enumerate_parses(forest, 100)
    assert list(got) == sorted(got, key=tree_key)


def test_unit_cycle_flags_infinite_ambiguity():
    forest = parse_forest(G_UNIT, word(GRAPH_A, "a"))
    assert forest.cyclic
    assert count_parses(forest) is math.inf
    three = enumerate_parses(forest, 3)
    assert len(three) == 3
    for t in three:
        assert eval_tree(G_UNIT, t).as_path() == word(GRAPH_A, "a")


def test_unit_cycle_enumerates_every_unit_tower():
    # the cyclic forest bounds sizes by 1..inf; a finite upper bound would
    # cut the towers off
    unit, const = G_UNIT.species.node_by_name["u"], G_UNIT.species.node_by_name["c"]
    trees = enumerate_parses(parse_forest(G_UNIT, word(GRAPH_A, "a")), 40)
    assert len(trees) == 40
    tower = Apply(const)
    for k, t in enumerate(trees, start=1):
        assert t == tower and node_count(t) == k
        tower = Apply(unit, (tower,))


def test_epsilon_grammar_parses_empty_word():
    forest = parse_forest(G_EPS, GRAPH_A.path((), src="*"))
    assert not forest.is_empty
    assert count_parses(forest) == 1


def test_chart_is_agenda_order_independent():
    for grammar, src, dst, _, _ in FIXTURES:
        for w in enumerate_paths(grammar.category, src, dst, 6):
            assert parse_chart(grammar, w) == lifo(parse_chart, grammar, w)
    w = word(GRAPH_A, "a")
    assert parse_chart(G_UNIT, w) == lifo(parse_chart, G_UNIT, w)


def _time_parse(grammar, w):
    start = time.perf_counter()
    chart = parse_chart(grammar, w)
    return time.perf_counter() - start, len(chart)


def test_bilinear_complexity_trend():
    # item growth bounded by the quadratic span count, runtime by a cubic
    # trend; generous constants, this is a shape check and not a benchmark
    binned = bilinearize(G_AB)
    t16, items16 = _time_parse(binned, word(GRAPH_AB, "a" * 16 + "b" * 16))
    t64, items64 = _time_parse(binned, word(GRAPH_AB, "a" * 64 + "b" * 64))
    assert items64 <= 16 * items16
    assert t64 <= 150 * max(t16, 0.005)
    assert t64 < 15.0


@pytest.mark.parametrize("n", range(1, 13))
def test_ambiguous_chart_and_forest_sizes(n):
    w = word(GRAPH_A, "a" * n)
    assert len(parse_chart(G_AMB, w)) == n * (n + 1) // 2
    forest = parse_forest(G_AMB, w)
    assert len(forest.alternatives) == n * (n + 1) // 2
    assert sum(len(a) for a in forest.alternatives.values()) == math.comb(n + 1, 3) + n


@pytest.mark.parametrize(
    "grammar, w",
    [
        (G_AB, word(GRAPH_AB, "aabb")),
        (G_AB, word(GRAPH_AB, "aab")),
        (G_AMB, word(GRAPH_A, "a" * 12)),
        (G_EPS, GRAPH_A.path(("a",) * 5, src="*")),
        (G_END, word(G_END.category, "ab$")),
        (G_UNIT, word(GRAPH_A, "a")),  # a cyclic forest
    ],
    ids=["g_ab", "g_ab_reject", "g_amb", "g_eps", "g_end", "g_unit"],
)
def test_parsing_leaves_no_cyclic_garbage(grammar, w):
    # the kernel and the forest are built with the cyclic collector paused
    for call in (parse_chart, recognize, parse_forest, _recognize_and_parse):
        no_cyclic_garbage(call, grammar, w)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
def test_nullable_chart_and_forest_sizes(n):
    w = GRAPH_A.path(("a",) * n, src="*")
    assert len(parse_chart(G_EPS, w)) == (n + 1) * (n + 2) // 2
    forest = parse_forest(G_EPS, w)
    assert len(forest.alternatives) == n + 1
    assert sum(len(a) for a in forest.alternatives.values()) == n + 1


def test_forest_alternative_order():
    forest = parse_forest(G_AMB, word(GRAPH_A, "aaa"))
    got = {
        (item.start, item.end): [
            (node.name, [(c.start, c.end) for c in children]) for node, children in alts
        ]
        for item, alts in forest.alternatives.items()
    }
    assert got == {
        (0, 3): [("m", [(0, 1), (1, 3)]), ("m", [(0, 2), (2, 3)])],
        (0, 1): [("c", [])],
        (1, 3): [("m", [(1, 2), (2, 3)])],
        (0, 2): [("m", [(0, 1), (1, 2)])],
        (1, 2): [("c", [])],
        (2, 3): [("c", [])],
    }


# z: S -> S S and w: S -> S a S, declared in the reverse of name order, so
# an item spanning three or more letters has alternatives of both nodes,
# each at several split points
_SPLITS = grammar_from_rules(
    GRAPH_A,
    "S",
    {"S": ("*", "*")},
    [
        ("z", "S", ("S", "S"), ((), (), ())),
        ("c", "S", (), (("a",),)),
        ("w", "S", ("S", "S"), ((), ("a",), ())),
    ],
)


def test_forest_orders_alternatives_by_node_declaration_then_placements():
    w = word(GRAPH_A, "aaaa")
    forest = parse_forest(_SPLITS, w)
    got = [
        (
            (item.start, item.end),
            [(node.name, [(c.start, c.end) for c in kids]) for node, kids in alts],
        )
        for item, alts in forest.alternatives.items()
    ]
    assert got == [
        ((3, 4), [("c", [])]),
        ((1, 2), [("c", [])]),
        ((0, 1), [("c", [])]),
        ((0, 2), [("z", [(0, 1), (1, 2)])]),
        ((2, 3), [("c", [])]),
        ((2, 4), [("z", [(2, 3), (3, 4)])]),
        ((1, 3), [("z", [(1, 2), (2, 3)])]),
        ((0, 3), [("z", [(0, 1), (1, 3)]), ("z", [(0, 2), (2, 3)]), ("w", [(0, 1), (2, 3)])]),
        ((1, 4), [("z", [(1, 2), (2, 4)]), ("z", [(1, 3), (3, 4)]), ("w", [(1, 2), (3, 4)])]),
        (
            (0, 4),
            [
                ("z", [(0, 1), (1, 4)]),
                ("z", [(0, 2), (2, 4)]),
                ("z", [(0, 3), (3, 4)]),
                ("w", [(0, 1), (2, 4)]),
                ("w", [(0, 2), (3, 4)]),
            ],
        ),
    ]
    # the kernel's insertion order does not reach the forest
    backward = lifo(parse_forest, _SPLITS, w)
    assert list(backward.alternatives.items()) == list(forest.alternatives.items())


def test_forest_is_its_root_alternatives_and_cycle_flag():
    assert PackedForest._fields == ("root", "alternatives", "cyclic")
    forest = parse_forest(G_AMB, word(GRAPH_A, "aa"))
    c, m = G_AMB.species.nodes
    left, right, whole = ParseItem("S", 0, 1), ParseItem("S", 1, 2), ParseItem("S", 0, 2)
    alternatives = {right: ((c, ()),), left: ((c, ()),), whole: ((m, (left, right)),)}
    assert forest == PackedForest(whole, alternatives, False)
    # the alternatives are (node, children) pairs, items children first
    assert list(forest.alternatives.items()) == list(alternatives.items())


def test_forest_holds_one_object_per_item():
    forest = parse_forest(G_AMB, word(GRAPH_A, "a" * 6))
    canonical = {item: item for item in forest.alternatives}
    for alts in forest.alternatives.values():
        for _, children in alts:
            for child in children:
                assert canonical[child] is child


def _check_forest_is_the_interval_intersection(grammar, w):
    """Parsing is intersection, alternative by alternative: the forest's
    items ``(i,N,j)`` are the trimmed intersection's colors, and its
    alternatives, as ``(node, child items, item)``, the intersection's nodes
    with each pulled name cut to its base node's name."""
    forest = parse_forest(grammar, w)
    pulled = intersect(grammar, interval_automaton(grammar.category, w))
    name = "({},{},{})".format
    alternatives = Counter(
        (node.name, tuple(name(k, d, l) for d, k, l in kids), name(i, c, j))
        for (c, i, j), alts in forest.alternatives.items()
        for node, kids in alts
    )
    nodes = Counter(
        (node.name[1:].partition("|")[0], node.inputs, node.output)
        for node in pulled.species.nodes
    )
    assert nodes == alternatives, w
    if not forest.is_empty:
        items = {name(i, c, j) for c, i, j in forest.alternatives}
        assert set(pulled.species.colors) == items, w


@pytest.mark.parametrize("grammar,src,dst,max_len,max_nodes", FIXTURES)
def test_forest_is_the_trimmed_interval_pullback(grammar, src, dst, max_len, max_nodes):
    for w in enumerate_paths(grammar.category, src, dst, 5):
        _check_forest_is_the_interval_intersection(grammar, w)


def test_alternatives_are_agenda_order_independent_and_distinct():
    # m: S S puts one item into both gaps when the spans are equal, so a
    # pivot on either gap could find the same placement twice
    for w in (word(GRAPH_A, "a" * 7), GRAPH_A.path(("a",) * 4, src="*")):
        for grammar in (G_AMB, G_EPS):
            forward, backward = _lift(grammar, w), lifo(_lift, grammar, w)
            assert forward.keys() == backward.keys()
            for item, alts in forward.items():
                assert len(set(alts)) == len(alts)
                assert sorted(alts) == sorted(backward[item])


# Random grammars over a two-object graph: every pair of objects has a path
# of length at most one, so any gap pattern can be filled with segments.
GRAPH_PQ = FiniteGraph(
    objects=("p", "q"),
    generators=(
        Generator("a", "p", "q"),
        Generator("b", "q", "p"),
        Generator("c", "p", "p"),
        Generator("d", "q", "q"),
    ),
)
RANDOM_COLORS = ("S", "X", "Y")
RANDOM_TREE_BOUND = 7
RANDOM_WORD_BOUND = 4


def _segment(draw, src, dst):
    paths = enumerate_paths(GRAPH_PQ, src, dst, draw(st.integers(0, 2)))
    paths = paths or enumerate_paths(GRAPH_PQ, src, dst, 1)
    return draw(st.sampled_from([p.gens for p in paths]))


@st.composite
def random_grammars(draw, max_inputs=2):
    """One constant per color, so most colors are productive, then up to
    four nodes of arity 0 to ``max_inputs``, some of them unit nodes."""
    colors = RANDOM_COLORS[: draw(st.integers(1, len(RANDOM_COLORS)))]
    objects = st.sampled_from(GRAPH_PQ.objects)
    gaps = {c: (draw(objects), draw(objects)) for c in colors}
    rules = [(f"k{c}", c, (), (_segment(draw, *gaps[c]),)) for c in colors]
    for index in range(draw(st.integers(1, 4))):
        output = draw(st.sampled_from(colors))
        if draw(st.integers(0, 3)) == 0:
            # both segments empty, so the input shares the output's gap type
            same = [c for c in colors if gaps[c] == gaps[output]]
            rules.append((f"n{index}", output, (draw(st.sampled_from(same)),), ((), ())))
            continue
        inputs = tuple(draw(st.lists(st.sampled_from(colors), max_size=max_inputs)))
        ends = [gaps[output][0]]
        for c in inputs:
            ends += gaps[c]
        ends.append(gaps[output][1])
        segments = tuple(_segment(draw, *pair) for pair in zip(ends[::2], ends[1::2]))
        rules.append((f"n{index}", output, inputs, segments))
    return grammar_from_rules(GRAPH_PQ, "S", gaps, rules)


def _at_start(grammar, color):
    return Grammar(
        grammar.category, grammar.species, color, grammar.color_gap, grammar.node_splice
    )


@pytest.mark.deep
@given(random_grammars())
def test_parser_agrees_with_oracles_on_random_grammars(grammar):
    for color in grammar.species.colors:
        gap = grammar.gap_of(color)
        language = set(enumerate_language(_at_start(grammar, color), RANDOM_WORD_BOUND))
        for w in enumerate_paths(grammar.category, gap.left, gap.right, RANDOM_WORD_BOUND):
            assert (color in recognize(grammar, w)) == (w in language), (color, w)
            assert parse_chart(grammar, w) == lifo(parse_chart, grammar, w)

    gap = grammar.gap_of(grammar.start)
    small = {}
    for t in enumerate_closed_trees(grammar.species, grammar.start, RANDOM_TREE_BOUND):
        small.setdefault(eval_tree(grammar, t).as_path(), []).append(t)
    for w in enumerate_paths(grammar.category, gap.left, gap.right, RANDOM_WORD_BOUND):
        forest = parse_forest(grammar, w)
        count = count_parses(forest)
        expected = sorted(small.get(w, []), key=tree_key)
        # the trees with at most RANDOM_TREE_BOUND nodes come first
        assert list(enumerate_parses(forest, len(expected))) == expected, w
        if count is math.inf:
            assert forest.cyclic
            continue
        assert count >= len(expected)
        trees = enumerate_parses(forest, count + 1)
        assert len(trees) == count == len(set(trees))
        assert all(eval_tree(grammar, t).as_path() == w for t in trees)


@pytest.mark.deep
@given(random_grammars(max_inputs=3))
def test_forest_is_the_trimmed_interval_pullback_on_random_grammars(grammar):
    gap = grammar.gap_of(grammar.start)
    for w in enumerate_paths(grammar.category, gap.left, gap.right, RANDOM_WORD_BOUND):
        _check_forest_is_the_interval_intersection(grammar, w)


def _check_reachable_graph(grammar, w):
    """The one search behind a forest, against naive closures: its items are
    those a breadth-first search reaches from the root over the kernel's
    alternatives, each child is the forest's own key object, the cycle flag
    says whether some item reaches itself, and an acyclic forest lists every
    item once, children first."""
    forest = parse_forest(grammar, w)
    if forest.is_empty:
        assert forest.alternatives == {} and not forest.cyclic
        return
    derived = _lift(grammar, w)
    reached, queue = {forest.root}, deque([forest.root])
    while queue:
        for _, _, kids in derived[queue.popleft()]:
            for child in kids:
                if child not in reached:
                    reached.add(child)
                    queue.append(child)
    assert set(forest.alternatives) == reached

    keys = {id(item) for item in forest.alternatives}
    edges = {
        item: {child for _, children in alts for child in children}
        for item, alts in forest.alternatives.items()
    }
    assert all(id(child) in keys for kids in edges.values() for child in kids)

    below = {item: set(kids) for item, kids in edges.items()}
    changed = True
    while changed:
        changed = False
        for seen in below.values():
            more = set().union(*(below[child] for child in seen))
            if not more <= seen:
                seen |= more
                changed = True
    assert forest.cyclic == any(item in seen for item, seen in below.items())

    if not forest.cyclic:
        position = {item: k for k, item in enumerate(forest.alternatives)}
        assert all(position[c] < position[item] for item, kids in edges.items() for c in kids)


@given(random_grammars())
def test_forest_is_the_reachable_derivation_graph(grammar):
    gap = grammar.gap_of(grammar.start)
    for w in enumerate_paths(grammar.category, gap.left, gap.right, RANDOM_WORD_BOUND):
        _check_reachable_graph(grammar, w)


@pytest.mark.parametrize("grammar", [G_AMB, G_UNIT, G_EPS, G_AB, G_TERN])
def test_fixture_forests_are_reachable_derivation_graphs(grammar):
    # G_AMB's forests share every item below the root among many parents
    gap = grammar.gap_of(grammar.start)
    for w in enumerate_paths(grammar.category, gap.left, gap.right, 6):
        _check_reachable_graph(grammar, w)



EXPR = import_classical(*parse_classical_text("E -> E + T | T\nT -> T * F | F\nF -> ( E ) | x\n"))


def _unlimited(forest, at_least):
    """The canonical enumeration with no limit on any level, up to every
    tree of the forest or at least ``at_least`` trees of a cyclic one."""
    trees = trees_by_size(
        forest.alternatives.__getitem__,
        lambda item: (1, math.inf),
    )
    total = count_parses(forest)
    want = at_least if total is math.inf else total
    out, k = [], 1
    while len(out) < want:
        out.extend(trees(forest.root, k))
        k += 1
    return out


@pytest.mark.parametrize("grammar", [G_AMB, G_UNIT, G_EPS, G_AB, G_TERN, EXPR])
def test_limited_enumeration_is_a_prefix_of_the_full_one(grammar):
    gap = grammar.gap_of(grammar.start)
    if grammar is EXPR:
        words = enumerate_language(grammar, 8)
    else:
        words = enumerate_paths(grammar.category, gap.left, gap.right, 8)
    members = 0
    for w in words:
        forest = parse_forest(grammar, w)
        if forest.is_empty:
            assert enumerate_parses(forest, 10) == ()
            continue
        members += 1
        full = _unlimited(forest, 100)
        for limit in (1, 10, 100):
            assert list(enumerate_parses(forest, limit)) == full[:limit], (w, limit)
    assert members > 0


def _check_anchored_against_unanchored(grammar, w):
    """Anchored parsing against the unanchored least fixed point, item by
    item: the colors over the whole path, and the forest below the start
    item (items in order, alternatives in order, cycle flag)."""
    derived = _lift(grammar, w)
    n = len(w.gens)
    whole = frozenset(c for c, p, q in derived if (p, q) == (0, n))
    assert recognize(grammar, w) == whole
    colors, forest = _recognize_and_parse(grammar, w)
    assert colors == whole
    want = _forest(grammar, w, derived)
    assert want.is_empty == (grammar.start not in whole)
    for forest in (forest, parse_forest(grammar, w)):
        assert (forest.root, forest.cyclic) == (want.root, want.cyclic), w
        assert list(forest.alternatives.items()) == list(want.alternatives.items()), w


def _every_path(category, max_len):
    return [
        w
        for src in category.objects
        for dst in category.objects
        for w in enumerate_paths(category, src, dst, max_len)
    ]


@pytest.mark.deep
@given(random_grammars(max_inputs=3))
def test_anchored_parsing_equals_unanchored_on_random_grammars(grammar):
    for w in _every_path(grammar.category, RANDOM_WORD_BOUND):
        _check_anchored_against_unanchored(grammar, w)


@pytest.mark.deep
@pytest.mark.parametrize("grammar", [G_AB, G_AMB, G_EPS, G_END, G_TERN, G_UNIT])
def test_anchored_parsing_equals_unanchored_on_fixtures(grammar):
    for w in _every_path(grammar.category, 6):
        _check_anchored_against_unanchored(grammar, w)


# S -> S a | ε: the mirror image of G_EPS, anchored by its starts
G_EPS_LEFT = grammar_from_rules(
    GRAPH_A, "S", {"S": ("*", "*")}, [("z", "S", (), ((),)), ("w", "S", ("S",), ((), ("a",)))]
)


def _lifted(grammar, w, roots=None):
    """The number of placements in the table the kernel is given, and what
    it derives from them."""
    tables = []

    def spied(nodes, table):
        tables.append(table)
        return lift(nodes, table)

    with mock.patch.object(catgram.parser, "lift", spied):
        derived = _lift(grammar, w, roots)
    (table,) = tables
    return sum(len(seg) for segs in table for seg in segs), derived


@pytest.mark.deep
@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 60])
def test_anchored_lift_counters(n):
    w = GRAPH_A.path(("a",) * n, src="*")
    chart = (n + 1) * (n + 2) // 2
    for grammar in (G_EPS, G_EPS_LEFT):
        # the cut keeps every place of a, and one of each outer empty segment
        placed, derived = _lifted(grammar, w, roots=("S",))
        assert (placed, len(derived)) == (n + 2, n + 1)
        placed, derived = _lifted(grammar, w)
        assert (placed, len(derived)) == (3 * n + 2, chart)
        assert len(parse_chart(grammar, w)) == chart
        assert count_parses(parse_forest(grammar, w)) == 1
    if n:
        # every span of G_AMB is below the root, so nothing is cut
        for roots in (None, ("S",)):
            placed, derived = _lifted(G_AMB, w, roots)
            assert placed == 4 * n + 3
            assert len(derived) == n * (n + 1) // 2
            assert sum(map(len, derived.values())) == math.comb(n + 1, 3) + n


@given(random_grammars())
def test_every_limit_gives_a_prefix_on_random_grammars(grammar):
    gap = grammar.gap_of(grammar.start)
    small = {}
    for t in enumerate_closed_trees(grammar.species, grammar.start, RANDOM_TREE_BOUND):
        small.setdefault(eval_tree(grammar, t).as_path(), []).append(t)
    for w in enumerate_paths(grammar.category, gap.left, gap.right, RANDOM_WORD_BOUND):
        forest = parse_forest(grammar, w)
        expected = sorted(small.get(w, []), key=tree_key)
        # every k up to 64, then halvings of the whole list: checking every
        # k is quadratic, and some words have over a thousand small trees
        ks = {*range(min(len(expected), 64) + 1)}
        ks.update(len(expected) >> s for s in range(len(expected).bit_length()))
        for k in sorted(ks):
            assert list(enumerate_parses(forest, k)) == expected[:k], (w, k)


def test_limited_enumeration_of_a_long_ambiguous_word():
    # 1,767,263,190 trees; the first ten come from the first ten of each level
    w = word(GRAPH_A, "a" * 20)
    forest = parse_forest(G_AMB, w)
    trees = enumerate_parses(forest, 10)
    assert len(trees) == len(set(trees)) == 10
    assert all(node_count(t) == 39 for t in trees)
    assert all(eval_tree(G_AMB, t).as_path() == w for t in trees)
    assert trees == tuple(sorted(trees, key=tree_key))


def test_limited_enumeration_of_a_unit_cycle():
    forest = parse_forest(G_UNIT, word(GRAPH_A, "a"))
    trees = enumerate_parses(forest, 200)
    assert [node_count(t) for t in trees] == list(range(1, 201))


def test_parse_item_is_its_tuple():
    item = ParseItem("S", 0, 3)
    assert item == ("S", 0, 3) and hash(item) == hash(("S", 0, 3))
    color, start, end = item
    assert (color, start, end) == (item.color, item.start, item.end) == ("S", 0, 3)
    assert repr(item) == "ParseItem(color='S', start=0, end=3)"
    forest = parse_forest(G_AMB, word(GRAPH_A, "aaa"))
    assert forest.root == ("S", 0, 3)
    assert forest.alternatives[("S", 1, 3)] == forest.alternatives[ParseItem("S", 1, 3)]
