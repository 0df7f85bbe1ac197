"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in captured output).  Everything runs at desk scale with
exact expectations; there are no tolerances to tune.
"""

import itertools
import os
import random
import subprocess
import sys
from contextlib import contextmanager

from catgram import (
    FreeFunctor,
    GapType,
    SplicedArrow,
    apply_functor,
    bilinearize,
    contour_functor,
    contour_word,
    count_parses,
    cs_check,
    cs_decompose,
    dyck_decode,
    dyck_translate,
    enumerate_closed_trees,
    enumerate_language,
    enumerate_paths,
    enumerate_regular_language,
    eval_tree,
    functorial_image,
    grammar_from_rules,
    identity_path,
    intersect,
    interval_automaton,
    monoid_graph,
    parse_chart,
    parse_forest,
    pullback_grammar,
    recognize,
    run_membership,
    spliced_compose_parallel,
    spliced_compose_partial,
    spliced_identity,
    ulf_check_bounded,
    universal_grammar,
    word,
)
from catgram import jsonio
from catgram.automaton import import_classical
from catgram.fixtures import (
    G_AB,
    G_AMB,
    G_END,
    G_EPS,
    G_TERN,
    GRAPH_A,
    GRAPH_AB,
    M_EVENA,
    SPC_FIG3,
    fig3_tree,
)
from conftest import lifo


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


# ---------------------------------------------------------------------- 1


def _random_spliced(rng, arity):
    pool = ["", "a", "b", "aa", "ab", "ba", "bb"]
    segs = tuple(GRAPH_AB.path(tuple(rng.choice(pool)), src="*") for _ in range(arity + 1))
    return SplicedArrow(segs)


def test_criterion_1_spliced_operad_laws():
    with criterion(1, "spliced operad laws and the worked composition"):
        rng = random.Random(7)
        for ar_f, ar_g, ar_h in itertools.product((0, 1, 2, 3), repeat=3):
            if ar_f == 0:
                continue
            for _ in range(3):
                f = _random_spliced(rng, ar_f)
                g = _random_spliced(rng, ar_g)
                h = _random_spliced(rng, ar_h)
                # unit laws
                ident = spliced_identity(GapType("*", "*"))
                for i in range(ar_f):
                    assert spliced_compose_partial(f, i, ident) == f
                assert spliced_compose_parallel(ident, (f,)) == f
                # sequential associativity: second composition inside g
                for i in range(ar_f):
                    for j in range(ar_g):
                        lhs = spliced_compose_partial(
                            spliced_compose_partial(f, i, g), i + j, h
                        )
                        rhs = spliced_compose_partial(
                            f, i, spliced_compose_partial(g, j, h)
                        )
                        assert lhs == rhs
                # interchange: disjoint gaps commute
                for i in range(ar_f - 1):
                    lhs = spliced_compose_partial(
                        spliced_compose_partial(f, i, g), i + ar_g, h
                    )
                    rhs = spliced_compose_partial(
                        spliced_compose_partial(f, i + 1, h), i, g
                    )
                    assert lhs == rhs
        # the worked composition from the one-object example
        letters = monoid_graph(tuple("abcdef"))

        def op(*texts):
            return SplicedArrow(tuple(letters.path(tuple(t), src="*") for t in texts))

        got = spliced_compose_parallel(op("a", "b", "c"), (op("d", "e", "f"), op("", "a")))
        assert ["".join(s.gens) for s in got.segments] == ["ad", "e", "fb", "ac"]


# ---------------------------------------------------------------------- 2

PARSER_FIXTURES = [
    # grammar, start objects, word bound, tree-node bound covering it
    (G_AB, 8, 5),
    (G_AMB, 8, 15),
    (G_EPS, 8, 9),
    (G_END, 8, 6),
]


def _words_of(grammar, max_len):
    gap = grammar.gap_of(grammar.start)
    return enumerate_paths(grammar.category, gap.left, gap.right, max_len)


def test_criterion_2_parser_oracle_equivalence():
    with criterion(2, "recognizer and forest agree with brute-force enumeration"):
        for grammar, max_len, max_nodes in PARSER_FIXTURES:
            colors_by_word = {}
            for color in grammar.species.colors:
                for t in enumerate_closed_trees(grammar.species, color, max_nodes):
                    w = eval_tree(grammar, t).as_path()
                    if len(w.gens) <= max_len:
                        colors_by_word.setdefault(w, set()).add(color)
            parses_by_word = {}
            for t in enumerate_closed_trees(grammar.species, grammar.start, max_nodes):
                w = eval_tree(grammar, t).as_path()
                if len(w.gens) <= max_len:
                    parses_by_word.setdefault(w, []).append(t)
            for w in _words_of(grammar, max_len):
                assert recognize(grammar, w) == frozenset(colors_by_word.get(w, set()))
                assert (grammar.start in recognize(grammar, w)) == (w in parses_by_word)
                assert count_parses(parse_forest(grammar, w)) == len(
                    parses_by_word.get(w, [])
                )
        # Catalan ambiguity profile, counted by the oracle itself
        oracle_counts = {}
        for t in enumerate_closed_trees(G_AMB.species, "S", 9):
            w = eval_tree(G_AMB, t).as_path()
            oracle_counts[len(w.gens)] = oracle_counts.get(len(w.gens), 0) + 1
        for n in range(1, 6):
            got = count_parses(parse_forest(G_AMB, word(GRAPH_A, "a" * n)))
            assert got == [1, 1, 2, 5, 14][n - 1] == oracle_counts[n]


# ---------------------------------------------------------------------- 3


def test_criterion_3_bilinearization():
    with criterion(3, "bilinearization preserves languages and parse counts"):
        for grammar, max_len, _ in PARSER_FIXTURES + [(G_TERN, 8, 0)]:
            binned = bilinearize(grammar)
            assert all(n.arity <= 2 for n in binned.species.nodes)
            assert set(enumerate_language(binned, max_len)) == set(
                enumerate_language(grammar, max_len)
            )
            for w in _words_of(grammar, max_len):
                assert count_parses(parse_forest(binned, w)) == count_parses(
                    parse_forest(grammar, w)
                ), w


# ---------------------------------------------------------------------- 4


def test_criterion_4_closure_constructions():
    with criterion(4, "union, spliced concatenation and functorial image"):
        from catgram import spliced_concat, union

        ga = grammar_from_rules(GRAPH_AB, "S", {"S": ("*", "*")}, [("a0", "S", (), (("a",),))])
        gb = grammar_from_rules(GRAPH_AB, "S", {"S": ("*", "*")}, [("b0", "S", (), (("b",),))])
        assert set(enumerate_language(union(ga, gb), 8)) == set(
            enumerate_language(ga, 8)
        ) | set(enumerate_language(gb, 8))
        assert set(enumerate_language(union(G_AB, G_AB), 8)) == set(
            enumerate_language(G_AB, 8)
        )

        abcd = monoid_graph(("a", "b", "c", "d"))
        g_ab4 = grammar_from_rules(
            abcd,
            "S",
            {"S": ("*", "*")},
            [("r1", "S", ("S",), (("a",), ("b",))), ("r0", "S", (), (("a", "b"),))],
        )
        wrap = SplicedArrow((word(abcd, "c"), word(abcd, "d")))
        got = {"".join(w.gens) for w in enumerate_language(spliced_concat(wrap, [g_ab4]), 8)}
        assert got == {
            "c" + "".join(u.gens) + "d"
            for u in enumerate_language(g_ab4, 6)
        }

        target = monoid_graph(("x",))
        merge = FreeFunctor(
            domain=GRAPH_AB,
            codomain=target,
            object_map={"*": "*"},
            generator_map={"a": word(target, "x"), "b": word(target, "x")},
        )
        image = functorial_image(G_AB, merge)
        assert {"".join(w.gens) for w in enumerate_language(image, 8)} == {
            "x" * len(w.gens) for w in enumerate_language(G_AB, 8)
        }


# ---------------------------------------------------------------------- 5


def test_criterion_5_classical_automata_and_ulf():
    with criterion(5, "classical import via the end marker, and the ULF boundary"):
        def classical_accepts(delta, q0, finals, text):
            current = {q0}
            for ch in text:
                current = {d for (s, a, d) in delta if s in current and a == ch}
            return bool(current & set(finals))

        cases = [
            (["s0", "s1"], [("s0", "a", "s0"), ("s0", "b", "s0"), ("s0", "a", "s1")], "s0", ["s1"]),
            (["q0", "q1"], [("q0", "a", "q1")], "q0", ["q0", "q1"]),  # finals include the start
        ]
        for states, delta, q0, finals in cases:
            imported = import_classical("ab", states, delta, q0, finals)
            for n in range(6):
                for chars in itertools.product("ab", repeat=n):
                    text = "".join(chars)
                    marked = imported.base.path(tuple(text) + ("$",))
                    assert run_membership(imported, marked) == classical_accepts(
                        delta, q0, finals, text
                    )
            assert ulf_check_bounded(imported.functor, 4) is None
        for auto in (M_EVENA, interval_automaton(GRAPH_AB, word(GRAPH_AB, "aabb"))):
            assert ulf_check_bounded(auto.functor, 4) is None
        collapse = FreeFunctor(
            domain=GRAPH_A,
            codomain=monoid_graph(()),
            object_map={"*": "*"},
            generator_map={"a": identity_path("*")},
        )
        violation = ulf_check_bounded(collapse, 2)
        assert violation is not None and violation.lifts == 2


# ---------------------------------------------------------------------- 6


def test_criterion_6_regular_intersection():
    with criterion(6, "pullback along automata computes regular intersection"):
        got = {"".join(w.gens) for w in enumerate_language(intersect(G_AB, M_EVENA), 8)}
        assert got == {"aabb", "aaaabbbb"}
        assert got == {
            "".join(w.gens)
            for w in set(enumerate_language(G_AB, 8))
            & set(enumerate_regular_language(M_EVENA, 8))
        }

        pulled = pullback_grammar(G_AB, M_EVENA)
        pullback_lang = set(enumerate_language(pulled, 8))
        grammar_lang = set(enumerate_language(G_AB, 8))
        for run in enumerate_paths(M_EVENA.state_graph, "e", "e", 8):
            assert (run in pullback_lang) == (
                apply_functor(M_EVENA.functor, run) in grammar_lang
            )

        auto = interval_automaton(GRAPH_AB, word(GRAPH_AB, "aabb"))
        specialized = pullback_grammar(G_AB, auto)
        assert specialized.start == "(0,S,4)"
        assert len(enumerate_closed_trees(specialized.species, specialized.start, 10)) == 1


# ---------------------------------------------------------------------- 7

FIG3_CORNERS = tuple(
    f"({x},{i})"
    for x, i in [
        ("a", 0), ("b", 0), ("a", 1), ("c", 0), ("d", 0), ("c", 1), ("e", 0),
        ("c", 2), ("a", 2), ("f", 0), ("g", 0), ("f", 1), ("a", 3),
    ]
)


def _arity_plus_one_sum(t):
    return (t.node.arity + 1) + sum(_arity_plus_one_sum(c) for c in t.children)


def test_criterion_7_contour_words():
    with criterion(7, "tree contour words: the worked tree, lengths, injectivity"):
        assert contour_word(SPC_FIG3, fig3_tree()).gens == FIG3_CORNERS
        for species, start in ((SPC_FIG3, "1"), (G_AB.species, "S"), (G_AMB.species, "S")):
            seen = set()
            for t in enumerate_closed_trees(species, start, 8):
                cw = contour_word(species, t)
                assert len(cw.gens) == _arity_plus_one_sum(t)
                assert cw.gens not in seen
                seen.add(cw.gens)


# ---------------------------------------------------------------------- 8


def test_criterion_8_dyck_translation():
    with criterion(8, "dyck translation: doubling, balance, pairing, round trip"):
        fig3 = contour_word(SPC_FIG3, fig3_tree())
        letters = dyck_translate(SPC_FIG3, fig3)
        assert len(letters) == 26
        assert "".join(l.bracket for l in letters) == "[[[]][[[[]][[]]]][[[[]]]]]"
        for species, start in ((SPC_FIG3, "1"), (G_AB.species, "S"), (G_AMB.species, "S")):
            for t in enumerate_closed_trees(species, start, 6):
                cw = contour_word(species, t)
                ls = dyck_translate(species, cw)
                assert len(ls) == 2 * len(cw.gens)
                depth = 0
                stack = []
                for letter in ls:
                    if letter.bracket == "[":
                        stack.append(letter)
                        depth += 1
                    else:
                        partner = stack.pop()
                        assert partner.node == letter.node
                        depth -= 1
                    assert depth >= 0
                assert depth == 0
                assert dyck_decode(species, ls) == cw


# ---------------------------------------------------------------------- 9


def test_criterion_9_chomsky_schutzenberger():
    with criterion(9, "languages factor through contours, recoloring and images"):
        for grammar in (G_AB, G_AMB):
            equal, lhs, rhs = cs_check(grammar, 8)
            assert equal and lhs == tuple(enumerate_language(grammar, 8))
            # pre-image identity on contour paths
            parts = cs_decompose(grammar)
            uni = universal_grammar(grammar.species, grammar.start)
            functor = contour_functor(parts.collapse)
            lhs_contours = {
                apply_functor(functor, w).gens for w in enumerate_language(uni, 9)
            }
            rhs_contours = {
                w.gens for w in enumerate_language(parts.universal, 9)
            } & {w.gens for w in enumerate_regular_language(parts.automaton, 9)}
            assert lhs_contours == rhs_contours


# ---------------------------------------------------------------------- 10


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-stable CLI output and order-independent parsing"):
        for grammar, max_len, _ in PARSER_FIXTURES:
            for w in _words_of(grammar, min(max_len, 6)):
                assert parse_chart(grammar, w) == lifo(parse_chart, grammar, w)
        g_file = tmp_path / "g.json"
        g_file.write_text(jsonio.dumps(jsonio.grammar_to_json(G_AB)), encoding="utf-8")
        m_file = tmp_path / "m.json"
        m_file.write_text(jsonio.dumps(jsonio.automaton_to_json(M_EVENA)), encoding="utf-8")
        commands = [
            ("parse", "-g", str(g_file), "-w", "aabb"),
            ("enumerate", "-g", str(g_file), "--max-len", "8"),
            ("intersect", "-g", str(g_file), "-m", str(m_file)),
            ("cs-decompose", "-g", str(g_file), "--check-bound", "6"),
        ]
        for cmd in commands:
            outputs = []
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed)
                res = subprocess.run(
                    [sys.executable, "-m", "catgram.cli", *cmd],
                    capture_output=True,
                    text=True,
                    env=env,
                )
                assert res.returncode == 0
                outputs.append(res.stdout)
            assert outputs[0] == outputs[1]
