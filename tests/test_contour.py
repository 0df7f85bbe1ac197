import hashlib

import pytest
from hypothesis import given

from catgram import (
    Apply,
    Automaton,
    CompositionError,
    DyckLetter,
    FiniteGraph,
    InputError,
    Leaf,
    Node,
    Path,
    Species,
    SpeciesMap,
    State,
    Transition,
    apply_functor,
    brackets,
    chromatic_factorization,
    compose_functors,
    contour_category,
    contour_functor,
    contour_interpretation,
    contour_word,
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
    pullback_grammar,
    ulf_check_bounded,
    union,
    universal_grammar,
    validate,
    validate_species_map,
    word,
)
from catgram import cli, jsonio
from catgram.automaton import runs_by_source
from catgram.fixtures import (
    G_AB,
    G_AMB,
    G_END,
    G_EPS,
    G_TERN,
    G_UNIT,
    GRAPH_AB,
    SPC_FIG3,
    fig3_tree,
)
from catgram.contour import _contour_table
from conftest import no_cyclic_garbage, outcome
from test_parser import RANDOM_WORD_BOUND, random_grammars

pytestmark = pytest.mark.deep  # all of it runs under the deep profile in CI

UP = "↑"
DOWN = "↓"

FIG3_CONTOUR = [
    ("a", 0), ("b", 0), ("a", 1), ("c", 0), ("d", 0), ("c", 1), ("e", 0),
    ("c", 2), ("a", 2), ("f", 0), ("g", 0), ("f", 1), ("a", 3),
]


def corner_names(pairs):
    return tuple(f"({x},{i})" for x, i in pairs)


# -- contour categories -------------------------------------------------------


def test_contour_category_of_fig3_species():
    graph = contour_category(SPC_FIG3)
    assert set(graph.objects) == {"1" + UP, "1" + DOWN}
    assert len(graph.generators) == 13  # 4 + 3 + 2 + four nullary corners


def test_contour_category_single_nullary_node():
    species = Species(("R",), (Node("x", (), "R"),))
    graph = contour_category(species)
    assert [(g.name, g.src, g.dst) for g in graph.generators] == [
        ("(x,0)", "R" + UP, "R" + DOWN)
    ]


def test_contour_category_g_ab_corners():
    graph = contour_category(G_AB.species)
    assert [g.name for g in graph.generators] == ["(r1,0)", "(r1,1)", "(r0,0)"]
    r1_0 = graph.generator_by_name["(r1,0)"]
    r1_1 = graph.generator_by_name["(r1,1)"]
    assert (r1_0.src, r1_0.dst) == ("S" + UP, "S" + UP)
    assert (r1_1.src, r1_1.dst) == ("S" + DOWN, "S" + DOWN)


def test_contour_category_is_built_once_per_species(monkeypatch):
    # colors and nodes no other test uses, so no earlier call built this one
    species = Species(
        ("once",),
        (Node("pair", ("once", "once"), "once"), Node("lone", (), "once")),
    )
    built = []
    new = FiniteGraph.__new__

    def counting(cls, *args, **kwargs):
        built.append(new(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(FiniteGraph, "__new__", counting)
    misses = _contour_table.cache_info().misses
    trees = enumerate_closed_trees(species, "once", 13)
    assert len(trees) == 197
    made = {}
    for t in trees:
        cw = contour_word(species, t)
        letters = dyck_translate(species, cw)
        assert dyck_decode(species, letters) == cw
        # every round trip reads the one table: the same letter objects
        for k, letter in enumerate(letters):
            assert made.setdefault((k % 2, letter), letter) is letter
    assert _contour_table.cache_info().misses == misses + 1
    uni = universal_grammar(species, "once")
    contour_interpretation(uni)
    identity = SpeciesMap(
        species, species, {"once": "once"}, {n.name: n.name for n in species.nodes}
    )
    contour_functor(identity)
    assert contour_category(species) == uni.category
    assert len(built) <= 1


# -- universal grammars --------------------------------------------------------


def test_universal_grammar_unit_splices():
    uni = universal_grammar(G_AB.species, "S")
    assert [s.gens for s in uni.splice_of("r1").segments] == [(("(r1,0)"),), ("(r1,1)",)]
    assert [s.gens for s in uni.splice_of("r0").segments] == [("(r0,0)",)]


def test_universal_grammars_validate():
    for species, start in (
        (G_AB.species, "S"),
        (G_AMB.species, "S"),
        (G_END.species, "S"),
        (SPC_FIG3, "1"),
    ):
        assert validate(universal_grammar(species, start)) == []


def test_universal_grammar_language_of_g_ab_species():
    uni = universal_grammar(G_AB.species, "S")
    got = {w.gens for w in enumerate_language(uni, 7)}
    expected = {
        ("(r1,0)",) * n + ("(r0,0)",) + ("(r1,1)",) * n for n in range(4)
    }
    assert got == expected


# -- contour words -------------------------------------------------------------


def test_fig3_contour_word_exact():
    cw = contour_word(SPC_FIG3, fig3_tree())
    assert cw.gens == corner_names(FIG3_CONTOUR)
    assert (cw.src, cw.dst) == ("1" + UP, "1" + DOWN)


def test_contour_word_single_nullary():
    b = Apply(SPC_FIG3.node_by_name["b"], ())
    assert contour_word(SPC_FIG3, b).gens == ("(b,0)",)


def test_contour_word_g_ab_tree():
    r0 = G_AB.species.node_by_name["r0"]
    r1 = G_AB.species.node_by_name["r1"]
    cw = contour_word(G_AB.species, Apply(r1, (Apply(r0, ()),)))
    assert cw.gens == ("(r1,0)", "(r0,0)", "(r1,1)")


def test_contour_word_rejects_nodes_of_another_species():
    r0 = G_AB.species.node_by_name["r0"]
    r1 = G_AB.species.node_by_name["r1"]
    with pytest.raises(InputError, match=r"^tree node 'r1' is not a node of the species$"):
        contour_word(SPC_FIG3, Apply(r1, (Apply(r0, ()),)))
    # same name as a node of SPC_FIG3, different output color
    other_b = Node("b", (), "2")
    with pytest.raises(InputError, match=r"^tree node 'b' is not a node of the species$"):
        contour_word(SPC_FIG3, Apply(other_b, ()))


def test_contour_word_equals_universal_evaluation():
    for species, start in ((G_AB.species, "S"), (G_AMB.species, "S"), (SPC_FIG3, "1")):
        uni = universal_grammar(species, start)
        for t in enumerate_closed_trees(species, start, 6):
            assert eval_tree(uni, t).as_path() == contour_word(species, t)


def test_contour_word_length_law_and_injectivity():
    for species, start in ((G_AB.species, "S"), (G_AMB.species, "S"), (SPC_FIG3, "1")):
        seen = {}
        for t in enumerate_closed_trees(species, start, 8):
            cw = contour_word(species, t)
            expected_len = _sum_arity_plus_one(t)
            assert len(cw.gens) == expected_len
            assert cw.gens not in seen, "contour words must be injective"
            seen[cw.gens] = t


def _sum_arity_plus_one(t):
    return (t.node.arity + 1) + sum(_sum_arity_plus_one(c) for c in t.children)


# -- interpretation functors ---------------------------------------------------


def test_contour_interpretation_of_g_ab():
    q = contour_interpretation(G_AB)
    assert q.generator_map["(r1,0)"] == word(GRAPH_AB, "a")
    assert q.generator_map["(r1,1)"] == word(GRAPH_AB, "b")
    assert q.generator_map["(r0,0)"] == word(GRAPH_AB, "ab")
    assert q.object_map["S" + UP] == "*" and q.object_map["S" + DOWN] == "*"


def test_interpretation_recovers_evaluation():
    for grammar in (G_AB, G_AMB, G_EPS, G_END):
        q = contour_interpretation(grammar)
        for t in enumerate_closed_trees(grammar.species, grammar.start, 6):
            cw = contour_word(grammar.species, t)
            assert apply_functor(q, cw) == eval_tree(grammar, t).as_path()


def test_identity_splice_corners_map_to_identities():
    q = contour_interpretation(G_AMB)
    for i in range(3):
        assert q.generator_map[f"(m,{i})"].is_identity


# -- chromatic factorization ---------------------------------------------------


def test_chromatic_factorization_of_g_ab():
    chromatic, collapse = chromatic_factorization(G_AB)
    assert chromatic.species.colors == ("(*,*)",)
    assert [n.name for n in chromatic.species.nodes] == ["r1", "r0"]
    assert collapse.color_map == {"S": "(*,*)"}
    assert validate(chromatic) == []
    assert validate_species_map(collapse) == []


def test_chromatic_factorization_merges_same_gap_colors():
    g = grammar_from_rules(
        GRAPH_AB,
        "S",
        {"S": ("*", "*"), "T": ("*", "*")},
        [("u", "S", ("T",), (("a",), ())), ("t0", "T", (), (("b",),))],
    )
    chromatic, collapse = chromatic_factorization(g)
    assert chromatic.species.colors == ("(*,*)",)
    assert collapse.color_map["S"] == collapse.color_map["T"]
    # the collapse only removes constraints
    mine = {w.gens for w in enumerate_language(g, 8)}
    theirs = {w.gens for w in enumerate_language(chromatic, 8)}
    assert mine <= theirs
    assert mine < theirs  # here the inclusion is strict: a^n b appears


def test_chromatic_language_contains_original():
    for g in (G_AB, G_AMB, G_EPS, G_END):
        chromatic, _ = chromatic_factorization(g)
        mine = {w.gens for w in enumerate_language(g, 8)}
        theirs = {w.gens for w in enumerate_language(chromatic, 8)}
        assert mine <= theirs


# -- the colors automaton ------------------------------------------------------


def test_colors_automaton_of_g_ab():
    auto = cs_decompose(G_AB).automaton
    assert [s.name for s in auto.states] == ["S" + UP, "S" + DOWN]
    assert len({s.over for s in auto.states}) == 2
    assert len(auto.transitions) == 3
    assert auto.initial == "S" + UP and auto.final == "S" + DOWN


SIX_GRAMMARS = {
    "g_ab": G_AB, "g_amb": G_AMB, "g_end": G_END, "g_eps": G_EPS, "g_tern": G_TERN, "g_unit": G_UNIT
}


def _reference_colors_automaton(grammar):
    """A state pair per color over its oriented chromatic color, and a
    transition per corner over the same corner of the chromatic species."""
    chromatic, collapse = chromatic_factorization(grammar)
    states = []
    for c in grammar.species.colors:
        over = collapse.apply_color(c)
        states += (State(c + UP, over + UP), State(c + DOWN, over + DOWN))
    corners = contour_category(grammar.species).generators
    transitions = tuple(Transition(g.name, g.src, g.dst, g.name) for g in corners)
    base = contour_category(chromatic.species)
    return Automaton(base, tuple(states), transitions, grammar.start + UP, grammar.start + DOWN)


def test_colors_automaton_agrees_with_a_reference():
    for grammar in SIX_GRAMMARS.values():
        assert cs_decompose(grammar).automaton == _reference_colors_automaton(grammar)


# sha256 of ``catgram cs-decompose -g <grammar> --check-bound 4`` stdout,
# the same in both formats
CS_DECOMPOSE_DIGESTS = {
    "g_ab": "1487353d5820888f0f18ec911ea49de2613063f6bd53ff9660bbaedd9e732cbc",
    "g_amb": "9b13f27223360092f0a71bcfcb37365f6a953c2a422b214d05b15a5d8e6c2844",
    "g_end": "a5ccec4ce3e981a2b79f545e5d8e1b2f37391646364b76923fb36d23cb9863c6",
    "g_eps": "3660538dbbee5d9f5834c5855d730c090435b225a683b12ca1b6abb1a94d4a32",
    "g_tern": "71375ea1389ccdbf166aaa1996b3742a9ed3caecf1c74b2bc7b80472c0278e56",
    "g_unit": "a11bad974d53258fab0b2ea4c66f787dd8d02263e59a6fcdb6f3037d730b2cbb",
}


@pytest.mark.parametrize("name", sorted(SIX_GRAMMARS))
def test_cs_decompose_output_is_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(jsonio.dumps(jsonio.grammar_to_json(SIX_GRAMMARS[name])), encoding="utf-8")
    for fmt in ("json", "text"):
        args = ["--format", fmt, "cs-decompose", "-g", str(path), "--check-bound", "4"]
        assert cli.run(args) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == CS_DECOMPOSE_DIGESTS[name]


def test_contour_functor_is_ulf():
    for g in (G_AB, G_AMB, G_END):
        _, collapse = chromatic_factorization(g)
        assert ulf_check_bounded(contour_functor(collapse), 4) is None


def test_derivation_contours_lift_uniquely():
    for g in (G_AB, G_AMB):
        _, collapse = chromatic_factorization(g)
        auto = cs_decompose(g).automaton
        functor = contour_functor(collapse)
        for t in enumerate_closed_trees(g.species, g.start, 5):
            cw = contour_word(g.species, t)
            image = apply_functor(functor, cw)
            runs = [r for r in runs_by_source(auto, image)[auto.initial] if r.dst == auto.final]
            assert len(runs) == 1
            assert runs[0].gens == cw.gens


# -- the decomposition ---------------------------------------------------------


G_TWO_SINGLETONS = union(
    grammar_from_rules(GRAPH_AB, "S", {"S": ("*", "*")}, [("a0", "S", (), (("a",),))]),
    grammar_from_rules(GRAPH_AB, "S", {"S": ("*", "*")}, [("b0", "S", (), (("b",),))]),
)


@pytest.mark.parametrize(
    "grammar,bound",
    [(G_AB, 8), (G_AMB, 8), (G_EPS, 6), (G_END, 9), (G_TWO_SINGLETONS, 4)],
)
def test_cs_decomposition_bounded_equality(grammar, bound):
    equal, lhs, rhs = cs_check(grammar, bound)
    assert equal, (sorted(p.gens for p in lhs), sorted(p.gens for p in rhs))


@given(random_grammars())
def test_cs_decomposition_bounded_equality_on_random_grammars(grammar):
    equal, lhs, rhs = cs_check(grammar, RANDOM_WORD_BOUND)
    assert equal and lhs == rhs


@pytest.mark.parametrize("grammar", [G_AB, G_AMB, G_END], ids=["g_ab", "g_amb", "g_end"])
def test_cs_check_leaves_no_cyclic_garbage(grammar):
    # its pullback, trim and intersection run with the cyclic collector paused
    no_cyclic_garbage(cs_check, grammar, 6)


def test_cs_decomposition_empty_language():
    g = grammar_from_rules(GRAPH_AB, "S", {"S": ("*", "*")}, [("loop", "S", ("S",), ((), ()))])
    equal, lhs, rhs = cs_check(g, 6)
    assert equal and lhs == () and rhs == ()


def test_cs_components_have_the_right_shapes():
    parts = cs_decompose(G_AB)
    assert parts.universal.category == parts.automaton.base
    assert parts.interpretation.domain == parts.universal.category
    assert parts.interpretation.codomain == G_AB.category
    assert validate(parts.universal) == []


@pytest.mark.parametrize("grammar", [G_AB, G_AMB, G_END, G_TWO_SINGLETONS])
def test_contour_identity_at_gap_level(grammar, bound=9):
    # the recoloring functor maps the tree contour language onto exactly the
    # chromatic contours accepted by the colors automaton
    parts = cs_decompose(grammar)
    uni = universal_grammar(grammar.species, grammar.start)
    functor = contour_functor(parts.collapse)
    lhs = {
        apply_functor(functor, w).gens for w in enumerate_language(uni, bound)
    }
    chromatic_contours = {w.gens for w in enumerate_language(parts.universal, bound)}
    regular = {w.gens for w in enumerate_regular_language(parts.automaton, bound)}
    assert lhs == (chromatic_contours & regular)


# -- dyck translation ----------------------------------------------------------


FIG3_BRACKETS = "[[[]][[[[]][[]]]][[[[]]]]]"


def test_fig3_dyck_word():
    cw = contour_word(SPC_FIG3, fig3_tree())
    letters = dyck_translate(SPC_FIG3, cw)
    assert len(letters) == 26 == 2 * len(cw.gens)
    assert brackets(letters) == FIG3_BRACKETS
    assert letters[0] == DyckLetter("[", "a", 0)
    assert letters[-1] == DyckLetter("]", "a", 3)


def _match(letters):
    stack, pairs = [], []
    for idx, letter in enumerate(letters):
        if letter.bracket == "[":
            stack.append(idx)
        else:
            assert stack, "dip below zero"
            pairs.append((stack.pop(), idx))
    assert not stack, "unbalanced"
    return pairs


def _fixture_contours():
    for species, start in (
        (SPC_FIG3, "1"),
        (G_AB.species, "S"),
        (G_AMB.species, "S"),
        (G_END.species, "S"),
    ):
        for t in enumerate_closed_trees(species, start, 6):
            cw = contour_word(species, t)
            if len(cw.gens) <= 13:
                yield species, cw


def test_dyck_balanced_and_matched_pairs_share_node():
    for species, cw in _fixture_contours():
        letters = dyck_translate(species, cw)
        assert len(letters) == 2 * len(cw.gens)
        pairs = _match(letters)
        for open_idx, close_idx in pairs:
            assert letters[open_idx].node == letters[close_idx].node


def test_dyck_pair_structure():
    # the first letter of (x,0) matches the second letter of (x,arity); the
    # second letter of (x,i) matches the first letter of (x,i+1)
    for species, cw in _fixture_contours():
        letters = dyck_translate(species, cw)
        matched = dict(_match(letters))
        for open_idx, close_idx in matched.items():
            opener, closer = letters[open_idx], letters[close_idx]
            if open_idx % 2 == 0:  # first letter of its corner
                assert opener.index == 0
                assert closer.node == opener.node
                assert close_idx % 2 == 1
                arity = species.node_by_name[opener.node].arity
                assert closer.index == arity
            else:  # second letter: walks into the next subtree
                assert closer.node == opener.node
                assert closer.index == opener.index + 1


def test_dyck_roundtrip():
    for species, cw in _fixture_contours():
        letters = dyck_translate(species, cw)
        assert dyck_decode(species, letters) == cw


def test_dyck_translate_rejects_identity_paths():
    # no closed tree has an empty contour, and dyck_decode rejects ()
    with pytest.raises(InputError) as info:
        dyck_translate(SPC_FIG3, identity_path("1" + UP))
    assert str(info.value) == "identity path at '1↑' is not the contour of a closed tree"


def _naive_letters(species, cw):
    """The letters of any corner path by the two orientation rules alone."""
    letters = []
    for name in cw.gens:
        node_name, index = name[1:-1].rsplit(",", 1)
        i, arity = int(index), species.node_by_name[node_name].arity
        letters.append(DyckLetter("[" if i == 0 else "]", node_name, i))
        letters.append(DyckLetter("[" if i < arity else "]", node_name, i))
    return tuple(letters)


@pytest.mark.parametrize(
    "species", [SPC_FIG3, G_AMB.species, G_AB.species], ids=["fig3", "amb", "ab"]
)
def test_contour_table_agrees_with_the_bracket_rule(species):
    table = _contour_table(species)
    assert set(table.encode) == set(table.corners) == set(table.decode.values())
    for g in contour_category(species).generators:
        src, dst, *letters = table.encode[g.name]
        assert (src, dst) == (g.src, g.dst)
        assert tuple(letters) == _naive_letters(species, Path(g.src, g.dst, (g.name,)))
        assert table.decode[tuple(letters)] == g.name
    for node in species.nodes:
        assert table.names[node.name] == tuple(
            g.name for g in contour_category(species).generators if table.corners[g.name][0] == node
        )


@pytest.mark.parametrize(
    "species, color, max_len",
    [(SPC_FIG3, "1", 5), (G_AMB.species, "S", 7), (G_AB.species, "S", 9)],
    ids=["fig3", "amb", "ab"],
)
def test_dyck_accepts_exactly_the_contours_of_closed_trees(species, color, max_len):
    # a tree of n nodes has a contour of 2n - 1 corners
    trees = enumerate_closed_trees(species, color, (max_len + 1) // 2)
    contours = {contour_word(species, t) for t in trees}
    refused = 0
    for cw in enumerate_paths(contour_category(species), color + UP, color + DOWN, max_len):
        letters = _naive_letters(species, cw)
        if cw in contours:
            assert dyck_translate(species, cw) == letters
            assert dyck_decode(species, letters) == cw
            continue
        refused += 1
        with pytest.raises(InputError, match="not the contour of a closed tree$"):
            dyck_translate(species, cw)
        with pytest.raises(InputError, match="not the contour of a closed tree$"):
            dyck_decode(species, letters)
    assert refused > 0


@pytest.mark.parametrize(
    "gens, message",
    [
        # 1↑ -> 1↑, brackets "[["
        (("(a,0)",), "the path ends inside 1 open node(s)"),
        # 1↑ -> 1↓ skipping (c,1) and a subtree, brackets "[[[]]]"
        (("(c,0)", "(b,0)", "(c,2)"), "corner 2 (c,2) is out of turn"),
    ],
    ids=["open", "skipped-corner"],
)
def test_dyck_rejects_composable_paths_that_are_no_contour(gens, message):
    cw = contour_category(SPC_FIG3).path(gens)
    message += ": not the contour of a closed tree"
    with pytest.raises(InputError) as info:
        dyck_translate(SPC_FIG3, cw)
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        dyck_decode(SPC_FIG3, _naive_letters(SPC_FIG3, cw))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "cw, message",
    [
        # two whole trees side by side
        (
            Path("1↑", "1↓", ("(b,0)", "(d,0)")),
            "corner 1 (d,0) starts at '1↑', not at '1↓'",
        ),
        (Path("1↓", "1↓", ("(b,0)",)), "corner 0 (b,0) starts at '1↑', not at '1↓'"),
        (Path("1↑", "1↑", ("(b,0)",)), "the corners end at '1↓', not at '1↑'"),
    ],
    ids=["two-trees", "wrong-source", "wrong-target"],
)
def test_dyck_translate_rejects_paths_that_do_not_compose(cw, message):
    with pytest.raises(InputError) as info:
        dyck_translate(SPC_FIG3, cw)
    assert str(info.value) == message + ": not a path of the contour category"


_FIG3_LETTERS = dyck_translate(SPC_FIG3, contour_word(SPC_FIG3, fig3_tree()))


@pytest.mark.parametrize(
    "letters, message",
    [
        ((), "empty letter sequence"),
        (_FIG3_LETTERS[:-1], "odd number of letters"),
        (
            _FIG3_LETTERS[:1] + (DyckLetter("[", "c", 0),) + _FIG3_LETTERS[2:],
            "letters 0 and 1 do not annotate the same corner: (a,0) vs (c,0)",
        ),
        ((DyckLetter("[", "z", 0),) * 2 + _FIG3_LETTERS[2:], "unknown node 'z'"),
        (
            (DyckLetter("]", "a", 4),) * 2 + _FIG3_LETTERS[2:],
            "corner index 4 out of range for node 'a'",
        ),
        (
            (DyckLetter("]", "a", 0), DyckLetter("[", "a", 0)) + _FIG3_LETTERS[2:],
            "letter 0 violates the arrival orientation rule",
        ),
        (
            (DyckLetter("[", "a", 0), DyckLetter("]", "a", 0)) + _FIG3_LETTERS[2:],
            "letter 1 violates the departure orientation rule",
        ),
        (
            _FIG3_LETTERS[2:4] + _FIG3_LETTERS[:2] + _FIG3_LETTERS[4:],
            "letters do not decode to a contour path: generators do not compose: "
            "expected source '1↓', got '(a,0)' : '1↑' -> '1↑'",
        ),
    ],
    ids=[
        "empty", "odd", "mismatched", "unknown-node",
        "index-range", "arrival", "departure", "composition",
    ],
)
def test_dyck_decode_messages(letters, message):
    with pytest.raises(InputError) as info:
        dyck_decode(SPC_FIG3, letters)
    assert str(info.value) == message


@pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
def test_dyck_decode_reads_an_index_that_only_equals_an_int_as_written(index):
    # letters 4 and 5 annotate (a,1); 1.0 and True equal 1 and hash like it,
    # but the corner they name is (a,1.0) or (a,True), which does not exist
    letters = list(_FIG3_LETTERS)
    assert letters[4:6] == [DyckLetter("]", "a", 1), DyckLetter("[", "a", 1)]
    letters[4:6] = [letter._replace(index=index) for letter in letters[4:6]]
    with pytest.raises(InputError) as info:
        dyck_decode(SPC_FIG3, letters)
    assert str(info.value) == f"unknown generator(s) ['(a,{index})']"
    # an int first letter names the corner, as the pairing check compares
    letters[4] = _FIG3_LETTERS[4]
    assert dyck_decode(SPC_FIG3, letters) == contour_word(SPC_FIG3, fig3_tree())


def test_dyck_decode_rejects_garbage():
    cw = contour_word(SPC_FIG3, fig3_tree())
    letters = list(dyck_translate(SPC_FIG3, cw))
    with pytest.raises(InputError):
        dyck_decode(SPC_FIG3, letters[:-1])  # odd length
    swapped = letters.copy()
    swapped[1] = DyckLetter("[", "c", 0)
    with pytest.raises(InputError):
        dyck_decode(SPC_FIG3, swapped)  # pair annotations differ
    flipped = letters.copy()
    flipped[0] = DyckLetter("]", "a", 0)
    flipped[1] = DyckLetter("]", "a", 0)
    with pytest.raises(InputError):
        dyck_decode(SPC_FIG3, flipped)  # arrival orientation broken
    reordered = letters[2:4] + letters[:2] + letters[4:]
    with pytest.raises(InputError):
        dyck_decode(SPC_FIG3, reordered)  # corners no longer compose


def test_dyck_single_nullary_corner():
    b = Apply(SPC_FIG3.node_by_name["b"], ())
    letters = dyck_translate(SPC_FIG3, contour_word(SPC_FIG3, b))
    assert letters == (DyckLetter("[", "b", 0), DyckLetter("]", "b", 0))


# -- the two maps cs_check applies, composed -------------------------------------


def test_compose_functors_recolors_then_interprets():
    for g in (G_AB, G_AMB, G_END):
        parts = cs_decompose(g)
        recolor, interpret = parts.automaton.functor, parts.interpretation
        composite = compose_functors(recolor, interpret)
        assert composite.domain == recolor.domain
        assert composite.codomain == interpret.codomain
        states = parts.automaton.state_graph
        for run in enumerate_paths(states, parts.automaton.initial, parts.automaton.final, 6):
            assert apply_functor(composite, run) == apply_functor(
                interpret, apply_functor(recolor, run)
            )
        pulled = pullback_grammar(parts.universal, parts.automaton)
        assert functorial_image(pulled, composite) == functorial_image(
            functorial_image(pulled, recolor), interpret
        )
        with pytest.raises(CompositionError):
            compose_functors(interpret, recolor)


# -- branches no other test takes -------------------------------------------


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: universal_grammar(SPC_FIG3, "2"), "InputError: unknown start color '2'"),
        (
            lambda: contour_word(SPC_FIG3, Leaf("1")),
            "InputError: contour words are defined for closed trees",
        ),
        (
            lambda: dyck_translate(SPC_FIG3, Path("1↑", "1↓", ("(z,0)",))),
            "InputError: unknown corner '(z,0)'",
        ),
    ],
    ids=["universal-unknown-start", "contour-of-a-leaf", "translate-unknown-corner"],
)
def test_rarely_taken_branches(call, expected):
    assert outcome(call) == expected
