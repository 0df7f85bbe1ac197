import pytest

from catgram import Apply, InputError, Leaf, enumerate_language, word
from catgram.fixtures import G_AB, G_END, GRAPH_AB, M_EVENA, SPC_FIG3, fig3_tree
from catgram import jsonio
from catgram.contour import contour_word, dyck_translate


def test_graph_roundtrip():
    data = jsonio.graph_to_json(GRAPH_AB)
    assert jsonio.graph_from_json(data) == GRAPH_AB


def test_graph_errors_carry_location():
    with pytest.raises(InputError, match="graph.objects"):
        jsonio.graph_from_json({"objects": [1], "generators": []})
    with pytest.raises(InputError, match="generators"):
        jsonio.graph_from_json({"objects": ["*"], "generators": [{"name": "a"}]})


def test_path_roundtrip():
    p = word(GRAPH_AB, "ab")
    assert jsonio.path_from_json(GRAPH_AB, jsonio.path_to_json(p)) == p
    eps = GRAPH_AB.path((), src="*")
    data = jsonio.path_to_json(eps)
    assert data == {"src": "*"}
    assert jsonio.path_from_json(GRAPH_AB, data) == eps


def test_path_errors():
    with pytest.raises(InputError):
        jsonio.path_from_json(GRAPH_AB, ["z"])
    with pytest.raises(InputError):
        jsonio.path_from_json(GRAPH_AB, 17)


def test_species_roundtrip():
    data = jsonio.species_to_json(SPC_FIG3)
    assert jsonio.species_from_json(data) == SPC_FIG3


def test_tree_roundtrip():
    t = fig3_tree()
    data = jsonio.tree_to_json(t)
    assert jsonio.tree_from_json(SPC_FIG3, data) == t
    leafy = Apply(G_AB.species.node_by_name["r1"], (Leaf("S"),))
    data = jsonio.tree_to_json(leafy)
    assert jsonio.tree_from_json(G_AB.species, data) == leafy


def test_tree_errors():
    with pytest.raises(InputError, match="unknown rule"):
        jsonio.tree_from_json(SPC_FIG3, {"rule": "zz", "children": []})
    with pytest.raises(InputError, match="children"):
        jsonio.tree_from_json(SPC_FIG3, {"rule": "f", "children": [{"rule": "nope"}]})
    for children in (5, None):
        with pytest.raises(InputError, match=r"^tree\.children: expected list"):
            jsonio.tree_from_json(SPC_FIG3, {"rule": "f", "children": children})
        with pytest.raises(InputError, match=r"^tree\.children\[0\]\.children: expected list"):
            jsonio.tree_from_json(SPC_FIG3, {"rule": "f", "children": [{"rule": "b", "children": children}]})


def test_grammar_roundtrip():
    for g in (G_AB, G_END):
        data = jsonio.grammar_to_json(g)
        back = jsonio.grammar_from_json(data)
        assert back == g


def test_grammar_from_json_rejects_bad_splice():
    data = jsonio.grammar_to_json(G_AB)
    data["rules"][0]["splice"] = [["a"]]  # wrong segment count for a unary rule
    with pytest.raises(InputError, match="segments"):
        jsonio.grammar_from_json(data)


def test_automaton_roundtrip():
    data = jsonio.automaton_to_json(M_EVENA)
    assert jsonio.automaton_from_json(data) == M_EVENA


def test_automaton_from_json_validates():
    data = jsonio.automaton_to_json(M_EVENA)
    data["transitions"][0]["over"] = "zz"
    with pytest.raises(InputError):
        jsonio.automaton_from_json(data)


def test_dyck_letters_roundtrip():
    letters = dyck_translate(SPC_FIG3, contour_word(SPC_FIG3, fig3_tree()))
    data = jsonio.dyck_letters_to_json(letters)
    assert jsonio.dyck_letters_from_json(data) == letters


def test_dumps_is_stable():
    data = jsonio.grammar_to_json(G_AB)
    assert jsonio.dumps(data) == jsonio.dumps(jsonio.grammar_to_json(G_AB))
    assert jsonio.dumps(data).endswith("\n")


def test_loaded_grammar_behaves_like_original():
    back = jsonio.grammar_from_json(jsonio.grammar_to_json(G_AB))
    assert enumerate_language(back, 6) == enumerate_language(G_AB, 6)


def test_spliced_arrow_roundtrip():
    for name in ("r1", "r0"):
        arrow = G_AB.splice_of(name)
        data = jsonio.spliced_to_json(arrow)
        assert jsonio.spliced_from_json(GRAPH_AB, data) == arrow
    fin = G_END.splice_of("fin")
    back = jsonio.spliced_from_json(G_END.category, jsonio.spliced_to_json(fin))
    assert back == fin


def test_spliced_arrow_from_json_errors():
    data = jsonio.spliced_to_json(G_AB.splice_of("r1"))
    data["segments"] = [["a"]]
    with pytest.raises(InputError, match="segments"):
        jsonio.spliced_from_json(GRAPH_AB, data)
    data = jsonio.spliced_to_json(G_AB.splice_of("r1"))
    data["outer"] = {"left": "*", "right": "nope"}
    with pytest.raises(InputError):
        jsonio.spliced_from_json(GRAPH_AB, data)
