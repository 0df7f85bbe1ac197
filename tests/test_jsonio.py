import copy
import hashlib

import pytest
from hypothesis import given

from catgram import Apply, InputError, Leaf, enumerate_closed_trees, enumerate_language, word
from catgram.fixtures import G_AB, G_END, GRAPH_AB, M_EVENA, SPC_FIG3, fig3_tree
from catgram import jsonio
from catgram.contour import contour_word, dyck_translate
from test_parser import random_grammars


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


@pytest.mark.parametrize(
    "data, where, message",
    [
        (["a", 1], "word", "word[1]: expected str, got int"),
        ({"gens": 3}, "contour", "contour.gens: expected list, got int"),
        ({"gens": [], "src": 0}, "word", "word.src: expected str, got int"),
        (["z"], "word", "word: unknown generator(s) ['z']"),
        ({"gens": []}, "path", "path: empty path needs an explicit source object"),
    ],
)
def test_path_errors_name_the_location_once(data, where, message):
    # reading errors carry their own location; only those of building the
    # path get the path's
    with pytest.raises(InputError) as info:
        jsonio.path_from_json(GRAPH_AB, data, where)
    assert str(info.value) == message


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


@pytest.mark.parametrize("right", ["*", "⊤"], ids=["same-gap", "other-gap"])
def test_grammar_from_json_rejects_a_duplicate_nonterminal(right):
    data = jsonio.grammar_to_json(G_END)
    data["nonterminals"].append({"name": "E", "left": "*", "right": right})
    with pytest.raises(InputError) as info:
        jsonio.grammar_from_json(data)
    assert str(info.value) == "grammar.nonterminals[2]: duplicate nonterminal 'E'"


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


@given(random_grammars(max_inputs=3))
def test_grammar_and_tree_roundtrip_on_random_grammars(grammar):
    assert jsonio.grammar_from_json(jsonio.grammar_to_json(grammar)) == grammar
    species = grammar.species
    for color in species.colors:
        for t in enumerate_closed_trees(species, color, 5):
            assert jsonio.tree_from_json(species, jsonio.tree_to_json(t)) == t


def _fig3_letters():
    return jsonio.dyck_letters_to_json(dyck_translate(SPC_FIG3, contour_word(SPC_FIG3, fig3_tree())))


def _set(data, path, value):
    data = copy.deepcopy(data)
    at = data
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "read, data, path, value, message",
    [
        (jsonio.graph_from_json, jsonio.graph_to_json(GRAPH_AB), ("generators", 1, "dst"), 3,
         "graph.generators[1].dst: expected str, got int"),
        (jsonio.species_from_json, jsonio.species_to_json(SPC_FIG3), ("nodes", 2, "inputs", 0), None,
         "species.nodes[2].inputs[0]: expected str, got NoneType"),
        (jsonio.grammar_from_json, jsonio.grammar_to_json(G_END), ("nonterminals", 1, "left"), [],
         "grammar.nonterminals[1].left: expected str, got list"),
        (jsonio.grammar_from_json, jsonio.grammar_to_json(G_END), ("rules", 1, "inputs", 0), 0,
         "grammar.rules[1].inputs[0]: expected str, got int"),
        (jsonio.grammar_from_json, jsonio.grammar_to_json(G_AB), ("rules", 0, "splice", 1, 0), {},
         "grammar.rules[0].splice[1][0]: expected str, got dict"),
        (jsonio.grammar_from_json, jsonio.grammar_to_json(G_AB), ("category", "objects", 0), 1,
         "grammar.category.objects[0]: expected str, got int"),
        (jsonio.automaton_from_json, jsonio.automaton_to_json(M_EVENA), ("states", 1, "over"), 5,
         "automaton.states[1].over: expected str, got int"),
        (jsonio.automaton_from_json, jsonio.automaton_to_json(M_EVENA), ("transitions", 0), "t",
         "automaton.transitions[0]: expected dict, got str"),
        (jsonio.automaton_from_json, jsonio.automaton_to_json(M_EVENA), ("base", "generators"), {},
         "automaton.base.generators: expected list, got dict"),
        (jsonio.dyck_letters_from_json, _fig3_letters(), (3, "index"), "0",
         "letters[3].index: expected int, got str"),
        (jsonio.dyck_letters_from_json, _fig3_letters(), (2, "bracket"), "(",
         "letters[2]: bracket must be '[' or ']'"),
        (jsonio.dyck_letters_from_json, _fig3_letters(), (0, "index"), True,
         "letters[0].index: expected int, got bool"),
    ],
)
def test_errors_name_the_location(read, data, path, value, message):
    with pytest.raises(InputError) as info:
        read(_set(data, path, value))
    assert str(info.value) == message


def test_missing_fields_name_the_record():
    letters = _fig3_letters()
    del letters[0]["index"]
    with pytest.raises(InputError) as info:
        jsonio.dyck_letters_from_json(letters)
    assert str(info.value) == "letters[0]: missing field 'index'"
    for field in ("initial", "final"):
        data = jsonio.automaton_to_json(M_EVENA)
        del data[field]
        with pytest.raises(InputError) as info:
            jsonio.automaton_from_json(data)
        assert str(info.value) == f"automaton: missing field {field!r}"
    data = jsonio.grammar_to_json(G_AB)
    del data["rules"][1]["splice"]
    with pytest.raises(InputError) as info:
        jsonio.grammar_from_json(data)
    assert str(info.value) == "grammar.rules[1]: missing field 'splice'"


# -- every single-site mutation of the fixture files ------------------------

MUTATION_INPUTS = (
    ("G_AB", jsonio.grammar_from_json, jsonio.grammar_to_json(G_AB)),
    ("G_END", jsonio.grammar_from_json, jsonio.grammar_to_json(G_END)),
    ("M_EVENA", jsonio.automaton_from_json, jsonio.automaton_to_json(M_EVENA)),
    ("SPC_FIG3", jsonio.species_from_json, jsonio.species_to_json(SPC_FIG3)),
    ("fig3 tree", lambda data: jsonio.tree_from_json(SPC_FIG3, data),
     jsonio.tree_to_json(fig3_tree())),
    ("fig3 letters", jsonio.dyck_letters_from_json, _fig3_letters()),
)


def _mutations(data):
    """Each key dropped, and each value (the whole included) replaced by
    5, null, "x", [] and {}, labelled by the site, in preorder."""
    stack = [((), data)]
    while stack:
        path, value = stack.pop()
        if path and isinstance(_get(data, path[:-1]), dict):
            dropped = copy.deepcopy(data)
            del _get(dropped, path[:-1])[path[-1]]
            yield f"{path} dropped", dropped
        for other in (5, None, "x", [], {}):
            yield f"{path} = {other!r}", _set(data, path, other) if path else other
        if isinstance(value, dict):
            keys = sorted(value)
        else:
            keys = range(len(value)) if isinstance(value, list) else ()
        stack.extend((path + (k,), value[k]) for k in reversed(list(keys)))


def _get(data, path):
    for key in path:
        data = data[key]
    return data


def test_mutation_messages_are_pinned():
    lines = []
    for name, read, data in MUTATION_INPUTS:
        for label, mutant in _mutations(data):
            try:
                read(mutant)
                outcome = "ok"
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            lines.append(f"{name} {label}\t{outcome}")
    # Pinned from the readers as they were before they shared one record
    # reader, with two deliberate changes: `initial` and `final` errors of an
    # automaton used to carry the prefix twice (`automaton: automaton: ...`),
    # and a segment that is no path now names its rule and segment (16 lines).
    assert len(lines) == 1709
    assert "M_EVENA ('initial',) dropped\tInputError: automaton: missing field 'initial'" in lines
    assert (
        "G_AB ('rules', 0, 'splice', 1, 0) = 'x'\t"
        "InputError: grammar: rule 'r1': segment 1: unknown generator(s) ['x']"
    ) in lines
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "62f2b5e1137e84a099cc30d5f3aa4ad881d5b8cedbece42f0871f24af446974c"
