"""The command line's exit contract on mutated fixture documents.

Every subcommand runs in-process, in both formats, on the fixture files with
one document mutated: a value replaced, duplicated, deleted, or swapped with
another.  Whatever the input, ``run`` exits 0, 1 or 2; an exit 2 prints
exactly one ``error:`` line on stderr, and an exit 0 or 1 prints nothing
there.  Word and bound arguments stay small, so no case trips an
exponential bound.
"""

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catgram import interval_automaton, jsonio, word
from catgram.contour import contour_word, dyck_translate
from catgram.fixtures import G_AB, G_AMB, G_END, G_EPS, G_TERN, G_UNIT, GRAPH_A, M_EVENA
from catgram.fixtures import SPC_FIG3, fig3_tree
from test_cli import run_in_process

pytestmark = pytest.mark.deep

_TREE = fig3_tree()
_CONTOUR = contour_word(SPC_FIG3, _TREE)

# the fixture documents, by the kind of file a command reads
DOCUMENTS = {
    "grammar": [jsonio.grammar_to_json(g) for g in (G_AB, G_AMB, G_EPS, G_END, G_TERN, G_UNIT)],
    "automaton": [
        jsonio.automaton_to_json(M_EVENA),
        jsonio.automaton_to_json(interval_automaton(GRAPH_A, word(GRAPH_A, "aaa"))),
    ],
    "species": [jsonio.species_to_json(SPC_FIG3)],
    "tree": [jsonio.tree_to_json(_TREE)],
    "contour": [jsonio.path_to_json(_CONTOUR)],
    "letters": [jsonio.dyck_letters_to_json(dyck_translate(SPC_FIG3, _CONTOUR))],
}

WORDS = ["", "a", "ab", "aab", "ba", "ab$", "x", '["a", "b"]', '{"src": "*"}', "[1]"]
BOUNDS = st.integers(-1, 3).map(str)

# each subcommand's arguments; ``@kind`` stands for a file of that kind
COMMANDS = st.one_of(
    st.sampled_from(
        [["validate", "-g", "@grammar"], ["validate", "-m", "@automaton"],
         ["validate", "-s", "@species"]]
    ),
    st.builds(
        lambda w, n: ["parse", "-g", "@grammar", "-w", w, "--limit", n],
        st.sampled_from(WORDS),
        BOUNDS,
    ),
    st.builds(
        lambda flag, n: ["enumerate", *flag, "--max-len", n],
        st.sampled_from([["-g", "@grammar"], ["-m", "@automaton"]]),
        BOUNDS,
    ),
    st.builds(
        lambda emit, trim: ["intersect", "-g", "@grammar", "-m", "@automaton", "--emit", emit, *trim],
        st.sampled_from(["image", "pullback"]),
        st.sampled_from([[], ["--no-trim"]]),
    ),
    st.just(["bilinearize", "-g", "@grammar"]),
    st.just(["contour", "-s", "@species", "-t", "@tree"]),
    st.sampled_from(
        [["dyck", "--encode", "-s", "@species", "-i", "@contour"],
         ["dyck", "--decode", "-s", "@species", "-i", "@letters"]]
    ),
    st.builds(lambda n: ["cs-decompose", "-g", "@grammar", "--check-bound", n], BOUNDS),
    st.builds(lambda n: ["check-equiv", "-g1", "@grammar", "-g2", "@grammar", "--max-len", n], BOUNDS),
)

# values a mutation puts in place of another: wrong types, huge and odd
# numbers, reserved names, and names holding the separators that rendered
# names use
ODD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.integers(-3, 3),
    st.sampled_from([10**30, -(10**30)]),
    st.sampled_from(["", "*", "⊤", "$", "S", "a", "e", "1", "(c,0)", "p|q", "m>q", "x,y", "a(b"]),
    st.text(alphabet="ab()|,>*⊤$S1", max_size=4),
    st.sampled_from([[], {}, ["a"], {"name": "S"}]),
)


def _locations(data, at=()):
    """The path of every value below the root, parents first."""
    items = enumerate(data) if isinstance(data, list) else data.items() if isinstance(data, dict) else ()
    for key, value in items:
        yield at + (key,)
        yield from _locations(value, at + (key,))


def _get(data, location):
    for key in location:
        data = data[key]
    return data


@st.composite
def mutated(draw, document):
    """``document`` with one value replaced, duplicated, deleted or swapped."""
    document = copy.deepcopy(document)
    locations = list(_locations(document))
    if not locations:
        return draw(ODD_VALUES)
    location = draw(st.sampled_from(locations))
    parent, key = _get(document, location[:-1]), location[-1]
    strings = sorted({v for loc in locations if isinstance(v := _get(document, loc), str)})
    mutation = draw(st.sampled_from(["replace", "duplicate", "delete", "swap"]))
    if mutation == "replace":
        values = st.one_of(ODD_VALUES, st.sampled_from(strings)) if strings else ODD_VALUES
        parent[key] = draw(values)
    elif mutation == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif mutation == "duplicate":
        parent[draw(st.sampled_from(sorted(parent)))] = copy.deepcopy(parent[key])
    elif mutation == "delete":
        del parent[key]
    else:
        other = draw(st.sampled_from(locations))
        if other[: len(location)] != location and location[: len(other)] != other:
            other_parent = _get(document, other[:-1])
            parent[key], other_parent[other[-1]] = other_parent[other[-1]], parent[key]
    return document


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """One folder for the whole run: each example writes its files afresh."""
    return tmp_path_factory.mktemp("contract")


@given(st.sampled_from(["json", "text"]), COMMANDS, st.data())
def test_mutated_documents_keep_the_exit_contract(folder, fmt, command, data):
    slots = [k for k, arg in enumerate(command) if arg.startswith("@")]
    target = data.draw(st.sampled_from(slots))
    argv = ["--format", fmt]
    for k, arg in enumerate(command):
        if arg.startswith("@"):
            document = data.draw(st.sampled_from(DOCUMENTS[arg[1:]]))
            if k == target:
                document = data.draw(mutated(document))
            path = folder / f"{k}.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    code, _, err = run_in_process(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == "", err
