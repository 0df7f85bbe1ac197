import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from catgram import Automaton, State, Transition, bilinearize, interval_automaton, word
from catgram import grammar_from_rules, jsonio
from catgram.contour import contour_word
from catgram.fixtures import G_AB, G_AMB, G_END, G_EPS, GRAPH_A, GRAPH_AB, M_EVENA, SPC_FIG3, fig3_tree


def run_cli(*args, seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    return subprocess.run(
        [sys.executable, "-m", "catgram.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # value types are named tuples; `dataclasses`, which imports `inspect`,
    # took most of the command line's import time
    code = "import sys, catgram.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (res.returncode, res.stdout, res.stderr) == (0, "[]\n", "")


# runs ``catgram`` on its arguments, if any, in this fresh process and prints
# the exit code and the package modules the process loaded
_RUN_AND_LIST_MODULES = """
import contextlib, io, sys
import catgram
code = None
if sys.argv[1:]:
    from catgram import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("catgram.")))
"""
# what every command loads: the command line, the JSON layer and its imports
_CORE = "automaton cli errors freecat grammar jsonio species spliced"


@pytest.mark.parametrize(
    "args, code, layers",
    [
        ((), None, None),
        (("validate", "-g", "g_ab.json"), 0, ""),
        (("validate",), 2, ""),
        (("bilinearize", "-g", "g_ab.json"), 0, ""),
        (("bilinearize", "-g", "missing.json"), 2, ""),
        (("parse", "-g", "g_ab.json", "-w", "aabb"), 0, "parser product"),
        (("parse", "-g", "g_ab.json", "-w", "xz"), 2, "parser product"),
        (("enumerate", "-g", "g_amb.json", "--max-len", "4"), 0, "oracle"),
        (("enumerate", "-m", "m_evena.json", "--max-len", "-1"), 2, "oracle"),
        (("check-equiv", "-g1", "g_ab.json", "-g2", "g_bin.json", "--max-len", "4"), 0, "oracle"),
        (("check-equiv", "-g1", "g_ab.json", "-g2", "g_bin.json", "--max-len", "-1"), 2, "oracle"),
        (("intersect", "-g", "g_ab.json", "-m", "m_evena.json"), 0, "product"),
        (("intersect", "-g", "g_ab.json", "-m", "missing.json"), 2, "product"),
        (("contour", "-s", "fig3_species.json", "-t", "fig3_tree.json"), 0, "contour"),
        (("contour", "-s", "fig3_species.json", "-t", "g_ab.json"), 2, "contour"),
        (("dyck", "--encode", "-s", "fig3_species.json", "-i", "contour.json"), 0, "contour"),
        (("dyck", "--decode", "-s", "fig3_species.json", "-i", "g_ab.json"), 2, "contour"),
        # the bounded check pulls back along the automaton and runs the oracle
        (("cs-decompose", "-g", "g_ab.json", "--check-bound", "4"), 0, "contour oracle product"),
        (("cs-decompose", "-g", "g_ab.json", "--check-bound", "-1"), 2, "contour"),
    ],
    ids=lambda v: " ".join(v) or "bare-import" if isinstance(v, tuple) else None,
)
def test_each_command_loads_only_its_layers(files, args, code, layers):
    files["write"]("contour.json", jsonio.path_to_json(contour_word(SPC_FIG3, fig3_tree())))
    folder = os.path.dirname(files["g_ab.json"])
    argv = [os.path.join(folder, a) if a.endswith(".json") else a for a in args]
    res = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv], capture_output=True, text=True
    )
    # a bare package import loads no submodule
    expected = sorted(f"catgram.{m}" for m in f"{_CORE} {layers}".split()) if args else []
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.split() == [str(code), *expected]


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, data):
        p = tmp_path / name
        p.write_text(jsonio.dumps(data), encoding="utf-8")
        paths[name] = str(p)
        return str(p)

    write("g_ab.json", jsonio.grammar_to_json(G_AB))
    write("g_amb.json", jsonio.grammar_to_json(G_AMB))
    write("g_bin.json", jsonio.grammar_to_json(bilinearize(G_AB)))
    write("m_evena.json", jsonio.automaton_to_json(M_EVENA))
    write("fig3_species.json", jsonio.species_to_json(SPC_FIG3))
    write("fig3_tree.json", jsonio.tree_to_json(fig3_tree()))
    paths["write"] = write
    return paths


def test_parse_member(files):
    res = run_cli("parse", "-g", files["g_ab.json"], "-w", "aabb")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["member"] is True
    assert payload["count"] == 1
    assert payload["nonterminals"] == ["S"]
    assert payload["parses"] == [
        {"rule": "r1", "children": [{"rule": "r0", "children": []}]}
    ]


def test_parse_non_member(files):
    res = run_cli("parse", "-g", files["g_ab.json"], "-w", "aab")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["member"] is False and payload["count"] == 0


def test_parse_unknown_generator_is_input_error(files):
    res = run_cli("parse", "-g", files["g_ab.json"], "-w", "xz")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: word: unknown generator(s) ['x', 'z']\n"


def test_parse_word_as_json_array(files):
    res = run_cli("parse", "-g", files["g_ab.json"], "-w", '["a", "a", "b", "b"]')
    assert res.returncode == 0
    assert json.loads(res.stdout)["member"] is True


def test_parse_empty_word(files):
    res = run_cli("parse", "-g", files["g_ab.json"], "-w", "")
    assert res.returncode == 0
    assert json.loads(res.stdout)["member"] is False


def test_parse_limit(files):
    res = run_cli("parse", "-g", files["g_amb.json"], "-w", "aaaa", "--limit", "2")
    payload = json.loads(res.stdout)
    assert payload["count"] == 5 and len(payload["parses"]) == 2


def test_parse_long_ambiguous_word_enumerates_only_the_limit(files):
    # 9,694,845 parses; the ten printed come from cut levels
    first, second = (
        run_cli("parse", "-g", files["g_amb.json"], "-w", "a" * 16, seed=seed)
        for seed in ("0", "4242")
    )
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["count"] == 9694845 and len(payload["parses"]) == 10


def test_enumerate_grammar(files):
    res = run_cli("enumerate", "-g", files["g_ab.json"], "--max-len", "8")
    assert res.returncode == 0
    assert json.loads(res.stdout)["words"] == ["ab", "aabb", "aaabbb", "aaaabbbb"]


def test_enumerate_automaton(files):
    res = run_cli("enumerate", "-m", files["m_evena.json"], "--max-len", "2")
    assert json.loads(res.stdout)["words"] == ["", "b", "aa", "bb"]


def test_check_equiv_equal(files):
    res = run_cli(
        "check-equiv", "-g1", files["g_ab.json"], "-g2", files["g_bin.json"], "--max-len", "8"
    )
    assert res.returncode == 0
    assert json.loads(res.stdout) == {"equal": True, "counterexample": None}


def test_check_equiv_counterexample(files):
    from catgram import grammar_from_rules

    amb_over_ab = grammar_from_rules(
        GRAPH_AB,
        "S",
        {"S": ("*", "*")},
        [("c", "S", (), (("a",),)), ("m", "S", ("S", "S"), ((), (), ()))],
    )
    files["write"]("g_amb_ab.json", jsonio.grammar_to_json(amb_over_ab))
    res = run_cli(
        "check-equiv", "-g1", files["g_ab.json"], "-g2", files["g_amb_ab.json"], "--max-len", "4"
    )
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["equal"] is False and payload["counterexample"] == "a"


def test_intersect_image(files):
    res = run_cli("intersect", "-g", files["g_ab.json"], "-m", files["m_evena.json"])
    assert res.returncode == 0
    grammar = jsonio.grammar_from_json(json.loads(res.stdout))
    from catgram import enumerate_language

    assert {"".join(w.gens) for w in enumerate_language(grammar, 8)} == {
        "aabb",
        "aaaabbbb",
    }


def test_intersect_pullback_lives_over_state_graph(files):
    res = run_cli(
        "intersect", "-g", files["g_ab.json"], "-m", files["m_evena.json"], "--emit", "pullback"
    )
    grammar = jsonio.grammar_from_json(json.loads(res.stdout))
    assert set(grammar.category.objects) == {"e", "o"}


def test_bilinearize_command(files):
    res = run_cli("bilinearize", "-g", files["g_ab.json"])
    assert res.returncode == 0
    grammar = jsonio.grammar_from_json(json.loads(res.stdout))
    assert all(len(r.inputs) <= 2 for r in grammar.species.nodes)


def test_contour_command(files):
    res = run_cli("contour", "-s", files["fig3_species.json"], "-t", files["fig3_tree.json"])
    assert res.returncode == 0
    contour = json.loads(res.stdout)["contour"]
    assert contour[:3] == ["(a,0)", "(b,0)", "(a,1)"] and len(contour) == 13


@pytest.mark.parametrize("children", [5, None])
def test_contour_of_malformed_tree_exits_2(files, children):
    bad = files["write"]("bad_tree.json", {"rule": "f", "children": children})
    res = run_cli("contour", "-s", files["fig3_species.json"], "-t", bad)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: tree.children: expected list")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def test_dyck_roundtrip_via_files(files, tmp_path):
    cw = contour_word(SPC_FIG3, fig3_tree())
    contour_file = files["write"]("contour.json", jsonio.path_to_json(cw))
    res = run_cli("dyck", "--encode", "-s", files["fig3_species.json"], "-i", contour_file)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["brackets"] == "[[[]][[[[]][[]]]][[[[]]]]]"
    letters_file = files["write"]("letters.json", payload["letters"])
    res = run_cli("dyck", "--decode", "-s", files["fig3_species.json"], "-i", letters_file)
    assert res.returncode == 0
    assert json.loads(res.stdout)["contour"] == list(cw.gens)


def test_dyck_encode_of_identity_path_exits_2(files):
    # its empty bracket word would not decode, so it is refused up front
    identity = files["write"]("identity.json", {"src": "1↑"})
    res = run_cli("dyck", "--encode", "-s", files["fig3_species.json"], "-i", identity)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: identity path at '1↑' is not the contour of a closed tree\n"


@pytest.mark.parametrize(
    "contour, letters, error",
    [
        (
            ["(a,0)"],
            [("[", "a", 0), ("[", "a", 0)],
            "the path ends inside 1 open node(s)",
        ),
        (
            ["(c,0)", "(b,0)", "(c,2)"],
            [("[", "c", 0), ("[", "c", 0), ("[", "b", 0), ("]", "b", 0)]
            + [("]", "c", 2), ("]", "c", 2)],
            "corner 2 (c,2) is out of turn",
        ),
    ],
    ids=["open", "skipped-corner"],
)
def test_dyck_of_a_path_that_is_no_contour_exits_2(files, contour, letters, error):
    species = files["fig3_species.json"]
    contour_file = files["write"]("contour.json", contour)
    letters_file = files["write"](
        "letters.json", [{"bracket": b, "node": n, "index": i} for b, n, i in letters]
    )
    line = f"error: {error}: not the contour of a closed tree\n"
    for args in (("--encode", "-i", contour_file), ("--decode", "-i", letters_file)):
        res = run_cli("dyck", *args, "-s", species)
        assert (res.returncode, res.stdout, res.stderr) == (2, "", line)


def test_cs_decompose_check(files):
    res = run_cli("cs-decompose", "-g", files["g_ab.json"], "--check-bound", "6")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["check"] == {"bound": 6, "equal": True}
    jsonio.grammar_from_json(payload["universal"])
    jsonio.automaton_from_json(payload["automaton"])


def test_validate_commands(files, tmp_path):
    res = run_cli("validate", "-g", files["g_ab.json"])
    assert res.returncode == 0 and json.loads(res.stdout)["ok"] is True
    res = run_cli("validate", "-m", files["m_evena.json"])
    assert res.returncode == 0
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    res = run_cli("validate", "-g", str(broken))
    assert res.returncode == 2


def test_validate_rejects_a_duplicate_nonterminal(files):
    data = jsonio.grammar_to_json(G_END)
    data["nonterminals"].append({"name": "E", "left": "*", "right": "*"})
    res = run_cli("validate", "-g", files["write"]("dup.json", data))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "error: grammar.nonterminals[2]: duplicate nonterminal 'E'\n"


@pytest.mark.parametrize(
    "rule,segment,gens,message",
    [
        (0, 1, ["$", "$"], ": generators do not compose: expected source '⊤', got '$' : '*' -> '⊤'"),
        (1, 0, ["z"], ": unknown generator(s) ['z']"),
        (1, 1, ["$"], " has type *->⊤, expected *->*"),
    ],
    ids=["compose", "unknown", "type"],
)
def test_validate_names_the_rule_of_a_bad_segment(files, rule, segment, gens, message):
    data = jsonio.grammar_to_json(G_END)
    data["rules"][rule]["splice"][segment] = gens
    name = data["rules"][rule]["name"]
    res = run_cli("validate", "-g", files["write"]("bad_segment.json", data))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: grammar: node {name!r}: segment {segment}{message}\n"


def test_validate_without_input_exits_2():
    res = run_cli("validate")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: validate: nothing to check; pass -g, -m or -s\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_file_exits_2(tmp_path, kind):
    path = tmp_path / "g.json"
    if kind == "directory":
        path.mkdir()
    code, out, err = run_in_process(["validate", "-g", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: [Errno ")


def test_text_format(files):
    res = run_cli("--format", "text", "parse", "-g", files["g_ab.json"], "-w", "aabb")
    assert res.returncode == 0
    assert "member: True" in res.stdout


@pytest.mark.parametrize(
    "command",
    [
        ("intersect", "-g", "g_ab.json", "-m", "m_evena.json"),
        ("intersect", "-g", "g_ab.json", "-m", "m_evena.json", "--emit", "pullback"),
        ("bilinearize", "-g", "g_ab.json"),
        ("cs-decompose", "-g", "g_ab.json", "--check-bound", "4"),
    ],
    ids=["intersect", "pullback", "bilinearize", "cs-decompose"],
)
def test_text_format_of_a_json_payload_is_its_json(files, capsys, command):
    from catgram import cli

    args = [files.get(arg, arg) for arg in command]
    outputs = []
    for fmt in ("json", "text"):
        assert cli.run(["--format", fmt, *args]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])


def test_text_parse_enumerates_no_trees(files, monkeypatch, capsys):
    import catgram.parser
    from catgram import cli

    def no_trees(forest, limit):
        raise AssertionError("text output enumerated parse trees")

    monkeypatch.setattr(catgram.parser, "enumerate_parses", no_trees)
    parse = ["parse", "-g", files["g_amb.json"], "-w", "aaaa"]
    assert cli.run(["--format", "text", *parse, "--limit", "20000"]) == 0
    assert capsys.readouterr().out == "member: True\nnonterminals: S\ncount: 5\n"
    # a negative limit is still refused, with the same line in both formats
    monkeypatch.undo()
    for fmt in ("text", "json"):
        assert cli.run(["--format", fmt, *parse, "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: limit must be nonnegative\n")


def test_negative_parse_limit_is_refused_before_lifting(files, monkeypatch, capsys):
    import catgram.parser
    from catgram import cli

    def no_lifting(grammar, w):
        raise AssertionError("a negative limit reached the lifting kernel")

    monkeypatch.setattr(catgram.parser, "_recognize_and_parse", no_lifting)
    parse = ["parse", "-g", files["g_amb.json"], "-w", "a" * 60, "--limit", "-1"]
    for fmt in ("text", "json"):
        assert cli.run(["--format", fmt, *parse]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: limit must be nonnegative\n")
    # a bad word still comes first
    assert cli.run([*parse[:3], "-w", "xz", "--limit", "-1"]) == 2
    assert capsys.readouterr().err == "error: word: unknown generator(s) ['x', 'z']\n"


def test_outputs_are_byte_reproducible(files):
    commands = [
        ("parse", "-g", files["g_ab.json"], "-w", "aabb"),
        ("enumerate", "-g", files["g_amb.json"], "--max-len", "5"),
        ("intersect", "-g", files["g_ab.json"], "-m", files["m_evena.json"]),
        ("cs-decompose", "-g", files["g_ab.json"], "--check-bound", "4"),
    ]
    for cmd in commands:
        first = run_cli(*cmd, seed="0")
        second = run_cli(*cmd, seed="1")
        assert first.stdout == second.stdout, cmd
        assert first.returncode == second.returncode


def test_raw_pullback_output_ignores_hash_seed(files):
    interval = interval_automaton(GRAPH_A, word(GRAPH_A, "aaaa"))
    path = files["write"]("interval.json", jsonio.automaton_to_json(interval))
    for grammar, automaton in (("g_ab.json", "m_evena.json"), ("g_amb.json", path)):
        cmd = ("intersect", "-g", files[grammar], "-m", files.get(automaton, automaton))
        for emit in ("pullback", "image"):
            first = run_cli(*cmd, "--emit", emit, "--no-trim", seed="0")
            second = run_cli(*cmd, "--emit", emit, "--no-trim", seed="4242")
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout and first.stdout


def test_recursion_error_exits_2_with_one_line(files, monkeypatch, capsys):
    from catgram import cli

    def too_deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_parse", too_deep)
    assert cli.run(["parse", "-g", files["g_ab.json"], "-w", "aabb"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: parse: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ("enumerate", "-g", "g_ab.json", "--max-len", "-1"),
        ("enumerate", "-m", "m_evena.json", "--max-len", "-1"),
        ("check-equiv", "-g1", "g_ab.json", "-g2", "g_bin.json", "--max-len", "-1"),
        ("cs-decompose", "-g", "g_ab.json", "--check-bound", "-1"),
    ],
)
def test_negative_length_bounds_exit_2(files, args):
    res = run_cli(*(files.get(a, a) for a in args))
    # cs-decompose checks its flag before any work; the others stop in the oracle
    name = "--check-bound" if args[0] == "cs-decompose" else "max_len"
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {name} must be nonnegative\n")


def test_enumerate_long_loop_automaton(files):
    loop = Automaton(GRAPH_A, (State("q", "*"),), (Transition("t", "q", "q", "a"),), "q", "q")
    path = files["write"]("loop.json", jsonio.automaton_to_json(loop))
    res = run_cli("enumerate", "-m", path, "--max-len", "2000")
    assert res.returncode == 0
    assert json.loads(res.stdout)["words"] == ["a" * n for n in range(2001)]


def test_deep_parse_prints_text_but_not_json(files):
    path = files["write"]("g_eps.json", jsonio.grammar_to_json(G_EPS))
    res = run_cli("--format", "text", "parse", "-g", path, "-w", "a" * 600)
    assert res.returncode == 0
    assert res.stdout == "member: True\nnonterminals: S\ncount: 1\n"
    # the 601-node tree nests deeper than the JSON encoder allows
    res = run_cli("parse", "-g", path, "-w", "a" * 600)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: parse: ")


def test_wide_node_enumerates_and_parses(files):
    # T -> S^1100, S -> ε: one node with more inputs than the recursion limit
    k = 1100
    wide = grammar_from_rules(
        GRAPH_A,
        "T",
        {"T": ("*", "*"), "S": ("*", "*")},
        [("t", "T", ("S",) * k, ((),) * (k + 1)), ("z", "S", (), ((),))],
    )
    path = files["write"]("wide.json", jsonio.grammar_to_json(wide))
    res = run_cli("enumerate", "-g", path, "--max-len", "0")
    assert (res.returncode, json.loads(res.stdout)) == (0, {"words": [""]})
    res = run_cli("parse", "-g", path, "-w", "")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert (payload["member"], payload["count"]) == (True, 1)
    assert payload["parses"] == [{"rule": "t", "children": [{"rule": "z", "children": []}] * k}]


# -- the in-process output matrix ------------------------------------------


def run_in_process(argv):
    """``cli.run(argv)`` in this process: (exit code, stdout, stderr)."""
    from catgram import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


# words that are paths of their grammar's category; a bare word that is not
# one is a located error, pinned on its own below
MATRIX_WORDS = {
    "g_ab.json": ["", "a", "ab", "ba", "aabb", "abab", "aaabbb"],
    "g_amb.json": ["", "a", "aa", "aaa", "aaaaa"],
    "g_eps.json": ["", "a", "aaaa"],
    "g_end.json": ["", "$", "ab", "ab$", "aabb$", "ba$"],
    "g_tern.json": ["", "aabababb", "ab"],
    "g_unit.json": ["", "a", "aa"],
    "g_bin.json": ["", "ab", "aabb", "abb"],
}

MATRIX_JSON_WORDS = {
    "g_ab.json": ['["a", "b"]', '{"src": "*"}', '{"gens": ["a", "b"], "src": "*"}', '["x"]', "[1]"]
    + ['{"src": "nope"}', "{", '{"gens": ["a"], "src": "⊤"}', '{"gens": 3}', "[]", "{}"],
    "g_end.json": ['["a", "b", "$"]', '{"gens": ["a", "$", "b"]}', '{"src": "⊤"}'],
    "g_pull.json": ['["a_eo", "a_oe", "b_ee", "b_ee"]', '["a_eo", "b_oo", "a_oe", "b_ee"]']
    + ['["a_eo", "b_ee"]', '{"src": "e"}'],
    "g_univ.json": ['["(m,0)", "(c,0)", "(m,1)", "(c,0)", "(m,2)"]', '["(c,0)", "(c,0)"]', '["x"]'],
}

# the grammars over each category
MATRIX_CATEGORIES = [
    ("g_ab.json", "g_bin.json", "g_tern.json"),
    ("g_amb.json", "g_eps.json", "g_unit.json"),
    ("g_end.json",),
]

MATRIX_INTERSECT = [
    ("g_ab.json", "m_evena.json"),
    ("g_bin.json", "m_evena.json"),
    ("g_tern.json", "m_evena.json"),
    ("g_ab.json", "m_aabb.json"),
    ("g_tern.json", "m_aabb.json"),
    ("g_amb.json", "m_aaaa.json"),
    ("g_eps.json", "m_aaaa.json"),
    ("g_unit.json", "m_aaaa.json"),
    ("g_amb.json", "m_evena.json"),
    ("g_end.json", "m_evena.json"),
]


@pytest.fixture
def matrix_files(files):
    from catgram import cs_decompose, enumerate_closed_trees, pullback_grammar
    from catgram.contour import dyck_translate
    from catgram.fixtures import G_TERN, G_UNIT

    write = files["write"]
    write("g_eps.json", jsonio.grammar_to_json(G_EPS))
    write("g_end.json", jsonio.grammar_to_json(G_END))
    write("g_tern.json", jsonio.grammar_to_json(G_TERN))
    write("g_unit.json", jsonio.grammar_to_json(G_UNIT))
    write("g_pull.json", jsonio.grammar_to_json(pullback_grammar(G_AB, M_EVENA)))
    write("g_univ.json", jsonio.grammar_to_json(cs_decompose(G_AMB).universal))
    dup = jsonio.grammar_to_json(G_END)
    dup["nonterminals"].append({"name": "E", "left": "*", "right": "*"})
    write("g_dup.json", dup)
    for name, text in (("m_aaaa.json", "aaaa"), ("m_aabb.json", "aabb")):
        graph = GRAPH_A if set(text) == {"a"} else GRAPH_AB
        write(name, jsonio.automaton_to_json(interval_automaton(graph, word(graph, text))))
    # good and bad trees, contour words and letter sequences, by file name
    kinds = {"tree": [], "contour": [], "letters": []}
    for k, tree in enumerate([fig3_tree(), *enumerate_closed_trees(SPC_FIG3, "1", 3)[::3]]):
        cw = contour_word(SPC_FIG3, tree)
        letters = dyck_translate(SPC_FIG3, cw)
        kinds["tree"].append(write(f"tree{k}.json", jsonio.tree_to_json(tree)))
        kinds["contour"].append(write(f"contour{k}.json", jsonio.path_to_json(cw)))
        kinds["letters"].append(write(f"letters{k}.json", jsonio.dyck_letters_to_json(letters)))
    bad_trees = [
        {"rule": "f", "children": 5},
        {"rule": "z", "children": []},
        {"rule": "f", "children": []},
        {"leaf": "1"},
        {"rule": "f", "children": [{"leaf": "1"}]},
    ]
    for k, tree in enumerate(bad_trees):
        kinds["tree"].append(write(f"bad_tree{k}.json", tree))
    bad_contours = [["(a,0)"], {"src": "1↑"}, ["(z,0)"], ["(b,0)", "(b,0)"], ["(c,0)", "(b,0)", "(c,2)"]]
    for k, contour in enumerate(bad_contours):
        kinds["contour"].append(write(f"bad_contour{k}.json", contour))
    bad_letters = [
        [],
        [{"bracket": "[", "node": "b", "index": 0}],
        [{"bracket": "[", "node": "b", "index": 0}, {"bracket": "[", "node": "b", "index": 0}],
        [{"bracket": "(", "node": "b", "index": 0}],
        [{"bracket": "[", "node": "z", "index": 0}, {"bracket": "]", "node": "z", "index": 0}],
        [{"bracket": "[", "node": "a", "index": 0}, {"bracket": "[", "node": "a", "index": 0}],
    ]
    for k, letters in enumerate(bad_letters):
        kinds["letters"].append(write(f"bad_letters{k}.json", letters))
    with open(write("broken.json", {}), "w", encoding="utf-8") as handle:
        handle.write("{not json")
    files["kinds"] = {kind: [os.path.basename(p) for p in paths] for kind, paths in kinds.items()}
    return files


def matrix(files):
    """Every subcommand over the fixture files, both formats, good and bad
    input; bare words that are no path of their category are left out."""
    grammars = sorted(MATRIX_WORDS) + ["g_pull.json", "g_univ.json"]
    kinds = files["kinds"]
    commands = []
    for g, words in MATRIX_WORDS.items():
        for w in words:
            commands.append(("parse", "-g", g, "-w", w))
        commands.append(("parse", "-g", g, "-w", words[-1], "--limit", "0"))
        commands.append(("parse", "-g", g, "-w", words[-1], "--limit", "2"))
    commands.append(("parse", "-g", "g_amb.json", "-w", "aaaa", "--limit", "-1"))
    for g, words in MATRIX_JSON_WORDS.items():
        commands += [("parse", "-g", g, "-w", w) for w in words]
    commands += [("parse", "-g", g, "-w", "ab") for g in ("g_pull.json", "g_univ.json")]
    for g in grammars:
        commands += [("enumerate", "-g", g, "--max-len", str(n)) for n in (0, 2, 4)]
        commands.append(("bilinearize", "-g", g))
        commands.append(("validate", "-g", g))
        commands.append(("cs-decompose", "-g", g, "--check-bound", "4"))
    commands.append(("cs-decompose", "-g", "g_ab.json"))
    commands.append(("cs-decompose", "-g", "g_ab.json", "--check-bound", "-1"))
    commands.append(("enumerate", "-g", "g_ab.json", "--max-len", "-1"))
    for m in ("m_evena.json", "m_aaaa.json", "m_aabb.json"):
        commands += [("enumerate", "-m", m, "--max-len", str(n)) for n in (0, 3)]
        commands.append(("validate", "-m", m))
    commands += [
        ("validate", "-s", "fig3_species.json"),
        ("validate", "-g", "g_ab.json", "-m", "m_evena.json", "-s", "fig3_species.json"),
        ("validate", "-g", "g_dup.json"),
        ("validate", "-g", "broken.json"),
        ("validate", "-m", "g_ab.json"),
        ("validate", "-s", "m_evena.json"),
        ("validate",),
    ]
    for group in MATRIX_CATEGORIES:
        commands += [
            ("check-equiv", "-g1", g1, "-g2", g2, "--max-len", n)
            for g1 in group
            for g2 in group
            for n in ("0", "4")
        ]
    commands.append(("check-equiv", "-g1", "g_ab.json", "-g2", "g_amb.json", "--max-len", "4"))
    for g, m in MATRIX_INTERSECT:
        for emit in ("pullback", "image"):
            for trim in ((), ("--no-trim",)):
                commands.append(("intersect", "-g", g, "-m", m, "--emit", emit, *trim))
    commands += [("contour", "-s", "fig3_species.json", "-t", t) for t in kinds["tree"]]
    commands += [("dyck", "--encode", "-s", "fig3_species.json", "-i", c) for c in kinds["contour"]]
    commands += [("dyck", "--decode", "-s", "fig3_species.json", "-i", x) for x in kinds["letters"]]
    return [("--format", fmt, *cmd) for cmd in commands for fmt in ("json", "text")]


# sha256 of every case's (argv, exit code, stdout, stderr), file paths
# written as fixture names; it does not depend on the hash seed
MATRIX_CASES = 540
MATRIX_DIGEST = "5e01070869906d8e0ea142ce220c3b46294194c428f1791f44fa46f93c3d0fce"


def test_cli_matrix_output_is_pinned(matrix_files):
    names = {path: name for name, path in matrix_files.items() if isinstance(path, str)}
    folder = os.path.dirname(matrix_files["g_ab.json"]) + os.sep
    digest = hashlib.sha256()
    cases = matrix(matrix_files)
    for argv in cases:
        code, out, err = run_in_process([matrix_files.get(a, a) for a in argv])
        record = [[names.get(a, a) for a in argv], code, out, err.replace(folder, "")]
        digest.update(json.dumps(record, ensure_ascii=False).encode() + b"\n")
    assert (len(cases), digest.hexdigest()) == (MATRIX_CASES, MATRIX_DIGEST)


# a bare word is read as the JSON array of its letters, so its faults are
# located at ``word`` as those of a JSON word are
@pytest.mark.parametrize(
    "grammar, text, error",
    [
        ("g_ab.json", "xz", "unknown generator(s) ['x', 'z']"),
        ("g_ab.json", "abx", "unknown generator(s) ['x']"),
        ("g_ab.json", '"ab"', "unknown generator(s) ['\"', '\"']"),
        ("g_amb.json", "ab", "unknown generator(s) ['b']"),
        ("g_end.json", "a$b", "generators do not compose: expected source '⊤', got 'b' : '*' -> '*'"),
        ("g_end.json", "$$", "generators do not compose: expected source '⊤', got '$' : '*' -> '⊤'"),
        ("g_end.json", "ab$a", "generators do not compose: expected source '⊤', got 'a' : '*' -> '*'"),
    ],
)
def test_bad_bare_word_is_located(matrix_files, grammar, text, error):
    for fmt in ("json", "text"):
        argv = ["--format", fmt, "parse", "-g", matrix_files[grammar], "-w", text]
        assert run_in_process(argv) == (2, "", f"error: word: {error}\n")
