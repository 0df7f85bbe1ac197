import json
import os
import subprocess
import sys

import pytest

from catgram import Automaton, State, Transition, bilinearize, interval_automaton, word
from catgram import jsonio
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
    assert res.returncode == 2
    assert "error" in res.stderr


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
        (0, 1, ["$", "$"], "generators do not compose: expected source '⊤', got '$' : '*' -> '⊤'"),
        (1, 0, ["z"], "unknown generator(s) ['z']"),
    ],
    ids=["compose", "unknown"],
)
def test_validate_names_the_rule_of_a_bad_segment(files, rule, segment, gens, message):
    data = jsonio.grammar_to_json(G_END)
    data["rules"][rule]["splice"][segment] = gens
    name = data["rules"][rule]["name"]
    res = run_cli("validate", "-g", files["write"]("bad_segment.json", data))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: grammar: rule {name!r}: segment {segment}: {message}\n"


def test_validate_without_input_exits_2():
    res = run_cli("validate")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: validate: nothing to check; pass -g, -m or -s\n"


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
    from catgram import cli

    def no_trees(forest, limit):
        raise AssertionError("text output enumerated parse trees")

    monkeypatch.setattr(cli, "enumerate_parses", no_trees)
    parse = ["parse", "-g", files["g_amb.json"], "-w", "aaaa"]
    assert cli.run(["--format", "text", *parse, "--limit", "20000"]) == 0
    assert capsys.readouterr().out == "member: True\nnonterminals: S\ncount: 5\n"
    # a negative limit is still refused, with the same line in both formats
    monkeypatch.undo()
    for fmt in ("text", "json"):
        assert cli.run(["--format", fmt, *parse, "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: limit must be nonnegative\n")


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
