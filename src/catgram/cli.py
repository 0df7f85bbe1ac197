"""Command-line interface.

One executable with subcommands for validation, parsing, bounded language
enumeration, intersection, bilinearization, contour words, the Dyck
translation, the Chomsky-Schutzenberger decomposition and bounded
equivalence.  All commands read JSON files against the schemas in
:mod:`catgram.jsonio` and emit deterministic JSON (or plain text).

Exit codes: 0 on success and for properties that hold, 1 for properties
that fail (a counterexample or a failed bounded check), 2 for malformed
input and for JSON (a deep tree read or written) nested too deeply for the
recursion limit; every exit 2 prints one ``error:`` line.  ``validate``
exits 0 or 2: a file that loads is a valid grammar, automaton or species.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

from . import jsonio
from .automaton import Automaton
from .contour import (
    brackets,
    contour_category,
    contour_word,
    cs_check,
    cs_decompose,
    dyck_decode,
    dyck_translate,
)
from .errors import CatgramError, InputError
from .freecat import FiniteGraph, Path
from .grammar import Grammar, bilinearize, check_equiv_bounded
from .oracle import enumerate_language, enumerate_regular_language
from .parser import _recognize_and_parse, count_parses, enumerate_parses
from .product import intersect, pullback_grammar


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _load_grammar(path: str) -> Grammar:
    return jsonio.grammar_from_json(_load_json(path))


def _load_automaton(path: str) -> Automaton:
    return jsonio.automaton_from_json(_load_json(path))


def _single_char_generators(graph: FiniteGraph) -> bool:
    return all(len(g.name) == 1 for g in graph.generators)


def _parse_word(grammar: Grammar, text: str) -> Path:
    """Words are bare strings when every generator is one character long;
    otherwise a JSON array of generator names is required."""
    gap = grammar.gap_of(grammar.start)
    if text.startswith("[") or text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"word: {exc.msg}") from exc
        return jsonio.path_from_json(grammar.category, data, "word")
    if not _single_char_generators(grammar.category):
        raise InputError("word: generators are not single characters; pass a JSON array")
    if text == "":
        return grammar.category.path((), src=gap.left)
    return grammar.category.path(tuple(text))


def _render_word(graph: FiniteGraph, p: Path) -> Any:
    if _single_char_generators(graph):
        return "".join(p.gens)
    return jsonio.path_to_json(p)


def _emit(args: argparse.Namespace, data: Any, text: str | None = None) -> None:
    """Write ``data`` as JSON, or ``text`` (by default the JSON) as text."""
    if args.format == "json" or text is None:
        sys.stdout.write(jsonio.dumps(data))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_validate(args: argparse.Namespace) -> int:
    if not (args.grammar or args.automaton or args.species):
        raise InputError("validate: nothing to check; pass -g, -m or -s")
    # each loader raises on a fault, so loading is the validation
    if args.grammar:
        _load_grammar(args.grammar)
    if args.automaton:
        _load_automaton(args.automaton)
    if args.species:
        jsonio.species_from_json(_load_json(args.species))
    _emit(args, {"ok": True, "problems": []}, "ok")
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    w = _parse_word(grammar, args.word)
    colors, forest = _recognize_and_parse(grammar, w)
    count = count_parses(forest)
    payload = {
        "member": grammar.start in colors,
        "nonterminals": sorted(colors),
        "count": "inf" if count is math.inf else count,
    }
    # text output prints no trees, so only JSON output enumerates them
    if args.format == "json":
        payload["parses"] = [jsonio.tree_to_json(t) for t in enumerate_parses(forest, args.limit)]
    elif args.limit < 0:
        raise InputError("limit must be nonnegative")
    lines = [
        f"member: {payload['member']}",
        f"nonterminals: {' '.join(payload['nonterminals']) or '-'}",
        f"count: {payload['count']}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.grammar:
        grammar = _load_grammar(args.grammar)
        words = enumerate_language(grammar, args.max_len)
        graph = grammar.category
    else:
        automaton = _load_automaton(args.automaton)
        words = enumerate_regular_language(automaton, args.max_len)
        graph = automaton.base
    rendered = [_render_word(graph, w) for w in words]
    text = "\n".join((w or "ε") if isinstance(w, str) else json.dumps(w) for w in rendered)
    _emit(args, {"words": rendered}, text)
    return 0


def _cmd_intersect(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    automaton = _load_automaton(args.automaton)
    trim_useless = not args.no_trim
    if args.emit == "pullback":
        result = pullback_grammar(grammar, automaton, trim_useless=trim_useless)
    else:
        result = intersect(grammar, automaton, trim_useless=trim_useless)
    _emit(args, jsonio.grammar_to_json(result))
    return 0


def _cmd_bilinearize(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    _emit(args, jsonio.grammar_to_json(bilinearize(grammar)))
    return 0


def _cmd_contour(args: argparse.Namespace) -> int:
    species = jsonio.species_from_json(_load_json(args.species))
    tree = jsonio.tree_from_json(species, _load_json(args.tree))
    cw = contour_word(species, tree)
    _emit(args, {"contour": jsonio.path_to_json(cw)}, " ".join(cw.gens))
    return 0


def _cmd_dyck(args: argparse.Namespace) -> int:
    species = jsonio.species_from_json(_load_json(args.species))
    data = _load_json(args.input)
    if args.encode:
        cw = jsonio.path_from_json(contour_category(species), data, "contour")
        letters = dyck_translate(species, cw)
        word = brackets(letters)
        _emit(args, {"letters": jsonio.dyck_letters_to_json(letters), "brackets": word}, word)
    else:
        letters = jsonio.dyck_letters_from_json(data)
        cw = dyck_decode(species, letters)
        _emit(args, {"contour": jsonio.path_to_json(cw)}, " ".join(cw.gens))
    return 0


def _cmd_cs_decompose(args: argparse.Namespace) -> int:
    if args.check_bound is not None and args.check_bound < 0:
        raise InputError("--check-bound must be nonnegative")
    grammar = _load_grammar(args.grammar)
    parts = cs_decompose(grammar)
    payload = {
        "universal": jsonio.grammar_to_json(parts.universal),
        "automaton": jsonio.automaton_to_json(parts.automaton),
        "interpretation": jsonio.functor_to_json(parts.interpretation),
        "check": None,
    }
    code = 0
    if args.check_bound is not None:
        equal, _, _ = cs_check(grammar, args.check_bound)
        payload["check"] = {"bound": args.check_bound, "equal": equal}
        code = 0 if equal else 1
    _emit(args, payload)
    return code


def _cmd_check_equiv(args: argparse.Namespace) -> int:
    g1 = _load_grammar(args.grammar1)
    g2 = _load_grammar(args.grammar2)
    counterexample = check_equiv_bounded(g1, g2, args.max_len)
    if counterexample is None:
        _emit(args, {"equal": True, "counterexample": None}, "equal")
        return 0
    rendered = _render_word(g1.category, counterexample)
    _emit(args, {"equal": False, "counterexample": rendered}, f"counterexample: {rendered}")
    return 1


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="catgram", description=__doc__)
    top.add_argument("--format", choices=("json", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a grammar, automaton or species file")
    p.add_argument("-g", "--grammar")
    p.add_argument("-m", "--automaton")
    p.add_argument("-s", "--species")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("parse", help="recognize a word and report its parses")
    p.add_argument("-g", "--grammar", required=True)
    p.add_argument("-w", "--word", required=True)
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("enumerate", help="list the bounded language of a grammar or automaton")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("-g", "--grammar")
    grp.add_argument("-m", "--automaton")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("intersect", help="pull a grammar back along an automaton")
    p.add_argument("-g", "--grammar", required=True)
    p.add_argument("-m", "--automaton", required=True)
    p.add_argument("--emit", choices=("pullback", "image"), default="image")
    p.add_argument("--no-trim", action="store_true", help="keep useless pullback colors")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("bilinearize", help="rewrite a grammar with node arities at most two")
    p.add_argument("-g", "--grammar", required=True)
    p.set_defaults(func=_cmd_bilinearize)

    p = sub.add_parser("contour", help="contour word of a closed derivation tree")
    p.add_argument("-s", "--species", required=True)
    p.add_argument("-t", "--tree", required=True)
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("dyck", help="translate contour words to bracket words and back")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--encode", action="store_true")
    grp.add_argument("--decode", action="store_true")
    p.add_argument("-s", "--species", required=True)
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_dyck)

    p = sub.add_parser("cs-decompose", help="decompose a grammar into contours, recoloring automaton and interpretation")
    p.add_argument("-g", "--grammar", required=True)
    p.add_argument("--check-bound", type=int, default=None)
    p.set_defaults(func=_cmd_cs_decompose)

    p = sub.add_parser("check-equiv", help="compare two grammars' languages up to a length bound")
    p.add_argument("-g1", "--grammar1", required=True)
    p.add_argument("-g2", "--grammar2", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_check_equiv)
    return top


def run(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CatgramError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecursionError as exc:
        sys.stderr.write(f"error: {args.command}: input nests too deeply ({exc})\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
