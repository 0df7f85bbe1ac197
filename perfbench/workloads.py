"""The catgram benchmark workloads.

Each workload's ``setup(mods, seed, workdir)`` writes its fixtures through
``jsonio``, loads them back, generates its inputs from the seed and returns
the fixed list of ops one pass runs.  Every op checks its answer against a
reference that does not use the code it times: formulas (Catalan numbers,
chart sizes), membership known from the word generator, the naive oracle,
or a contour walk and bracket rule written here.

Input sizes are fixed per workload; the seed picks the words, tree shapes
and small size jitters, so two seeds cost about the same.  Ops call the
library through module attributes (``mods.parser.recognize``) so a traced
pass can swap in span-recording wrappers.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

from harness import Op, check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYER_MODULES = ("parser", "product", "automaton", "grammar", "oracle", "species", "contour", "jsonio")

EXPR_TEXT = "E -> E + T | T\nT -> T * F | F\nF -> ( E ) | x\n"


def import_catgram() -> SimpleNamespace:
    """Import catgram afresh, so every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "catgram" or m.startswith("catgram.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("catgram." + name) for name in LAYER_MODULES + ("fixtures",)}
    return SimpleNamespace(**mods)


def trace_targets(mods: SimpleNamespace) -> list[tuple[object, str, str]]:
    """(module, function, span name) for every library entry point a traced
    pass wraps; the span names are the per-layer metric names without _s."""
    layer = {
        "parser": {
            "recognize": "chart",
            "parse_chart": "chart",
            "parse_forest": "forest",
            "count_parses": "count",
            "enumerate_parses": "enumerate",
        },
        "product": {"pullback_grammar": "pullback", "trim": "trim"},
        "automaton": {"run_membership": "membership"},
        "grammar": {"functorial_image": "image", "check_equiv_bounded": "check_equiv"},
        "oracle": {"enumerate_language": "enumerate", "enumerate_regular_language": "enumerate"},
        "species": {"enumerate_closed_trees": "trees"},
        "contour": {
            "cs_decompose": "decompose",
            "cs_check": "cs_check",
            "contour_word": "word",
            "dyck_translate": "dyck_encode",
            "dyck_decode": "dyck_decode",
        },
        "jsonio": {
            "dumps": "dump",
            "grammar_to_json": "dump",
            "automaton_to_json": "dump",
            "species_to_json": "dump",
            "tree_to_json": "dump",
            "grammar_from_json": "load",
            "automaton_from_json": "load",
            "species_from_json": "load",
            "tree_from_json": "load",
        },
    }
    return [
        (getattr(mods, module), fn, f"{module}.{span}")
        for module, fns in layer.items()
        for fn, span in fns.items()
    ]


# -- references written here, sharing no algorithm with catgram ---------------


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def tree_yield(grammar, tree) -> tuple[str, ...]:
    """The generators a closed tree derives, read off the splice segments
    by an explicit stack (no recursion, no ``eval_tree``)."""
    out: list[str] = []
    stack = [(tree, 0)]
    while stack:
        t, i = stack.pop()
        segments = grammar.node_splice[t.node.name].segments
        out.extend(segments[i].gens)
        if i < len(t.children):
            stack.append((t, i + 1))
            stack.append((t.children[i], 0))
    return tuple(out)


def tree_size(tree) -> int:
    size, stack = 0, [tree]
    while stack:
        t = stack.pop()
        size += 1
        stack.extend(t.children)
    return size


def contour_walk(tree) -> list[str]:
    """Corner names around a closed tree: corner 0 on arrival, corner i+1
    after the i-th child."""
    out: list[str] = []
    stack = [(tree, 0)]
    while stack:
        t, i = stack.pop()
        out.append(f"({t.node.name},{i})")
        if i < len(t.children):
            stack.append((t, i + 1))
            stack.append((t.children[i], 0))
    return out


def dyck_letters(species, corners: list[str]) -> list[dict]:
    """Each corner (n,i) of an arity-k node becomes two letters: '[' then
    '[' at i = 0, ']' then '[' for 0 < i < k, ']' then ']' at i = k
    (a leaf's only corner opens then closes)."""
    arity = {node.name: node.arity for node in species.nodes}
    out = []
    for corner in corners:
        name, index = corner[1:-1].rsplit(",", 1)
        i, k = int(index), arity[name]
        out.append({"bracket": "[" if i == 0 else "]", "index": i, "node": name})
        out.append({"bracket": "[" if i < k else "]", "index": i, "node": name})
    return out


def count_trees(species, max_nodes: int) -> int:
    """Closed trees with at most ``max_nodes`` nodes over a one-color
    species, by the recurrence on node count."""
    arities = [node.arity for node in species.nodes]
    exact = [0] * (max_nodes + 1)  # exact[m]: trees with m nodes
    for m in range(1, max_nodes + 1):
        total = 0
        for k in arities:
            total += _forests(exact, k, m - 1)
        exact[m] = total
    return sum(exact)


def _forests(exact: list[int], k: int, m: int) -> int:
    """Ordered k-tuples of trees with m nodes in total."""
    ways = [1] + [0] * m
    for _ in range(k):
        ways = [sum(ways[j] * exact[i - j] for j in range(i)) for i in range(m + 1)]
    return ways[m]


def expr_word(rng: random.Random, n: int) -> str:
    """A random word of ``expr`` with exactly ``n`` tokens (n odd).

    Of the (n-1)/2 operators and bracket pairs, 40% are bracket pairs and
    30% are '+' (the generator's typical mix, enforced by rejection), so
    words of one length cost about the same to parse whatever the seed.
    """
    units = (n - 1) // 2
    while True:
        text = _random_expr(rng, n)
        if text.count("(") == round(0.4 * units) and text.count("+") == round(0.3 * units):
            return text


def _random_expr(rng: random.Random, n: int) -> str:
    def split(n: int) -> int:
        return 2 * rng.randrange((n - 1) // 2) + 1

    def gen(kind: str, n: int) -> str:
        if kind == "F":
            return "x" if n == 1 else "(" + gen("E", n - 2) + ")"
        if n >= 3 and rng.random() < 0.6:
            a = split(n)
            op, right = ("+", "T") if kind == "E" else ("*", "F")
            return gen(kind, a) + op + gen(right, n - 1 - a)
        return gen("T" if kind == "E" else "F", n)

    return gen("E", n)


def _graph_words(letters: str, max_len: int) -> list[str]:
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in letters]
        words += frontier
    return words


# -- fixtures --------------------------------------------------------------


class Fixtures:
    """Writes catgram objects as JSON files and loads them back through
    ``jsonio``; the ops work on the loaded copies."""

    def __init__(self, mods: SimpleNamespace, workdir: str) -> None:
        self.mods = mods
        self.workdir = workdir
        self.paths: dict[str, str] = {}

    def write(self, name: str, data) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.mods.jsonio.dumps(data))
        self.paths[name] = path
        return path

    def read(self, name: str):
        with open(self.paths[name], encoding="utf-8") as fh:
            return json.load(fh)

    def grammar(self, name: str, grammar):
        self.write(name, self.mods.jsonio.grammar_to_json(grammar))
        return self.mods.jsonio.grammar_from_json(self.read(name))

    def automaton(self, name: str, automaton):
        self.write(name, self.mods.jsonio.automaton_to_json(automaton))
        return self.mods.jsonio.automaton_from_json(self.read(name))

    def species(self, name: str, species):
        self.write(name, self.mods.jsonio.species_to_json(species))
        return self.mods.jsonio.species_from_json(self.read(name))


def expr_grammar(mods):
    g = mods.grammar
    return g.import_classical(*g.parse_classical_text(EXPR_TEXT))


def path_of(grammar, text: str):
    return grammar.category.path(tuple(text), src=grammar.gap_of(grammar.start).left)


# -- parse: long words, then ambiguous forests ----------------------------------

# expr member lengths per pass; long words dominate this half of the pass
EXPR_MEMBER_LENGTHS = (5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39, 41,
                       45, 49, 55, 61, 77, 101)
EXPR_TRAILING_OP_LENGTHS = (9, 21, 41)
EXPR_UNMATCHED_LENGTHS = (11, 25, 51)
AB_DEPTHS = (10, 30, 60, 100)
EPS_DEPTHS = (50, 120, 200)


def _parse_op(mods, grammar, text: str, member: bool, expected: int | float, name: str) -> Op:
    w = path_of(grammar, text)

    def run() -> dict[str, int]:
        p = mods.parser
        colors = p.recognize(grammar, w)
        forest = p.parse_forest(grammar, w)
        count = p.count_parses(forest)
        trees = p.enumerate_parses(forest, 10)
        check((grammar.start in colors) == member, f"{text[:20]}: membership")
        check((forest.root is not None) == member, f"{text[:20]}: forest root")
        check(count == expected, f"{text[:20]}: count {count} != {expected}")
        check(len(trees) == min(10, expected), f"{text[:20]}: {len(trees)} trees")
        check(all(tree_yield(grammar, t) == w.gens for t in trees), f"{text[:20]}: tree yield")
        return _forest_counters(forest, trees)

    return Op(name, run, tokens=len(text), extra=lambda: _chart_items(mods, grammar, w))


def _forest_counters(forest, trees=()) -> dict[str, int]:
    return {
        "parser.forest_items": len(forest.alternatives),
        "parser.alternatives": sum(len(a) for a in forest.alternatives.values()),
        "parser.trees": len(trees),
    }


def _chart_items(mods, grammar, w) -> dict[str, int]:
    return {"parser.items": len(mods.parser.parse_chart(grammar, w))}


def _long_word_ops(mods, fx: Fixtures, rng: random.Random) -> list[Op]:
    """The ``catgram parse`` sequence on long words: the chart dominates."""
    expr = fx.grammar("expr", expr_grammar(mods))
    g_ab = fx.grammar("g_ab", mods.fixtures.G_AB)
    g_eps = fx.grammar("g_eps", mods.fixtures.G_EPS)
    ops = [_parse_op(mods, expr, expr_word(rng, n), True, 1, "parse.expr") for n in EXPR_MEMBER_LENGTHS]
    for n in EXPR_TRAILING_OP_LENGTHS:
        text = expr_word(rng, n) + rng.choice("+*")
        ops.append(_parse_op(mods, expr, text, False, 0, "parse.expr_reject"))
    for n in EXPR_UNMATCHED_LENGTHS:
        text = expr_word(rng, n)
        cut = rng.randrange(len(text) + 1)
        ops.append(_parse_op(mods, expr, text[:cut] + ")" + text[cut:], False, 0, "parse.expr_reject"))
    for n in AB_DEPTHS:
        ops.append(_parse_op(mods, g_ab, "a" * n + "b" * n, True, 1, "parse.ab"))
    n = AB_DEPTHS[1]
    ops.append(_parse_op(mods, g_ab, "a" * n + "b" * (n + 1), False, 0, "parse.ab_reject"))
    ops += [_parse_op(mods, g_eps, "a" * n, True, 1, "parse.eps") for n in EPS_DEPTHS]
    return ops


AMB_FOREST_SIZES = (20, 21, 22, 23, 24, 25, 26, 27, 28, 30, 32, 34, 36, 38, 40, 48, 56, 60)
AMB_ENUM_SIZES = tuple(range(1, 12))
EPS_FOREST_SIZES = (0, 1, 5, 10, 20, 40, 80, 120)


def _amb_forest_op(mods, grammar, n: int) -> Op:
    w = path_of(grammar, "a" * n)

    def run() -> dict[str, int]:
        forest = mods.parser.parse_forest(grammar, w)
        count = mods.parser.count_parses(forest)
        counters = _forest_counters(forest)
        check(count == catalan(n - 1), f"a^{n}: count {count}")
        check(counters["parser.forest_items"] == n * (n + 1) // 2, f"a^{n}: items")
        check(counters["parser.alternatives"] == math.comb(n + 1, 3) + n, f"a^{n}: alternatives")
        return counters

    return Op("forest.amb", run, tokens=n, extra=lambda: _chart_items(mods, grammar, w))


def _enumerate_op(mods, grammar, text: str, expected, sizes, name: str) -> Op:
    """Forest, count and the first ten trees; ``sizes`` is the node count
    of each tree expected, in canonical order."""
    w = path_of(grammar, text)

    def run() -> dict[str, int]:
        forest = mods.parser.parse_forest(grammar, w)
        count = mods.parser.count_parses(forest)
        trees = mods.parser.enumerate_parses(forest, 10)
        check(count == expected, f"{text[:12]}: count {count} != {expected}")
        check([tree_size(t) for t in trees] == list(sizes), f"{text[:12]}: tree sizes")
        check(len(set(trees)) == len(trees), f"{text[:12]}: repeated tree")
        check(all(tree_yield(grammar, t) == w.gens for t in trees), f"{text[:12]}: tree yield")
        return _forest_counters(forest, trees)

    return Op(name, run, tokens=len(text), extra=lambda: _chart_items(mods, grammar, w))


def _eps_forest_op(mods, grammar, n: int) -> Op:
    w = path_of(grammar, "a" * n)

    def run() -> dict[str, int]:
        forest = mods.parser.parse_forest(grammar, w)
        count = mods.parser.count_parses(forest)
        counters = _forest_counters(forest)
        check(count == 1, f"eps a^{n}: count {count}")
        check(counters["parser.forest_items"] == n + 1, f"eps a^{n}: items")
        check(counters["parser.alternatives"] == n + 1, f"eps a^{n}: alternatives")
        return counters

    return Op("forest.eps", run, tokens=n, extra=lambda: _chart_items(mods, grammar, w))


def _ambiguous_ops(mods, fx: Fixtures) -> list[Op]:
    """Forests, counts and enumeration on ambiguous, cyclic and nullable
    grammars: the forest and the count dominate, the chart is cheap."""
    g_amb = fx.grammar("g_amb", mods.fixtures.G_AMB)
    g_unit = fx.grammar("g_unit", mods.fixtures.G_UNIT)
    g_eps = fx.grammar("g_eps", mods.fixtures.G_EPS)
    ops = [_amb_forest_op(mods, g_amb, n) for n in AMB_FOREST_SIZES]
    for n in AMB_ENUM_SIZES:
        k = min(10, catalan(n - 1))
        ops.append(_enumerate_op(mods, g_amb, "a" * n, catalan(n - 1), [2 * n - 1] * k, "enumerate.amb"))
    # a unit cycle: infinitely many parses of "a", one more node each time
    ops.append(_enumerate_op(mods, g_unit, "a", math.inf, range(1, 11), "enumerate.unit"))
    ops.append(_enumerate_op(mods, g_unit, "aa", 0, [], "enumerate.unit"))
    ops += [_eps_forest_op(mods, g_eps, n) for n in EPS_FOREST_SIZES]
    return ops


def setup_parse(mods, seed: int, workdir: str) -> list[Op]:
    fx = Fixtures(mods, workdir)
    rng = random.Random(seed)
    ops = _long_word_ops(mods, fx, rng) + _ambiguous_ops(mods, fx)
    rng.shuffle(ops)
    return ops


# -- verify ------------------------------------------------------------------

AMB_COUNTER_MODULI = (2, 3, 4, 5, 6, 7, 8, 9)
EXPR_COUNTER_MODULI = (2, 3)
AMB_INTERVAL_SIZES = (6, 10, 15, 20, 25, 30)
EXPR_INTERVAL_LENGTHS = (9, 13)
CS_CHECKS = (("g_ab", 8, 4), ("g_ab", 12, 6), ("g_amb", 6, 6), ("g_end", 9, 4),
             ("g_eps", 6, 7), ("g_tern", 8, 1))
TREE_NODES = 6
TREE_BATCHES = 20
TREE_BATCH = 150


def _counter_automaton(mods, graph, k: int, counted: str):
    """States 0..k-1 over the one object; ``counted`` steps i -> i+1 mod k,
    every other letter loops."""
    a = mods.automaton
    states = tuple(a.State(str(i), graph.objects[0]) for i in range(k))
    transitions = tuple(
        a.Transition(f"{g.name}{i}", str(i), str((i + 1) % k if g.name == counted else i), g.name)
        for g in graph.generators
        for i in range(k)
    )
    return a.Automaton(graph, states, transitions, "0", "0")


def _intersect_op(mods, grammar, automaton, max_len: int, name: str, tokens: int = 0,
                  expected_words=None, expected_nodes=None) -> Op:
    """Pullback without trimming, trim, functorial image, then the image's
    bounded language against oracle-words-of-the-grammar filtered by runs
    (or against ``expected_words`` where the oracle language is too big)."""

    def run() -> dict[str, int]:
        raw = mods.product.pullback_grammar(grammar, automaton, trim_useless=False)
        trimmed = mods.product.trim(raw)
        image = mods.grammar.functorial_image(trimmed, automaton.functor)
        got = mods.oracle.enumerate_language(image, max_len)
        words = len(got)
        if expected_words is None:
            base = mods.oracle.enumerate_language(grammar, max_len)
            want = tuple(w for w in base if mods.automaton.run_membership(automaton, w))
            words += len(base)
        else:
            want = expected_words
            check(all(mods.automaton.run_membership(automaton, w) for w in want), f"{name}: run")
        check(got == want, f"{name}: image language differs")
        nodes = len(trimmed.species.nodes)
        if expected_nodes is not None:
            check(nodes == expected_nodes, f"{name}: {nodes} trimmed nodes != {expected_nodes}")
        return {
            "product.nodes_raw": len(raw.species.nodes),
            "product.nodes_trimmed": nodes,
            "oracle.words": words,
        }

    return Op(name, run, tokens=tokens)


def _cs_op(mods, grammar, max_len: int, expected: int) -> Op:
    def run() -> dict[str, int]:
        mods.contour.cs_decompose(grammar)
        equal, lhs, rhs = mods.contour.cs_check(grammar, max_len)
        check(equal and lhs == rhs, "decomposition contract fails")
        check(len(lhs) == expected, f"{len(lhs)} words != {expected}")
        return {"oracle.words": len(lhs) + len(rhs)}

    return Op("cs_check", run)


def _equiv_op(mods, g1, g2, max_len: int) -> Op:
    letters = len(g1.category.generators)
    words = sum(letters**i for i in range(max_len + 1))

    def run() -> dict[str, int]:
        found = mods.grammar.check_equiv_bounded(g1, g2, max_len)
        check(found is None, f"counterexample {found}")
        return {"grammar.check_equiv_words": words}

    return Op("check_equiv", run)


def _trees_op(mods, species, max_nodes: int) -> Op:
    expected = count_trees(species, max_nodes)

    def run() -> dict[str, int]:
        trees = mods.species.enumerate_closed_trees(species, species.colors[0], max_nodes)
        check(len(trees) == expected, f"{len(trees)} trees != {expected}")
        return {"species.trees": len(trees)}

    return Op("species.trees", run)


def _roundtrip_op(mods, species, trees) -> Op:
    """Contour word, Dyck encoding and decoding of each tree."""
    walks = [contour_walk(t) for t in trees]

    def run() -> dict[str, int]:
        c = mods.contour
        letters = 0
        for tree, walk in zip(trees, walks):
            cw = c.contour_word(species, tree)
            check(list(cw.gens) == walk, "contour word differs from the walk")
            encoded = c.dyck_translate(species, cw)
            check(len(encoded) == 2 * len(walk), "Dyck word length")
            check(c.dyck_decode(species, encoded) == cw, "Dyck round trip")
            letters += len(encoded)
        return {"contour.letters": letters}

    return Op("contour.roundtrip", run, tokens=sum(len(w) for w in walks))


def setup_verify(mods, seed: int, workdir: str) -> list[Op]:
    fx = Fixtures(mods, workdir)
    f = mods.fixtures
    rng = random.Random(seed)
    g = {name: fx.grammar(name, getattr(f, name.upper()))
         for name in ("g_ab", "g_amb", "g_end", "g_eps", "g_tern")}
    expr = fx.grammar("expr", expr_grammar(mods))
    ops = []
    for k in AMB_COUNTER_MODULI:
        auto = fx.automaton(f"mod{k}", _counter_automaton(mods, g["g_amb"].category, k, "a"))
        ops.append(_intersect_op(mods, g["g_amb"], auto, 2 * k + 2, "intersect.counter"))
    for k in EXPR_COUNTER_MODULI:
        auto = fx.automaton(f"expr_mod{k}", _counter_automaton(mods, expr.category, k, "x"))
        ops.append(_intersect_op(mods, expr, auto, 7, "intersect.counter"))
    for n in AMB_INTERVAL_SIZES:
        w = path_of(g["g_amb"], "a" * n)
        auto = mods.automaton.interval_automaton(g["g_amb"].category, w)
        ops.append(_intersect_op(mods, g["g_amb"], auto, n, "intersect.interval", n, (w,),
                                 math.comb(n + 1, 3) + n))
    for n in EXPR_INTERVAL_LENGTHS:
        w = path_of(expr, expr_word(rng, n))
        auto = mods.automaton.interval_automaton(expr.category, w)
        # reference: the packed forest has one alternative per trimmed node
        forest = mods.parser.parse_forest(expr, w)
        alternatives = sum(len(a) for a in forest.alternatives.values())
        ops.append(_intersect_op(mods, expr, auto, n, "intersect.interval", n, (w,), alternatives))
    # classical automata imported across the end marker, against G_END
    classical = {
        "even_a": (["e", "o"], [("e", "a", "o"), ("o", "a", "e"), ("e", "b", "e"), ("o", "b", "o")],
                   "e", ["e"]),
        "a_mod3": (["0", "1", "2"], [(str(i), "a", str((i + 1) % 3)) for i in range(3)]
                   + [(str(i), "b", str(i)) for i in range(3)], "0", ["0"]),
        "a_star_b_star": (["p", "q"], [("p", "a", "p"), ("p", "b", "q"), ("q", "b", "q")],
                          "p", ["p", "q"]),
    }
    for name, (states, delta, q0, finals) in classical.items():
        auto = fx.automaton(name, mods.automaton.import_classical("ab", states, delta, q0, finals))
        ops.append(_intersect_op(mods, g["g_end"], auto, 13, "intersect.end_marker"))
    ops += [_cs_op(mods, g[name], bound, expected) for name, bound, expected in CS_CHECKS]
    ops.append(_equiv_op(mods, expr, mods.grammar.bilinearize(expr), 4))
    ops.append(_equiv_op(mods, g["g_tern"], mods.grammar.bilinearize(g["g_tern"]), 7))
    species = fx.species("fig3", f.SPC_FIG3)
    ops.append(_trees_op(mods, species, TREE_NODES))
    trees = mods.species.enumerate_closed_trees(species, species.colors[0], TREE_NODES)
    sample = rng.sample(trees, TREE_BATCHES * TREE_BATCH)
    for i in range(TREE_BATCHES):
        ops.append(_roundtrip_op(mods, species, sample[i * TREE_BATCH:(i + 1) * TREE_BATCH]))
    rng.shuffle(ops)
    return ops


# -- cli ---------------------------------------------------------------------

# two hash seeds per subcommand: stdout must be byte-identical under both
HASH_SEEDS = ("0", "4242")
CLI_EXPR_WORDS = (7, 15, 23)


def cli_env(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def run_cli(args: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "catgram.cli", *args],
        cwd=ROOT,
        env=cli_env(hash_seed),
        capture_output=True,
        timeout=120,
    )


def _json_out(res, code: int) -> dict:
    check(res.returncode == code, f"exit {res.returncode} != {code}: {res.stderr[-200:]!r}")
    return json.loads(res.stdout)


def _cli_cases(mods, fx: Fixtures, rng: random.Random) -> list[tuple[str, list[str], object, int]]:
    """(name, argv, check(res) -> counters, tokens) per subcommand case."""
    f = mods.fixtures
    jsonio = mods.jsonio
    p = fx.paths
    fx.grammar("expr", expr_grammar(mods))
    for name in ("g_ab", "g_amb", "g_tern"):
        fx.grammar(name, getattr(f, name.upper()))
    fx.grammar("g_tern_bin", mods.grammar.bilinearize(f.G_TERN))
    # a^n b^n for n >= 2, written out by rule, so check-equiv finds "ab"
    fx.grammar("g_ab2", mods.grammar.grammar_from_rules(
        f.GRAPH_AB, "S", {"S": ("*", "*")},
        [("r1", "S", ("S",), (("a",), ("b",))), ("r0", "S", (), (("a", "a", "b", "b"),))]))
    fx.automaton("m_evena", f.M_EVENA)
    species = fx.species("fig3", f.SPC_FIG3)
    trees = mods.species.enumerate_closed_trees(species, "1", 6)
    tree = rng.choice([t for t in trees if tree_size(t) == 6])
    fx.write("tree", jsonio.tree_to_json(tree))
    walk = contour_walk(tree)
    letters = dyck_letters(species, walk)
    fx.write("contour", walk)
    fx.write("letters", letters)
    bad = os.path.join(fx.workdir, "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write('{"category": ')

    def canonical(res) -> None:
        check(res.stdout.decode() == jsonio.dumps(json.loads(res.stdout)), "stdout is not canonical")

    def parse_case(text: str, member: bool, count: int, parses: int):
        def run(res):
            out = _json_out(res, 0)
            canonical(res)
            check(out["member"] is member and out["count"] == count, f"parse {text[:12]}: {out['count']}")
            check(len(out["parses"]) == parses, "parse: tree count")
            return {}
        return run

    def words_case(words: list[str]):
        def run(res):
            out = _json_out(res, 0)
            canonical(res)
            check(out["words"] == words, "enumerate: words differ")
            return {"oracle.words": len(words)}
        return run

    def language_case(max_len: int, words: list[str], binary: bool = False):
        """A grammar on stdout whose bounded language, by the oracle, is
        known; ``binary`` also asks for node arities of at most two."""
        def run(res):
            canonical(res)
            grammar = jsonio.grammar_from_json(_json_out(res, 0))
            check(not binary or all(n.arity <= 2 for n in grammar.species.nodes), "arity > 2")
            got = ["".join(w.gens) for w in mods.oracle.enumerate_language(grammar, max_len)]
            check(got == words, "grammar output: language differs")
            return {"oracle.words": len(got)}
        return run

    def pullback_case(res):
        canonical(res)
        grammar = jsonio.grammar_from_json(_json_out(res, 0))
        check(set(grammar.category.objects) == {"e", "o"}, "pullback objects")
        return {}

    def payload_case(code: int, want: dict):
        def run(res):
            out = _json_out(res, code)
            canonical(res)
            check({k: out.get(k) for k in want} == want, f"payload {out!r:.120}")
            return {}
        return run

    def error_case(res):
        check(res.returncode == 2 and res.stdout == b"", f"exit {res.returncode}, want 2")
        check(res.stderr.startswith(b"error: "), "error message")
        return {}

    def even_a(max_len: int) -> list[str]:
        words = [w for w in _graph_words("ab", max_len) if w.count("a") % 2 == 0]
        return sorted(words, key=lambda w: (len(w), w))

    cases = []
    for n in CLI_EXPR_WORDS:
        text = expr_word(rng, n)
        cases.append(("parse", ["parse", "-g", p["expr"], "-w", text], parse_case(text, True, 1, 1), n))
    text = expr_word(rng, 13) + "+"
    cases.append(("parse", ["parse", "-g", p["expr"], "-w", text], parse_case(text, False, 0, 0), 14))
    n = 7
    cases.append(("parse", ["parse", "-g", p["g_amb"], "-w", "a" * n],
                  parse_case("a" * n, True, catalan(n - 1), 10), n))
    n = 20
    cases.append(("parse", ["parse", "-g", p["g_ab"], "-w", "a" * n + "b" * n],
                  parse_case("a" * n, True, 1, 1), 2 * n))
    cases.append(("parse", ["parse", "-g", p["g_ab"], "-w", "abz"], error_case, 3))
    cases.append(("enumerate", ["enumerate", "-g", p["g_ab"], "--max-len", "10"],
                  words_case(["a" * i + "b" * i for i in range(1, 6)]), 0))
    cases.append(("enumerate", ["enumerate", "-m", p["m_evena"], "--max-len", "5"],
                  words_case(even_a(5)), 0))
    cases.append(("intersect", ["intersect", "-g", p["g_ab"], "-m", p["m_evena"]],
                  language_case(12, ["a" * i + "b" * i for i in (2, 4, 6)]), 0))
    cases.append(("intersect", ["intersect", "-g", p["g_ab"], "-m", p["m_evena"], "--emit", "pullback"],
                  pullback_case, 0))
    cases.append(("bilinearize", ["bilinearize", "-g", p["g_tern"]],
                  language_case(8, ["aabababb"], binary=True), 0))
    cases.append(("check-equiv", ["check-equiv", "-g1", p["g_tern"], "-g2", p["g_tern_bin"], "--max-len", "6"],
                  payload_case(0, {"equal": True, "counterexample": None}), 0))
    cases.append(("check-equiv", ["check-equiv", "-g1", p["g_ab"], "-g2", p["g_ab2"], "--max-len", "8"],
                  payload_case(1, {"equal": False, "counterexample": "ab"}), 0))
    cases.append(("contour", ["contour", "-s", p["fig3"], "-t", p["tree"]],
                  payload_case(0, {"contour": walk}), 0))
    cases.append(("dyck", ["dyck", "--encode", "-s", p["fig3"], "-i", p["contour"]],
                  payload_case(0, {"letters": letters,
                                   "brackets": "".join(l["bracket"] for l in letters)}), len(walk)))
    cases.append(("dyck", ["dyck", "--decode", "-s", p["fig3"], "-i", p["letters"]],
                  payload_case(0, {"contour": walk}), len(letters)))
    cases.append(("cs-decompose", ["cs-decompose", "-g", p["g_ab"], "--check-bound", "8"],
                  payload_case(0, {"check": {"bound": 8, "equal": True}}), 0))
    cases.append(("validate", ["validate", "-g", p["g_ab"]],
                  payload_case(0, {"ok": True, "problems": []}), 0))
    cases.append(("validate", ["validate", "-g", bad], error_case, 0))
    return cases


def setup_cli(mods, seed: int, workdir: str) -> list[Op]:
    fx = Fixtures(mods, workdir)
    rng = random.Random(seed)
    cases = _cli_cases(mods, fx, rng)
    first_stdout: dict[int, bytes] = {}
    ops = []
    for index, (name, argv, verify, tokens) in enumerate(cases):
        for hash_seed in HASH_SEEDS:

            def run(index=index, argv=argv, verify=verify, hash_seed=hash_seed) -> dict[str, int]:
                res = run_cli(argv, hash_seed)
                if hash_seed == HASH_SEEDS[0]:
                    first_stdout[index] = res.stdout
                else:
                    check(res.stdout == first_stdout.get(index), "stdout differs across hash seeds")
                return verify(res)

            ops.append(Op("cli." + name, run, tokens=tokens))
    # warm the page cache and the bytecode cache for the subprocesses
    run_cli(["validate", "-g", fx.paths["g_ab"]], HASH_SEEDS[0])
    return ops


def cli_import_ms(repeats: int = 5) -> float:
    """Median over ``repeats`` pairs of a process importing catgram.cli
    minus a bare interpreter, in milliseconds."""

    def elapsed(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(HASH_SEEDS[0]),
                       check=True, capture_output=True, timeout=60)
        return time.perf_counter() - t0

    return 1000 * statistics.median(elapsed("import catgram.cli") - elapsed("pass") for _ in range(repeats))


WORKLOADS = {
    "parse": setup_parse,
    "verify": setup_verify,
    "cli": setup_cli,
}
