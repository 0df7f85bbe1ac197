"""Tree code does not depend on the interpreter's recursion limit."""

import ast
import itertools
import math
import pathlib
import random

import catgram
from catgram import (
    contour_word,
    count_parses,
    enumerate_parses,
    eval_tree,
    identity_species_map,
    leaf_colors,
    node_count,
    parse_forest,
    word,
)
from catgram.fixtures import G_AB, G_AMB, G_END, G_EPS, G_TERN, G_UNIT
from catgram.freecat import Path
from catgram.jsonio import tree_to_json
from catgram.oracle import _combos
from catgram.species import Apply, Leaf, Node, _splits, fold, preorder_names
from test_species import _open_trees

N = 5000


def test_deep_chain_parses_enumerates_and_walks():
    w = word(G_AB.category, "a" * N + "b" * N)
    forest = parse_forest(G_AB, w)
    assert count_parses(forest) == 1
    (tree,) = enumerate_parses(forest, 10)
    assert node_count(tree) == N
    assert preorder_names(tree) == ("r1",) * (N - 1) + ("r0",)
    assert eval_tree(G_AB, tree).as_path() == w
    assert len(contour_word(G_AB.species, tree).gens) == 2 * N - 1
    assert leaf_colors(tree) == ()
    image = identity_species_map(G_AB.species).apply_tree(tree)
    assert preorder_names(image) == preorder_names(tree)
    data = tree_to_json(tree)
    for _ in range(N - 1):
        assert data["rule"] == "r1"
        (data,) = data["children"]
    assert data == {"rule": "r0", "children": []}


def test_deep_trees_compare_and_hash_equal():
    w = word(G_AB.category, "a" * N + "b" * N)
    (t1,) = enumerate_parses(parse_forest(G_AB, w), 10)
    (t2,) = enumerate_parses(parse_forest(G_AB, w), 10)
    assert t1 is not t2
    assert t1 == t2 and hash(t1) == hash(t2)
    shorter = word(G_AB.category, "a" * (N - 1) + "b" * (N - 1))
    (shorter,) = enumerate_parses(parse_forest(G_AB, shorter), 10)
    assert t1 != shorter and shorter != t1


def _copy(tree, fresh_nodes=False):
    """An equal tree built from scratch, optionally from equal but
    distinct ``Node`` objects."""

    def node(n):
        return Node(n.name, n.inputs, n.output) if fresh_nodes else n

    return fold(tree, lambda leaf: Leaf(leaf.color), lambda t, kids: Apply(node(t.node), kids))


def _fields(tree):
    """The class and the fields, down to the leaves, as plain tuples: field
    by field equality that never calls a tree's own ``==``."""
    if isinstance(tree, Leaf):
        return Leaf, tuple(tree)
    return Apply, tuple(tree.node), tuple(map(_fields, tree.children))


def test_tree_equality_agrees_with_field_equality():
    # every open and closed tree with up to 6 nodes over the fixture grammars;
    # all pairs up to 5 nodes, a seeded sample of pairs with 6
    rng = random.Random(5)
    for grammar in (G_AB, G_AMB, G_END, G_EPS, G_TERN, G_UNIT):
        trees = [t for c in grammar.species.colors for t in _open_trees(grammar.species, c, 6)]
        for t in trees:
            for copy in (_copy(t), _copy(t, fresh_nodes=True)):
                assert t == copy and copy == t and hash(t) == hash(copy)
        fields = [_fields(t) for t in trees]
        small = [i for i, t in enumerate(trees) if node_count(t) <= 5]
        pairs = list(itertools.product(small, small))
        pairs += [(rng.randrange(len(trees)), rng.randrange(len(trees))) for _ in range(5000)]
        for i, j in pairs:
            assert (trees[i] == trees[j]) == (fields[i] == fields[j]) != (trees[i] != trees[j])


def test_tree_equality_compares_whole_nodes():
    # same node name, different typing: not equal, as before
    assert Apply(Node("x", (), "S")) != Apply(Node("x", (), "T"))
    unary_s = Apply(Node("u", ("S",), "S"), (Leaf("S"),))
    assert unary_s != Apply(Node("u", ("T",), "S"), (Leaf("T"),))
    assert Leaf("S") != Apply(Node("x", (), "S"))


class _Verbatim(str):
    """A string whose repr is itself, so a tuple of them reprs like the
    tuple of the objects they render."""

    def __repr__(self):
        return str(self)


def _reference_repr(tree):
    """The named-tuple repr, recursively: the class name, then each field as
    ``name=repr(value)``, children through the builtin tuple repr."""
    if isinstance(tree, Leaf):
        return repr(tree)
    fields = {
        "node": repr(tree.node),
        "children": repr(tuple(_Verbatim(_reference_repr(c)) for c in tree.children)),
    }
    assert tuple(fields) == Apply._fields
    return f"Apply({', '.join(f'{k}={v}' for k, v in fields.items())})"


def test_tree_repr_is_the_named_tuple_repr():
    # every open and closed tree with up to 6 nodes over the fixture grammars
    arities = set()
    for grammar in (G_AB, G_AMB, G_END, G_EPS, G_TERN, G_UNIT):
        arities.update(n.arity for n in grammar.species.nodes)
        for c in grammar.species.colors:
            for t in _open_trees(grammar.species, c, 6):
                assert repr(t) == _reference_repr(t)
    assert arities == {0, 1, 2, 3}
    assert repr(Apply(Node("u", ("S",), "S"), (Leaf("S"),))) == (
        "Apply(node=Node(name='u', inputs=('S',), output='S'), children=(Leaf(color='S'),))"
    )


def test_deep_tree_repr():
    n = 2000
    (tree,) = enumerate_parses(parse_forest(G_AB, word(G_AB.category, "a" * n + "b" * n)), 10)
    r1, r0 = (repr(G_AB.species.node_by_name[name]) for name in ("r1", "r0"))
    assert repr(tree) == (
        f"Apply(node={r1}, children=(" * (n - 1)
        + f"Apply(node={r0}, children=())"
        + ",))" * (n - 1)
    )


def test_nullable_chain_enumerates():
    w = word(G_EPS.category, "a" * N)
    forest = parse_forest(G_EPS, w)
    assert count_parses(forest) == 1
    (tree,) = enumerate_parses(forest, 10)
    assert preorder_names(tree) == ("w",) * N + ("z",)
    assert eval_tree(G_EPS, tree).as_path() == w


def test_wide_splits_and_combos():
    # one part per input of a node with 1100 inputs
    k = 1100
    assert list(_splits(k, [(1, math.inf)] * k)) == [(1,) * k]
    sizes = [(0, 1)] + [(0, 0)] * (k - 2) + [(0, 1)]
    assert list(_splits(1, sizes)) == [(0,) * (k - 1) + (1,), (1,) + (0,) * (k - 1)]
    empty, a = Path("*", "*", ()), Path("*", "*", ("a",))
    assert list(_combos([[a, empty]] * k, 0)) == [(empty,) * k]
    pools = [[empty, a]] + [[empty]] * (k - 2) + [[empty, a]]
    assert list(_combos(pools, 1)) == [
        (empty,) * k,
        (empty,) * (k - 1) + (a,),
        (a,) + (empty,) * (k - 1),
    ]


def test_splits_and_combos_against_products():
    # every tuple of the product of the parts' ranges, or of the pools, that
    # fits, in the product's order
    rng = random.Random(5)
    for _ in range(300):
        sizes = [(lo, lo + rng.randint(-1, 3)) for lo in rng.choices(range(3), k=rng.randint(0, 4))]
        sizes += rng.sample([(math.inf, 0), (1, math.inf)], rng.randint(0, 1))
        total = rng.randint(0, 10)
        ranges = [range(min(lo, total + 1), min(hi, total) + 1) for lo, hi in sizes]
        want = [split for split in itertools.product(*ranges) if sum(split) == total]
        assert list(_splits(total, sizes)) == want, (total, sizes)
        pools = [
            [Path("*", "*", ("a",) * rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(0, 4))
        ]
        budget = rng.randint(0, 6)
        want = [c for c in itertools.product(*pools) if sum(len(w.gens) for w in c) <= budget]
        assert list(_combos(pools, budget)) == want


def _self_referencing_functions(source: pathlib.Path) -> list[str]:
    """Functions whose body names themselves (``f`` or ``self.f``)."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = [n for stmt in child.body for n in ast.walk(stmt)]
                if any(
                    (isinstance(n, ast.Name) and n.id == child.name)
                    or (
                        isinstance(n, ast.Attribute)
                        and n.attr == child.name
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self"
                    )
                    for n in body
                ):
                    found.append(f"{source.stem}.{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source.read_text(encoding="utf-8")), "")
    return found


def test_only_shallow_recursion_remains():
    package = pathlib.Path(catgram.__file__).parent
    found = [f for path in sorted(package.glob("*.py")) for f in _self_referencing_functions(path)]
    assert sorted(found) == [
        "jsonio.tree_from_json",  # json.load limits the nesting first
    ]


def _imported_modules(source: pathlib.Path) -> set[str]:
    """Absolute names of everything a package module imports, function-local
    imports included: ``from .parser import x`` gives ``catgram.parser`` and
    ``catgram.parser.x``, ``from . import parser`` gives ``catgram.parser``."""
    found = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("catgram" if node.level else "", node.module)))
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return found


def test_only_the_cli_and_the_package_import_the_parser():
    package = pathlib.Path(catgram.__file__).parent
    importers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if "catgram.parser" in _imported_modules(path)
    ]
    assert importers == ["cli.py"]
