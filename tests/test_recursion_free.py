"""Tree code does not depend on the interpreter's recursion limit.

Deep trees are compared by preorder, not ``==``: dataclass equality and
hashing of nested ``Apply`` values still recurse once per level.
"""

import ast
import pathlib

import catgram
from catgram import (
    contour_word,
    count_parses,
    enumerate_parses,
    eval_tree,
    identity_species_map,
    is_closed,
    leaf_colors,
    node_count,
    parse_forest,
    word,
)
from catgram.fixtures import G_AB, G_EPS
from catgram.jsonio import tree_to_json
from catgram.species import preorder_names

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
    assert is_closed(tree)
    image = identity_species_map(G_AB.species).apply_tree(tree)
    assert preorder_names(image) == preorder_names(tree)
    data = tree_to_json(tree)
    for _ in range(N - 1):
        assert data["rule"] == "r1"
        (data,) = data["children"]
    assert data == {"rule": "r0", "children": []}


def test_nullable_chain_enumerates():
    forest = parse_forest(G_EPS, word(G_EPS.category, "a" * 600))
    (tree,) = enumerate_parses(forest, 10)
    assert preorder_names(tree) == ("w",) * 600 + ("z",)


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
        "oracle._combos",  # depth is a node's arity
        "species._splits",  # depth is a node's arity
    ]
