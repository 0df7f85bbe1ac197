import pickle
import re

import pytest
from hypothesis import example, given, strategies as st

from catgram import (
    Apply,
    CompositionError,
    InputError,
    Leaf,
    Node,
    Species,
    SpeciesMap,
    enumerate_closed_trees,
    identity_species_map,
    leaf_colors,
    node_count,
    root_color,
    tree_substitute,
)
from catgram.species import derivable, tree_key
from catgram.fixtures import G_AB, G_AMB
from conftest import outcome

AB_SPECIES = G_AB.species
AMB_SPECIES = G_AMB.species
R0 = AB_SPECIES.node_by_name["r0"]
R1 = AB_SPECIES.node_by_name["r1"]
C = AMB_SPECIES.node_by_name["c"]
M = AMB_SPECIES.node_by_name["m"]


def test_species_rejects_bad_data():
    with pytest.raises(InputError):
        Species(colors=("S", "S"))
    with pytest.raises(InputError):
        Species(colors=("S",), nodes=(Node("x", ("T",), "S"),))
    with pytest.raises(InputError):
        Species(colors=("S",), nodes=(Node("x", (), "S"), Node("x", (), "S")))


@pytest.mark.parametrize(
    "nodes, expected",
    [
        ((Node("x", ("T",), "S"),), "node 'x' references undeclared color 'T'"),
        # a node's output is checked before its inputs, inputs in order
        ((Node("x", ("T", "U"), "V"),), "node 'x' references undeclared color 'V'"),
        ((Node("x", ("S", "U", "T"), "S"),), "node 'x' references undeclared color 'U'"),
        # and nodes in declaration order
        (
            (Node("a", ("S",), "S"), Node("b", ("S", "T"), "S"), Node("c", (), "U")),
            "node 'b' references undeclared color 'T'",
        ),
    ],
    ids=["input", "output-first", "inputs-in-order", "nodes-in-order"],
)
def test_species_names_the_first_undeclared_color(nodes, expected):
    assert outcome(lambda: Species(("S",), nodes)) == f"InputError: {expected}"


def test_species_hash_is_the_hash_of_its_fields_and_is_not_pickled():
    species = Species(AMB_SPECIES.colors, AMB_SPECIES.nodes)
    assert species == AMB_SPECIES and species is not AMB_SPECIES
    assert hash(species) == hash(AMB_SPECIES) == hash((species.colors, species.nodes))
    copy = pickle.loads(pickle.dumps(species))
    assert "_hash" in vars(species) and "_hash" not in vars(copy)
    assert copy == species and hash(copy) == hash(species)


def test_apply_checks_arity_and_colors():
    with pytest.raises(CompositionError):
        Apply(R1, ())
    with pytest.raises(CompositionError):
        Apply(R0, (Leaf("S"),))
    two_color = Species(
        colors=("S", "T"), nodes=(Node("x", ("T",), "S"), Node("t", (), "T"))
    )
    with pytest.raises(CompositionError):
        Apply(two_color.node_by_name["x"], (Leaf("S"),))


def test_validate_identity_map_ok():
    identity = identity_species_map(AB_SPECIES)
    assert identity._replace() == identity
    # the unit law: the identity map leaves every tree as it is
    for t in enumerate_closed_trees(AB_SPECIES, "S", 4) + (Apply(R1, (Leaf("S"),)),):
        assert identity.apply_tree(t) == t


def test_validate_reports_arity_mismatch():
    fields = (AMB_SPECIES, AB_SPECIES, {"S": "S"}, {"c": "r0", "m": "r1"})
    message = "node 'm': image 'r1' has type ('S',) -> 'S', expected ('S', 'S') -> 'S'"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        SpeciesMap(*fields)


def test_substitute_into_leaf_is_identity_law():
    t = Apply(R0, ())
    assert tree_substitute(Leaf("S"), 0, t) == t


def test_substitute_leaf_is_unit_law():
    t = Apply(R1, (Leaf("S"),))
    assert tree_substitute(t, 0, Leaf("S")) == t


def test_substitute_builds_nested_tree():
    assert tree_substitute(Apply(R1, (Leaf("S"),)), 0, Apply(R0, ())) == Apply(
        R1, (Apply(R0, ()),)
    )


def test_substitute_errors():
    with pytest.raises(CompositionError):
        tree_substitute(Apply(R0, ()), 0, Leaf("S"))
    two_color = Species(
        colors=("S", "T"), nodes=(Node("x", ("T",), "S"), Node("t", (), "T"))
    )
    with pytest.raises(CompositionError):
        tree_substitute(Apply(two_color.node_by_name["x"], (Leaf("T"),)), 0, Leaf("S"))


def _open_trees(species, color, max_nodes):
    """Everything with at most max_nodes nodes, free leaves included."""
    out = [Leaf(color)]
    if max_nodes == 0:
        return out
    for node in species.nodes_into[color]:
        if node.arity == 0:
            out.append(Apply(node, ()))
            continue

        def fill(i, left, acc):
            if i == node.arity:
                out.append(Apply(node, tuple(acc)))
                return
            for child in _open_trees(species, node.inputs[i], left):
                fill(i + 1, left - node_count(child), acc + [child])

        fill(0, max_nodes - 1, [])
    return out


def test_substitution_associativity_exhaustive():
    # (t oi s) oj r against the reindexed alternatives, all trees <= 3 nodes
    trees = [t for t in _open_trees(AMB_SPECIES, "S", 3)]
    small = [t for t in trees if node_count(t) <= 2]
    for t in small:
        lt = len(leaf_colors(t))
        for i in range(lt):
            for s in small:
                ts = tree_substitute(t, i, s)
                ls = len(leaf_colors(s))
                for j in range(len(leaf_colors(ts))):
                    for r in small:
                        lhs = tree_substitute(ts, j, r)
                        if i <= j < i + ls:
                            rhs = tree_substitute(t, i, tree_substitute(s, j - i, r))
                        elif j < i:
                            rhs = tree_substitute(
                                tree_substitute(t, j, r),
                                i + len(leaf_colors(r)) - 1,
                                s,
                            )
                        else:
                            rhs = tree_substitute(
                                tree_substitute(t, j - ls + 1, r), i, s
                            )
                        assert lhs == rhs


@st.composite
def amb_trees(draw, max_depth=4):
    def build(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from((Leaf("S"), Apply(C, ()))))
        return Apply(M, (build(depth - 1), build(depth - 1)))

    return build(max_depth)


@given(t=amb_trees(), s=amb_trees())
def test_substitute_leaf_count_law(t, s):
    leaves = leaf_colors(t)
    if not leaves:
        return
    grafted = tree_substitute(t, 0, s)
    assert len(leaf_colors(grafted)) == len(leaves) - 1 + len(leaf_colors(s))
    assert node_count(grafted) == node_count(t) + node_count(s)


def test_enumerate_closed_trees_g_ab():
    got = enumerate_closed_trees(AB_SPECIES, "S", 2)
    assert got == (Apply(R0, ()), Apply(R1, (Apply(R0, ()),)))


def test_enumerate_closed_trees_no_nullary():
    species = Species(colors=("S",), nodes=(Node("x", ("S",), "S"),))
    assert enumerate_closed_trees(species, "S", 6) == ()


def test_enumerate_closed_trees_catalan_counts():
    # closed trees with n leaves labelled c have Catalan(n-1) shapes
    trees = enumerate_closed_trees(AMB_SPECIES, "S", 5)
    by_length = {}
    for t in trees:
        n = sum(1 for name in _preorder(t) if name == "c")
        by_length[n] = by_length.get(n, 0) + 1
    assert by_length[1] == 1 and by_length[2] == 1 and by_length[3] == 2


def _preorder(t):
    if isinstance(t, Leaf):
        return []
    out = [t.node.name]
    for c in t.children:
        out.extend(_preorder(c))
    return out


def test_enumeration_matches_grafting_oracle():
    # independent route: grow trees top-down by grafting and deduplicate
    for species, color in ((AB_SPECIES, "S"), (AMB_SPECIES, "S")):
        budget = 5
        oracle = {
            t
            for t in _open_trees(species, color, budget)
            if not leaf_colors(t) and node_count(t) <= budget
        }
        got = enumerate_closed_trees(species, color, budget)
        assert len(got) == len(set(got))
        assert set(got) == oracle


def test_enumeration_canonical_order():
    got = enumerate_closed_trees(AMB_SPECIES, "S", 5)
    assert list(got) == sorted(got, key=tree_key)


def test_root_and_closed_queries():
    t = Apply(R1, (Leaf("S"),))
    assert root_color(t) == "S"
    assert leaf_colors(t)
    assert not leaf_colors(tree_substitute(t, 0, Apply(R0, ())))


def _derivable_by_sweep(edges):
    """The reference fixed point: sweep every edge until nothing changes.
    The edges that fire are those whose tails all hold."""
    held = set()
    changed = True
    while changed:
        changed = False
        for tails, head in edges:
            if head not in held and all(t in held for t in tails):
                held.add(head)
                changed = True
    return held, [all(t in held for t in tails) for tails, _ in edges]


VERTICES = st.integers(0, 7)
# a wide edge into -1 whose distinct tails 0..9 come to hold in reverse
# order, down a chain from 9: it waits on tail 0 to the last, then scans
# past the other nine at once, and a second wide edge, with its tails in
# the order they hold, is woken once by each
WIDE = [((k + 1,), k) for k in range(9)] + [((), 9), (tuple(range(10)), -1)]
WIDE += [(tuple(range(9, -1, -1)), -2)]


@pytest.mark.deep
@given(st.lists(st.tuples(st.lists(VERTICES, max_size=4), VERTICES), max_size=16))
@example(WIDE)
@example(WIDE[:-2] + [((0, 10), -1)])  # its last tail never holds
def test_derivable_agrees_with_the_sweep(edges):
    # empty tails start the closure; tails repeat within an edge and across
    # edges, and a head is often a tail of its own edge
    want = _derivable_by_sweep(edges)
    assert derivable(edges) == want
    # callers pass generators, which can be read only once
    assert derivable(iter(edges)) == want


@pytest.mark.deep
def test_derivable_counts_each_tail_occurrence():
    assert derivable([((), 1), ((1, 1), 2), ((2, 3, 2), 4)]) == ({1, 2}, [True, True, False])
    assert derivable([((), 1), ((1, 1), 2), ((2, 2), 3), ((3,), 3)]) == (
        {1, 2, 3},
        [True, True, True, True],
    )
    assert derivable([((0,), 0)]) == (set(), [False])
    # a chain given in descending order: one sweep per link, one step each
    chain = [((k + 1,), k) for k in range(400)] + [((), 400)]
    assert derivable(chain) == _derivable_by_sweep(chain) == (set(range(401)), [True] * 401)


# -- branches no other test takes -------------------------------------------


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: SpeciesMap(Species(("S",)), Species(("S",)), {"S": "T"}, {}),
            "InputError: color 'S' mapped to undeclared color 'T'",
        ),
        (
            lambda: SpeciesMap(AMB_SPECIES, AMB_SPECIES, {"S": "S"}, {"c": "c", "m": "z"}),
            "InputError: node 'm' mapped to undeclared node 'z'",
        ),
        (
            lambda: SpeciesMap(AMB_SPECIES, AMB_SPECIES, {"S": "S"}, {"c": "c"}),
            "InputError: node 'm' missing from node map",
        ),
        (
            lambda: enumerate_closed_trees(AB_SPECIES, "S", 0),
            "InputError: max_nodes must be at least 1",
        ),
        (lambda: enumerate_closed_trees(AB_SPECIES, "T", 1), "InputError: unknown color 'T'"),
    ],
    ids=["undeclared-color", "undeclared-node", "missing-node", "no-nodes", "unknown-color"],
)
def test_rarely_taken_branches(call, expected):
    assert outcome(call) == expected
