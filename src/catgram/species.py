"""Colored non-symmetric species and their free operads.

A species is bare generating data: nodes with a list of input colors and one
output color.  The free operad on a species has derivation trees as its
operations; composition is grafting a tree into a free leaf.  Trees keep
explicit ``Leaf`` colors so that open (partially applied) operations exist.
Tree functions read one iterative contour walk (``walk``: a node on entry
and after each child, as in the paper's contour word) or bottom-up ``fold``
over it, so none depends on the interpreter's recursion limit.

A species is also a hypergraph: colors are vertices and each node is an
edge from its inputs to its output.  A packed forest is the same kind of
object, with items as vertices and alternatives as edges.  The last section
holds the fixed points both share: ``derivable`` (the vertices with a
closed tree below them and the edges that fire, read off any edge list in
linear time; it also gives the lifting kernel's anchors and ``trim``'s
usable nodes) and ``trees_by_size`` (the first trees at a vertex with
exactly k nodes, in canonical order, at a cost bounded by how many are
asked for).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar, Union

from .errors import Checked, CompositionError, InputError, duplicate


class Node(NamedTuple):
    """A generating operation: input colors in order, one output color."""

    name: str
    inputs: tuple[str, ...]
    output: str

    @property
    def arity(self) -> int:
        return len(self.inputs)


# a node's name, inputs and output, read in C
_name, _inputs, _output = map(operator.itemgetter, range(3))


class Species(Checked, namedtuple("Species", "colors nodes")):
    def __new__(cls, colors: tuple[str, ...], nodes: tuple[Node, ...] = ()) -> Species:
        declared = set(colors)
        if len(declared) != len(colors):
            raise duplicate("color", colors, "species")
        if len(set(map(_name, nodes))) != len(nodes):
            raise duplicate("node", map(_name, nodes), "species")
        if not (
            declared.issuperset(map(_output, nodes))
            and declared.issuperset(itertools.chain.from_iterable(map(_inputs, nodes)))
        ):
            # the first undeclared color, each node's output before its inputs
            n, c = next(
                (n, c) for n in nodes for c in (n.output, *n.inputs) if c not in declared
            )
            raise InputError(f"node {n.name!r} references undeclared color {c!r}")
        return super().__new__(cls, colors, nodes)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashed once, as the key of every per-species table
        return hash((self.colors, self.nodes))

    def __getstate__(self) -> dict:
        # a string's hash differs between processes, so a pickle carries no
        # cached hash
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @cached_property
    def node_by_name(self) -> Mapping[str, Node]:
        return {n.name: n for n in self.nodes}

    def check_own(self, node: Node, owner: str) -> None:
        """Refuse a tree node that is not this species' node of its name;
        the message calls the species the ``owner``."""
        own = self.node_by_name.get(node.name)
        if own is not node and own != node:
            raise InputError(f"tree node {node.name!r} is not a node of the {owner}")

    @cached_property
    def nodes_into(self) -> Mapping[str, tuple[Node, ...]]:
        """Nodes grouped by output color, in declaration order."""
        table: dict[str, list[Node]] = {c: [] for c in self.colors}
        for n in self.nodes:
            table[n.output].append(n)
        return {c: tuple(ns) for c, ns in table.items()}


class Leaf(NamedTuple):
    """A free input of an open tree; doubles as the identity operation."""

    color: str


class Apply(Checked, namedtuple("Apply", "node children")):
    """A node applied to one subtree per input.

    Equality and hashing read the preorder of nodes and leaves in one walk,
    so deep trees compare without recursion; two trees are equal exactly
    when their nodes and leaves agree position by position.
    """

    __slots__ = ()

    def __new__(cls, node: Node, children: tuple[DerivationTree, ...] = ()) -> Apply:
        if len(children) != node.arity:
            raise CompositionError(
                f"node {node.name!r} has arity {node.arity}, got {len(children)} children"
            )
        for expected, child in zip(node.inputs, children):
            got = root_color(child)
            if got != expected:
                raise CompositionError(
                    f"child of {node.name!r} has root color {got!r}, expected {expected!r}"
                )
        return super().__new__(cls, node, children)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # preorders with arities are prefix-free, so two trees of different
        # shape differ before the shorter preorder ends
        return self is other or all(map(operator.eq, _shape(self), _shape(other)))

    def __hash__(self) -> int:
        return hash(tuple(_shape(self)))

    def __repr__(self) -> str:
        # the named-tuple repr, written out along the contour
        parts: list[str] = []
        for t, i in walk(self):
            if isinstance(t, Leaf):
                parts.append(repr(t))
                continue
            arity = len(t.children)
            if i == 0:
                parts.append(f"{t.__class__.__qualname__}(node={t.node!r}, children=(")
            elif i < arity:
                parts.append(", ")
            if i == arity:
                parts.append(",))" if arity == 1 else "))")
        return "".join(parts)


DerivationTree = Union[Leaf, Apply]


def root_color(tree: DerivationTree) -> str:
    return tree.color if isinstance(tree, Leaf) else tree.node.output


def _shape(tree: DerivationTree) -> Iterator[Node | Leaf]:
    """The nodes and leaves of a tree in preorder; node arities make this
    a faithful encoding."""
    return (t.node if isinstance(t, Apply) else t for t, i in walk(tree) if i == 0)


def walk(tree: DerivationTree) -> Iterator[tuple[DerivationTree, int]]:
    """The contour of a tree, iteratively: ``(t, 0)`` on entering a node,
    ``(t, i)`` after its ``i``-th child, and ``(leaf, 0)`` once per leaf."""
    stack: list[tuple[DerivationTree, int]] = [(tree, 0)]
    while stack:
        t, i = entry = stack.pop()
        yield entry
        if isinstance(t, Apply) and i < len(t.children):
            stack.append((t, i + 1))
            stack.append((t.children[i], 0))


R = TypeVar("R")


def fold(
    tree: DerivationTree, leaf: Callable[[Leaf], R], apply: Callable[[Apply, tuple[R, ...]], R]
) -> R:
    """The bottom-up value of a tree: ``leaf(l)`` at each leaf, and
    ``apply(t, child values)`` at each node, in one walk."""
    stack: list[list[R]] = [[]]
    for t, i in walk(tree):
        if isinstance(t, Leaf):
            stack[-1].append(leaf(t))
            continue
        if i == 0:
            stack.append([])
        if i == len(t.children):
            values = tuple(stack.pop())
            stack[-1].append(apply(t, values))
    return stack[0][0]


def leaf_colors(tree: DerivationTree) -> tuple[str, ...]:
    """Colors of the free leaves, left to right."""
    return tuple(t.color for t, _ in walk(tree) if isinstance(t, Leaf))


def node_count(tree: DerivationTree) -> int:
    return sum(1 for t, i in walk(tree) if i == 0 and isinstance(t, Apply))


def preorder_names(tree: DerivationTree) -> tuple[str, ...]:
    """Node names in preorder; leaves contribute their color tagged apart."""
    return tuple(
        "?" + t.color if isinstance(t, Leaf) else t.node.name for t, i in walk(tree) if i == 0
    )


def tree_key(tree: DerivationTree) -> tuple[int, tuple[str, ...]]:
    """Canonical sort key: node count, then preorder lexicographic."""
    return (node_count(tree), preorder_names(tree))


def tree_substitute(tree: DerivationTree, index: int, sub: DerivationTree) -> DerivationTree:
    """Graft ``sub`` onto the ``index``-th free leaf (left to right, 0-based)."""
    seen = itertools.count()

    def graft(leaf: Leaf) -> DerivationTree:
        if next(seen) != index:
            return leaf
        if leaf.color != root_color(sub):
            raise CompositionError(
                f"leaf {index} has color {leaf.color!r}, cannot graft a tree of color "
                f"{root_color(sub)!r}"
            )
        return sub

    grafted = fold(tree, graft, lambda t, children: Apply(t.node, children))
    leaves = next(seen)
    if index < 0 or index >= leaves:
        raise CompositionError(f"leaf index {index} out of range (tree has {leaves} leaves)")
    return grafted


class SpeciesMap(Checked, namedtuple("SpeciesMap", "source target color_map node_map")):
    """A map of species: a color renaming and a node renaming that are
    required to commute with the input/output coloring.  It checks itself
    when built: ``SpeciesMap(...)`` and ``_replace`` raise its first fault
    as an ``InputError``, reading the color map, then node by node the node
    map and each image's type; ``_make`` is the one path that skips the
    check."""

    __slots__ = ()

    def __new__(
        cls, source: Species, target: Species, color_map: Mapping[str, str], node_map: Mapping[str, str]
    ) -> SpeciesMap:
        phi = super().__new__(cls, source, target, dict(color_map), dict(node_map))
        color_map, node_map = phi.color_map, phi.node_map
        declared = set(target.colors)
        for c in source.colors:
            if c not in color_map:
                raise InputError(f"color {c!r} missing from color map")
            if color_map[c] not in declared:
                raise InputError(f"color {c!r} mapped to undeclared color {color_map[c]!r}")
        # every color is mapped now
        for n in source.nodes:
            if n.name not in node_map:
                raise InputError(f"node {n.name!r} missing from node map")
            image = target.node_by_name.get(node_map[n.name])
            if image is None:
                raise InputError(f"node {n.name!r} mapped to undeclared node {node_map[n.name]!r}")
            inputs, output = tuple(map(color_map.__getitem__, n.inputs)), color_map[n.output]
            if image.inputs != inputs or image.output != output:
                raise InputError(
                    f"node {n.name!r}: image {image.name!r} has type {image.inputs} -> "
                    f"{image.output!r}, expected {inputs} -> {output!r}"
                )
        return phi

    def apply_color(self, color: str) -> str:
        return self.color_map[color]

    def apply_node(self, node: str) -> str:
        return self.node_map[node]

    def apply_tree(self, tree: DerivationTree) -> DerivationTree:
        return fold(
            tree,
            lambda leaf: Leaf(self.apply_color(leaf.color)),
            lambda t, children: Apply(self.target.node_by_name[self.apply_node(t.node.name)], children),
        )


def identity_species_map(species: Species) -> SpeciesMap:
    return SpeciesMap(
        source=species,
        target=species,
        color_map={c: c for c in species.colors},
        node_map={n.name: n.name for n in species.nodes},
    )


def enumerate_closed_trees(species: Species, color: str, max_nodes: int) -> tuple[DerivationTree, ...]:
    """All closed trees of the given root color with at most ``max_nodes``
    nodes, in canonical order (node count, then preorder names)."""
    if max_nodes < 1:
        raise InputError("max_nodes must be at least 1")
    if color not in set(species.colors):
        raise InputError(f"unknown color {color!r}")
    trees = trees_by_size(
        lambda c: ((node, node.inputs) for node in species.nodes_into[c]),
        lambda c: (1, math.inf),
    )
    return tuple(t for k in range(1, max_nodes + 1) for t in trees(color, k))


# ---------------------------------------------------------------------------
# hypergraph fixed points

V = TypeVar("V", bound=Hashable)


def derivable(edges: Iterable[tuple[Sequence[V], V]]) -> tuple[set[V], list[bool]]:
    """The least set of vertices closed under "a head holds once every tail
    holds", for ``(tails, head)`` edges, and which edges fired: by position
    in ``edges``, whether every tail of the edge holds.

    A worklist over the edges, read once, so ``edges`` may be a one-shot
    iterable: an edge with no tails fires at once, and every other edge
    waits on one tail not yet held at a time.  When that tail comes to
    hold, the edge scans on from it past the tails that hold and waits on
    the next, or fires at the end; each edge scans its tails once, so the
    work is linear in the total size of the edges.
    """
    tails_of: list[Sequence[V]] = []
    heads: list[V] = []
    todo: list[V] = []
    waiting: dict[V, list[int]] = {}  # edges by the tail they wait on
    for tails, head in edges:
        if tails:
            e = len(heads)
            if tails[0] in waiting:
                waiting[tails[0]].append(e)
            else:
                waiting[tails[0]] = [e]
        else:
            todo.append(head)
        tails_of.append(tails)
        heads.append(head)
    fired = [not tails for tails in tails_of]
    at = [0] * len(heads)  # the index of the tail each edge waits on
    held: set[V] = set()
    while todo:
        vertex = todo.pop()
        if vertex in held:
            continue
        held.add(vertex)
        for e in waiting.pop(vertex, ()):
            tails = tails_of[e]
            k = at[e] + 1
            while k < len(tails) and tails[k] in held:
                k += 1
            if k == len(tails):
                fired[e] = True
                todo.append(heads[e])
            else:
                at[e] = k
                if tails[k] in waiting:
                    waiting[tails[k]].append(e)
                else:
                    waiting[tails[k]] = [e]
    return held, fired


def trees_by_size(
    alternatives: Callable[[V], Iterable[tuple[Node, Sequence[V]]]],
    bounds: Callable[[V], tuple[float, float]],
    limit: float = math.inf,
) -> Callable[[V, int], tuple[Apply, ...]]:
    """A memoised ``trees(v, k)``: the first ``limit`` closed trees at ``v``
    with exactly ``k`` nodes, sorted by preorder names.

    ``alternatives(v)`` yields ``(node, child vertices)`` pairs, and
    ``bounds(v)`` the least and greatest node count of any tree at ``v``
    (``inf`` when unbounded); sizes are split among children only within
    their bounds.  Nodes with one name have one arity, as in a species.  A
    request collects the ``(vertex, size)`` pairs it needs and fills them by
    ascending size: a tree's children are smaller.

    The first ``limit`` trees of a level have their children among the
    first ``limit`` of each child level, so each level is built from cut
    child levels and cut in turn: the cost of a request is bounded by the
    limit, not by the size of a level.
    """
    stop = None if limit == math.inf else int(limit)
    memo: dict[tuple[V, int], tuple[Apply, ...]] = {}
    names: dict[int, tuple[str, ...]] = {}  # preorder names by id: hashing a tree walks it

    def preorder(tree: Apply) -> tuple[str, ...]:
        # called on trees kept in memo only, so no id is reused
        if id(tree) not in names:
            below = [names.get(id(c)) for c in tree.children]
            names[id(tree)] = preorder_names(tree) if None in below else sum(below, (tree.node.name,))
        return names[id(tree)]

    def trees(v: V, k: int) -> tuple[Apply, ...]:
        edges: dict[tuple[V, int], list[tuple[Node, tuple[tuple[V, int], ...]]]] = {}
        todo = [(v, k)]
        while todo:
            vertex, size = pair = todo.pop()
            if pair not in memo and pair not in edges:
                edges[pair] = [
                    (node, tuple(zip(children, split)))
                    for node, children in alternatives(vertex)
                    for split in _splits(size - 1, [bounds(c) for c in children])
                ]
                todo.extend(p for _, parts in edges[pair] for p in parts)
        for pair in sorted(edges, key=lambda pair: pair[1]):
            # the product over sorted child levels is in preorder for each
            # (node, split), so its first ``limit`` entries are that group's
            level = [
                (node, picked)
                for node, parts in edges[pair]
                for picked in itertools.islice(itertools.product(*(memo[p] for p in parts)), stop)
            ]
            if len(level) > 1:
                # every tree here has k nodes, so preorder alone is canonical
                # order; names fix arities, so no preorder is a prefix of
                # another, and comparing the name, then each child's
                # preorder, compares whole preorders
                level.sort(key=lambda entry: (entry[0].name, *map(preorder, entry[1])))
            memo[pair] = tuple(itertools.starmap(Apply, level[:stop]))
        return memo[v, k]

    return trees


def _splits(total: int, sizes: list[tuple[float, float]]) -> list[tuple[int, ...]]:
    """Ways to write ``total`` as an ordered sum with the ``t``-th part in
    ``sizes[t]`` (inclusive bounds), in lexicographic order."""
    # least and greatest sums of the parts from t on
    lows, highs = [0] * (len(sizes) + 1), [0] * (len(sizes) + 1)
    for t in reversed(range(len(sizes))):
        lows[t], highs[t] = lows[t + 1] + sizes[t][0], highs[t + 1] + sizes[t][1]
    # every prefix the later parts can complete, with what it leaves them,
    # one part at a time
    splits: list[tuple[tuple[int, ...], float]] = [((), total)]
    for t, (lo, hi) in enumerate(sizes):
        grown = []
        for parts, left in splits:
            first, last = max(lo, left - highs[t + 1]), min(hi, left - lows[t + 1])
            if first <= last:  # not when some part has no trees (bounds inf..0)
                grown += [
                    (parts + (part,), left - part)
                    for part in range(first, last + 1)  # type: ignore[arg-type]
                ]
        splits = grown
    return [parts for parts, left in splits if left == 0]
