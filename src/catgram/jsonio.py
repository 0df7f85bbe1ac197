"""JSON schemas for graphs, paths, species, trees, grammars, automata,
functors and Dyck letters.

Readers take JSON objects field by field through :func:`_record` and arrays
element by element through :func:`_array`, which build each value's
location, such as ``grammar.rules[1].inputs[0]``.  Malformed data raises
:class:`~catgram.errors.InputError` naming the location of the first
malformed value in reading order.  Writers emit plain dict/list structures;
use :func:`dumps` for byte-stable text output."""

from __future__ import annotations

import json
from typing import Any

from .automaton import Automaton, State, Transition
from .contour import DyckLetter
from .errors import CompositionError, InputError
from .freecat import FiniteGraph, FreeFunctor, Generator, Path
from .grammar import Grammar, grammar_from_rules
from .species import Apply, DerivationTree, Leaf, Node, Species, fold


def dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _expect(data: Any, kind: type, where: str) -> Any:
    # JSON true/false decode as bool, a subclass of int
    if not isinstance(data, kind) or (isinstance(data, bool) and kind is not bool):
        raise InputError(f"{where}: expected {kind.__name__}, got {type(data).__name__}")
    return data


def _read(data: Any, kind: Any, where: str) -> Any:
    return _expect(data, kind, where) if isinstance(kind, type) else kind(data, where)


def _array(data: Any, kind: Any, where: str) -> tuple:
    """The JSON array ``data``, each element read as ``kind``."""
    items = enumerate(_expect(data, list, where))
    return tuple([_read(x, kind, f"{where}[{i}]") for i, x in items])


def _str_list(data: Any, where: str) -> tuple[str, ...]:
    return _array(data, str, where)


def _record(data: Any, where: str, **kinds: Any) -> list:
    """The values of the fields ``kinds`` names, read in order from the JSON
    object ``data`` at location ``where``.  A kind is the type a value must
    have, a reader called as ``kind(value, location)``, or ``[kind]`` for an
    array of such values, read as a tuple."""
    obj = _expect(data, dict, where)
    values = []
    for key, kind in kinds.items():
        if key not in obj:
            raise InputError(f"{where}: missing field {key!r}")
        value, here = obj[key], f"{where}.{key}"
        if isinstance(kind, list):
            values.append(_array(value, kind[0], here))
        else:
            values.append(_read(value, kind, here))
    return values


# -- graphs and paths -------------------------------------------------------


def graph_to_json(graph: FiniteGraph) -> dict:
    return {
        "objects": list(graph.objects),
        "generators": [
            {"name": g.name, "src": g.src, "dst": g.dst} for g in graph.generators
        ],
    }


def _generator(data: Any, where: str) -> Generator:
    return Generator(*_record(data, where, name=str, src=str, dst=str))


def graph_from_json(data: Any, where: str = "graph") -> FiniteGraph:
    objects, gens = _record(data, where, objects=[str], generators=[_generator])
    try:
        return FiniteGraph(objects, gens)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def path_to_json(path: Path) -> Any:
    """Paths are bare generator-name arrays; identities need the source
    spelled out."""
    if path.gens:
        return list(path.gens)
    return {"src": path.src}


def path_from_json(graph: FiniteGraph, data: Any, where: str = "path") -> Path:
    if isinstance(data, list):
        gens, src = _str_list(data, where), None
    elif isinstance(data, dict):
        gens = _str_list(data.get("gens", []), f"{where}.gens")
        src = data.get("src")
        if src is not None:
            _expect(src, str, f"{where}.src")
    else:
        raise InputError(f"{where}: expected a generator array or an object with 'src'")
    try:
        return graph.path(gens, src=src)
    except (InputError, CompositionError) as exc:
        raise InputError(f"{where}: {exc}") from exc


# -- species and trees ------------------------------------------------------


def species_to_json(species: Species) -> dict:
    return {
        "colors": list(species.colors),
        "nodes": [
            {"name": n.name, "inputs": list(n.inputs), "output": n.output}
            for n in species.nodes
        ],
    }


def _node(data: Any, where: str) -> Node:
    return Node(*_record(data, where, name=str, inputs=[str], output=str))


def species_from_json(data: Any, where: str = "species") -> Species:
    colors, nodes = _record(data, where, colors=[str], nodes=[_node])
    try:
        return Species(colors, nodes)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def tree_to_json(tree: DerivationTree) -> dict:
    return fold(
        tree,
        lambda leaf: {"leaf": leaf.color},
        lambda t, children: {"rule": t.node.name, "children": list(children)},
    )


def tree_from_json(species: Species, data: Any, where: str = "tree") -> DerivationTree:
    if "leaf" in _expect(data, dict, where):
        (color,) = _record(data, where, leaf=str)
        if color not in set(species.colors):
            raise InputError(f"{where}: unknown leaf color {color!r}")
        return Leaf(color)
    (name,) = _record(data, where, rule=str)
    node = species.node_by_name.get(name)
    if node is None:
        raise InputError(f"{where}: unknown rule {name!r}")
    children = _array(
        data.get("children", []),
        lambda child, here: tree_from_json(species, child, here),
        f"{where}.children",
    )
    try:
        return Apply(node, children)
    except CompositionError as exc:
        raise InputError(f"{where}: {exc}") from exc


# -- grammars ---------------------------------------------------------------


def grammar_to_json(grammar: Grammar) -> dict:
    return {
        "category": graph_to_json(grammar.category),
        "nonterminals": [
            {
                "name": c,
                "left": grammar.gap_of(c).left,
                "right": grammar.gap_of(c).right,
            }
            for c in grammar.species.colors
        ],
        "start": grammar.start,
        "rules": [
            {
                "name": n.name,
                "output": n.output,
                "inputs": list(n.inputs),
                "splice": [list(seg.gens) for seg in grammar.splice_of(n.name).segments],
            }
            for n in grammar.species.nodes
        ],
    }


def _nonterminal(data: Any, where: str) -> tuple[str, tuple[str, str]]:
    name, left, right = _record(data, where, name=str, left=str, right=str)
    return name, (left, right)


def _nonterminals(data: Any, where: str) -> dict[str, tuple[str, str]]:
    declared: dict[str, tuple[str, str]] = {}
    for i, (name, gap) in enumerate(_array(data, _nonterminal, where)):
        if name in declared:
            raise InputError(f"{where}[{i}]: duplicate nonterminal {name!r}")
        declared[name] = gap
    return declared


def _rule(data: Any, where: str) -> tuple[str, str, tuple[str, ...], tuple[tuple[str, ...], ...]]:
    splice, name, output, inputs = _record(
        data, where, splice=[_str_list], name=str, output=str, inputs=[str]
    )
    return name, output, inputs, splice


def grammar_from_json(data: Any, where: str = "grammar") -> Grammar:
    category, nonterminals, rules, start = _record(
        data, where, category=graph_from_json, nonterminals=_nonterminals, rules=[_rule], start=str
    )
    try:
        return grammar_from_rules(category, start, nonterminals, rules)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


# -- automata ---------------------------------------------------------------


def automaton_to_json(automaton: Automaton) -> dict:
    return {
        "base": graph_to_json(automaton.base),
        "states": [{"name": s.name, "over": s.over} for s in automaton.states],
        "transitions": [
            {"name": t.name, "src": t.src, "dst": t.dst, "over": t.over}
            for t in automaton.transitions
        ],
        "initial": automaton.initial,
        "final": automaton.final,
    }


def _state(data: Any, where: str) -> State:
    return State(*_record(data, where, name=str, over=str))


def _transition(data: Any, where: str) -> Transition:
    return Transition(*_record(data, where, name=str, src=str, dst=str, over=str))


def automaton_from_json(data: Any, where: str = "automaton") -> Automaton:
    fields = _record(
        data,
        where,
        base=graph_from_json,
        states=[_state],
        transitions=[_transition],
        initial=str,
        final=str,
    )
    try:
        return Automaton(*fields)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


# -- functors and dyck letters ---------------------------------------------


def functor_to_json(functor: FreeFunctor) -> dict:
    return {
        "objects": dict(sorted(functor.object_map.items())),
        "generators": {
            name: path_to_json(p) for name, p in sorted(functor.generator_map.items())
        },
    }


def dyck_letters_to_json(letters: tuple[DyckLetter, ...]) -> list:
    return [{"bracket": l.bracket, "node": l.node, "index": l.index} for l in letters]


def _letter(data: Any, where: str) -> DyckLetter:
    (bracket,) = _record(data, where, bracket=str)
    if bracket not in ("[", "]"):
        raise InputError(f"{where}: bracket must be '[' or ']'")
    index, node = _record(data, where, index=int, node=str)
    return DyckLetter(bracket, node, index)


def dyck_letters_from_json(data: Any, where: str = "letters") -> tuple[DyckLetter, ...]:
    return _array(data, _letter, where)
