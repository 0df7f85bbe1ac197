"""JSON schemas for graphs, species, trees, grammars and automata.

Readers raise :class:`~catgram.errors.InputError` with a short location
string on malformed data.  Writers emit plain dict/list structures; use
:func:`dumps` for byte-stable text output.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .automaton import Automaton, State, Transition
from .contour import DyckLetter
from .errors import CompositionError, InputError
from .freecat import FiniteGraph, FreeFunctor, Generator, Path
from .grammar import Grammar, grammar_from_rules
from .species import Apply, DerivationTree, Leaf, Node, Species, fold
from .spliced import GapType, SplicedArrow


def dumps(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _expect(data: Any, kind: type, where: str) -> Any:
    if not isinstance(data, kind):
        raise InputError(f"{where}: expected {kind.__name__}, got {type(data).__name__}")
    return data


def _field(obj: Mapping[str, Any], key: str, kind: type, where: str) -> Any:
    if key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    return _expect(obj[key], kind, f"{where}.{key}")


def _str_list(data: Any, where: str) -> tuple[str, ...]:
    _expect(data, list, where)
    return tuple(_expect(x, str, f"{where}[{i}]") for i, x in enumerate(data))


# -- graphs and paths -------------------------------------------------------


def graph_to_json(graph: FiniteGraph) -> dict:
    return {
        "objects": list(graph.objects),
        "generators": [
            {"name": g.name, "src": g.src, "dst": g.dst} for g in graph.generators
        ],
    }


def graph_from_json(data: Any, where: str = "graph") -> FiniteGraph:
    obj = _expect(data, dict, where)
    objects = _str_list(_field(obj, "objects", list, where), f"{where}.objects")
    gens = []
    for i, g in enumerate(_field(obj, "generators", list, where)):
        gobj = _expect(g, dict, f"{where}.generators[{i}]")
        gens.append(
            Generator(
                _field(gobj, "name", str, f"{where}.generators[{i}]"),
                _field(gobj, "src", str, f"{where}.generators[{i}]"),
                _field(gobj, "dst", str, f"{where}.generators[{i}]"),
            )
        )
    try:
        return FiniteGraph(objects, tuple(gens))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def path_to_json(path: Path) -> Any:
    """Paths are bare generator-name arrays; identities need the source
    spelled out."""
    if path.gens:
        return list(path.gens)
    return {"src": path.src}


def path_from_json(graph: FiniteGraph, data: Any, where: str = "path") -> Path:
    try:
        if isinstance(data, list):
            return graph.path(_str_list(data, where))
        if isinstance(data, dict):
            gens = _str_list(data.get("gens", []), f"{where}.gens")
            src = data.get("src")
            if src is not None:
                _expect(src, str, f"{where}.src")
            return graph.path(gens, src=src)
    except (InputError, CompositionError) as exc:
        raise InputError(f"{where}: {exc}") from exc
    raise InputError(f"{where}: expected a generator array or an object with 'src'")


# -- species and trees ------------------------------------------------------


def species_to_json(species: Species) -> dict:
    return {
        "colors": list(species.colors),
        "nodes": [
            {"name": n.name, "inputs": list(n.inputs), "output": n.output}
            for n in species.nodes
        ],
    }


def species_from_json(data: Any, where: str = "species") -> Species:
    obj = _expect(data, dict, where)
    colors = _str_list(_field(obj, "colors", list, where), f"{where}.colors")
    nodes = []
    for i, n in enumerate(_field(obj, "nodes", list, where)):
        nobj = _expect(n, dict, f"{where}.nodes[{i}]")
        nodes.append(
            Node(
                _field(nobj, "name", str, f"{where}.nodes[{i}]"),
                _str_list(_field(nobj, "inputs", list, f"{where}.nodes[{i}]"), f"{where}.nodes[{i}].inputs"),
                _field(nobj, "output", str, f"{where}.nodes[{i}]"),
            )
        )
    try:
        return Species(colors, tuple(nodes))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def tree_to_json(tree: DerivationTree) -> dict:
    return fold(
        tree,
        lambda leaf: {"leaf": leaf.color},
        lambda t, children: {"rule": t.node.name, "children": list(children)},
    )


def tree_from_json(species: Species, data: Any, where: str = "tree") -> DerivationTree:
    obj = _expect(data, dict, where)
    if "leaf" in obj:
        color = _expect(obj["leaf"], str, f"{where}.leaf")
        if color not in set(species.colors):
            raise InputError(f"{where}: unknown leaf color {color!r}")
        return Leaf(color)
    name = _field(obj, "rule", str, where)
    node = species.node_by_name.get(name)
    if node is None:
        raise InputError(f"{where}: unknown rule {name!r}")
    children = tuple(
        tree_from_json(species, c, f"{where}.children[{i}]")
        for i, c in enumerate(_expect(obj.get("children", []), list, f"{where}.children"))
    )
    try:
        return Apply(node, children)
    except CompositionError as exc:
        raise InputError(f"{where}: {exc}") from exc


# -- spliced arrows ----------------------------------------------------------


def spliced_to_json(arrow: SplicedArrow) -> dict:
    return {
        "outer": {"left": arrow.outer.left, "right": arrow.outer.right},
        "gaps": [{"left": g.left, "right": g.right} for g in arrow.gaps],
        "segments": [list(seg.gens) for seg in arrow.segments],
    }


def _gap_from_json(data: Any, where: str) -> GapType:
    obj = _expect(data, dict, where)
    return GapType(_field(obj, "left", str, where), _field(obj, "right", str, where))


def spliced_from_json(graph: FiniteGraph, data: Any, where: str = "spliced") -> SplicedArrow:
    """Segment endpoints are forced by the outer and gap types, so empty
    segments need no explicit source."""
    obj = _expect(data, dict, where)
    outer = _gap_from_json(_field(obj, "outer", dict, where), f"{where}.outer")
    gaps = tuple(
        _gap_from_json(g, f"{where}.gaps[{i}]")
        for i, g in enumerate(_field(obj, "gaps", list, where))
    )
    raw_segments = _field(obj, "segments", list, where)
    if len(raw_segments) != len(gaps) + 1:
        raise InputError(f"{where}: expected {len(gaps) + 1} segments, got {len(raw_segments)}")
    segments = []
    for i, gens in enumerate(raw_segments):
        src = outer.left if i == 0 else gaps[i - 1].right
        names = _str_list(gens, f"{where}.segments[{i}]")
        try:
            segments.append(graph.path(names, src=src if not names else None))
        except (InputError, CompositionError) as exc:
            raise InputError(f"{where}.segments[{i}]: {exc}") from exc
    try:
        return SplicedArrow(outer=outer, gaps=gaps, segments=tuple(segments))
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


def grammar_from_json(data: Any, where: str = "grammar") -> Grammar:
    obj = _expect(data, dict, where)
    category = graph_from_json(_field(obj, "category", dict, where), f"{where}.category")
    nonterminals: dict[str, tuple[str, str]] = {}
    for i, nt in enumerate(_field(obj, "nonterminals", list, where)):
        ntobj = _expect(nt, dict, f"{where}.nonterminals[{i}]")
        name = _field(ntobj, "name", str, f"{where}.nonterminals[{i}]")
        nonterminals[name] = (
            _field(ntobj, "left", str, f"{where}.nonterminals[{i}]"),
            _field(ntobj, "right", str, f"{where}.nonterminals[{i}]"),
        )
    rules = []
    for i, r in enumerate(_field(obj, "rules", list, where)):
        robj = _expect(r, dict, f"{where}.rules[{i}]")
        splice = _field(robj, "splice", list, f"{where}.rules[{i}]")
        segments = tuple(
            _str_list(seg, f"{where}.rules[{i}].splice[{k}]") for k, seg in enumerate(splice)
        )
        rules.append(
            (
                _field(robj, "name", str, f"{where}.rules[{i}]"),
                _field(robj, "output", str, f"{where}.rules[{i}]"),
                _str_list(_field(robj, "inputs", list, f"{where}.rules[{i}]"), f"{where}.rules[{i}].inputs"),
                segments,
            )
        )
    start = _field(obj, "start", str, where)
    try:
        return grammar_from_rules(category, start, nonterminals, rules)
    except (InputError, CompositionError) as exc:
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


def automaton_from_json(data: Any, where: str = "automaton") -> Automaton:
    obj = _expect(data, dict, where)
    base = graph_from_json(_field(obj, "base", dict, where), f"{where}.base")
    states = []
    for i, s in enumerate(_field(obj, "states", list, where)):
        sobj = _expect(s, dict, f"{where}.states[{i}]")
        states.append(
            State(
                _field(sobj, "name", str, f"{where}.states[{i}]"),
                _field(sobj, "over", str, f"{where}.states[{i}]"),
            )
        )
    transitions = []
    for i, t in enumerate(_field(obj, "transitions", list, where)):
        tobj = _expect(t, dict, f"{where}.transitions[{i}]")
        transitions.append(
            Transition(
                _field(tobj, "name", str, f"{where}.transitions[{i}]"),
                _field(tobj, "src", str, f"{where}.transitions[{i}]"),
                _field(tobj, "dst", str, f"{where}.transitions[{i}]"),
                _field(tobj, "over", str, f"{where}.transitions[{i}]"),
            )
        )
    try:
        return Automaton(
            base,
            tuple(states),
            tuple(transitions),
            _field(obj, "initial", str, where),
            _field(obj, "final", str, where),
        )
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


def dyck_letters_from_json(data: Any, where: str = "letters") -> tuple[DyckLetter, ...]:
    items = _expect(data, list, where)
    out = []
    for i, l in enumerate(items):
        lobj = _expect(l, dict, f"{where}[{i}]")
        bracket = _field(lobj, "bracket", str, f"{where}[{i}]")
        if bracket not in ("[", "]"):
            raise InputError(f"{where}[{i}]: bracket must be '[' or ']'")
        index = _field(lobj, "index", int, f"{where}[{i}]")
        out.append(DyckLetter(bracket, _field(lobj, "node", str, f"{where}[{i}]"), index))
    return tuple(out)
