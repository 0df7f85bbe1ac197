"""Finite state automata over free categories, and tree automata.

An automaton is a finite graph of states mapped onto the base category,
sending states to objects and transitions to single generators.  This makes
the induced functor of free categories finitary (finite fibers) and gives it
the unique-lifting-of-factorizations property, which is what lets grammars
be pulled back along automata.  A run is a path in the state graph; the
recognized language is the set of images of runs from the initial to the
final state.  ``Automaton.functor`` is that functor, and ``automaton_of``
reads an automaton back off any functor of this kind.

Epsilon transitions and transitions over longer paths are deliberately
rejected: collapsing a generator to an identity already breaks unique
lifting, as ``ulf_check_bounded`` will demonstrate on such a functor.

A bottom-up tree automaton is the same idea one level up: a species map
into the base species, whose source colors are the states and whose source
nodes are the transitions.  ``tree_accept`` folds a tree over the fibres of
its node map.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import InputError
from .freecat import (
    STAR,
    END_MARKER,
    FiniteGraph,
    FreeFunctor,
    Generator,
    Path,
    apply_functor,
    end_marked,
    enumerate_paths,
    monoid_graph,
)
from .species import Apply, DerivationTree, Leaf, Node, SpeciesMap, fold


class State(NamedTuple):
    name: str
    over: str


class Transition(NamedTuple):
    name: str
    src: str
    dst: str
    over: str


class Automaton(namedtuple("Automaton", "base states transitions initial final")):
    def __new__(
        cls,
        base: FiniteGraph,
        states: tuple[State, ...],
        transitions: tuple[Transition, ...],
        initial: str,
        final: str,
    ) -> Automaton:
        names = [s.name for s in states]
        if len(set(names)) != len(names):
            raise InputError("duplicate state names")
        tnames = [t.name for t in transitions]
        if len(set(tnames)) != len(tnames):
            raise InputError("duplicate transition names")
        over = {s.name: s.over for s in states}
        for s in states:
            if not base.has_object(s.over):
                raise InputError(f"state {s.name!r} lies over unknown object {s.over!r}")
        gen_table = base.generator_by_name
        for t in transitions:
            g = gen_table.get(t.over)
            if g is None:
                raise InputError(f"transition {t.name!r} lies over unknown generator {t.over!r}")
            if t.src not in over or t.dst not in over:
                raise InputError(f"transition {t.name!r} uses undeclared states")
            if over[t.src] != g.src or over[t.dst] != g.dst:
                raise InputError(
                    f"transition {t.name!r} does not lie over its generator: "
                    f"{over[t.src]}->{over[t.dst]} vs {g.src}->{g.dst}"
                )
        if initial not in over or final not in over:
            raise InputError("initial or final state undeclared")
        return super().__new__(cls, base, states, transitions, initial, final)

    @cached_property
    def state_over(self) -> Mapping[str, str]:
        return {s.name: s.over for s in self.states}

    @cached_property
    def state_graph(self) -> FiniteGraph:
        return FiniteGraph(
            objects=tuple(s.name for s in self.states),
            generators=tuple(Generator(t.name, t.src, t.dst) for t in self.transitions),
        )

    @cached_property
    def transitions_from(self) -> Mapping[tuple[str, str], list[Transition]]:
        """Transitions keyed by source state and generator, in declaration
        order."""
        table: dict[tuple[str, str], list[Transition]] = {}
        for t in self.transitions:
            table.setdefault((t.src, t.over), []).append(t)
        return table

    @cached_property
    def functor(self) -> FreeFunctor:
        """The induced functor from the free category of runs to the base."""
        gen_table = self.base.generator_by_name
        return FreeFunctor(
            domain=self.state_graph,
            codomain=self.base,
            object_map=dict(self.state_over),
            generator_map={
                t.name: Path(gen_table[t.over].src, gen_table[t.over].dst, (t.over,))
                for t in self.transitions
            },
        )


def automaton_of(functor: FreeFunctor, initial: str, final: str) -> Automaton:
    """The automaton of a functor that sends each generator to a single
    generator, the inverse of ``Automaton.functor``: each domain object is a
    state over its image, each domain generator a transition over its own."""
    transitions = []
    for g in functor.domain.generators:
        image = functor.generator_map[g.name]
        if len(image) != 1:
            raise InputError(f"generator {g.name!r} is sent to {len(image)} generators, not one")
        transitions.append(Transition(g.name, g.src, g.dst, *image.gens))
    states = tuple(State(o, functor.object_map[o]) for o in functor.domain.objects)
    return Automaton(functor.codomain, states, tuple(transitions), initial, final)


def import_classical(
    sigma: Iterable[str],
    states: Iterable[str],
    transitions: Iterable[tuple[str, str, str]],
    initial: str,
    finals: Iterable[str],
) -> Automaton:
    """Convert a classical NFA into an automaton over the end-marked category.

    A single fresh final state is adjoined over the end object, with one
    end-marker transition out of every accepting state; the result accepts
    ``w$`` exactly when the classical automaton accepts ``w``.  This avoids
    the classical single-final-state pitfall for languages containing the
    empty word, because nothing composes after the end marker.

    Epsilon transitions are rejected; eliminate them first.
    """
    base = end_marked(monoid_graph(tuple(sigma)))
    state_names = list(states)
    fresh = "qf"
    while fresh in state_names:
        fresh += "'"
    auto_states = tuple(State(s, STAR) for s in state_names) + (State(fresh, base.objects[1]),)
    trans = []
    for i, (src, letter, dst) in enumerate(transitions):
        if letter == "":
            raise InputError(
                "epsilon transition found; they break unique lifting and must be eliminated first"
            )
        trans.append(Transition(f"t{i}", src, dst, letter))
    for i, q in enumerate(finals):
        trans.append(Transition(f"end{i}", q, fresh, END_MARKER))
    return Automaton(base, auto_states, tuple(trans), initial, fresh)


def runs_by_source(automaton: Automaton, w: Path) -> Mapping[str, tuple[Path, ...]]:
    """All runs over ``w`` grouped by source state, as state-graph paths."""
    index = automaton.transitions_from
    out: dict[str, tuple[Path, ...]] = {}
    for s in automaton.states:
        if automaton.state_over[s.name] != w.src:
            out[s.name] = ()
            continue
        partial: list[tuple[str, tuple[str, ...]]] = [(s.name, ())]
        for letter in w.gens:
            extended: list[tuple[str, tuple[str, ...]]] = []
            for at, gens in partial:
                for t in index.get((at, letter), ()):
                    extended.append((t.dst, gens + (t.name,)))
            partial = extended
        out[s.name] = tuple(Path(s.name, at, gens) for at, gens in partial)
    return out


def run_membership(automaton: Automaton, w: Path) -> bool:
    """Whether some run over ``w`` goes from the initial to the final state."""
    if not automaton.base.contains_path(w):
        raise InputError("word is not a path of the base category")
    if automaton.state_over[automaton.initial] != w.src:
        return False
    reachable = {automaton.initial}
    index = automaton.transitions_from
    for letter in w.gens:
        reachable = {t.dst for q in reachable for t in index.get((q, letter), ())}
        if not reachable:
            return False
    return automaton.final in reachable


def interval_automaton(category: FiniteGraph, w: Path) -> Automaton:
    """The automaton of positions of ``w``: its runs are the factorizations,
    and it recognizes exactly the singleton language of ``w``."""
    if not category.contains_path(w):
        raise InputError("arrow is not a path of the category")
    objs = [w.src]
    for g in w.gens:
        objs.append(category.generator_by_name[g].dst)
    states = tuple(State(str(i), objs[i]) for i in range(len(objs)))
    transitions = tuple(
        Transition(f"s{i}", str(i), str(i + 1), w.gens[i]) for i in range(len(w.gens))
    )
    return Automaton(category, states, transitions, "0", str(len(w.gens)))


def tree_accept(phi: SpeciesMap, accept: str, tree: DerivationTree) -> bool:
    """Whether ``phi`` maps some closed tree of color ``accept`` onto
    ``tree``: the bottom-up run of the tree automaton whose states and
    transitions are the colors and nodes of ``phi.source``.  A run of the
    contour word along ``contour_functor(phi)`` would accept more, as it may
    take each corner of a node on a different transition over it.  A
    species map checks itself when built, so only the tree is checked here:
    each of its nodes must be one of the base species'."""
    if accept not in phi.source.colors:
        raise InputError(f"accept state {accept!r} is not a color of the automaton")
    fibre: dict[str, list[Node]] = {}
    for n in phi.source.nodes:
        fibre.setdefault(phi.apply_node(n.name), []).append(n)

    def open_leaf(leaf: Leaf) -> frozenset[str]:
        raise InputError("tree automata run on closed trees only")

    def states_of(t: Apply, below: tuple[frozenset[str], ...]) -> frozenset[str]:
        phi.target.check_own(t.node, "base species")
        return frozenset(
            n.output
            for n in fibre.get(t.node.name, ())
            if all(q in states for q, states in zip(n.inputs, below))
        )

    return accept in fold(tree, open_leaf, states_of)


class UlfViolation(NamedTuple):
    path: Path
    left: Path
    right: Path
    lifts: int


def ulf_check_bounded(functor: FreeFunctor, max_len: int) -> UlfViolation | None:
    """Search for a factorization of an image with other than one lift.

    Checks every domain path with at most ``max_len`` generators against
    every two-way split of its image; returns the first violation in
    enumeration order, or None.  Automaton functors send generators to
    generators and always pass; collapsing a generator to an identity fails
    already on factorizations of identities.
    """
    dom, cod = functor.domain, functor.codomain
    for a in dom.objects:
        for b in dom.objects:
            for alpha in enumerate_paths(dom, a, b, max_len):
                image = apply_functor(functor, alpha)
                mids = [image.src]
                for g in image.gens:
                    mids.append(cod.generator_by_name[g].dst)
                for cut in range(len(image.gens) + 1):
                    u = Path(image.src, mids[cut], image.gens[:cut])
                    v = Path(mids[cut], image.dst, image.gens[cut:])
                    lifts = 0
                    for split in range(len(alpha.gens) + 1):
                        beta = dom.path(alpha.gens[:split], src=alpha.src)
                        gamma = dom.path(alpha.gens[split:], src=beta.dst)
                        if apply_functor(functor, beta) == u and apply_functor(functor, gamma) == v:
                            lifts += 1
                    if lifts != 1:
                        return UlfViolation(alpha, u, v, lifts)
    return None
