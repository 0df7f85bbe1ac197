"""Free categories on finite graphs.

A finite graph presents a free category: objects are the graph's objects and
arrows are paths, i.e. composable sequences of generating edges.  Arrow
equality is generator-sequence equality, composition is concatenation, and
identities are empty paths.  Functors between free categories are determined
by their action on objects and generators.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import Checked, CompositionError, InputError, duplicate

STAR = "*"
TOP = "⊤"
END_MARKER = "$"


class Generator(NamedTuple):
    """A generating arrow of a finite graph."""

    name: str
    src: str
    dst: str


class Path(NamedTuple):
    """An arrow of a free category: a composable sequence of generator names.

    Invariants (consecutive generators compose, endpoints match the ambient
    graph) are relative to a graph and checked by ``FiniteGraph.path``; a bare
    ``Path`` only knows its endpoints and its generator names.
    """

    src: str
    dst: str
    gens: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.gens)

    @property
    def is_identity(self) -> bool:
        return not self.gens


def identity_path(obj: str) -> Path:
    return Path(obj, obj, ())


class FiniteGraph(Checked, namedtuple("FiniteGraph", "objects generators")):
    """A finite presentation of a free category.

    Objects and generators are kept in declaration order so that every
    enumeration over the graph is reproducible.
    """

    def __new__(cls, objects: tuple[str, ...], generators: tuple[Generator, ...] = ()) -> FiniteGraph:
        objs = set(objects)
        if len(objs) != len(objects):
            raise duplicate("object", objects, "graph")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise duplicate("generator", names, "graph")
        for g in generators:
            if g.src not in objs or g.dst not in objs:
                end, obj = ("source", g.src) if g.src not in objs else ("target", g.dst)
                raise InputError(f"generator {g.name!r} has undeclared {end} {obj!r}")
        return super().__new__(cls, objects, generators)

    @cached_property
    def generator_by_name(self) -> Mapping[str, Generator]:
        return {g.name: g for g in self.generators}

    @cached_property
    def out_of(self) -> Mapping[str, tuple[Generator, ...]]:
        """Outgoing generators per object, sorted by name for determinism."""
        table: dict[str, list[Generator]] = {o: [] for o in self.objects}
        for g in self.generators:
            table[g.src].append(g)
        return {o: tuple(sorted(gs, key=lambda g: g.name)) for o, gs in table.items()}

    @cached_property
    def _object_set(self) -> frozenset[str]:
        return frozenset(self.objects)

    def has_object(self, obj: str) -> bool:
        return obj in self._object_set

    def path(self, gens: Iterable[str], src: str | None = None) -> Path:
        """Build a validated path from generator names.

        ``src`` is only needed for the empty path, where the endpoints cannot
        be inferred.
        """
        names = tuple(gens)
        if not names:
            if src is None:
                raise InputError("empty path needs an explicit source object")
            if not self.has_object(src):
                raise InputError(f"unknown object {src!r}")
            return Path(src, src, ())
        table = self.generator_by_name
        missing = [n for n in names if n not in table]
        if missing:
            raise InputError(f"unknown generator(s) {missing!r}")
        first = table[names[0]]
        if src is not None and src != first.src:
            raise InputError(
                f"path declared source {src!r} but first generator starts at {first.src!r}"
            )
        at = first.src
        for n in names:
            g = table[n]
            if g.src != at:
                raise CompositionError(
                    f"generators do not compose: expected source {at!r}, got {g.name!r} : {g.src!r} -> {g.dst!r}"
                )
            at = g.dst
        return Path(first.src, at, names)

    def contains_path(self, p: Path) -> bool:
        """Whether the generators of ``p`` compose from ``p.src`` to ``p.dst``."""
        at = p.src
        for name in p.gens:
            g = self.generator_by_name.get(name)
            if g is None or g.src != at:
                return False
            at = g.dst
        return at == p.dst and self.has_object(at)


def path_compose(p: Path, q: Path) -> Path:
    """Compose two paths; in a free category this is concatenation."""
    if p.dst != q.src:
        raise CompositionError(
            f"cannot compose {p.src}->{p.dst} with {q.src}->{q.dst}: endpoint mismatch"
        )
    return Path(p.src, q.dst, p.gens + q.gens)


def word(graph: FiniteGraph, letters: str, src: str | None = None) -> Path:
    """Read a path from a string of single-character generator names."""
    return graph.path(tuple(letters), src=src)


class FreeFunctor(Checked, namedtuple("FreeFunctor", "domain codomain object_map generator_map")):
    """A functor between free categories, given on objects and generators.

    ``generator_map`` sends each generator of the domain to a path of the
    codomain whose endpoints agree with the object map.
    """

    __slots__ = ()

    def __new__(
        cls,
        domain: FiniteGraph,
        codomain: FiniteGraph,
        object_map: Mapping[str, str] = {},
        generator_map: Mapping[str, Path] = {},
    ) -> FreeFunctor:
        object_map, generator_map = dict(object_map), dict(generator_map)
        for o in domain.objects:
            if o not in object_map:
                raise InputError(f"object {o!r} missing from object map")
            if not codomain.has_object(object_map[o]):
                raise InputError(f"object {o!r} mapped to {object_map[o]!r}, outside the codomain")
        for g in domain.generators:
            img = generator_map.get(g.name)
            if img is None:
                raise InputError(f"generator {g.name!r} missing from generator map")
            if not codomain.contains_path(img):
                raise InputError(f"image of generator {g.name!r} is not a codomain path")
            if img.src != object_map[g.src] or img.dst != object_map[g.dst]:
                raise InputError(
                    f"image of generator {g.name!r} has endpoints {img.src}->{img.dst}, "
                    f"expected {object_map[g.src]}->{object_map[g.dst]}"
                )
        return super().__new__(cls, domain, codomain, object_map, generator_map)

    __hash__ = None  # type: ignore[assignment]


def identity_functor(graph: FiniteGraph) -> FreeFunctor:
    return FreeFunctor(
        domain=graph,
        codomain=graph,
        object_map={o: o for o in graph.objects},
        generator_map={g.name: Path(g.src, g.dst, (g.name,)) for g in graph.generators},
    )


def apply_functor(functor: FreeFunctor, p: Path) -> Path:
    """Apply a functor to a path: map each generator and concatenate."""
    if not functor.domain.contains_path(p):
        raise InputError(f"path {p} does not lie in the functor's domain")
    images = functor.generator_map
    gens = tuple(g for name in p.gens for g in images[name].gens)
    return Path(functor.object_map[p.src], functor.object_map[p.dst], gens)


def compose_functors(f: FreeFunctor, g: FreeFunctor) -> FreeFunctor:
    """The composite functor applying ``f`` first, then ``g``."""
    if f.codomain != g.domain:
        raise CompositionError("functor domains do not match for composition")
    return FreeFunctor(
        domain=f.domain,
        codomain=g.codomain,
        object_map={o: g.object_map[f.object_map[o]] for o in f.domain.objects},
        generator_map={
            gen.name: apply_functor(g, f.generator_map[gen.name])
            for gen in f.domain.generators
        },
    )


def monoid_graph(letters: Iterable[str]) -> FiniteGraph:
    """The one-object graph whose paths are words over the given alphabet."""
    gens = tuple(Generator(a, STAR, STAR) for a in letters)
    return FiniteGraph(objects=(STAR,), generators=gens)


def end_marked(graph: FiniteGraph) -> FiniteGraph:
    """Adjoin a fresh object and an end-of-input generator to a one-object graph.

    The new generator ``$`` points from the original object to the fresh
    object, so nothing composes after it.
    """
    if len(graph.objects) != 1:
        raise InputError("end_marked expects the one-object graph of an alphabet")
    base = graph.objects[0]
    if TOP in graph.objects or END_MARKER in graph.generator_by_name:
        raise InputError("graph already uses the reserved end-marker names")
    return FiniteGraph(
        objects=(base, TOP),
        generators=graph.generators + (Generator(END_MARKER, base, TOP),),
    )


def enumerate_paths(graph: FiniteGraph, src: str, dst: str, max_len: int) -> tuple[Path, ...]:
    """All paths ``src -> dst`` with at most ``max_len`` generators.

    Results come in length order, lexicographic on generator names within a
    length.  Distinct generator sequences are distinct paths in a free
    category, so no deduplication is needed.
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    if not graph.has_object(src) or not graph.has_object(dst):
        raise InputError("unknown endpoint object")
    found: list[Path] = []
    layer: list[tuple[str, tuple[str, ...]]] = [(src, ())]  # (end, gens), in out_of's name order
    for length in range(max_len + 1):
        if length:
            layer = [(g.dst, gens + (g.name,)) for at, gens in layer for g in graph.out_of[at]]
        found.extend(Path(src, dst, gens) for at, gens in layer if at == dst)
    return tuple(found)
