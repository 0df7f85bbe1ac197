"""The operad of spliced arrows over a free category.

An n-ary operation is a sequence of n+1 arrows separated by n typed gaps;
composition splices an operand into a gap and merges the boundary arrows by
path composition.  Constants (arity 0) are in bijection with arrows of the
underlying category.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Sequence

from .errors import CompositionError
from .freecat import FiniteGraph, Path, enumerate_paths, identity_path, path_compose


class GapType(NamedTuple):
    """A color of the spliced-arrow operad: a pair of objects."""

    left: str
    right: str


class SplicedArrow(namedtuple("SplicedArrow", "segments")):
    """n+1 path segments around n gaps.

    Segment ``i`` runs from the right object of gap ``i-1`` to the left
    object of gap ``i``, reading the outer type as the fictitious gaps -1
    and n.  The segments are the whole operation: its outer and gap types
    are their endpoints, so no mistyped operation can be built.
    """

    __slots__ = ()

    def __new__(cls, segments: tuple[Path, ...]) -> SplicedArrow:
        if not segments:
            raise CompositionError("a spliced arrow needs at least one segment")
        return super().__new__(cls, segments)

    @property
    def outer(self) -> GapType:
        return GapType(self.segments[0].src, self.segments[-1].dst)

    @property
    def gaps(self) -> tuple[GapType, ...]:
        segs = self.segments
        return tuple(GapType(a.dst, b.src) for a, b in zip(segs, segs[1:]))

    @property
    def arity(self) -> int:
        return len(self.segments) - 1

    @property
    def is_constant(self) -> bool:
        return len(self.segments) == 1

    def as_path(self) -> Path:
        """The unique segment of a constant, seen as an arrow."""
        if not self.is_constant:
            raise CompositionError("only constants can be read back as arrows")
        return self.segments[0]


def constant(path: Path) -> SplicedArrow:
    """An arrow seen as a 0-ary operation."""
    return SplicedArrow((path,))


def spliced_identity(gap: GapType) -> SplicedArrow:
    """The identity operation on a gap type: two identity segments."""
    return SplicedArrow((identity_path(gap.left), identity_path(gap.right)))


def spliced_compose_partial(f: SplicedArrow, i: int, g: SplicedArrow) -> SplicedArrow:
    """Substitute ``g`` into gap ``i`` of ``f`` (0-indexed from the left)."""
    if i < 0 or i >= f.arity:
        raise CompositionError(f"gap index {i} out of range for arity {f.arity}")
    # every other gap gets the identity, which composition leaves unchanged
    operands = tuple(g if k == i else spliced_identity(gap) for k, gap in enumerate(f.gaps))
    return spliced_compose_parallel(f, operands)


def check_operands(f: SplicedArrow, outers: Sequence[GapType]) -> None:
    """Raise :class:`CompositionError` unless operands of outer types
    ``outers`` fill the gaps of ``f``, one per gap."""
    if len(outers) != f.arity:
        raise CompositionError(f"parallel composition needs {f.arity} operands, got {len(outers)}")
    for i, (gap, outer) in enumerate(zip(f.gaps, outers)):
        if gap != outer:
            raise CompositionError(
                f"gap {i} has type ({gap.left},{gap.right}), operand has "
                f"outer type ({outer.left},{outer.right})"
            )


def spliced_compose_parallel(f: SplicedArrow, operands: tuple[SplicedArrow, ...]) -> SplicedArrow:
    """Substitute one operand into every gap of ``f`` simultaneously."""
    check_operands(f, [g.outer for g in operands])
    segments = [f.segments[0]]
    for i, g in enumerate(operands):
        segments[-1] = path_compose(segments[-1], g.segments[0])
        segments.extend(g.segments[1:])
        segments[-1] = path_compose(segments[-1], f.segments[i + 1])
    return SplicedArrow(tuple(segments))


def constants_of(graph: FiniteGraph, gap: GapType, max_len: int) -> tuple[SplicedArrow, ...]:
    """All constants of the given gap type with segment length at most
    ``max_len``, one per path."""
    return tuple(constant(p) for p in enumerate_paths(graph, gap.left, gap.right, max_len))
