"""The operad of spliced arrows over a free category.

An n-ary operation is a sequence of n+1 arrows separated by n typed gaps;
composition splices an operand into a gap and merges the boundary arrows by
path composition.  Constants (arity 0) are in bijection with arrows of the
underlying category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CompositionError
from .freecat import FiniteGraph, Path, enumerate_paths, identity_path, path_compose


@dataclass(frozen=True)
class GapType:
    """A color of the spliced-arrow operad: a pair of objects."""

    left: str
    right: str


@dataclass(frozen=True)
class SplicedArrow:
    """n+1 path segments around n gaps.

    Segment ``i`` runs from the right object of gap ``i-1`` to the left
    object of gap ``i``, reading the outer type as the fictitious gaps -1
    and n.  Gap types are stored explicitly so mistyped operations fail at
    construction.
    """

    outer: GapType
    gaps: tuple[GapType, ...]
    segments: tuple[Path, ...]

    def __post_init__(self) -> None:
        n = len(self.gaps)
        if len(self.segments) != n + 1:
            raise CompositionError(
                f"spliced arrow with {n} gaps needs {n + 1} segments, got {len(self.segments)}"
            )
        for i, seg in enumerate(self.segments):
            want_src = self.outer.left if i == 0 else self.gaps[i - 1].right
            want_dst = self.outer.right if i == n else self.gaps[i].left
            if seg.src != want_src or seg.dst != want_dst:
                raise CompositionError(
                    f"segment {i} has type {seg.src}->{seg.dst}, expected {want_src}->{want_dst}"
                )

    @property
    def arity(self) -> int:
        return len(self.gaps)

    @property
    def is_constant(self) -> bool:
        return not self.gaps

    def as_path(self) -> Path:
        """The unique segment of a constant, seen as an arrow."""
        if self.gaps:
            raise CompositionError("only constants can be read back as arrows")
        return self.segments[0]


def constant(path: Path) -> SplicedArrow:
    """An arrow seen as a 0-ary operation."""
    return SplicedArrow(outer=GapType(path.src, path.dst), gaps=(), segments=(path,))


def spliced_identity(gap: GapType) -> SplicedArrow:
    """The identity operation on a gap type: two identity segments."""
    return SplicedArrow(
        outer=gap,
        gaps=(gap,),
        segments=(identity_path(gap.left), identity_path(gap.right)),
    )


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
    for i, outer in enumerate(outers):
        if f.gaps[i] != outer:
            raise CompositionError(
                f"gap {i} has type ({f.gaps[i].left},{f.gaps[i].right}), operand has "
                f"outer type ({outer.left},{outer.right})"
            )


def spliced_compose_parallel(f: SplicedArrow, operands: tuple[SplicedArrow, ...]) -> SplicedArrow:
    """Substitute one operand into every gap of ``f`` simultaneously."""
    check_operands(f, [g.outer for g in operands])
    segments = [f.segments[0]]
    gaps: list[GapType] = []
    for i, g in enumerate(operands):
        segments[-1] = path_compose(segments[-1], g.segments[0])
        segments.extend(g.segments[1:])
        gaps.extend(g.gaps)
        segments[-1] = path_compose(segments[-1], f.segments[i + 1])
    return SplicedArrow(outer=f.outer, gaps=tuple(gaps), segments=tuple(segments))


def constants_of(graph: FiniteGraph, gap: GapType, max_len: int) -> tuple[SplicedArrow, ...]:
    """All constants of the given gap type with segment length at most
    ``max_len``, one per path."""
    return tuple(constant(p) for p in enumerate_paths(graph, gap.left, gap.right, max_len))
