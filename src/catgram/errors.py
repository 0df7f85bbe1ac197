"""Exception types shared across the package, the mixin of the values
that refuse them when built, and the refusal of a repeated name."""

from typing import Iterable


class CatgramError(Exception):
    """Base class for all errors raised by catgram."""


class CompositionError(CatgramError):
    """An algebraic operation was applied to incompatible operands.

    Raised for endpoint mismatches in path composition, gap-type mismatches
    in spliced composition, and color/index mismatches in tree substitution.
    """


class InputError(CatgramError):
    """External input (JSON, classical grammar text, CLI words) is malformed
    or refers to undeclared names."""


class Checked:
    """A named tuple that checks itself in ``__new__``: ``_replace`` builds
    the copy through the constructor, so a copy is checked as a new value
    is.  ``_make`` is the one path that skips the check."""

    __slots__ = ()

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


def duplicate(kind: str, names: Iterable[str], owner: str) -> InputError:
    """The refusal of a repeated name, naming the first repeat in declaration
    order; looked for only once a size comparison has shown one."""
    seen: set[str] = set()
    name = next(n for n in names if n in seen or seen.add(n))
    return InputError(f"duplicate {kind} name {name!r} in {owner}")
