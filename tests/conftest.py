from __future__ import annotations

from collections import deque
from unittest import mock

from hypothesis import settings

import catgram.product
from catgram import CatgramError

settings.register_profile("suite", derandomize=True, max_examples=60, deadline=None)
# more examples for the differential tests, chosen with --hypothesis-profile=deep
settings.register_profile("deep", derandomize=True, max_examples=500, deadline=None)
settings.load_profile("suite")


def words(paths) -> set[str]:
    """Render a collection of paths as plain strings, empty for identities."""
    return {"".join(p.gens) for p in paths}


def lifo(call, *args):
    """``call(*args)`` with the lifting kernel's agenda popped last-in
    first-out instead of first-in first-out; fails unless the kernel made
    that agenda, so a comparison with the plain call cannot pass vacuously."""
    made = []

    class Stack(deque):
        def __init__(self, *items):
            super().__init__(*items)
            made.append(self)

        def popleft(self):
            return self.pop()

    with mock.patch.object(catgram.product, "deque", Stack):
        result = call(*args)
    assert made, "the lifting kernel made no agenda"
    return result


def outcome(call) -> str:
    """What ``call()`` gives: the repr of its value, or the class name and
    message of the catgram error it raises."""
    try:
        return repr(call())
    except CatgramError as exc:
        return f"{type(exc).__name__}: {exc}"
