from __future__ import annotations

import gc
from collections import deque
from unittest import mock

from hypothesis import settings

import catgram.product
from catgram import CatgramError

settings.register_profile("suite", derandomize=True, max_examples=60, deadline=None)
# more examples for the differential tests marked deep, chosen with
# -m deep --hypothesis-profile=deep
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


def no_cyclic_garbage(call, *args) -> None:
    """Run ``call(*args)`` and drop its result; fails if the cyclic
    collector then finds garbage.  The collector is off during the call, as
    ``product._acyclic`` turns it off, so a cycle the call leaves is counted
    here rather than freed by a collection the call happened to trigger;
    and everything the call made is still in the youngest generation, so
    collecting that generation alone finds every such cycle."""
    gc.collect(0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        call(*args)
    finally:
        if enabled:
            gc.enable()
    assert gc.collect(0) == 0, f"{call.__name__} left cyclic garbage"


def outcome(call) -> str:
    """What ``call()`` gives: the repr of its value, or the class name and
    message of the catgram error it raises."""
    try:
        return repr(call())
    except CatgramError as exc:
        return f"{type(exc).__name__}: {exc}"
