"""Brute-force ground truth, kept deliberately naive.

``enumerate_language`` computes the bounded language of a grammar as a least
fixed point on sets of words, one set per color: repeatedly splice every
node's segments around already-derived words and keep anything within the
length bound.  The lattice of bounded word sets is finite, so the sweep
terminates exactly, with no tree bound or cycle analysis; every derivable
word within the bound appears because its subderivations derive shorter (or
equal) words.  Words are tuples of generator names; only the words
returned become ``Path`` objects.

Nothing here shares algorithms with the parser or the pullback; only the
data types are common.  Splicing is re-done by plain tuple concatenation,
each node's segments read once per call, so the oracle can confront them as
independent evidence.
"""

from __future__ import annotations

from .automaton import Automaton
from .errors import CatgramError, InputError
from .freecat import Path, enumerate_paths
from .grammar import Grammar


def _combos(pools: list[list[tuple[str, ...]]], budget: int) -> list[tuple[tuple[str, ...], ...]]:
    """Tuples drawn from the pools whose total length fits the budget, first
    pool slowest, each pool in its own order."""
    # every fitting prefix with the budget it leaves, one pool at a time
    combos: list[tuple[tuple[tuple[str, ...], ...], int]] = [((), budget)]
    for pool in pools:
        grown = []
        for combo, room in combos:
            for w in pool:
                n = len(w)
                if n <= room:
                    grown.append((combo + (w,), room - n))
        combos = grown
    return [combo for combo, _ in combos]


def enumerate_language(grammar: Grammar, max_len: int, max_sweeps: int | None = None) -> tuple[Path, ...]:
    """Exactly the arrows of length at most ``max_len`` derived at the start
    color, in length-then-lexicographic order.  A grammar is checked when
    built, so each color's words lie over its gap type.

    ``max_sweeps`` optionally caps the number of full sweeps, turning an
    unexpectedly slow saturation into an error instead of a long wait.
    """
    if max_len < 0:
        raise InputError("max_len must be nonnegative")
    words: dict[str, set[tuple[str, ...]]] = {c: set() for c in grammar.species.colors}
    rows = []
    for node in grammar.species.nodes:
        segments = [s.gens for s in grammar.splice_of(node.name).segments]
        room = max_len - sum(len(s) for s in segments)
        if room >= 0:
            rows.append((node.inputs, words[node.output], segments, room))
    sweeps = 0
    changed = True
    while changed:
        changed = False
        sweeps += 1
        if max_sweeps is not None and sweeps > max_sweeps:
            raise CatgramError(f"language sweep did not saturate within {max_sweeps} sweeps")
        for inputs, target, segments, room in rows:
            # snapshots: the output's set may be one of the inputs' sets
            pools = [list(words[c]) for c in inputs]
            for combo in _combos(pools, room):
                w = segments[0]
                for u, s in zip(combo, segments[1:]):
                    w = w + u + s
                if w not in target:
                    target.add(w)
                    changed = True
    gap = grammar.gap_of(grammar.start)
    found = (Path(gap.left, gap.right, w) for w in words[grammar.start])
    return tuple(sorted(found, key=_path_key))


def _path_key(p: Path) -> tuple[int, tuple[str, ...]]:
    return (len(p.gens), p.gens)


def enumerate_regular_language(automaton: Automaton, max_len: int) -> tuple[Path, ...]:
    """Exactly the arrows of length at most ``max_len`` recognized by the
    automaton: enumerate runs in the state graph and push them down."""
    over = {t.name: t.over for t in automaton.transitions}
    src, dst = automaton.state_over[automaton.initial], automaton.state_over[automaton.final]
    runs = enumerate_paths(automaton.state_graph, automaton.initial, automaton.final, max_len)
    found = {tuple(over[t] for t in run.gens) for run in runs}
    return tuple(sorted((Path(src, dst, w) for w in found), key=_path_key))
