"""Brute-force ground truth, kept deliberately naive.

``enumerate_language`` computes the bounded language of a grammar as a least
fixed point on sets of words, one set per color: repeatedly splice every
node's segments around already-derived words and keep anything within the
length bound.  The lattice of bounded word sets is finite, so the sweep
terminates exactly, with no tree bound or cycle analysis; every derivable
word within the bound appears because its subderivations derive shorter (or
equal) words.

Nothing here shares algorithms with the parser or the pullback; only the
data types are common.  Splicing is re-done by plain concatenation so the
oracle can confront them as independent evidence.
"""

from __future__ import annotations

from typing import Iterator

from .automaton import Automaton
from .errors import CatgramError
from .freecat import Path, enumerate_paths
from .grammar import Grammar
from .spliced import SplicedArrow


def _splice_words(splice: SplicedArrow, children: tuple[Path, ...]) -> Path:
    gens: tuple[str, ...] = splice.segments[0].gens
    for i, u in enumerate(children):
        gens = gens + u.gens + splice.segments[i + 1].gens
    return Path(splice.segments[0].src, splice.segments[-1].dst, gens)


def _combos(
    pools: list[list[Path]], budget: int
) -> Iterator[tuple[Path, ...]]:
    """Tuples drawn from the pools whose total length fits the budget."""
    if not pools:
        yield ()
        return
    for head in pools[0]:
        room = budget - len(head.gens)
        if room < 0:
            continue
        for tail in _combos(pools[1:], room):
            yield (head,) + tail


def enumerate_language(grammar: Grammar, max_len: int, max_sweeps: int | None = None) -> tuple[Path, ...]:
    """Exactly the arrows of length at most ``max_len`` derived at the start
    color, in length-then-lexicographic order.

    ``max_sweeps`` optionally caps the number of full sweeps, turning an
    unexpectedly slow saturation into an error instead of a long wait.
    """
    if max_len < 0:
        raise CatgramError("max_len must be nonnegative")
    words: dict[str, set[Path]] = {c: set() for c in grammar.species.colors}
    sweeps = 0
    changed = True
    while changed:
        changed = False
        sweeps += 1
        if max_sweeps is not None and sweeps > max_sweeps:
            raise CatgramError(f"language sweep did not saturate within {max_sweeps} sweeps")
        for node in grammar.species.nodes:
            splice = grammar.splice_of(node.name)
            fixed = sum(len(s.gens) for s in splice.segments)
            if fixed > max_len:
                continue
            pools = [sorted(words[c], key=_path_key) for c in node.inputs]
            target = words[node.output]
            for combo in _combos(pools, max_len - fixed):
                w = _splice_words(splice, combo)
                if w not in target:
                    target.add(w)
                    changed = True
    return tuple(sorted(words[grammar.start], key=_path_key))


def _path_key(p: Path) -> tuple[int, tuple[str, ...]]:
    return (len(p.gens), p.gens)


def enumerate_regular_language(automaton: Automaton, max_len: int) -> tuple[Path, ...]:
    """Exactly the arrows of length at most ``max_len`` recognized by the
    automaton: enumerate runs in the state graph and push them down."""
    over = {t.name: t.over for t in automaton.transitions}
    src = automaton.state_over[automaton.initial]
    dst = automaton.state_over[automaton.final]
    found = {
        Path(src, dst, tuple(over[t] for t in run.gens))
        for run in enumerate_paths(
            automaton.state_graph, automaton.initial, automaton.final, max_len
        )
    }
    return tuple(sorted(found, key=_path_key))
