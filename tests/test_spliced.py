import itertools
import random

import pytest

from catgram import (
    CompositionError,
    GapType,
    SplicedArrow,
    constant,
    constants_of,
    end_marked,
    identity_path,
    monoid_graph,
    spliced_compose_parallel,
    spliced_compose_partial,
    spliced_identity,
    word,
)
from conftest import words

AB = monoid_graph(("a", "b"))
STAR_GAP = GapType("*", "*")


def op(*segments: str) -> SplicedArrow:
    """A spliced word over the one-object category on {a, b, ...}."""
    graph = monoid_graph(tuple(sorted({c for s in segments for c in s})) or ("a",))
    paths = tuple(graph.path(tuple(s), src="*") for s in segments)
    return SplicedArrow(
        STAR_GAP, tuple(STAR_GAP for _ in range(len(segments) - 1)), paths
    )


def segs(f: SplicedArrow) -> list[str]:
    return ["".join(s.gens) for s in f.segments]


def test_identity_on_star_is_two_empty_segments():
    ident = spliced_identity(STAR_GAP)
    assert ident.arity == 1
    assert segs(ident) == ["", ""]


def test_identity_typed_across_objects():
    marked = end_marked(AB)
    gap = GapType("*", "⊤")
    ident = spliced_identity(gap)
    assert ident.segments == (identity_path("*"), identity_path("⊤"))


def test_identity_is_neutral():
    f = op("a", "b", "c")
    assert spliced_compose_partial(f, 0, spliced_identity(STAR_GAP)) == f
    assert spliced_compose_partial(f, 1, spliced_identity(STAR_GAP)) == f
    assert spliced_compose_parallel(spliced_identity(STAR_GAP), (f,)) == f


def test_partial_composition_at_inner_gap():
    # w0-w1-w2-w3 with u0-u1-u2 at gap 1 gives w0-w1u0-u1-u2w2-w3
    f = op("p", "q", "r", "s")
    g = op("u", "v", "w")
    assert segs(spliced_compose_partial(f, 1, g)) == ["p", "qu", "v", "wr", "s"]


def test_partial_composition_with_constant_merges_three_segments():
    f = op("a", "b", "c")
    d = constant(word(monoid_graph(("a", "b", "c", "d")), "d"))
    got = spliced_compose_partial(f, 0, d)
    assert got.arity == 1
    assert segs(got) == ["adb", "c"]


def test_partial_composition_index_and_type_errors():
    f = op("a", "b")
    with pytest.raises(CompositionError):
        spliced_compose_partial(f, 1, f)
    marked = end_marked(AB)
    g = SplicedArrow(
        GapType("*", "⊤"), (), (marked.path(("$",)),)
    )
    with pytest.raises(CompositionError):
        spliced_compose_partial(f, 0, g)


def test_partial_composition_across_objects():
    # the gap left alone keeps its own type: (*,*) before the end marker,
    # (⊤,⊤) after it
    marked = end_marked(AB)
    top = GapType("⊤", "⊤")
    f = SplicedArrow(
        GapType("*", "⊤"),
        (STAR_GAP, top),
        (marked.path(("a",)), marked.path(("$",)), identity_path("⊤")),
    )
    got = spliced_compose_partial(f, 0, constant(marked.path(("b",))))
    assert segs(got) == ["ab$", ""] and got.gaps == (top,)
    assert spliced_compose_partial(f, 1, spliced_identity(top)) == f


def test_parallel_worked_example():
    f = op("a", "b", "c")
    got = spliced_compose_parallel(f, (op("d", "e", "f"), op("", "a")))
    assert segs(got) == ["ad", "e", "fb", "ac"]
    assert got.arity == 3


def test_parallel_on_identities_is_neutral():
    f = op("a", "", "b")
    idents = tuple(spliced_identity(g) for g in f.gaps)
    assert spliced_compose_parallel(f, idents) == f


def test_unary_identity_absorbs_constants():
    for text in ("", "a", "ab", "ba"):
        w = constant(AB.path(tuple(text), src="*"))
        assert spliced_compose_parallel(spliced_identity(STAR_GAP), (w,)) == w


def test_not_free_relation():
    # the binary all-identity operation applied to (id, w) collapses to w,
    # so the operad has equations a free operad would not
    binary = op("", "", "")
    for text in ("", "a", "bb", "ab", "aab"):
        w = constant(AB.path(tuple(text), src="*"))
        got = spliced_compose_parallel(binary, (constant(identity_path("*")), w))
        assert got == w


def _all_ops(pool, arities):
    for n in arities:
        for chosen in itertools.product(pool, repeat=n + 1):
            yield op(*chosen)


SMALL = ["", "a"]


def test_parallel_equals_iterated_partial_exhaustive():
    ops = list(_all_ops(["", "a", "b"], [0, 1, 2]))
    outer = list(_all_ops(["", "a", "b"], [1, 2]))
    for f in outer:
        for combo in itertools.product(ops, repeat=f.arity):
            parallel = spliced_compose_parallel(f, combo)
            iterated = f
            for i in reversed(range(f.arity)):
                iterated = spliced_compose_partial(iterated, i, combo[i])
            assert parallel == iterated


def test_sequential_associativity_exhaustive_small():
    # (f oi g) o_{i+j} h == f oi (g oj h) whenever the second composition
    # lands inside g
    ops = list(_all_ops(SMALL, [0, 1, 2]))
    for f in _all_ops(SMALL, [1, 2]):
        for g in (x for x in ops if x.arity >= 1):
            for h in ops:
                for i in range(f.arity):
                    for j in range(g.arity):
                        lhs = spliced_compose_partial(
                            spliced_compose_partial(f, i, g), i + j, h
                        )
                        rhs = spliced_compose_partial(
                            f, i, spliced_compose_partial(g, j, h)
                        )
                        assert lhs == rhs


def test_interchange_exhaustive_small():
    # disjoint gaps commute, with the right reindexing
    ops = list(_all_ops(SMALL, [0, 1]))
    for f in _all_ops(SMALL, [2]):
        for g in ops:
            for h in ops:
                after_g = spliced_compose_partial(f, 0, g)
                lhs = spliced_compose_partial(after_g, g.arity, h)
                rhs = spliced_compose_partial(
                    spliced_compose_partial(f, 1, h), 0, g
                )
                assert lhs == rhs


def _random_op(rng, arity, max_seg_len=2):
    pool = ["", "a", "b", "aa", "ab", "ba", "bb"]
    return op(*(rng.choice(pool) for _ in range(arity + 1)))


def test_operad_laws_random_arities_up_to_three():
    rng = random.Random(20240811)
    for ar_f in (1, 2, 3):
        for ar_g in (1, 2, 3):
            for ar_h in (0, 1, 2, 3):
                for _ in range(3):
                    f = _random_op(rng, ar_f)
                    g = _random_op(rng, ar_g)
                    h = _random_op(rng, ar_h)
                    for i in range(ar_f):
                        for j in range(ar_g):
                            lhs = spliced_compose_partial(
                                spliced_compose_partial(f, i, g), i + j, h
                            )
                            rhs = spliced_compose_partial(
                                f, i, spliced_compose_partial(g, j, h)
                            )
                            assert lhs == rhs
                    if ar_f >= 2:
                        for i in range(ar_f - 1):
                            lhs = spliced_compose_partial(
                                spliced_compose_partial(f, i, g), i + ar_g, h
                            )
                            rhs = spliced_compose_partial(
                                spliced_compose_partial(f, i + 1, h), i, g
                            )
                            assert lhs == rhs


def test_constants_of_wraps_paths():
    got = constants_of(AB, STAR_GAP, 1)
    assert all(c.is_constant for c in got)
    assert words(c.as_path() for c in got) == {"", "a", "b"}


def test_constants_of_end_marked():
    marked = end_marked(monoid_graph(("a",)))
    got = constants_of(marked, GapType("*", "⊤"), 2)
    assert words(c.as_path() for c in got) == {"$", "a$"}


def test_constants_of_empty_hom_set():
    marked = end_marked(monoid_graph(("a",)))
    assert constants_of(marked, GapType("⊤", "*"), 0) == ()


def test_spliced_arrow_validates_typing():
    with pytest.raises(CompositionError):
        SplicedArrow(STAR_GAP, (), (identity_path("*"), identity_path("*")))
    marked = end_marked(AB)
    with pytest.raises(CompositionError):
        SplicedArrow(
            GapType("*", "⊤"),
            (),
            (word(AB, "ab"),),
        )
    top = GapType("*", "⊤")
    with pytest.raises(CompositionError, match="segment 1 has type"):
        SplicedArrow(top, (top,), (identity_path("*"), identity_path("*")))
    with pytest.raises(CompositionError, match="needs 2 segments"):
        SplicedArrow(STAR_GAP, (STAR_GAP,), (identity_path("*"),))

