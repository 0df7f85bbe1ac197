import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catgram import (
    CompositionError,
    GapType,
    SplicedArrow,
    constant,
    constants_of,
    end_marked,
    enumerate_paths,
    identity_path,
    monoid_graph,
    spliced_compose_parallel,
    spliced_compose_partial,
    spliced_identity,
    word,
)
from conftest import words
from test_parser import GRAPH_PQ

AB = monoid_graph(("a", "b"))
STAR_GAP = GapType("*", "*")
END_GAP = GapType("*", "⊤")
TOP_GAP = GapType("⊤", "⊤")
MARKED = end_marked(AB)
# a$ around a gap (*,*) and a gap (⊤,⊤): its types are read off the segments
ACROSS = SplicedArrow((MARKED.path(("a",)), MARKED.path(("$",)), identity_path("⊤")))


def op(*segments: str) -> SplicedArrow:
    """A spliced word over the one-object category on {a, b, ...}."""
    graph = monoid_graph(tuple(sorted({c for s in segments for c in s})) or ("a",))
    return SplicedArrow(tuple(graph.path(tuple(s), src="*") for s in segments))


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
    g = constant(MARKED.path(("$",)))
    with pytest.raises(CompositionError):
        spliced_compose_partial(f, 0, g)


def test_partial_composition_across_objects():
    # the gap left alone keeps its own type: (*,*) before the end marker,
    # (⊤,⊤) after it
    got = spliced_compose_partial(ACROSS, 0, constant(MARKED.path(("b",))))
    assert segs(got) == ["ab$", ""] and got.gaps == (TOP_GAP,)
    assert spliced_compose_partial(ACROSS, 1, spliced_identity(TOP_GAP)) == ACROSS


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


def test_types_are_read_off_the_segments():
    c = constant(word(AB, "ab"))
    assert (c.outer, c.gaps, c.arity, c.is_constant) == (STAR_GAP, (), 0, True)
    ident = spliced_identity(END_GAP)
    assert (ident.outer, ident.gaps, ident.arity, ident.is_constant) == (
        END_GAP, (END_GAP,), 1, False
    )
    assert (ACROSS.outer, ACROSS.gaps, ACROSS.arity) == (END_GAP, (STAR_GAP, TOP_GAP), 2)


def test_spliced_arrow_needs_a_segment():
    with pytest.raises(CompositionError, match="^a spliced arrow needs at least one segment$"):
        SplicedArrow(())


@st.composite
def pq_ops(draw, outer=None, min_arity=0):
    """A spliced arrow over the two-object GRAPH_PQ with up to three gaps of
    drawn types; segments have length at most two, identities included."""
    objects = st.sampled_from(GRAPH_PQ.objects)
    if outer is None:
        outer = GapType(draw(objects), draw(objects))
    n = draw(st.integers(min_arity, 3))
    ends = [outer.left, *(draw(objects) for _ in range(2 * n)), outer.right]
    return SplicedArrow(
        tuple(
            draw(st.sampled_from(enumerate_paths(GRAPH_PQ, src, dst, 2)))
            for src, dst in zip(ends[::2], ends[1::2])
        )
    )


@given(pq_ops())
def test_unit_laws_over_two_objects(f):
    assert spliced_compose_parallel(spliced_identity(f.outer), (f,)) == f
    for i, gap in enumerate(f.gaps):
        assert spliced_compose_partial(f, i, spliced_identity(gap)) == f


@given(st.data())
def test_sequential_associativity_over_two_objects(data):
    f = data.draw(pq_ops(min_arity=1))
    i = data.draw(st.integers(0, f.arity - 1))
    g = data.draw(pq_ops(f.gaps[i], min_arity=1))
    j = data.draw(st.integers(0, g.arity - 1))
    h = data.draw(pq_ops(g.gaps[j]))
    lhs = spliced_compose_partial(spliced_compose_partial(f, i, g), i + j, h)
    assert lhs == spliced_compose_partial(f, i, spliced_compose_partial(g, j, h))


@given(st.data())
def test_interchange_over_two_objects(data):
    f = data.draw(pq_ops(min_arity=2))
    i, k = sorted(data.draw(st.sets(st.integers(0, f.arity - 1), min_size=2, max_size=2)))
    g = data.draw(pq_ops(f.gaps[i]))
    h = data.draw(pq_ops(f.gaps[k]))
    lhs = spliced_compose_partial(spliced_compose_partial(f, i, g), k + g.arity - 1, h)
    assert lhs == spliced_compose_partial(spliced_compose_partial(f, k, h), i, g)


@given(st.data())
def test_parallel_equals_iterated_partial_over_two_objects(data):
    f = data.draw(pq_ops())
    operands = tuple(data.draw(pq_ops(gap)) for gap in f.gaps)
    parallel = spliced_compose_parallel(f, operands)
    iterated = f
    for i in reversed(range(f.arity)):
        iterated = spliced_compose_partial(iterated, i, operands[i])
    assert parallel == iterated
    assert parallel.outer == f.outer
    assert parallel.gaps == tuple(gap for g in operands for gap in g.gaps)
