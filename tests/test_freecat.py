import itertools
import random
import re

import pytest

from catgram import (
    CompositionError,
    FiniteGraph,
    FreeFunctor,
    Generator,
    InputError,
    Path,
    apply_functor,
    end_marked,
    enumerate_paths,
    identity_functor,
    identity_path,
    monoid_graph,
    path_compose,
    word,
)
from conftest import outcome, words

AB = monoid_graph(("a", "b"))
TWO = FiniteGraph(
    objects=("X", "Y"),
    generators=(Generator("u", "X", "Y"), Generator("v", "Y", "X")),
)


def test_compose_concatenates():
    assert path_compose(word(AB, "a"), word(AB, "b")) == word(AB, "ab")


def test_compose_identity_left():
    assert path_compose(identity_path("*"), word(AB, "a")) == word(AB, "a")


def test_compose_endpoint_mismatch():
    marked = end_marked(monoid_graph(("a",)))
    dollar = marked.path(("$",))
    with pytest.raises(CompositionError):
        path_compose(dollar, marked.path(("a",)))


def test_compose_associative_and_unital_exhaustive():
    # all composable triples of paths with up to 4 generators, on both a
    # one-object and a two-object graph
    for graph in (AB, TWO):
        paths = [
            p
            for a in graph.objects
            for b in graph.objects
            for p in enumerate_paths(graph, a, b, 4)
        ]
        for p in paths:
            assert path_compose(identity_path(p.src), p) == p
            assert path_compose(p, identity_path(p.dst)) == p
        for p in paths:
            for q in paths:
                if p.dst != q.src:
                    continue
                for r in paths:
                    if q.dst != r.src:
                        continue
                    assert path_compose(path_compose(p, q), r) == path_compose(
                        p, path_compose(q, r)
                    )


CD = monoid_graph(("c", "d"))
F_EXPAND = FreeFunctor(
    domain=AB,
    codomain=CD,
    object_map={"*": "*"},
    generator_map={"a": word(CD, "cd"), "b": identity_path("*")},
)


def test_apply_functor_expands_generators():
    assert apply_functor(F_EXPAND, word(AB, "ab")) == word(CD, "cd")


def test_apply_functor_identity_law():
    assert apply_functor(F_EXPAND, identity_path("*")) == identity_path("*")


def test_identity_functor_is_identity():
    assert apply_functor(identity_functor(AB), word(AB, "abba")) == word(AB, "abba")


def test_apply_functor_is_homomorphic():
    paths = enumerate_paths(AB, "*", "*", 3)
    for p in paths:
        for q in paths:
            assert apply_functor(F_EXPAND, path_compose(p, q)) == path_compose(
                apply_functor(F_EXPAND, p), apply_functor(F_EXPAND, q)
            )


def test_apply_functor_rejects_foreign_path():
    with pytest.raises(InputError):
        apply_functor(F_EXPAND, word(CD, "c"))


F_FOLD = FreeFunctor(
    domain=TWO,
    codomain=AB,
    object_map={"X": "*", "Y": "*"},
    generator_map={"u": word(AB, "ab"), "v": identity_path("*")},
)
F_TWIST = FreeFunctor(
    domain=TWO,
    codomain=TWO,
    object_map={"X": "X", "Y": "Y"},
    generator_map={"u": TWO.path(("u", "v", "u")), "v": TWO.path(("v",))},
)


def _composed(functor, p):
    """The image of ``p`` composed one generator at a time."""
    out = identity_path(functor.object_map[p.src])
    for name in p.gens:
        out = path_compose(out, functor.generator_map[name])
    return out


def _random_path(rng, graph, length):
    at = rng.choice(graph.objects)
    gens = []
    for _ in range(length):
        g = rng.choice(graph.out_of[at])
        gens.append(g.name)
        at = g.dst
    return graph.path(gens, src=at if not gens else None)


def test_apply_functor_equals_composition_generator_by_generator():
    rng = random.Random(7)
    for functor in (F_EXPAND, F_FOLD, F_TWIST, identity_functor(TWO)):
        for _ in range(200):
            p = _random_path(rng, functor.domain, rng.randrange(12))
            assert apply_functor(functor, p) == _composed(functor, p)
    # the reference is quadratic in the path's length; apply_functor is not
    long = _random_path(rng, TWO, 20_000)
    assert apply_functor(F_FOLD, long) == _composed(F_FOLD, long)
    assert len(apply_functor(F_FOLD, long)) == 20_000  # u and v alternate


def test_has_object_answers_for_unknown_objects():
    assert TWO.has_object("X") and TWO.has_object("Y")
    assert not TWO.has_object("Z")
    assert not TWO.has_object("*")
    assert not AB.has_object("X")


def test_end_marked_adds_top_and_marker():
    marked = end_marked(AB)
    assert marked.objects == ("*", "⊤")
    assert {g.name for g in marked.generators} == {"a", "b", "$"}
    dollar = marked.generator_by_name["$"]
    assert (dollar.src, dollar.dst) == ("*", "⊤")


def test_end_marked_empty_alphabet():
    marked = end_marked(monoid_graph(()))
    assert marked.objects == ("*", "⊤")
    assert [g.name for g in marked.generators] == ["$"]


def test_end_marked_hom_to_top():
    marked = end_marked(AB)
    assert [
        "".join(p.gens) for p in enumerate_paths(marked, "*", "⊤", 2)
    ] == ["$", "a$", "b$"]


def test_end_marked_requires_one_object():
    with pytest.raises(InputError):
        end_marked(TWO)


def test_enumerate_paths_short_words():
    got = enumerate_paths(AB, "*", "*", 1)
    assert [p.gens for p in got] == [(), ("a",), ("b",)]


def test_enumerate_paths_end_marked():
    marked = end_marked(monoid_graph(("a",)))
    assert words(enumerate_paths(marked, "*", "⊤", 3)) == {"$", "a$", "aa$"}


def test_enumerate_paths_unreachable():
    graph = FiniteGraph(objects=("X", "Y"), generators=(Generator("u", "Y", "X"),))
    assert enumerate_paths(graph, "X", "Y", 5) == ()


@pytest.mark.parametrize("max_len", [0, 1, 2, 3, 4])
def test_enumerate_paths_count_formula(max_len):
    assert len(enumerate_paths(AB, "*", "*", max_len)) == sum(
        2**k for k in range(max_len + 1)
    )


def test_enumerate_paths_sorts_by_name_not_declaration():
    got = enumerate_paths(monoid_graph(("b", "a")), "*", "*", 2)
    assert ["".join(p.gens) for p in got] == ["", "a", "b", "aa", "ab", "ba", "bb"]


def test_enumerate_paths_is_iterative():
    got = enumerate_paths(monoid_graph(("a",)), "*", "*", 2000)
    assert [p.gens for p in got] == [("a",) * n for n in range(2001)]


def test_enumerate_paths_order_is_length_then_lex():
    got = enumerate_paths(AB, "*", "*", 2)
    assert [p.gens for p in got] == [
        (),
        ("a",),
        ("b",),
        ("a", "a"),
        ("a", "b"),
        ("b", "a"),
        ("b", "b"),
    ]


def test_graph_rejects_duplicates_and_bad_endpoints():
    with pytest.raises(InputError):
        FiniteGraph(objects=("*", "*"))
    with pytest.raises(InputError):
        FiniteGraph(objects=("*",), generators=(Generator("a", "*", "Y"),))
    with pytest.raises(InputError):
        FiniteGraph(
            objects=("*",),
            generators=(Generator("a", "*", "*"), Generator("a", "*", "*")),
        )


def test_path_validation():
    with pytest.raises(InputError):
        AB.path((), src=None)
    with pytest.raises(InputError):
        AB.path(("z",))
    assert AB.contains_path(word(AB, "ab"))
    assert not AB.contains_path(Path("*", "*", ("z",)))
    assert not TWO.contains_path(Path("X", "X", ("u", "u")))


def _contains_path_by_rebuilding(graph, p):
    """Reference for ``contains_path``: rebuild the path from its generator
    names through ``FiniteGraph.path`` and compare."""
    try:
        q = graph.path(p.gens, src=p.src if p.is_identity else None)
    except (InputError, CompositionError):
        return False
    return q == p


@pytest.mark.parametrize("graph", [AB, TWO, end_marked(AB)], ids=["AB", "TWO", "AB-end"])
def test_contains_path_agrees_with_rebuilding_exhaustive(graph):
    names = [g.name for g in graph.generators] + ["z"]
    objects = list(graph.objects) + ["nowhere"]
    for length in range(4):
        for gens in itertools.product(names, repeat=length):
            for src, dst in itertools.product(objects, repeat=2):
                p = Path(src, dst, gens)
                assert graph.contains_path(p) == _contains_path_by_rebuilding(graph, p), p


@pytest.mark.parametrize(
    "object_map,generator_map,message",
    [
        ({"X": "*"}, {}, "object 'Y' missing from object map"),
        ({"X": "*", "Y": "nowhere"}, {}, "object 'Y' mapped outside the codomain"),
        ({"X": "*", "Y": "*"}, {"u": word(AB, "a")}, "generator 'v' missing from generator map"),
        ({"X": "*", "Y": "*"}, {"u": Path("*", "*", ("z",)), "v": word(AB, "a")},
         "image of generator 'u' is not a codomain path"),
    ],
    ids=["object-missing", "object-outside", "generator-missing", "not-a-path"],
)
def test_free_functor_error_messages(object_map, generator_map, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        FreeFunctor(TWO, AB, object_map, generator_map)


def test_free_functor_rejects_an_image_with_other_endpoints():
    with pytest.raises(
        InputError, match="^image of generator 'a' has endpoints X->Y, expected X->X$"
    ):
        FreeFunctor(AB, TWO, {"*": "X"}, {"a": word(TWO, "u"), "b": identity_path("X")})


# -- branches no other test takes -------------------------------------------


@pytest.mark.parametrize(
    "call, expected",
    [
        (
            lambda: AB.path(["a"], src="x"),
            "InputError: path declared source 'x' but first generator starts at '*'",
        ),
        (
            lambda: end_marked(monoid_graph(("a", "$"))),
            "InputError: graph already uses the reserved end-marker names",
        ),
        (lambda: enumerate_paths(AB, "*", "*", -1), "InputError: max_len must be nonnegative"),
        (lambda: enumerate_paths(AB, "*", "x", 1), "InputError: unknown endpoint object"),
        (lambda: word(AB, ""), "InputError: empty path needs an explicit source object"),
    ],
    ids=["declared-source", "reserved-end-marker", "negative-length", "unknown-endpoint", "empty-word"],
)
def test_rarely_taken_branches(call, expected):
    assert outcome(call) == expected
