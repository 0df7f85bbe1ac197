"""The package's public names, resolved from their modules on first use."""

import importlib
import subprocess
import sys

import pytest

import catgram

# the exported names, by defining module
EXPORTED_BY_MODULE = {
    "errors": ["CatgramError", "CompositionError", "InputError"],
    "freecat": [
        "END_MARKER", "STAR", "TOP", "FiniteGraph", "FreeFunctor", "Generator", "Path",
        "apply_functor", "compose_functors", "end_marked", "enumerate_paths", "identity_functor",
        "identity_path", "monoid_graph", "path_compose", "word",
    ],
    "species": [
        "Apply", "DerivationTree", "Leaf", "Node", "Species", "SpeciesMap",
        "enumerate_closed_trees", "identity_species_map", "leaf_colors", "node_count",
        "root_color", "tree_substitute", "validate_species_map",
    ],
    "spliced": [
        "GapType", "SplicedArrow", "constant", "spliced_compose_parallel",
        "spliced_compose_partial", "spliced_identity",
    ],
    "grammar": [
        "Grammar", "bilinearize", "check_equiv_bounded", "eval_tree", "export_classical",
        "functorial_image", "grammar_from_rules", "import_classical", "nullable_set",
        "parse_classical_text", "spliced_concat", "union", "useful_set", "validate",
    ],
    "parser": [
        "PackedForest", "ParseItem", "count_parses", "enumerate_parses", "parse_chart",
        "parse_forest", "recognize",
    ],
    "automaton": [
        "Automaton", "State", "Transition", "UlfViolation", "automaton_of",
        "interval_automaton", "run_membership", "tree_accept", "ulf_check_bounded",
    ],
    "product": ["intersect", "pullback_grammar", "trim"],
    "contour": [
        "CSDecomposition", "DyckLetter", "brackets", "chromatic_factorization",
        "contour_category", "contour_functor", "contour_interpretation", "contour_word",
        "cs_check", "cs_decompose", "dyck_decode", "dyck_translate", "universal_grammar",
    ],
    "oracle": ["enumerate_language", "enumerate_regular_language"],
}
EXPORTED = [name for names in EXPORTED_BY_MODULE.values() for name in names]

# names the package no longer has, by the module they came from; a
# re-export must not bring one back
REMOVED = {
    "GrammarProperties": "grammar",
    "properties": "grammar",
    "_is_cnf": "grammar",
    "colors_automaton": "contour",
    "constants_of": "spliced",
    "enumerate_runs": "automaton",
    "ordinal_sum": "freecat",
    "is_closed": "species",
    "import_classical_automaton": "automaton",
}


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 86
    assert catgram.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(catgram))


@pytest.mark.parametrize("module, names", EXPORTED_BY_MODULE.items(), ids=list(EXPORTED_BY_MODULE))
def test_each_name_is_its_modules_object(module, names):
    defining = importlib.import_module(f"catgram.{module}")
    for name in names:
        assert getattr(catgram, name) is getattr(defining, name), name


def test_the_named_examples():
    assert catgram.intersect is catgram.product.intersect
    assert catgram.import_classical is catgram.grammar.import_classical


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from catgram import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(EXPORTED)


def test_a_submodule_resolves_after_a_bare_import():
    code = "import catgram; print(catgram.parser.__name__, catgram.parse_forest.__module__)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (res.returncode, res.stdout, res.stderr) == (0, "catgram.parser catgram.parser\n", "")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'catgram' has no attribute 'nope'$"):
        catgram.nope
    assert not hasattr(catgram, "nope")
    with pytest.raises(ImportError):
        exec("from catgram import nope", {})


@pytest.mark.parametrize("name, module", REMOVED.items(), ids=list(REMOVED))
def test_a_removed_name_stays_removed(name, module):
    with pytest.raises(AttributeError):
        getattr(catgram, name)
    with pytest.raises(ImportError):
        exec(f"from catgram import {name}", {})
    assert not hasattr(importlib.import_module(f"catgram.{module}"), name)
