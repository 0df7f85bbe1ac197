"""Context-free grammars of arrows over free categories.

The package builds languages of arrows in finitely presented free
categories: grammars are species maps into the spliced-arrow operad, parsing
is a span-based least fixed point, automata are state graphs mapped
generator-to-generator onto the base, intersection is a pullback along the
automaton, and every grammar decomposes into a chromatic contour language,
a recoloring automaton and an interpreting functor.

``import catgram`` loads this file alone: each public name, and each
submodule named below, is imported from its module on first use (PEP 562).
"""

from importlib import import_module as _import_module

# the public names by defining module
_EXPORTS = {
    "errors": "CatgramError CompositionError InputError",
    "freecat": "END_MARKER STAR TOP FiniteGraph FreeFunctor Generator Path apply_functor"
    " compose_functors end_marked enumerate_paths identity_functor identity_path monoid_graph"
    " path_compose word",
    "species": "Apply DerivationTree Leaf Node Species SpeciesMap enumerate_closed_trees"
    " identity_species_map leaf_colors node_count root_color tree_substitute",
    "spliced": "GapType SplicedArrow constant spliced_compose_parallel spliced_compose_partial"
    " spliced_identity",
    "grammar": "Grammar bilinearize check_equiv_bounded eval_tree export_classical functorial_image"
    " grammar_from_rules import_classical nullable_set parse_classical_text spliced_concat union"
    " useful_set",
    "parser": "PackedForest ParseItem count_parses enumerate_parses parse_chart parse_forest recognize",
    "automaton": "Automaton State Transition UlfViolation automaton_of interval_automaton"
    " run_membership tree_accept ulf_check_bounded",
    "product": "intersect pullback_grammar trim",
    "contour": "CSDecomposition DyckLetter brackets chromatic_factorization contour_category"
    " contour_functor contour_interpretation contour_word cs_check cs_decompose dyck_decode"
    " dyck_translate universal_grammar",
    "oracle": "enumerate_language enumerate_regular_language",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
