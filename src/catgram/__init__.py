"""Context-free grammars of arrows over free categories.

The package builds languages of arrows in finitely presented free
categories: grammars are species maps into the spliced-arrow operad, parsing
is a span-based least fixed point, automata are state graphs mapped
generator-to-generator onto the base, intersection is a pullback along the
automaton, and every grammar decomposes into a chromatic contour language,
a recoloring automaton and an interpreting functor.
"""

from .errors import CatgramError, CompositionError, InputError
from .freecat import (
    END_MARKER,
    STAR,
    TOP,
    FiniteGraph,
    FreeFunctor,
    Generator,
    Path,
    apply_functor,
    compose_functors,
    end_marked,
    enumerate_paths,
    identity_functor,
    identity_path,
    monoid_graph,
    ordinal_sum,
    path_compose,
    word,
)
from .species import (
    Apply,
    DerivationTree,
    Leaf,
    Node,
    Species,
    SpeciesMap,
    enumerate_closed_trees,
    identity_species_map,
    is_closed,
    leaf_colors,
    node_count,
    root_color,
    tree_substitute,
    validate_species_map,
)
from .spliced import (
    GapType,
    SplicedArrow,
    constant,
    constants_of,
    spliced_compose_parallel,
    spliced_compose_partial,
    spliced_identity,
)
from .grammar import (
    Grammar,
    GrammarProperties,
    bilinearize,
    check_equiv_bounded,
    eval_tree,
    export_classical,
    functorial_image,
    grammar_from_rules,
    import_classical,
    nullable_set,
    parse_classical_text,
    properties,
    spliced_concat,
    union,
    useful_set,
    validate,
)
from .parser import (
    PackedForest,
    ParseItem,
    count_parses,
    enumerate_parses,
    parse_chart,
    parse_forest,
    recognize,
)
from .automaton import (
    Automaton,
    State,
    Transition,
    TreeAutomaton,
    TreeTransition,
    UlfViolation,
    enumerate_runs,
    interval_automaton,
    run_membership,
    tree_accept,
    ulf_check_bounded,
    validate_tree_automaton,
)
from .automaton import import_classical as import_classical_automaton
from .product import intersect, pullback_grammar, trim
from .contour import (
    CSDecomposition,
    DyckLetter,
    brackets,
    chromatic_factorization,
    colors_automaton,
    contour_category,
    contour_functor,
    contour_interpretation,
    contour_word,
    cs_check,
    cs_decompose,
    dyck_decode,
    dyck_translate,
    universal_grammar,
)
from .oracle import enumerate_language, enumerate_regular_language

__version__ = "0.1.0"
