"""Strongly regular configurations: symmetric point-line incidence
structures whose point graph (equivalently, line graph) is strongly
regular.

The package covers parameter feasibility screening, the known construction
families, difference-set methods, isomorphism and automorphism computation
via canonical labeling of the colored Levi graph, and exhaustive
classification of the configurations on a given point graph.
"""

from .algebra import (FiniteField, Group, cyclic, direct_product, make_group,
                      quaternion8, symmetric)
from .catalog import entry_by_name, published_entries
from .classify import compatible_pairs, find_configurations, reduce_isomorphs
from .constructions import (development, lp4, moore_configuration,
                            projective_plane, triangle_removal)
from .feasibility import (assess, clique_condition, eigendata, feasible_table,
                          square_condition, srg_param_feasible)
from .graphs import (Graph, SrgParams, from_graph6, hoffman_singleton,
                     k_cliques, latin_square_graph, make_graph, paley,
                     petersen, rook, shrikhande, srg_check, to_graph6)
from .incidence import (Configuration, SrcParams, alpha_spectrum, dual,
                        is_proper, point_graph, line_graph,
                        read_configuration, src_check, validate,
                        write_configuration)
from .iso import (are_isomorphic, aut_order, automorphism_generators,
                  canonical_form, is_self_dual)
from .sdds import difference_profile, sdds_check, sdds_search

__version__ = "0.1.0"

__all__ = [
    "FiniteField", "Group", "cyclic", "direct_product", "make_group",
    "quaternion8", "symmetric",
    "entry_by_name", "published_entries",
    "compatible_pairs", "find_configurations", "reduce_isomorphs",
    "development", "lp4", "moore_configuration", "projective_plane",
    "triangle_removal",
    "assess", "clique_condition", "eigendata", "feasible_table",
    "square_condition", "srg_param_feasible",
    "Graph", "SrgParams", "from_graph6", "hoffman_singleton", "k_cliques",
    "latin_square_graph", "make_graph", "paley", "petersen", "rook",
    "shrikhande", "srg_check", "to_graph6",
    "Configuration", "SrcParams", "alpha_spectrum", "dual", "is_proper",
    "point_graph", "line_graph", "read_configuration", "src_check",
    "validate", "write_configuration",
    "are_isomorphic", "aut_order", "automorphism_generators",
    "canonical_form", "is_self_dual",
    "difference_profile", "sdds_check", "sdds_search",
    "__version__",
]
