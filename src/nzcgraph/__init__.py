"""Non-zero component graphs: construction, automorphisms, distinguishing numbers.

The package builds the graph on the non-zero vectors of an n-dimensional
space over q symbols (vertices adjacent iff their skeletons intersect),
computes its automorphism group with two independent engines, and decides
distinguishing numbers exactly or by certified bounds. Every structural
claim it relies on can be re-checked at desk scale through the certificate
suite in :mod:`nzcgraph.verify` or the ``nzc verify`` command.
"""

from .distinguishing import (DistResult, Labeling, all_distinct_labeling,
                             constructive_labeling_q2, constructive_labeling_q3, dist_number,
                             exists_distinguishing_labeling, find_color_preserving,
                             is_distinguishing, structural_survivors, twin_lower_bound)
from .errors import CapExceededError, NzcError, UnsupportedFieldError
from .graph import (NzcGraph, build, check_degree_formula,
                    check_degree_formula_general, check_pair_counts,
                    check_twin_structure, count_distinguishing_pairs,
                    twin_partition_by_neighborhood)
from .reporting import CheckReport
from .symmetry import (AutGroup, aut_group_oracle, aut_group_structural,
                       check_automorphism_structure, check_extension_isomorphism,
                       check_orbit_stabilizer, explicit_group, extend_basis_permutation,
                       is_automorphism)
from .vectorspace import (SpaceParams, enumerate_vectors, skeleton, skeleton_class,
                          skeleton_indices, vector_from_id, vector_id)

__version__ = "0.1.0"

__all__ = [
    "AutGroup", "CapExceededError", "CheckReport", "DistResult",
    "Labeling", "NzcError", "NzcGraph", "SpaceParams", "UnsupportedFieldError",
    "all_distinct_labeling", "aut_group_oracle", "aut_group_structural",
    "build", "check_automorphism_structure", "check_degree_formula",
    "check_degree_formula_general", "check_extension_isomorphism",
    "check_orbit_stabilizer", "check_pair_counts", "check_twin_structure",
    "constructive_labeling_q2", "constructive_labeling_q3", "count_distinguishing_pairs",
    "dist_number", "enumerate_vectors",
    "exists_distinguishing_labeling", "explicit_group", "extend_basis_permutation",
    "find_color_preserving", "is_automorphism", "is_distinguishing",
    "skeleton", "skeleton_class", "skeleton_indices",
    "structural_survivors", "twin_lower_bound", "twin_partition_by_neighborhood",
    "vector_from_id", "vector_id",
]
