"""fusionkit: level-truncated sl2 fusion products and their diagram combinatorics.

The package computes, exactly over the integers, fusion products of
finite-dimensional sl2-modules at a fixed level, enumerates the crossingless
matches that index their intertwiner bases and variety strata, and
cross-verifies every counting identity relating the two pictures.
"""

from .bracketing import (
    BracketTree,
    count_truncated,
    enumerate_trees,
    parse_bracketing,
    ra_count,
    ra_count_c,
    rb_count,
    rb_count_c,
    satisfies_truncation,
)
from .diagrams import (
    ArcCensus,
    BoxConfig,
    LowerMatch,
    OrientedLowerMatch,
    arc_census,
    canonical_key,
    canonical_keys,
    enumerate_cm,
    enumerate_lcm,
    listing,
    listing_json,
    orientations,
    parse_canonical_key,
    untruncated_listing,
    validate,
)
from .geometry import (
    ComponentCensus,
    KernelProfile,
    component_census,
    dim_m,
    dim_z,
    kernel_profile,
    nl_condition,
)
from .module_action import (
    ActionMatrices,
    ModuleBasis,
    action_matrices,
    build_basis,
    isotypic_census,
    verify_sl2,
)
from .ring import (
    RingElement,
    dim_hom_fusion,
    dim_hom_tensor,
    fuse_many,
    fuse_pair,
    quotient_reduce,
    ring_mul,
    tensor_cg,
    weight_multiplicities,
)

__version__ = "0.1.0"

__all__ = [
    "ActionMatrices",
    "ArcCensus",
    "BoxConfig",
    "BracketTree",
    "ComponentCensus",
    "KernelProfile",
    "LowerMatch",
    "ModuleBasis",
    "OrientedLowerMatch",
    "RingElement",
    "action_matrices",
    "arc_census",
    "build_basis",
    "canonical_key",
    "canonical_keys",
    "component_census",
    "count_truncated",
    "dim_hom_fusion",
    "dim_hom_tensor",
    "dim_m",
    "dim_z",
    "enumerate_cm",
    "enumerate_lcm",
    "enumerate_trees",
    "fuse_many",
    "fuse_pair",
    "isotypic_census",
    "kernel_profile",
    "listing",
    "listing_json",
    "nl_condition",
    "orientations",
    "parse_bracketing",
    "parse_canonical_key",
    "quotient_reduce",
    "ra_count",
    "ra_count_c",
    "rb_count",
    "rb_count_c",
    "ring_mul",
    "satisfies_truncation",
    "tensor_cg",
    "untruncated_listing",
    "validate",
    "verify_sl2",
    "weight_multiplicities",
]
