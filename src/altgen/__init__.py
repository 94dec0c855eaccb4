"""Expander generating sets for alternating groups, with checkable constructions.

The library builds the cube-of-points model, the involution generating sets
pulled through the axis embeddings, the short words realizing routing and
cycles, and the spectral, random-walk, character and exact-arithmetic checks
that verify every constructive step at desk scale.
"""

from .geometry import CubeGeometry
from .perms import Permutation, product
from .schreier_sims import group_order
from .gf2 import MatGF2, primitive_order_K_element, SideFieldAction
from .ring import EL3Element, GemWord, ring_generators, gem_factor
from .embeddings import ShiftVector, GeneratingSet, build_SN, build_Fn, build_sym
from .words import (WordInE, butterfly_factor, grid_route, tosquare_word,
                    cycle_word, conjugacy_word47, standard_cycle_length)
from .blocks import block_factor, window_family, factor_count_bound
from .graphs import schreier_graph, cayley_graph, ActionGraph, EdgeGraph
from .spectral import spectral_gap, SpectralReport
from .walks import (ExactDistribution, full_sweep, tuple_walk,
                    doeblin_contraction_check, urn_bound, urn_mc,
                    mixing_time_points)
from .characters import (dimension, mn_character, roichman_violations,
                         partitions, conjugate, decay_factor)
from .certify import (BoundExpr, DerivationNode, derive_paper_constants,
                      derive_decay_chain, rule_kcball, rule_kcrel, rule_reltconst)

__all__ = [
    "CubeGeometry", "Permutation", "product", "group_order",
    "MatGF2", "primitive_order_K_element", "SideFieldAction",
    "EL3Element", "GemWord", "ring_generators", "gem_factor",
    "ShiftVector", "GeneratingSet",
    "build_SN", "build_Fn", "build_sym",
    "WordInE", "butterfly_factor", "grid_route", "tosquare_word",
    "cycle_word", "conjugacy_word47", "standard_cycle_length",
    "block_factor", "window_family", "factor_count_bound",
    "schreier_graph", "cayley_graph", "ActionGraph", "EdgeGraph",
    "spectral_gap", "SpectralReport",
    "ExactDistribution", "full_sweep", "tuple_walk",
    "doeblin_contraction_check", "urn_bound", "urn_mc", "mixing_time_points",
    "dimension", "mn_character", "roichman_violations", "partitions",
    "conjugate", "decay_factor",
    "BoundExpr", "DerivationNode", "derive_paper_constants",
    "derive_decay_chain", "rule_kcball", "rule_kcrel", "rule_reltconst",
]
