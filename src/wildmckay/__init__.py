"""Exact invariants of wild Z/p quotient singularities.

The package computes, entirely in exact arithmetic: canonical rational
functions in the Lefschetz class and their realizations (motivic),
Artin-Schreier covers of the formal disk with their normal forms,
ramification jumps and census oracles (covers, gf, laurent), the stringy
motivic invariants of the associated quotient singularities (stringy), and
brute-force verification of the known invariant-ring presentations
(invariant_rings).  The cli module exposes everything as the `wildmckay`
command.
"""

from .covers import ASCoverClass, count_extensions, count_rep_covers, enumerate_covers, reduce, verify_jump
from .gf import GF
from .laurent import artin_schreier
from .motivic import L, MotivicValue, geometric_sum
from .stringy import (
    RepType,
    origin_fiber_class,
    origin_fiber_point_count,
    poincare_duality_holds,
    projectivized_invariant,
    shift_number,
    shift_slope,
    smooth_pair_invariant,
    stack_pair_invariant,
    stringy_euler,
    stringy_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "ASCoverClass",
    "GF",
    "L",
    "MotivicValue",
    "RepType",
    "artin_schreier",
    "count_extensions",
    "count_rep_covers",
    "enumerate_covers",
    "geometric_sum",
    "origin_fiber_class",
    "origin_fiber_point_count",
    "poincare_duality_holds",
    "projectivized_invariant",
    "reduce",
    "shift_number",
    "shift_slope",
    "smooth_pair_invariant",
    "stack_pair_invariant",
    "stringy_euler",
    "stringy_invariant",
    "verify_jump",
]
