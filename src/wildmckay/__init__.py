"""Exact invariants of wild Z/p quotient singularities.

The package computes, entirely in exact arithmetic: canonical rational
functions in the Lefschetz class and their realizations (motivic),
Artin-Schreier covers of the formal disk with their normal forms,
ramification jumps and census (covers, over gf), the stringy motivic
invariants of the associated quotient singularities (stringy), and
brute-force verification of the known invariant-ring presentations
(invariant_rings).  The battery (acceptance) checks them against second
routes (oracles, over the Laurent kernel laurent).  The cli module exposes
everything as the `wildmckay` command.
"""

__version__ = "0.1.0"

# each export and its module, which is imported when the name is first read
_HOMES = {
    **dict.fromkeys(("ASCoverClass", "count_extensions", "count_rep_covers", "enumerate_covers", "reduce"), "covers"),
    "GF": "gf",
    "artin_schreier": "laurent",
    **dict.fromkeys(("L", "MotivicValue", "geometric_sum"), "motivic"),
    **dict.fromkeys(("RepType", "origin_fiber_class", "origin_fiber_point_count", "poincare_duality_holds",
                     "projectivized_invariant", "shift_number", "shift_slope", "smooth_pair_invariant",
                     "stack_pair_invariant", "stringy_euler", "stringy_invariant"), "stringy"),
    "verify_jump": "oracles",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    # PEP 562: `import wildmckay.cli` compiles no module that the command does
    # not use.  A resolved name is not stored in this namespace, so it always
    # reads the module's current attribute (tracing swaps and restores them).
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
