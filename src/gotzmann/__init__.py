"""Gotzmann squarefree monomial ideals: verification, classification, counting.

Importing the package compiles none of its modules.  Each one is registered
in sys.modules as a lazy module, executed on its first attribute access, so
a `gotz` command runs only the modules it uses.  `gotzmann.selftest` is not
registered: only `gotz selftest` imports it.
"""

import importlib.util
import sys

_EXPORTS = {
    "core": (
        "POLY", "SQF", "InvariantViolation", "MonomialIdeal", "MonomialSpace",
        "RingContext", "binom", "component_space", "minimalize",
        "poly_hilbert_from_sqf", "poly_ring", "shadow_up", "space", "sqf_hilbert",
        "sqf_ring", "unit_ideal", "zero_ideal",
    ),
    "lex": (
        "is_gotzmann_ideal", "is_gotzmann_space", "is_lex_segment", "is_lex_some_order",
        "lex_segment", "lexify_in_R", "macaulay_rep", "minimal_growth", "sqf_lexify_in_S",
    ),
    "classify": ("SupernovaForm", "canonicalize", "recognize_supernova", "supernova_to_ideal"),
    "decompose": (
        "Decomposition", "alexander_dual_ideal", "alexander_dual_space", "colon_with_n1",
        "compress", "decompose", "growth_equality", "is_gdual", "pick_variable",
        "reassemble", "reconstruct",
    ),
    "counting": (
        "count_table", "count_up_to_symmetry", "enumerate_antichains",
        "enumerate_gotzmann", "enumerate_osp", "fubini", "osp_to_ideal",
    ),
    "series": ("egf_coefficient",),
    "textio": (),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)
__version__ = "0.1.0"

for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name):
    """An exported name from its module, else a registered submodule: so
    `from gotzmann import decompose` is the function."""
    if name in _OWNER:
        return getattr(sys.modules[f"{__name__}.{_OWNER[name]}"], name)
    if name in _EXPORTS:
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
