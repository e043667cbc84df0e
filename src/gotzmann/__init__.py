"""Gotzmann squarefree monomial ideals: verification, classification, counting."""

from .core import (
    POLY,
    SQF,
    InvariantViolation,
    MonomialIdeal,
    MonomialSpace,
    RingContext,
    binom,
    component_space,
    minimalize,
    poly_hilbert_from_sqf,
    poly_ring,
    shadow_up,
    space,
    sqf_hilbert,
    sqf_ring,
    unit_ideal,
    zero_ideal,
)
from .lex import (
    is_gotzmann_ideal,
    is_gotzmann_space,
    is_lex_segment,
    is_lex_some_order,
    lex_segment,
    lexify_in_R,
    macaulay_rep,
    minimal_growth,
    sqf_lexify_in_S,
)
from .classify import (
    SupernovaForm,
    canonicalize,
    recognize_supernova,
    supernova_to_ideal,
)
from .decompose import (
    Decomposition,
    alexander_dual_ideal,
    alexander_dual_space,
    colon_with_n1,
    compress,
    decompose,
    growth_equality,
    is_gdual,
    pick_variable,
    reassemble,
    reconstruct,
)
from .counting import (
    count_table,
    count_up_to_symmetry,
    enumerate_antichains,
    enumerate_gotzmann,
    enumerate_osp,
    fubini,
    osp_to_ideal,
)
from .series import egf_coefficient

__version__ = "0.1.0"
