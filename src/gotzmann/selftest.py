"""Built-in regression suite over the worked examples of the theory.

Every check is a cheap, fully deterministic fact about small ideals; the CLI
`selftest` command prints one line per check.
"""

from __future__ import annotations

from itertools import permutations

from .core import component_space, poly_ring, space, sqf_ring
from .lex import is_gotzmann_ideal, is_lex_segment, is_lex_some_order
from .classify import recognize_supernova
from .decompose import alexander_dual_ideal, is_gdual_ideal, reconstruct
from .counting import count_table, count_up_to_symmetry
from .textio import parse_ideal_inline


def _four_cycle():
    return parse_ideal_inline("ab,ac,bd,cd", sqf_ring(4))


def _seven_gens():
    return parse_ideal_inline("abc,abd,abe,acd,ace,bcd,bce", sqf_ring(5))


def _mixed_degrees():
    return parse_ideal_inline("bc,abd,abe,acd,ace,ade", sqf_ring(5))


def check_four_cycle_gotzmann_not_lex() -> bool:
    I = _four_cycle()
    comp = component_space(I, 2)
    return is_gotzmann_ideal(I) and is_lex_some_order(comp) is None


def check_four_cycle_separates_rings() -> bool:
    R = _four_cycle()
    S = parse_ideal_inline("ab,ac,bd,cd", poly_ring(4))
    return is_gotzmann_ideal(R) and not is_gotzmann_ideal(S)


def check_seven_gens_gotzmann_not_lex() -> bool:
    I = _seven_gens()
    comp = component_space(I, 3)
    return is_gotzmann_ideal(I) and is_lex_some_order(comp) is None


def check_duals_not_gotzmann() -> bool:
    return all(not is_gotzmann_ideal(alexander_dual_ideal(I))
               for I in (_four_cycle(), _seven_gens()))


def check_reconstructed_space() -> bool:
    q = sqf_ring(4)
    vxi = space(q, 2, [0b0011, 0b0110, 0b1100, 0b1001])  # ab, bc, cd, ad
    V = reconstruct(vxi, 4, "e")  # raises if the rebuilt space is not Gotzmann
    return is_lex_some_order(V) is None


def check_mixed_degree_ideal() -> bool:
    I = _mixed_degrees()
    if not (is_gotzmann_ideal(I) and is_gdual_ideal(I)):
        return False
    comp2 = component_space(I, 2)
    comp3 = component_space(I, 3)
    if not is_lex_segment(comp2, (1, 2, 0, 3, 4)):  # b > c > a > d > e
        return False
    if not is_lex_segment(comp3, (0, 1, 2, 3, 4)):  # a > b > c > d > e
        return False
    shared = [p for p in permutations(range(5))
              if is_lex_segment(comp2, p) and is_lex_segment(comp3, p)]
    return not shared


def check_small_counts() -> bool:
    # count_table raises when its routes disagree
    return [r["enumerated"] for r in count_table(3)] == [2, 3, 6, 19]


def check_orbit_buckets() -> bool:
    return all(count == 2 ** (n - 2)
               for n in range(2, 13)
               for name, count in count_up_to_symmetry(n).items()
               if name != "total_nonunit")


def check_recognizer_roundtrip() -> bool:
    I = parse_ideal_inline("a,bc", poly_ring(3))
    form = recognize_supernova(I)
    if form is None:
        return False
    bad = parse_ideal_inline("ab,ac,bc", poly_ring(3))
    return recognize_supernova(bad) is None


CHECKS = [
    ("four-cycle Gotzmann in R, not lex in any order", check_four_cycle_gotzmann_not_lex),
    ("four-cycle separates S from R", check_four_cycle_separates_rings),
    ("seven-generator ideal Gotzmann in R, not lex in any order", check_seven_gens_gotzmann_not_lex),
    ("Alexander duals of both examples are not Gotzmann", check_duals_not_gotzmann),
    ("reconstructed space is Gotzmann and not lex in any order", check_reconstructed_space),
    ("mixed-degree ideal: Gotzmann, gdual, no common lex order", check_mixed_degree_ideal),
    ("counts for n <= 3 agree across all routes", check_small_counts),
    ("orbit buckets are 2^(n-2) for n = 2..12", check_orbit_buckets),
    ("supernova recognizer accepts and rejects correctly", check_recognizer_roundtrip),
]


def run() -> int:
    """Run every check, printing one line each; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        detail = ""
        try:
            ok = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            detail = f" ({exc})"
        print(f"{'PASS' if ok else 'FAIL'} {name}{detail}")
        if not ok:
            failures += 1
    return failures
