"""Independent answer checks in plain bit-mask code.

Nothing here calls the package: every check recomputes its answer by a
different route (up-set flags over all 2^n masks, the Kruskal-Katona bound in
its lower-shadow form, direct set arithmetic), so a wrong answer from the
package cannot pass by agreeing with itself.  Masks use bit i for x_i.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

ALPHABET = "abcdefghijklmnop"


def popcount(m: int) -> int:
    return bin(m).count("1")


@lru_cache(maxsize=None)
def degree_masks(n: int, d: int) -> tuple[int, ...]:
    """Degree-d squarefree monomials in descending lex order (x_0 greatest)."""
    return tuple(sum(1 << i for i in c) for c in combinations(range(n), d))


def lex_masks(n: int, d: int, perm=None) -> list[int]:
    """Degree-d monomials in descending lex order when perm[k] is the k-th greatest variable."""
    if perm is None:
        return list(degree_masks(n, d))
    return [sum(1 << perm[k] for k in c) for c in combinations(range(n), d)]


def upset(gens, n: int) -> bytearray:
    """flags[m] == 1 exactly when the squarefree monomial m lies in the ideal."""
    flags = bytearray(1 << n)
    full = (1 << n) - 1
    for g in gens:
        free = full & ~g
        sub = free
        while True:
            flags[g | sub] = 1
            if not sub:
                break
            sub = (sub - 1) & free
    return flags


def hilbert(gens, n: int) -> tuple[int, ...]:
    """Squarefree Hilbert counts: ideal monomials per degree 0..n."""
    counts = [0] * (n + 1)
    for m, inside in enumerate(upset(gens, n)):
        if inside:
            counts[popcount(m)] += 1
    return tuple(counts)


def component(flags, n: int, d: int) -> list[int]:
    return [m for m in degree_masks(n, d) if flags[m]]


def shadow(basis, n: int) -> set[int]:
    """All squarefree variable multiples one degree up."""
    out = set()
    for m in basis:
        for b in range(n):
            if not m >> b & 1:
                out.add(m | 1 << b)
    return out


def min_shadow(dim: int, d: int, n: int) -> int:
    """Least upper-shadow size of dim squarefree monomials of degree d (Kruskal-Katona).

    Complements turn the upper shadow into the lower shadow of dim sets of size
    k = n - d, whose minimum is sum C(a_i, i-1) over the k-cascade of dim.
    """
    k = n - d
    if dim == 0 or k == 0:
        return 0
    total, rest = 0, dim
    for i in range(k, 0, -1):
        if not rest:
            break
        a = i
        while comb(a + 1, i) <= rest:
            a += 1
        rest -= comb(a, i)
        total += comb(a, i - 1)
    return total


def gens_degrees(gens) -> tuple[int, int]:
    degs = [popcount(g) for g in gens]
    return min(degs), max(degs)


def is_gotzmann_R(gens, n: int) -> bool:
    """Every component between the generator degrees has minimal shadow in R."""
    if not gens:
        return True
    flags = upset(gens, n)
    lo, hi = gens_degrees(gens)
    for d in range(lo, hi + 1):
        comp = component(flags, n, d)
        if len(shadow(comp, n)) != min_shadow(len(comp), d, n):
            return False
    return True


def is_gotzmann_space(basis, n: int, d: int) -> bool:
    return len(shadow(basis, n)) == min_shadow(len(basis), d, n)


def is_lex_ideal(gens, n: int) -> bool:
    """Every component is an initial segment of the identity lex order."""
    flags = upset(gens, n)
    for d in range(n + 1):
        order = degree_masks(n, d)
        k = sum(flags[m] for m in order)
        if any(not flags[m] for m in order[:k]):
            return False
    return True


def is_lex_segment(basis, n: int, d: int, perm) -> bool:
    return set(basis) == set(lex_masks(n, d, perm)[:len(basis)])


def minimal_gens(members: set[int]) -> list[int]:
    """Minimal elements of an up-set of masks."""
    out = []
    for m in members:
        if not any(m >> b & 1 and m ^ (1 << b) in members for b in range(m.bit_length())):
            out.append(m)
    return sorted(out)


def alexander_dual(gens, n: int) -> list[int]:
    """Generators of the dual up-set {x/m : m outside the ideal}."""
    flags = upset(gens, n)
    full = (1 << n) - 1
    return minimal_gens({full ^ m for m in range(1 << n) if not flags[m]})


def is_gdual(gens, n: int) -> bool:
    """Every componentwise Alexander dual of the ideal is Gotzmann in R."""
    flags = upset(gens, n)
    full = (1 << n) - 1
    for d in range(n + 1):
        dual = [full ^ m for m in degree_masks(n, d) if not flags[m]]
        if not is_gotzmann_space(dual, n, n - d):
            return False
    return True


def squeeze(mask: int, i: int) -> int:
    return (mask & ((1 << i) - 1)) | ((mask >> (i + 1)) << i)


def unsqueeze(mask: int, i: int) -> int:
    return (mask & ((1 << i) - 1)) | ((mask >> i) << (i + 1))


def compress(basis, n: int, d: int, i: int, qperm=None) -> set[int]:
    """Both parts of the x_i-split replaced by lex segments of the ring without x_i."""
    bit = 1 << i
    hat = sum(1 for m in basis if not m & bit)
    xi = len(basis) - hat
    out = {unsqueeze(m, i) for m in lex_masks(n - 1, d, qperm)[:hat]}
    if d >= 1:
        out |= {unsqueeze(m, i) | bit for m in lex_masks(n - 1, d - 1, qperm)[:xi]}
    return out


def colon(basis, n: int, d: int) -> set[int]:
    """Degree d-1 monomials whose every squarefree multiple lies in the space."""
    basis = set(basis)
    return {m for m in degree_masks(n, d - 1)
            if all(m | 1 << b in basis for b in range(n) if not m >> b & 1)}


def reconstruct(vxi, qn: int, i: int) -> set[int]:
    """shadow(vxi) + x_i * vxi, with x_i inserted at index i of a ring of qn+1 variables."""
    out = {unsqueeze(m, i) for m in shadow(vxi, qn)}
    return out | {unsqueeze(m, i) | 1 << i for m in vxi}


def supernova_gens(stages) -> list[int]:
    """Generators of a supernova form given as (monomial mask, block mask) stages."""
    out, acc = [], 0
    for m, block in stages:
        acc |= m
        out.extend(acc | 1 << b for b in range(block.bit_length()) if block >> b & 1)
    return sorted(out)


# ---------------------------------------------------------------------------
# reading what the command line prints

def parse_monomial(text: str) -> int:
    text = text.strip()
    if text == "1":
        return 0
    return sum(1 << ALPHABET.index(c) for c in text.replace("*", ""))


def parse_ideal(text: str) -> list[int]:
    text = text.strip()
    if text == "0":
        return []
    return sorted(parse_monomial(t) for t in text.split(","))


def parse_supernova(text: str):
    """Stages of a form printed as "a*(b,c) + a*d*(e)", or None for "1" and "0"."""
    text = text.strip()
    if text in ("0", "1"):
        return None
    stages, acc = [], 0
    for part in text.split(" + "):
        prefix, block = part.split("(")
        pre = parse_monomial(prefix.rstrip("*") or "1")
        stages.append((pre & ~acc, sum(1 << ALPHABET.index(c.strip())
                                       for c in block.rstrip(")").split(","))))
        acc = pre
    return stages


# ---------------------------------------------------------------------------
# the counting reproduction

GOTZMANN_COUNTS = (2, 3, 6, 19, 96, 669, 5754)


def fubini(n: int) -> int:
    f = [1]
    for m in range(1, n + 1):
        f.append(sum(comb(m, k) * f[m - k] for k in range(1, m + 1)))
    return f[n]


def big_last_block(n: int) -> int:
    """Ordered set partitions of an n-set whose last block is not a singleton."""
    return 1 if n == 0 else fubini(n) - n * fubini(n - 1)


def full_support_count(n: int) -> int:
    """Gotzmann squarefree ideals using every variable: two families plus the lone x_1."""
    return 2 * big_last_block(n) + (n == 1)


def gotzmann_count(n: int) -> int:
    """All Gotzmann squarefree ideals on n variables, by support."""
    return sum(comb(n, k) * full_support_count(k) for k in range(n + 1))
