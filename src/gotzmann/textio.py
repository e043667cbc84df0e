"""Text formats for monomials, ideals, and variable orders.

Monomials are concatenated single-letter names ("abd") or star-separated
names ("x1*x2*x4"); the tokens x1..xn always address variables by position.
Inline ideals are comma-separated, with "0" for the zero ideal and "1" for
the unit ideal; ideal files, as `gotz enumerate --output` writes them, carry
one monomial per line and a blank line between ideals.
"""

from __future__ import annotations

import re

from .core import (
    MAX_VARS,
    MonomialIdeal,
    RingContext,
    as_exps,
    minimalize,
    poly_ring,
    support_of_exps,
)

_XVAR = re.compile(r"^x[0-9]+$")
_XVAR_RUN = re.compile(r"^(x[0-9]+){2,}$")


def var_index(token: str, ctx: RingContext) -> int:
    """Index of a variable named as in the ring, or as x1..xn by position."""
    if token in ctx.names:
        return ctx.names.index(token)
    if _XVAR.match(token) and token[1] != "0":
        k = int(token[1:])
        if k <= ctx.n:
            return k - 1
    raise ValueError(f"unknown variable {token!r}")


def parse_monomial(text: str, ctx: RingContext) -> tuple[int, ...]:
    """Parse a monomial into an exponent tuple; "1" is the unit monomial."""
    text = text.strip()
    if not text:
        raise ValueError("empty monomial")
    exps = [0] * ctx.n
    if text == "1":
        return tuple(exps)
    if "*" in text:
        tokens = [t.strip() for t in text.split("*")]
    elif text in ctx.names or _XVAR.match(text):
        tokens = [text]
    elif _XVAR_RUN.match(text) and not all(c in ctx.names for c in text):
        joined = "*".join(re.findall(r"x[0-9]+", text))
        raise ValueError(f"unknown variable {text!r}: indexed variables are joined by '*',"
                         f" as in {joined}")
    else:
        tokens = list(text)
    for token in tokens:
        exps[var_index(token, ctx)] += 1
    return tuple(exps)


def format_monomial(m, ctx: RingContext) -> str:
    exps = as_exps(m, ctx.n)
    if not any(exps):
        return "1"
    if all(e <= 1 for e in exps) and all(len(name) == 1 for name in ctx.names):
        return "".join(ctx.names[i] for i, e in enumerate(exps) if e)
    parts = []
    for i, e in enumerate(exps):
        parts.extend([ctx.names[i]] * e)
    return "*".join(parts)


def parse_ideal_inline(text: str, ctx: RingContext) -> MonomialIdeal:
    """Comma-separated monomials; "0" is the zero ideal, "1" the unit ideal.

    An empty list, bare or in parentheses, is an error rather than a second
    spelling of the zero ideal.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if not body:
        raise ValueError("empty ideal: write 0 for the zero ideal")
    if body == "0":
        return minimalize([], ctx)
    return minimalize([parse_monomial(tok, ctx) for tok in body.split(",")], ctx)


def format_ideal(I: MonomialIdeal) -> str:
    if I.is_zero:
        return "0"
    return ", ".join(format_monomial(e, I.ctx) for e in I.gens)


def ideal_to_lines(I: MonomialIdeal) -> list[str]:
    if I.is_zero:
        return ["0"]
    return [format_monomial(e, I.ctx) for e in I.gens]


def write_ideal_stanzas(ideals) -> str:
    """Serialize many ideals, one blank-line-separated stanza each."""
    chunks = ["\n".join(ideal_to_lines(I)) for I in ideals]
    return "\n\n".join(chunks) + "\n"


def infer_variable_count(text: str) -> int:
    """Smallest n making every variable mentioned in an inline ideal legal."""
    probe = poly_ring(MAX_VARS)
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if body in ("", "0", "1"):
        return 0
    top = 0
    for token in body.split(","):
        exps = parse_monomial(token, probe)
        mask = support_of_exps(exps)
        if mask:
            top = max(top, mask.bit_length())
    return top


def parse_order(text: str, ctx: RingContext) -> tuple[int, ...]:
    """An order like "acbd" or "x1,x3,x2": greatest variable first."""
    text = text.strip()
    if "," in text:
        tokens = [t.strip() for t in text.split(",")]
    elif all(c in ctx.names for c in text):
        tokens = list(text)
    else:
        raise ValueError(f"cannot read order {text!r}")
    perm = tuple(var_index(t, ctx) for t in tokens)
    if sorted(perm) != list(range(ctx.n)):
        raise ValueError(f"order {text!r} is not a permutation of all variables")
    return perm

