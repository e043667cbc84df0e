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
    SQF,
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
    """Parse a monomial into an exponent tuple; "1" is the unit monomial.

    In the squarefree ring a monomial with a square raises ValueError naming
    the text as written.
    """
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
    if ctx.flavor == SQF and max(exps) > 1:
        raise ValueError(f"monomial {text!r} is not squarefree")
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
    tokens = _inline_tokens(text)
    if tokens is None:
        raise ValueError("empty ideal: write 0 for the zero ideal")
    return minimalize([parse_monomial(tok, ctx) for tok in tokens], ctx)


def _inline_tokens(text: str) -> list[str] | None:
    """Monomial tokens of an inline ideal in optional parentheses: [] for "0", None if empty."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if not body:
        return None
    return [] if body == "0" else body.split(",")


def format_ideal(I: MonomialIdeal) -> str:
    return ", ".join(ideal_to_lines(I))


def ideal_to_lines(I: MonomialIdeal) -> list[str]:
    if I.is_zero:
        return ["0"]
    return [format_monomial(e, I.ctx) for e in I.gens]


def write_ideal_stanzas(ideals) -> str:
    """Serialize many ideals, one blank-line-separated stanza each."""
    chunks = ["\n".join(ideal_to_lines(I)) for I in ideals]
    return "\n\n".join(chunks) + "\n"


def infer_variable_count(text: str, var: str | None = None, order: str | None = None) -> int:
    """Smallest n making every variable the input mentions legal.

    text is an inline ideal or a comma-separated list of monomials; var names
    one variable (a name, x1..xn or a 0-based index); order lists the other
    variables, so its tokens are read in the ring without var, where xk needs
    n >= k + 1.
    """
    probe = poly_ring(MAX_VARS)
    top = 0
    for token in _inline_tokens(text) or ():
        top = max(top, support_of_exps(parse_monomial(token, probe)).bit_length())
    if var is not None:
        top = max(top, (int(var) if var.isdecimal() else var_index(var, probe)) + 1)
    if order is not None:
        for token in _order_tokens(order, probe):
            top = max(top, var_index(token, probe) + 1 + bool(_XVAR.match(token)))
    return top


def _order_tokens(text: str, ctx: RingContext) -> list[str]:
    text = text.strip()
    if "," in text:
        return [t.strip() for t in text.split(",")]
    if all(c in ctx.names for c in text):
        return list(text)
    raise ValueError(f"cannot read order {text!r}")


def parse_order(text: str, ctx: RingContext) -> tuple[int, ...]:
    """An order like "acbd" or "x1,x3,x2": greatest variable first."""
    perm = tuple(var_index(t, ctx) for t in _order_tokens(text, ctx))
    if sorted(perm) != list(range(ctx.n)):
        raise ValueError(f"order {text.strip()!r} is not a permutation of all variables")
    return perm
