"""Command-line surface: parse ideals, dispatch operations, render reports.

Exit codes: 0 success, 1 negative answer under --quiet, 2 parse/usage error,
3 runtime invariant failure (for example a count mismatch in `count`, or a
failing `selftest`).
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    InvariantViolation,
    iter_bits,
    mask_to_exps,
    poly_ring,
    space,
    sqf_ring,
)
from .lex import is_gotzmann_ideal, lexify_in_R, sqf_lexify_in_S
from .classify import format_supernova, recognize_supernova
from .decompose import (
    alexander_dual_ideal,
    compress,
    decompose,
    growth_equality,
    is_gdual_ideal,
    q_context,
)
from .counting import (
    count_table,
    enumerate_gotzmann,
    full_support_series,
    gotzmann_count_series,
    osp_series,
)
from .series import egf_coefficient
from .textio import (
    format_ideal,
    format_monomial,
    infer_variable_count,
    parse_ideal_inline,
    parse_monomial,
    parse_order,
    write_ideal_stanzas,
)


def _nonnegative(text: str) -> int:
    """Argument type of a size: sizes below zero are usage errors."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _context(args, text=None):
    n = args.n if args.n is not None else (infer_variable_count(text) if text else 0)
    ring = getattr(args, "ring", "S") or "S"
    return sqf_ring(n) if ring == "R" else poly_ring(n)


def _report(ctx, gens, result, diagnostics):
    payload = {
        "gens": gens,
        "ring": ctx.flavor,
        "n": ctx.n,
        "result": result,
        "diagnostics": diagnostics,
    }
    print(json.dumps(payload))


def _parse_space(text, ctx):
    """Comma-separated monomials of one degree, every one of them kept."""
    monomials = [parse_monomial(tok, ctx) for tok in text.split(",")]
    degrees = {sum(e) for e in monomials}
    if len(degrees) != 1:
        raise ValueError("expected monomials of a single degree")
    return space(ctx, degrees.pop(), monomials)


def cmd_check(args) -> int:
    ctx = _context(args, args.ideal)
    I = parse_ideal_inline(args.ideal, ctx)
    result = is_gotzmann_ideal(I)
    if args.quiet:
        return 0 if result else 1
    if args.json:
        _report(ctx, [format_monomial(e, ctx) for e in I.gens], result, {})
    else:
        print(f"Gotzmann: {'true' if result else 'false'}")
    return 0


def cmd_classify(args) -> int:
    ctx = _context(args, args.ideal)
    I = parse_ideal_inline(args.ideal, ctx)
    form = recognize_supernova(I)
    if args.quiet:
        return 0 if form is not None else 1
    gens = [format_monomial(e, ctx) for e in I.gens]
    if form is None:
        if args.json:
            _report(ctx, gens, None, {})
        else:
            print("not a supernova (not Gotzmann)")
        return 1
    if args.json:
        stages = [{"monomial": format_monomial(mask_to_exps(m, ctx.n), ctx),
                   "block": [ctx.name(i) for i in iter_bits(block)]}
                  for m, block in form.stages]
        _report(ctx, gens, format_supernova(form, ctx), {"stages": stages, "unit": form.unit})
    else:
        print(format_supernova(form, ctx))
    return 0


def cmd_lexify(args) -> int:
    ctx = _context(args, args.ideal)
    I = parse_ideal_inline(args.ideal, ctx)
    L = lexify_in_R(I) if args.ring == "R" else sqf_lexify_in_S(I)
    if args.json:
        _report(L.ctx, [format_monomial(e, L.ctx) for e in L.gens], format_ideal(L), {})
    else:
        print(format_ideal(L))
    return 0


def cmd_dual(args) -> int:
    ctx = _context(args, args.ideal)
    I = parse_ideal_inline(args.ideal, ctx)
    D = alexander_dual_ideal(I)
    diagnostics = {"gotzmann": is_gotzmann_ideal(D), "gdual_input": is_gdual_ideal(I)}
    if args.json:
        _report(ctx, [format_monomial(e, ctx) for e in D.gens], format_ideal(D), diagnostics)
    else:
        print(format_ideal(D))
    return 0


def _variable_index(name, ctx) -> int:
    """Index of --var: a variable name of the ring, or a decimal index."""
    if name in ctx.names:
        return ctx.names.index(name)
    if name.isdecimal():
        return int(name)
    raise ValueError(f"unknown variable {name!r}: expected one of "
                     f"{', '.join(ctx.names)} or a decimal index")


def cmd_decompose(args) -> int:
    ctx = _context(args, args.monomials)
    V = _parse_space(args.monomials, ctx)
    i = _variable_index(args.var, ctx)
    dec = decompose(V, i)
    q = dec.vhat.ctx
    result = {
        "vhat": sorted(format_monomial(m, q) for m in dec.vhat.basis),
        "vxi": sorted(format_monomial(m, q) for m in dec.vxi.basis),
    }
    diagnostics = {"dim": V.dim, "dim_vhat": dec.vhat.dim, "dim_vxi": dec.vxi.dim,
                   "degree": V.degree}
    _report(ctx, sorted(format_monomial(m, ctx) for m in V.basis), result, diagnostics)
    return 0


def cmd_compress(args) -> int:
    ctx = _context(args, args.monomials)
    V = _parse_space(args.monomials, ctx)
    i = _variable_index(args.var, ctx)
    order = parse_order(args.order, q_context(ctx, i)) if args.order is not None else None
    T = compress(V, i, order)
    eq = growth_equality(V, i, order)
    result = sorted(format_monomial(m, ctx) for m in T.basis)
    diagnostics = {"shadow_of_input": eq.lhs, "shadow_of_compression": eq.rhs,
                   "growth_equality_holds": eq.holds}
    _report(ctx, sorted(format_monomial(m, ctx) for m in V.basis), result, diagnostics)
    return 0


def cmd_enumerate(args) -> int:
    ideals = enumerate_gotzmann(args.n)
    text = write_ideal_stanzas(ideals)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(ideals)} ideals to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_count(args) -> int:
    rows = count_table(args.max_n, include_brute=not args.no_brute)
    for row in rows:
        want = {row["enumerated"], row["egf"]}
        if row["brute"] is not None:
            want.add(row["brute"])
        if len(want) != 1:
            raise InvariantViolation(f"count mismatch at n={row['n']}: {row}")
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        print("n,enumerated,egf,brute,full_support,full_support_egf")
        for row in rows:
            brute = "" if row["brute"] is None else row["brute"]
            print(f"{row['n']},{row['enumerated']},{row['egf']},{brute},"
                  f"{row['full_support']},{row['full_support_egf']}")
    else:
        print(f"{'n':>3} {'ideals':>8} {'egf':>8} {'brute':>8} {'full':>8}")
        for row in rows:
            brute = "-" if row["brute"] is None else row["brute"]
            print(f"{row['n']:>3} {row['enumerated']:>8} {row['egf']:>8} "
                  f"{brute:>8} {row['full_support']:>8}")
    return 0


def cmd_series(args) -> int:
    builders = {"osp": osp_series, "fullsupport": full_support_series,
                "gotzmann": gotzmann_count_series}
    s = builders[args.name](max(args.terms, 12))
    for n in range(args.terms + 1):
        print(f"{n} {egf_coefficient(s, n)}")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest  # imported here so that no other command pays for it

    failures = selftest.run(verbose=True)
    return 0 if failures == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gotz",
                                     description="Gotzmann squarefree ideal toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("check", cmd_check, help="test the Gotzmann property of an ideal")
    p.add_argument("--ring", choices=["S", "R"], required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("ideal")

    p = add("classify", cmd_classify, help="find the supernova form of an ideal of S")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("ideal")

    p = add("lexify", cmd_lexify, help="lexification with the same squarefree Hilbert function")
    p.add_argument("--ring", choices=["S", "R"], default="R")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("ideal")

    p = add("dual", cmd_dual, help="Alexander dual of a squarefree ideal of R")
    p.set_defaults(ring="R")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("ideal")

    p = add("decompose", cmd_decompose, help="split a monomial space by a variable")
    p.set_defaults(ring="R")
    p.add_argument("--var", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("monomials")

    p = add("compress", cmd_compress, help="replace both parts by lex segments")
    p.set_defaults(ring="R")
    p.add_argument("--var", required=True)
    p.add_argument("--order", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("monomials")

    p = add("enumerate", cmd_enumerate, help="list all Gotzmann squarefree ideals of S")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", default=None)

    p = add("count", cmd_count, help="count Gotzmann squarefree ideals three ways")
    p.add_argument("--max-n", type=_nonnegative, default=5)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--no-brute", action="store_true")

    p = add("series", cmd_series, help="integer coefficients of the counting series")
    p.add_argument("--name", choices=["osp", "fullsupport", "gotzmann"], required=True)
    p.add_argument("--terms", type=_nonnegative, default=8)

    add("selftest", cmd_selftest, help="run the built-in regression suite")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, AssertionError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())
