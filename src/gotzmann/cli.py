"""Command-line surface: parse ideals, dispatch operations, render reports.

Exit codes: 0 success, 1 a negative answer of `classify` (not a supernova)
or of `check --quiet` (not Gotzmann), 2 parse/usage error, 3 runtime invariant
failure (for example a count mismatch in `count`, or a failing `selftest`) or
a computation that ran out of memory.  Without --quiet, `check` prints a
negative answer and exits 0.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    InvariantViolation,
    MonomialSpace,
    iter_bits,
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
    q_context,
)
from .counting import (
    count_table,
    enumerate_gotzmann,
    full_support_series,
    gotzmann_count_series,
    osp_series,
)
from .textio import (
    format_ideal,
    format_monomial,
    infer_variable_count,
    parse_ideal_inline,
    parse_monomial,
    parse_order,
    var_index,
    write_ideal_stanzas,
)


def _nonnegative(text: str) -> int:
    """Argument type of a size: sizes below zero are usage errors."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _ring(args, text: str, var: str | None = None, order: str | None = None):
    """The --ring of the command on --n variables, or on as many as its input mentions."""
    n = args.n if args.n is not None else infer_variable_count(text, var, order)
    return sqf_ring(n) if args.ring == "R" else poly_ring(n)


def _ideal(args):
    """The inline ideal of an ideal command."""
    return parse_ideal_inline(args.ideal, _ring(args, args.ideal))


def _space(args):
    """The space of a space command, and the index of its --var.

    The space is spanned by comma-separated monomials of one degree, every
    one of them kept; --var is a variable name, x1..xn, or a 0-based index.
    """
    ctx = _ring(args, args.monomials, args.var, args.order)
    monomials = [parse_monomial(tok, ctx) for tok in args.monomials.split(",")]
    degrees = {sum(e) for e in monomials}
    if len(degrees) != 1:
        raise ValueError("expected monomials of a single degree")
    i = int(args.var) if args.var.isdecimal() else var_index(args.var, ctx)
    return space(ctx, degrees.pop(), monomials), i


def _basis(V):
    return sorted(format_monomial(m, V.ctx) for m in V.basis)


def _report(args, x, result, diagnostics=None, text=None):
    """Print text, or the JSON envelope under --json and for a command without
    a text form: x's generators (an ideal) or sorted basis (a space), its
    ring and variable count, the result and the diagnostics."""
    if text is not None and not args.json:
        print(text)
        return
    import json  # imported here so that a command printing text does not pay for it

    gens = _basis(x) if isinstance(x, MonomialSpace) else [
        format_monomial(e, x.ctx) for e in x.gens]
    print(json.dumps({"gens": gens, "ring": x.ctx.flavor, "n": x.ctx.n,
                      "result": result, "diagnostics": diagnostics or {}}))


def cmd_check(args) -> int:
    I = _ideal(args)
    result = is_gotzmann_ideal(I)
    if args.quiet:
        return 0 if result else 1
    _report(args, I, result, text=f"Gotzmann: {'true' if result else 'false'}")
    return 0


def cmd_classify(args) -> int:
    I = _ideal(args)
    form = recognize_supernova(I)
    if args.quiet:
        return 0 if form is not None else 1
    if form is None:
        _report(args, I, None, text="not a supernova (not Gotzmann)")
        return 1
    ctx = I.ctx
    stages = [{"monomial": format_monomial(m, ctx),
               "block": [ctx.name(i) for i in iter_bits(block)]}
              for m, block in form.stages]
    text = format_supernova(form, ctx)
    _report(args, I, text, {"stages": stages, "unit": form.unit}, text)
    return 0


def cmd_lexify(args) -> int:
    I = _ideal(args)
    L = lexify_in_R(I) if args.ring == "R" else sqf_lexify_in_S(I)
    text = format_ideal(L)
    _report(args, L, text, text=text)
    return 0


def cmd_dual(args) -> int:
    I = _ideal(args)
    D = alexander_dual_ideal(I)
    grows = is_gotzmann_ideal(D)  # is_gdual_ideal(I) by definition: both keys report it
    text = format_ideal(D)
    _report(args, D, text, {"gotzmann": grows, "gdual_input": grows}, text)
    return 0


def cmd_decompose(args) -> int:
    V, i = _space(args)
    dec = decompose(V, i)
    result = {"vhat": _basis(dec.vhat), "vxi": _basis(dec.vxi)}
    _report(args, V, result, {"dim": V.dim, "dim_vhat": dec.vhat.dim,
                              "dim_vxi": dec.vxi.dim, "degree": V.degree})
    return 0


def cmd_compress(args) -> int:
    V, i = _space(args)
    order = None if args.order is None else parse_order(args.order, q_context(V.ctx, i))
    eq = growth_equality(V, i)
    _report(args, V, _basis(compress(V, i, order)),
            {"shadow_of_input": eq.lhs, "shadow_of_compression": eq.rhs,
             "growth_equality_holds": eq.holds})
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
    rows = count_table(args.max_n)
    if args.format == "json":
        import json

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
    for n, coefficient in enumerate(builders[args.name](args.terms)):
        print(f"{n} {coefficient}")
    return 0


def cmd_selftest(args) -> int:
    from . import selftest  # imported here so that no other command pays for it

    failures = selftest.run()
    return 0 if failures == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gotz",
                                     description="Gotzmann squarefree ideal toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, *parents, **defaults):
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(fn=fn, **defaults)
        return p

    def shared(*parents):
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    sized = shared()
    sized.add_argument("--n", type=_nonnegative, default=None,
                       help="number of variables (default: inferred from the input)")
    ideal = shared(sized)
    ideal.add_argument("--json", action="store_true")
    ideal.add_argument("ideal")
    quiet = shared()
    quiet.add_argument("--quiet", action="store_true")
    spanned = shared(sized)
    spanned.add_argument("--var", required=True,
                         help="a variable name, x1..xn, or a 0-based index")
    spanned.add_argument("monomials")

    p = add("check", cmd_check, "test the Gotzmann property of an ideal", ideal, quiet)
    p.add_argument("--ring", choices=["S", "R"], required=True)
    add("classify", cmd_classify, "find the supernova form of an ideal of S", ideal, quiet,
        ring="S")
    p = add("lexify", cmd_lexify, "lexification with the same squarefree Hilbert function",
            ideal)
    p.add_argument("--ring", choices=["S", "R"], default="R")
    add("dual", cmd_dual, "Alexander dual of a squarefree ideal of R", ideal, ring="R")

    add("decompose", cmd_decompose, "split a monomial space by a variable", spanned, ring="R",
        order=None)
    p = add("compress", cmd_compress, "replace both parts by lex segments", spanned, ring="R")
    p.add_argument("--order", default=None)

    p = add("enumerate", cmd_enumerate, "list all Gotzmann squarefree ideals of S")
    p.add_argument("--n", type=_nonnegative, required=True)
    p.add_argument("--output", default=None)

    p = add("count", cmd_count, "count Gotzmann squarefree ideals three ways")
    p.add_argument("--max-n", type=_nonnegative, default=5)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")

    p = add("series", cmd_series, "integer coefficients of the counting series")
    p.add_argument("--name", choices=["osp", "fullsupport", "gotzmann"], required=True)
    p.add_argument("--terms", type=_nonnegative, default=8)

    add("selftest", cmd_selftest, "run the built-in regression suite")

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
    except MemoryError:
        print("error: out of memory: the input is too large for this computation",
              file=sys.stderr)
        return 3


def entry():
    sys.exit(main())
