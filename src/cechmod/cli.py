"""Deterministic command-line front end.

Reports are plain text, one `KEY: value` per line in a stable key order;
identical inputs produce byte-identical reports regardless of worker count.
Every negative verdict carries a machine-readable `REASON:` line.

Exit codes: 0 success or affirmative verdict; 1 semantic invalidity or a
negative verdict; 2 parse error; 3 enumeration budget exceeded.

Every command takes the options of one table, `OPTIONS`.  An argv of the
documented form, the command and then `--option value` pairs, is read
against that table directly (`parse_strict`).  Any other argv goes to
argparse, which reads abbreviations and `--option=value`, prints help and
words every rejection.  A report that cannot be written to `--out` gives
exit 2 with a REASON line naming the path.
"""

from __future__ import annotations

import argparse
import sys

from . import bundle as bundle_mod
from . import gauge as gauge_mod
from .catalog import CM_BUILDERS, COMPLEX_BUILDERS
from .cech import (
    DEFAULT_BUDGET,
    are_cohomologous,
    classify,
    stabilizer,
)
from .complexes import abelian_cohomology_oracle, normalized_tuples
from .errors import CechmodError, ParseError, SearchSpaceTooLarge
from .io import (
    parse_cocycle_file,
    parse_group_file,
    parse_one_cocycle_file,
    resolve_complex,
    resolve_crossed_module,
)

OK, INVALID, PARSE, BUDGET = 0, 1, 2, 3


def _entry_lines(prefix: str, kind: str, keys, values: dict, identity: int) -> list[str]:
    """`<prefix><kind> <indices> <value>` for each key whose value is not the
    identity, in the line format the input files use; a vertex key prints as
    its one index.

    Reports pass the normalized tuples of the complex as the keys: every
    cochain they print (cocycles, coboundaries, bands, reductions,
    obstructions and lifts) is e on each tuple with an adjacent repeat, so
    no line is lost, and the lines come in lexicographic order."""
    out = []
    for key in keys:
        if values[key] != identity:
            index = key if isinstance(key, tuple) else (key,)
            out.append(f"{prefix}{kind} {' '.join(map(str, index))} {values[key]}")
    return out


def _cocycle_lines(prefix: str, z, pairs, triples) -> list[str]:
    """The entry lines of z, over the normalized pairs and triples."""
    return (_entry_lines(prefix, "g", pairs, z.g, z.cm.G.identity)
            + _entry_lines(prefix, "h", triples, z.h, z.cm.H.identity))


def _coboundary_lines(prefix: str, c) -> list[str]:
    return (_entry_lines(prefix, "gamma", range(c.complex.vertex_count), c.gamma,
                         c.cm.G.identity)
            + _entry_lines(prefix, "eta", normalized_tuples(c.complex, 2), c.eta,
                           c.cm.H.identity))


def cmd_validate(args) -> tuple[int, list[str]]:
    given = [k for k in ("group", "cm", "complex", "cocycle") if getattr(args, k)]
    if len(given) != 1:
        raise ParseError("<args>", 0, "validate needs exactly one of --group/--cm/--complex/--cocycle")
    kind = given[0]
    lines = [f"KIND: {kind}"]
    if kind == "group":
        g = parse_group_file(args.group)
        lines += [f"NAME: {g.name}", f"ORDER: {g.order}", f"IDENTITY: {g.identity}"]
    elif kind == "cm":
        cm = resolve_crossed_module(args.cm)
        lines += [f"G_ORDER: {cm.G.order}", f"H_ORDER: {cm.H.order}",
                  f"BETA_SURJECTIVE: {'yes' if cm.beta.is_surjective() else 'no'}"]
    elif kind == "complex":
        K = resolve_complex(args.complex)
        counts = K.simplex_counts()
        lines += [f"VERTICES: {K.vertex_count}",
                  f"SIMPLICES: {sum(counts.values())}",
                  f"EULER: {K.euler_characteristic()}"]
    else:
        z = parse_cocycle_file(args.cocycle)
        lines += [f"VERTICES: {z.complex.vertex_count}",
                  f"G_ORDER: {z.cm.G.order}", f"H_ORDER: {z.cm.H.order}"]
    lines.append("VALID: yes")
    return OK, lines


def cmd_classify(args) -> tuple[int, list[str]]:
    K = resolve_complex(args.complex)
    cm = resolve_crossed_module(args.cm)
    result = classify(K, cm, args.strategy, budget=args.budget)
    lines = [f"COMPLEX: {args.complex}", f"CM: {args.cm}",
             f"STRATEGY: {result.strategy}", f"CLASSES: {result.count}"]
    if result.cocycles_enumerated is not None:
        lines.append(f"ENUMERATED: {result.cocycles_enumerated}")
    pairs, triples = normalized_tuples(K, 2), normalized_tuples(K, 3)
    for idx, rep in enumerate(result.representatives):
        body = _cocycle_lines(f"REP {idx} ", rep, pairs, triples)
        lines += body if body else [f"REP {idx} trivial"]
    return OK, lines


def cmd_cohomologous(args) -> tuple[int, list[str]]:
    z = parse_cocycle_file(args.cocycle)
    z2 = parse_cocycle_file(args.cocycle2)
    w = are_cohomologous(z, z2, budget=args.budget)
    if w is None:
        return INVALID, ["COHOMOLOGOUS: no",
                         "REASON: exhaustive coboundary search found no witness"]
    lines = ["COHOMOLOGOUS: yes"]
    body = _coboundary_lines("WITNESS ", w)
    lines += body if body else ["WITNESS identity"]
    return OK, lines


def cmd_stabilizer(args) -> tuple[int, list[str]]:
    z = parse_cocycle_file(args.cocycle)
    stab = stabilizer(z, budget=args.budget)
    lines = [f"SIZE: {len(stab)}"]
    for idx, c in enumerate(stab):
        body = _coboundary_lines(f"ELEMENT {idx} ", c)
        lines += body if body else [f"ELEMENT {idx} identity"]
    return OK, lines


def cmd_bundle_check(args) -> tuple[int, list[str]]:
    z = parse_cocycle_file(args.cocycle)
    P = bundle_mod.BundleGroupoid(z)
    lines = [f"OBJECTS: {len(P.objects)}", f"MORPHISMS: {len(P.morphisms)}"]
    bad = P.check_axioms()
    lines.append(f"AXIOMS: {'pass' if not bad else 'fail'}")
    if bad:
        return INVALID, lines + [f"REASON: {bad[0]}"]
    bad = bundle_mod.check_action(P)
    lines.append(f"ACTION: {'pass' if not bad else 'fail'}")
    if bad:
        return INVALID, lines + [f"REASON: {bad[0]}"]
    trivs = bundle_mod.canonical_trivializations(P)
    for i, tv in trivs.items():
        bad = bundle_mod.check_trivialization(z, tv)
        if bad:
            lines.append("TRIVIALIZATIONS: fail")
            return INVALID, lines + [f"REASON: vertex {i}: {bad[0]}"]
    lines.append("TRIVIALIZATIONS: pass")
    zhat = bundle_mod.extract_cocycle(P, trivs)  # the action passed above
    exact = zhat == z
    lines.append(f"ROUNDTRIP: {'exact' if exact else 'fail'}")
    if not exact:
        return INVALID, lines + ["REASON: extracted cocycle differs"]
    return OK, lines


def cmd_band(args) -> tuple[int, list[str]]:
    z = parse_cocycle_file(args.cocycle)
    b = bundle_mod.band(z)
    lines = [f"BAND_GROUP_ORDER: {b.group.order}"]
    lines += _entry_lines("BAND ", "g", normalized_tuples(z.complex, 2), b.values,
                          b.group.identity)
    trivial = b.is_trivial_class(budget=args.budget)
    lines.append(f"BAND_TRIVIAL_CLASS: {'yes' if trivial else 'no'}")
    return OK, lines


def cmd_reduce_central(args) -> tuple[int, list[str]]:
    z = parse_cocycle_file(args.cocycle)
    red = bundle_mod.central_reduction(z)
    lines = [f"KERNEL_ORDER: {red.kernel.order}"]
    lines += _entry_lines("REDUCED ", "h", normalized_tuples(z.complex, 3), red.reduced,
                          red.kernel.identity)
    body = _coboundary_lines("WITNESS ", red.witness)
    lines += body if body else ["WITNESS identity"]
    return OK, lines


def cmd_lift(args) -> tuple[int, list[str]]:
    K = resolve_complex(args.complex)
    cm = resolve_crossed_module(args.cm)
    g = parse_one_cocycle_file(args.cocycle, K, cm.G)
    res = bundle_mod.lifting_obstruction(K, cm, g)
    lines = [f"KERNEL_ORDER: {res.kernel.order}"]
    lines += _entry_lines("OBSTRUCTION ", "a", normalized_tuples(K, 3), res.obstruction,
                          res.kernel.identity)
    if not res.exists:
        return INVALID, lines + ["LIFT: none", "REASON: obstruction class nonvanishing"]
    lines.append("LIFT: exists")
    return OK, lines + _entry_lines("LIFT ", "h", normalized_tuples(K, 2), res.lift,
                                    cm.H.identity)


def cmd_quotient(args) -> tuple[int, list[str]]:
    z = parse_cocycle_file(args.cocycle)
    P = bundle_mod.build_total_groupoid(z)
    Q = bundle_mod.quotient_by_structure_group(P)
    return OK, [f"OBJECTS: {len(Q.objects)}", f"MORPHISMS: {len(Q.morphisms)}",
                "AXIOMS: pass"]


def cmd_gauge(args) -> tuple[int, list[str]]:
    z = parse_cocycle_file(args.cocycle)
    orders = gauge_mod.gauge_orders(z, budget=args.budget)
    return OK, [f"GSTAR: {orders.gstar}", f"HSTAR: {orders.hstar}",
                f"PI0: {orders.pi0}", f"PI1: {orders.pi1}",
                f"CONVENTION: {orders.convention}"]


def cmd_aut2group(args) -> tuple[int, list[str]]:
    cm = resolve_crossed_module(args.cm)
    tg = bundle_mod.two_group_from_crossed_module(cm)
    fs, ts = gauge_mod.equivariant_endofunctors_of_2group(tg)
    return OK, [f"FUNCTORS: {len(fs)}", f"TRANSFORMATIONS: {len(ts)}"]


def cmd_oracle_h(args) -> tuple[int, list[str]]:
    K = resolve_complex(args.complex)
    size = abelian_cohomology_oracle(K, args.coeff, args.degree)
    return OK, [f"COMPLEX: {args.complex}", f"COEFF: {args.coeff}",
                f"DEGREE: {args.degree}", f"CARDINALITY: {size}"]


COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "cohomologous": cmd_cohomologous,
    "stabilizer": cmd_stabilizer,
    "bundle-check": cmd_bundle_check,
    "band": cmd_band,
    "reduce-central": cmd_reduce_central,
    "lift": cmd_lift,
    "quotient": cmd_quotient,
    "gauge": cmd_gauge,
    "aut2group": cmd_aut2group,
    "oracle-h": cmd_oracle_h,
}

# the options without a default that each command reads, in the order it reads them
NEEDS = {
    "classify": ("complex", "cm"),
    "cohomologous": ("cocycle", "cocycle2"),
    "stabilizer": ("cocycle",),
    "bundle-check": ("cocycle",),
    "band": ("cocycle",),
    "reduce-central": ("cocycle",),
    "lift": ("complex", "cm", "cocycle"),
    "quotient": ("cocycle",),
    "gauge": ("cocycle",),
    "aut2group": ("cm",),
    "oracle-h": ("complex",),
}


# The options every command takes, in the order --help lists them:
# name -> (type, default, choices, help).  `build_parser` declares them to
# argparse and `parse_strict` reads an argv against them.
OPTIONS = {
    "complex": (str, None, None, "built-in name or complex file "
                f"(built-ins: {', '.join(sorted(COMPLEX_BUILDERS))})"),
    "cm": (str, None, None, "built-in name or crossed-module file "
           f"(built-ins: {', '.join(sorted(CM_BUILDERS))})"),
    "group": (str, None, None, "group file (validate)"),
    "cocycle": (str, None, None, "cocycle file (or 1-cocycle file for lift)"),
    "cocycle2": (str, None, None, "second cocycle file"),
    "strategy": (str, "brute", ("brute", "abelian"), None),
    "budget": (int, DEFAULT_BUDGET, None, "nodes a search may visit before exit 3"),
    "workers": (int, 1, None, None),
    "out": (str, None, None, "write the report to this path"),
    "coeff": (int, 2, None, None),
    "degree": (int, 2, None, None),
}


class _Parser(argparse.ArgumentParser):
    """Raises ParseError where argparse would exit; subparsers inherit it."""

    def error(self, message):
        raise ParseError("<args>", 0, message)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, with a subparser for every command."""
    # every subcommand takes the same options, declared once on a parent
    shared = argparse.ArgumentParser(add_help=False)
    for name, (kind, default, choices, text) in OPTIONS.items():
        shared.add_argument(f"--{name}", type=kind, default=default, choices=choices,
                            help=text)
    parser = _Parser(
        prog="cechmod",
        description="Exact nonabelian Cech cohomology over finite simplicial bases.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[shared])
    return parser


def parse_strict(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace `build_parser().parse_args(argv)` returns, read without
    building a parser, when argv has the documented form; None otherwise.

    The form is a command, then `--option value` pairs: each option spelled
    out in full, each value not starting with `-`, an int option's value
    read by int() and --strategy's value one of its choices.  A repeated
    option keeps its last value, as in argparse.  Any other argv (--help or
    -h, an abbreviated option, `--option=value`, a value starting with `-`,
    a stray token, a bad int or choice, no command) gets None, so argparse
    parses it and renders its help text or rejection message."""
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    values = {name: default for name, (_, default, _, _) in OPTIONS.items()}
    values["command"] = argv[0]
    for flag, value in zip(argv[1::2], argv[2::2]):
        name = flag[2:]
        if not flag.startswith("--") or name not in OPTIONS or value.startswith("-"):
            return None
        kind, _, choices, _ = OPTIONS[name]
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[name] = value
    return argparse.Namespace(**values)


def run(argv: list[str]) -> tuple[int, str]:
    """Parse arguments, dispatch, and return (exit code, report text).

    `parse_strict` reads a well-formed argv; only an argv it declines
    builds the argparse parser.  With --out the report is also written
    there, on every exit path; a failed write is a parse error in its own
    right and replaces the report."""
    args = parse_strict(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except ParseError as exc:  # argv rejected: read only --out from it
            pre = _Parser(add_help=False)
            pre.add_argument("--out", nargs="?")
            out = pre.parse_known_args(argv)[0].out
            return _deliver(out, PARSE, f"REASON: {exc}\n")
    return _deliver(args.out, *_dispatch(args))


def _deliver(out: str | None, code: int, report: str) -> tuple[int, str]:
    """Write the report to `out`, when given.  A write that fails gives
    exit 2 and a REASON line worded as the input files' read errors."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(report)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            return PARSE, f"REASON: {ParseError(out, 0, f'cannot write file: {exc}')}\n"
    return code, report


def _dispatch(args) -> tuple[int, str]:
    if args.budget <= 0 or args.workers <= 0:
        return PARSE, "REASON: budget and worker count must be positive\n"
    try:
        for option in NEEDS.get(args.command, ()):
            if getattr(args, option) is None:
                raise ParseError("<args>", 0, f"{args.command} needs --{option}")
        code, lines = COMMANDS[args.command](args)
    except ParseError as exc:
        return PARSE, f"REASON: {exc}\n"
    except SearchSpaceTooLarge as exc:
        return BUDGET, f"REASON: {exc}\n"
    except CechmodError as exc:
        return INVALID, f"VALID: no\nREASON: {exc}\n"
    return code, "\n".join(lines) + "\n"


def main() -> None:
    code, report = run(sys.argv[1:])
    sys.stdout.write(report)
    sys.exit(code)


if __name__ == "__main__":
    main()
