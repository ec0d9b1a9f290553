"""Parsers for the line-oriented text formats.

Group file:        `group <name> <order>` then <order> rows of <order> indices
                   (row g lists g*h for h = 0..order-1).
Crossed module:    `cm <name>`, `G <groupfile>`, `H <groupfile>`, a `beta`
                   line of |H| indices, an `alpha` block of |G| lines of |H|
                   indices.  Group paths resolve relative to the cm file.
Complex file:      one maximal simplex per line; `#` comments allowed.
Cocycle file:      `cocycle <complex> <cm>` (names or paths), then lines
                   `g i j <Gindex>` and `h i j k <Hindex>`; omitted entries
                   default to the identity.
1-cocycle file:    lines `g i j <Gindex>`.
In the last two, a second line for the same entry is a parse error, as is
a second `G`, `H`, `beta` or `alpha` directive in a crossed-module file.  The
reports print cochain entries in the same `<kind> <indices> <value>` line
format the files use.

Parse problems raise ParseError with file and line; semantic validation is
delegated to the module validators.
"""

from __future__ import annotations

import os

from .algebra import CrossedModule, FiniteGroup, crossed_module, validate_group
from .catalog import CM_BUILDERS, COMPLEX_BUILDERS, named_complex, named_crossed_module
from .cech import Cocycle, cocycle
from .complexes import SimplicialComplex, build_complex, degenerate_tuples, normalized_tuples
from .errors import ParseError


def _lines(path: str) -> list[tuple[int, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ParseError(path, 0, f"cannot read file: {exc}")
    out = []
    for no, line in enumerate(raw, start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            out.append((no, line))
    return out


def _ints(path: str, no: int, parts: list[str]) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(path, no, f"expected integers, got {' '.join(parts)!r}")


def _once(path: str, no: int, seen: dict, key: tuple) -> None:
    """Record the line of an entry; a second line for it is a parse error."""
    if key in seen:
        raise ParseError(path, no, f"repeated entry `{' '.join(map(str, key))}`, "
                                   f"first given on line {seen[key]}")
    seen[key] = no


def _entries(path: str, lines: list[tuple[int, str]], tables: dict, what: str) -> None:
    """Read `<kind> <indices> <value>` lines into tables[kind] = (index count,
    dict), keyed by the index tuple, for the cocycle and 1-cocycle files.  A
    second line for the same entry is a parse error (`_once`), and a line of
    another kind or length is an unrecognized `what` line."""
    seen: dict = {}
    for no, line in lines:
        parts = line.split()
        if parts[0] in tables and len(parts) == tables[parts[0]][0] + 2:
            *key, v = _ints(path, no, parts[1:])
            _once(path, no, seen, (parts[0], *key))
            tables[parts[0]][1][tuple(key)] = v
        else:
            raise ParseError(path, no, f"unrecognized {what} line {line!r}")


def parse_group_file(path: str) -> FiniteGroup:
    lines = _lines(path)
    if not lines or lines[0][1].split()[0] != "group":
        raise ParseError(path, lines[0][0] if lines else 0, "expected `group <name> <order>` header")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(path, no, "expected `group <name> <order>`")
    name = parts[1]
    order = _ints(path, no, parts[2:])[0]
    rows = []
    for no, line in lines[1:]:
        row = _ints(path, no, line.split())
        if len(row) != order:
            raise ParseError(path, no, f"expected {order} entries per row, got {len(row)}")
        rows.append(row)
    if len(rows) != order:
        raise ParseError(path, lines[-1][0], f"expected {order} rows, got {len(rows)}")
    return validate_group(order, rows, name)


def parse_cm_file(path: str) -> CrossedModule:
    lines = _lines(path)
    if not lines or lines[0][1].split()[0] != "cm":
        raise ParseError(path, lines[0][0] if lines else 0, "expected `cm <name>` header")
    base = os.path.dirname(os.path.abspath(path))
    G = H = None
    beta = None
    alpha: list[list[int]] = []
    seen: dict = {}
    idx = 1
    while idx < len(lines):
        no, line = lines[idx]
        parts = line.split()
        if parts[0] in ("G", "H", "beta", "alpha"):
            _once(path, no, seen, (parts[0],))
        if parts[0] in ("G", "H") and len(parts) != 2:
            raise ParseError(path, no, f"expected `{parts[0]} <groupfile>`")
        if parts[0] == "G":
            G = parse_group_file(os.path.join(base, parts[1]))
        elif parts[0] == "H":
            H = parse_group_file(os.path.join(base, parts[1]))
        elif parts[0] == "beta":
            if H is None:
                raise ParseError(path, no, "beta line before H")
            beta = _ints(path, no, parts[1:])
            if len(beta) != H.order:
                raise ParseError(path, no, f"beta line must have {H.order} indices")
        elif parts[0] == "alpha":
            if G is None or H is None:
                raise ParseError(path, no, "alpha block before G and H")
            for k in range(G.order):
                idx += 1
                if idx >= len(lines):
                    raise ParseError(path, no, f"alpha block needs {G.order} lines")
                no2, line2 = lines[idx]
                row = _ints(path, no2, line2.split())
                if len(row) != H.order:
                    raise ParseError(path, no2, f"alpha row must have {H.order} indices")
                alpha.append(row)
        else:
            raise ParseError(path, no, f"unrecognized directive {parts[0]!r}")
        idx += 1
    if G is None or H is None or beta is None or len(alpha) != G.order:
        raise ParseError(path, lines[-1][0], "incomplete crossed-module file")
    return crossed_module(G, H, beta, alpha)


def parse_complex_file(path: str) -> SimplicialComplex:
    maximal = []
    for no, line in _lines(path):
        maximal.append(_ints(path, no, line.split()))
    if not maximal:
        raise ParseError(path, 0, "no simplices in file")
    return build_complex(maximal)


def resolve_complex(name_or_path: str) -> SimplicialComplex:
    if name_or_path in COMPLEX_BUILDERS:
        return named_complex(name_or_path)
    return parse_complex_file(name_or_path)


def resolve_crossed_module(name_or_path: str) -> CrossedModule:
    if name_or_path in CM_BUILDERS:
        return named_crossed_module(name_or_path)
    return parse_cm_file(name_or_path)


def parse_cocycle_file(path: str) -> Cocycle:
    lines = _lines(path)
    if not lines or lines[0][1].split()[0] != "cocycle":
        raise ParseError(path, lines[0][0] if lines else 0,
                         "expected `cocycle <complex> <cm>` header")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(path, no, "expected `cocycle <complex> <cm>`")
    base = os.path.dirname(os.path.abspath(path))

    def local(ref, resolver, builders):
        if ref in builders:
            return resolver(ref)
        return resolver(os.path.join(base, ref))

    K = local(parts[1], resolve_complex, COMPLEX_BUILDERS)
    cm = local(parts[2], resolve_crossed_module, CM_BUILDERS)
    g, h = {}, {}
    _entries(path, lines[1:], {"g": (2, g), "h": (3, h)}, "cocycle")
    return cocycle(K, cm, g, h)


def parse_one_cocycle_file(path: str, K: SimplicialComplex,
                           G: FiniteGroup) -> dict:
    g = dict.fromkeys(normalized_tuples(K, 2) + degenerate_tuples(K, 2), G.identity)
    _entries(path, _lines(path), {"g": (2, g)}, "transition")
    return g
