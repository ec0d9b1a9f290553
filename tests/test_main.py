"""The entry point `main()`, run as `python -m cechmod.cli` on one table.

The rest of the suite calls `cli.run`, which returns the exit code and the
report; only `main()` prints the report to stdout and exits with the code.
Each row runs it once, in a fresh process with `src` on the path and the
repository root as its working directory, so that `tests/data/...` reads
by relative path.  A row holds the argv, its input files (written under
`tmp_path`, named in the argv and the report as `{tmp}`), the exit code,
the expected stdout and the reason.  The stdout is either the exact
report, or a tuple of patterns that each match one of its lines in full.
"""

import os
import re
import subprocess
import sys
from typing import NamedTuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Row(NamedTuple):
    id: str
    argv: str  # split on spaces
    code: int
    out: str | tuple[str, ...]  # the exact stdout, or patterns for some of its lines
    why: str
    files: dict = {}  # file name -> text or bytes


CIRCLE_S3_BRUTE = (
    "COMPLEX: circle\nCM: star_to_s3\nSTRATEGY: brute\nCLASSES: 3\nENUMERATED: 216\n"
    "REP 0 trivial\nREP 1 g 1 2 1\nREP 1 g 2 1 1\nREP 2 g 1 2 3\nREP 2 g 2 1 4\n")
RP26_Z3_H1 = "COMPLEX: rp26\nCOEFF: 3\nDEGREE: 1\nCARDINALITY: 1\n"
ARGPARSE_FORMS = (
    "cli.run reads `command --option value` itself and hands any other argv "
    "to argparse, so an abbreviation and --opt=value must give the same report "
    "and exit code as the strict form, and help still exits 0")
MISSING_OPTION = ("a command run without an option it needs must exit 2 with a "
                  "REASON line, not a traceback")
BOUNDARY3_Z4_OVER_Z2 = (
    "the quotient, the band and the central reduction rely on the validated "
    "cocycle and crossed module instead of rechecking them, so the trivial "
    "bundle over boundary3 with z4_over_z2 coefficients gives these exact reports")
EXHAUSTED = ("an exhausted budget exits 3, and the report names the budget, the "
             "search phase and the depth it ran out at, and nothing else")
FITS_THE_BUDGET = (
    "the budget counts the nodes brute visits: one per row-0 level and those "
    "of the subtrees it searches (66942 on torus7 x star_to_s3 and 336437 on "
    "rp26 x z4_over_z2), not the nodes of the whole slice, so both cells "
    "finish at the default budget")
MALFORMED = ("a crossed-module file out of order, a group file with a non-integer "
             "entry and a validate given two kinds each exit 2 with one REASON "
             "line naming the file and line, not a traceback")
NON_CYCLIC_LIFT = (
    "ker beta = Z2 x Z2 is solved one invariant factor at a time, so the "
    "verdict takes no search and reads no budget: rp26's nontrivial class has "
    "no lift even at --budget 1, and torus7's trivial one lifts")

ROWS = [
    Row("brute-boundary3-aut_z3",
        "classify --complex boundary3 --cm aut_z3 --strategy brute",
        0, ("CLASSES: 2", "ENUMERATED: 472392"),
        "ker beta = Z/3 on 9 row-0 triples: brute searches one kernel subtree "
        "per g-leaf and counts the whole slice's leaves by multiplicity, so a "
        "wrong count or a lost class fails here"),
    Row("argparse-classify-strict",
        "classify --complex circle --cm star_to_s3 --strategy brute",
        0, CIRCLE_S3_BRUTE, ARGPARSE_FORMS),
    Row("argparse-classify-abbreviated",
        "classify --comp circle --cm=star_to_s3 --strat=brute",
        0, CIRCLE_S3_BRUTE, ARGPARSE_FORMS),
    Row("argparse-oracle-h-strict", "oracle-h --complex rp26 --coeff 3 --degree 1",
        0, RP26_Z3_H1, ARGPARSE_FORMS),
    Row("argparse-oracle-h-abbreviated", "oracle-h --complex=rp26 --coe 3 --deg=1",
        0, RP26_Z3_H1, ARGPARSE_FORMS),
    Row("argparse-help", "classify --help", 0, ("usage: cechmod classify.*",),
        ARGPARSE_FORMS),
    Row("missing-cm", "classify --complex circle",
        2, "REASON: <args>:0: classify needs --cm\n", MISSING_OPTION),
    Row("missing-cocycle", "gauge",
        2, "REASON: <args>:0: gauge needs --cocycle\n", MISSING_OPTION),
    Row("gauge-circle-aut_z3", "gauge --cocycle {tmp}/z.coc",
        0, "GSTAR: 54\nHSTAR: 27\nPI0: 6\nPI1: 3\nCONVENTION: left\n",
        "the trivial bundle over the circle with aut_z3 coefficients gives the "
        "orders of the gauge route table's mapping row for that cell",
        {"z.coc": "cocycle circle aut_z3\n"}),
    Row("gauge-rp26-z4_over_z2", "gauge --cocycle {tmp}/z.coc",
        0, "GSTAR: 4096\nHSTAR: 4096\nPI0: 2\nPI1: 2\nCONVENTION: left\n",
        "gauge reads its orders off the stabilizer and the twisted H^0 and "
        "builds no Cayley table, so the trivial bundle over rp26 with "
        "z4_over_z2 coefficients finishes in about a second, where a 4096^2 "
        "table of G* took 14 s",
        {"z.coc": "cocycle rp26 z4_over_z2\n"}),
    Row("bundle-check-circle-conj_s3", "bundle-check --cocycle {tmp}/z.coc",
        0, "OBJECTS: 54\nMORPHISMS: 540\nAXIOMS: pass\nACTION: pass\n"
           "TRIVIALIZATIONS: pass\nROUNDTRIP: exact\n",
        "every trivialization check runs the functor and naturality checks on "
        "the groupoid index, so the trivial bundle over the circle with conj_s3 "
        "coefficients gives this exact report",
        {"z.coc": "cocycle circle conj_s3\n"}),
    Row("quotient-boundary3-z4_over_z2", "quotient --cocycle {tmp}/z.coc",
        0, "OBJECTS: 28\nMORPHISMS: 256\nAXIOMS: pass\n", BOUNDARY3_Z4_OVER_Z2,
        {"z.coc": "cocycle boundary3 z4_over_z2\n"}),
    Row("band-boundary3-z4_over_z2", "band --cocycle {tmp}/z.coc",
        0, "BAND_GROUP_ORDER: 1\nBAND_TRIVIAL_CLASS: yes\n", BOUNDARY3_Z4_OVER_Z2,
        {"z.coc": "cocycle boundary3 z4_over_z2\n"}),
    Row("reduce-central-boundary3-z4_over_z2", "reduce-central --cocycle {tmp}/z.coc",
        0, "KERNEL_ORDER: 2\nWITNESS identity\n", BOUNDARY3_Z4_OVER_Z2,
        {"z.coc": "cocycle boundary3 z4_over_z2\n"}),
    Row("quotient-circle-conj_s3", "quotient --cocycle {tmp}/z.coc",
        0, "OBJECTS: 9\nMORPHISMS: 90\nAXIOMS: pass\n",
        "the quotient reads its classes off the bundle groupoid's cells, which "
        "holds for a non-abelian action too: the trivial bundle over the circle "
        "with conj_s3 coefficients (|G| = 6, alpha = conjugation) gives its "
        "exact report",
        {"z.coc": "cocycle circle conj_s3\n"}),
    Row("budget-classify",
        "classify --complex circle --cm star_to_s3 --strategy brute --budget 10",
        3, "REASON: visited nodes exceed budget 10 in slice h at depth 5 of 6\n",
        EXHAUSTED),
    Row("budget-stabilizer", "stabilizer --cocycle {tmp}/z.coc --budget 5",
        3, "REASON: visited nodes exceed budget 5 in coboundary search at depth 6 of 9\n",
        EXHAUSTED, {"z.coc": "cocycle circle conj_s3\n"}),
    Row("stabilizer-rp26-z3_to_point", "stabilizer --cocycle {tmp}/z.coc",
        0, ("SIZE: 243",),
        "the coboundary search checks each triple at the pair that completes "
        "it, so the trivial cocycle's stabilizer on rp26 with z3_to_point "
        "coefficients (G = 1, 3^6 / 3 elements) finishes",
        {"z.coc": "cocycle rp26 z3_to_point\n"}),
    Row("budget-stabilizer-rp26-z4_to_point", "stabilizer --cocycle {tmp}/z.coc",
        3, "REASON: visited nodes exceed budget 100000000 in coboundary search "
           "at depth 36 of 36\n",
        "under a failed check the search charges the subtree it skips in one "
        "step, so the default budget runs out within a second, at the depth "
        "where a search that tried every candidate would, some 10^8 node "
        "visits later",
        {"z.coc": "cocycle rp26 z4_to_point\n"}),
    Row("budget-workers-2",
        "classify --complex circle --cm star_to_s3 --budget 50 --workers 2",
        3, "REASON: visited nodes exceed budget 50 in slice h at depth 5 of 6\n",
        "an exhausted budget exits 3 with its report whatever --workers says, "
        "instead of hanging"),
    Row("brute-torus7-star_to_s3",
        "classify --complex torus7 --cm star_to_s3 --strategy brute",
        0, ("CLASSES: 8", "ENUMERATED: 839808"), FITS_THE_BUDGET),
    Row("brute-rp26-z4_over_z2",
        "classify --complex rp26 --cm z4_over_z2 --strategy brute",
        0, ("CLASSES: 2", "ENUMERATED: 33554432"), FITS_THE_BUDGET),
    Row("repeated-beta", "validate --cm tests/data/z2xz4_over_z2_beta_twice.cm",
        2, "REASON: tests/data/z2xz4_over_z2_beta_twice.cm:10: repeated entry "
           "`beta`, first given on line 6\n",
        "a second beta line would otherwise replace the first and validate; it "
        "must exit 2 with a REASON line naming it and the first one"),
    Row("malformed-cm", "validate --cm {tmp}/a.cm",
        2, "REASON: {tmp}/a.cm:2: alpha block before G and H\n", MALFORMED,
        {"a.cm": "cm x\nalpha\n0 1\n"}),
    Row("malformed-group", "validate --group {tmp}/g.grp",
        2, "REASON: {tmp}/g.grp:2: expected integers, got '0 x'\n", MALFORMED,
        {"g.grp": "group g 2\n0 x\n1 0\n"}),
    Row("validate-two-kinds", "validate --group tests/data/z2.grp --cm z4_over_z2",
        2, "REASON: <args>:0: validate needs exactly one of "
           "--group/--cm/--complex/--cocycle\n", MALFORMED),
    Row("lift-rp26-none",
        "lift --complex rp26 --cm tests/data/z2xz4_over_z2.cm "
        "--cocycle tests/data/rp26_nontrivial_z2.coc --budget 1",
        1, ("KERNEL_ORDER: 4", "LIFT: none", "REASON: obstruction class nonvanishing"),
        NON_CYCLIC_LIFT),
    Row("lift-torus7-exists",
        "lift --complex torus7 --cm tests/data/z2xz4_over_z2.cm "
        "--cocycle tests/data/trivial_transitions.coc",
        0, "KERNEL_ORDER: 4\nLIFT: exists\n", NON_CYCLIC_LIFT),
    Row("lift-point",
        "lift --complex point --cm z4_over_z2 --cocycle tests/data/trivial_transitions.coc",
        0, "KERNEL_ORDER: 2\nLIFT: exists\n",
        "a point has no normalized pairs or triples, so the lift solves a "
        "system with no rows and no columns through the general path"),
    Row("non-utf8", "validate --cocycle {tmp}/bad.coc",
        2, ("REASON: .*cannot read file: .*",),
        "a file that cannot be decoded gives exit 2 and a REASON line, not a "
        "traceback",
        {"bad.coc": b"cocycle circle z2_trivial\n\xff\n"}),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_main(row, tmp_path):
    for name, data in row.files.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in row.argv.split()]
    proc = subprocess.run(
        [sys.executable, "-m", "cechmod.cli", *argv], capture_output=True,
        text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    if isinstance(row.out, str):
        want = row.out.replace("{tmp}", str(tmp_path))
        assert (proc.returncode, proc.stdout) == (row.code, want), row.why
    else:
        lines = proc.stdout.splitlines()
        assert proc.returncode == row.code, row.why
        for pattern in row.out:
            assert any(re.fullmatch(pattern, line) for line in lines), (pattern, row.why)


def test_running_out_of_memory_exits_3_with_a_reason(tmp_path):
    # bundle-check on torus7 x conj_s3 needs about 120 MB; under a 64 MB
    # address-space cap, set on the child alone, it raises MemoryError within
    # a second, which is exit 3 with one REASON line naming the command and
    # no traceback.  The import of cechmod needs about 22 MB of the cap
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))

    (tmp_path / "z.coc").write_text("cocycle torus7 conj_s3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cechmod.cli", "bundle-check", "--cocycle", str(tmp_path / "z.coc")],
        capture_output=True, text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60, preexec_fn=cap)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "REASON: out of memory in bundle-check\n", "")
