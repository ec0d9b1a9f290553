import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cechmod.cli import run
from cechmod.errors import ParseError
from cechmod.io import (
    parse_cm_file,
    parse_cocycle_file,
    parse_complex_file,
    parse_group_file,
)

Z2_GROUP = "group Z2 2\n0 1\n1 0\n"
Z4_GROUP = "group Z4 4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_parse_group_file(tmp_path):
    g = parse_group_file(_write(tmp_path / "z2.grp", Z2_GROUP))
    assert g.order == 2 and g.identity == 0


def test_parse_group_file_bad_row(tmp_path):
    with pytest.raises(ParseError) as exc:
        parse_group_file(_write(tmp_path / "bad.grp", "group bad 2\n0 1\n1\n"))
    assert exc.value.line == 3


def test_parse_cm_file_and_bad_beta_length(tmp_path):
    _write(tmp_path / "z2.grp", Z2_GROUP)
    _write(tmp_path / "z4.grp", Z4_GROUP)
    good = ("cm z4_over_z2\nG z2.grp\nH z4.grp\n"
            "beta 0 1 0 1\nalpha\n0 1 2 3\n0 1 2 3\n")
    cmx = parse_cm_file(_write(tmp_path / "good.cm", good))
    assert cmx.G.order == 2 and cmx.H.order == 4
    bad = good.replace("beta 0 1 0 1", "beta 0 1 0")
    with pytest.raises(ParseError) as exc:
        parse_cm_file(_write(tmp_path / "bad.cm", bad))
    assert exc.value.line == 4


@pytest.mark.parametrize("directive,first", [("G", 2), ("H", 3), ("beta", 4), ("alpha", 5)])
def test_repeated_cm_directive_is_a_parse_error(tmp_path, directive, first):
    # a second directive would replace the first, or leave the alpha block
    # looking incomplete; it is rejected at its own line instead
    _write(tmp_path / "z2.grp", Z2_GROUP)
    _write(tmp_path / "z4.grp", Z4_GROUP)
    lines = ["cm z4_over_z2", "G z2.grp", "H z4.grp", "beta 0 1 0 1",
             "alpha", "0 1 2 3", "0 1 2 3"]
    again = lines[4:] if directive == "alpha" else [lines[first - 1]]
    path = _write(tmp_path / "twice.cm", "\n".join(lines + again) + "\n")
    assert run(["validate", "--cm", path]) == (
        2, f"REASON: {path}:8: repeated entry `{directive}`, first given on line {first}\n")


def test_parse_complex_file_with_comments(tmp_path):
    text = "# a hollow triangle\n0 1\n1 2\n0 2\n"
    K = parse_complex_file(_write(tmp_path / "c.cplx", text))
    assert K.simplex_counts() == {0: 3, 1: 3}


def test_cocycle_file_defaults_to_trivial(tmp_path):
    path = _write(tmp_path / "z.coc", "cocycle circle z2_trivial\n")
    z = parse_cocycle_file(path)
    assert all(v == 0 for v in z.g.values())
    code, report = run(["validate", "--cocycle", path])
    assert code == 0 and "VALID: yes" in report


def test_validate_builtins():
    code, report = run(["validate", "--complex", "rp26"])
    assert code == 0 and "EULER: 1" in report
    code, report = run(["validate", "--cm", "z4_over_z2"])
    assert code == 0 and "BETA_SURJECTIVE: yes" in report


def test_classify_command_counts_flat_s3_bundles():
    code, report = run(["classify", "--complex", "circle", "--cm", "star_to_s3",
                        "--strategy", "brute"])
    assert code == 0
    assert "CLASSES: 3" in report


def test_classify_deterministic_across_workers():
    args = ["classify", "--complex", "circle", "--cm", "z4_over_z2",
            "--strategy", "brute"]
    code1, rep1 = run(args + ["--workers", "1"])
    code2, rep2 = run(args + ["--workers", "2"])
    assert code1 == code2 == 0
    assert rep1 == rep2


def test_cohomologous_identical_files(tmp_path):
    path = _write(tmp_path / "z.coc", "cocycle circle z2_trivial\n")
    code, report = run(["cohomologous", "--cocycle", path, "--cocycle2", path])
    assert code == 0 and "COHOMOLOGOUS: yes" in report


def test_cohomologous_negative_has_reason(tmp_path):
    a = _write(tmp_path / "a.coc", "cocycle circle star_to_z2\n")
    b = _write(tmp_path / "b.coc",
               "cocycle circle star_to_z2\ng 0 1 1\ng 1 0 1\n")
    code, report = run(["cohomologous", "--cocycle", a, "--cocycle2", b])
    assert code == 1
    assert "COHOMOLOGOUS: no" in report and "REASON:" in report


def test_lift_nonvanishing_obstruction(tmp_path):
    # the nontrivial flat Z2 bundle on the circle lifts, so use rp26 data
    lines = ["g 0 1 1", "g 1 0 1", "g 0 2 1", "g 2 0 1"]
    # build a genuine 1-cocycle on rp26 by solving edge signs from a vertex cut:
    # edges leaving {0} get value 1 (a coboundary would need lam_0 != lam_0)
    from cechmod import rp2_6, valid_tuples
    import itertools
    K = rp2_6()
    edges = sorted({tuple(sorted(p)) for p in valid_tuples(K, 2) if p[0] != p[1]})
    target = None
    for bits in itertools.product([0, 1], repeat=len(edges)):
        g = {(v, v): 0 for v in range(K.vertex_count)}
        for e, b in zip(edges, bits):
            g[e] = b
            g[(e[1], e[0])] = b
        if not all((g[(i, j)] + g[(j, k)]) % 2 == g[(i, k)]
                   for (i, j, k) in valid_tuples(K, 3)):
            continue
        is_cb = any(
            all(g[(i, j)] == (lam[i] + lam[j]) % 2 for (i, j) in valid_tuples(K, 2))
            for lam in itertools.product([0, 1], repeat=K.vertex_count))
        if not is_cb:
            target = g
            break
    assert target is not None
    body = "\n".join(f"g {i} {j} {v}" for (i, j), v in sorted(target.items()) if v)
    path = _write(tmp_path / "g.coc", body + "\n")
    code, report = run(["lift", "--complex", "rp26", "--cm", "z4_over_z2",
                        "--cocycle", path])
    assert code == 1
    assert "LIFT: none" in report and "REASON: obstruction class nonvanishing" in report


def test_lift_trivial_bundle(tmp_path):
    path = _write(tmp_path / "g.coc", "# trivial transitions\n")
    code, report = run(["lift", "--complex", "boundary3", "--cm", "z4_over_z2",
                        "--cocycle", path])
    assert code == 0 and "LIFT: exists" in report


def test_non_cyclic_lift_from_files():
    """The files of the CI step "A non-cyclic lift through main": Z2 x Z4 ->
    Z2 has kernel Z2 x Z2, so the verdict takes one solve per invariant
    factor and reads no budget."""
    from test_lift import _z2xz4_over_z2

    data = os.path.join(os.path.dirname(__file__), "data")
    cm_path = os.path.join(data, "z2xz4_over_z2.cm")
    cmx, want = parse_cm_file(cm_path), _z2xz4_over_z2()
    assert (cmx.H.mul_table, cmx.beta.image) == (want.H.mul_table, want.beta.image)
    code, report = run(["lift", "--complex", "rp26", "--cm", cm_path, "--cocycle",
                        os.path.join(data, "rp26_nontrivial_z2.coc"), "--budget", "1"])
    assert code == 1
    assert "LIFT: none" in report.splitlines() and "\nREASON: " in report
    code, report = run(["lift", "--complex", "torus7", "--cm", cm_path, "--cocycle",
                        os.path.join(data, "trivial_transitions.coc")])
    assert code == 0 and "LIFT: exists" in report.splitlines()


def test_exit_codes(tmp_path):
    code, _ = run(["validate", "--complex", "nonexistent-file.cplx"])
    assert code == 2  # parse error
    bad = _write(tmp_path / "bad.grp", "group broken 2\n0 1\n1 1\n")
    code, report = run(["validate", "--group", bad])
    assert code == 1 and "VALID: no" in report and "REASON:" in report
    code, _ = run(["classify", "--complex", "circle", "--cm", "star_to_s3",
                   "--budget", "5"])
    assert code == 3  # budget exceeded
    code, report = run(["oracle-h", "--complex", "torus7", "--coeff", "3",
                        "--degree", "2"])
    assert code == 0 and "CARDINALITY: 3" in report


def test_reports_are_byte_identical():
    args = ["bundle-check", "--cocycle"]
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "z.coc")
        with open(path, "w") as fh:
            fh.write("cocycle circle z2_trivial\n")
        code1, rep1 = run(args + [path])
        code2, rep2 = run(args + [path])
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert "ROUNDTRIP: exact" in rep1


def test_out_flag_writes_report(tmp_path):
    out = tmp_path / "report.txt"
    code, report = run(["oracle-h", "--complex", "rp26", "--coeff", "2",
                        "--degree", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text() == report


@pytest.mark.parametrize("argv,code", [
    (["classify", "--complex", "circle", "--cm", "nope"], 2),
    (["classify", "--complex", "circle", "--cm", "star_to_s3", "--budget", "0"], 2),
    (["validate", "--group", "bad.grp"], 1),
    (["classify", "--complex", "circle", "--cm", "star_to_s3", "--budget", "5"], 3),
])
def test_out_flag_writes_failing_reports(tmp_path, argv, code):
    # a failing run replaces a stale --out file with its REASON report
    _write(tmp_path / "bad.grp", "group broken 2\n0 1\n1 1\n")
    argv = [str(tmp_path / a) if a.endswith(".grp") else a for a in argv]
    out = tmp_path / "report.txt"
    out.write_text("STALE\n")
    got, report = run(argv + ["--out", str(out)])
    assert got == code and "REASON: " in report
    assert out.read_text() == report


@pytest.mark.parametrize("argv,reason", [
    (["classify", "--budget", "x"], "argument --budget: invalid int value: 'x'"),
    (["classify", "--complex", "circle", "--cm", "star_to_s3", "--strategy", "nope"],
     "argument --strategy: invalid choice: 'nope'"),
    (["nosuch"], "argument command: invalid choice: 'nosuch'"),
    ([], "the following arguments are required: command"),
], ids=["bad-int", "bad-choice", "bad-command", "no-command"])
def test_rejected_arguments_give_structured_report(tmp_path, argv, reason):
    # argparse rejections return exit 2 with a REASON line instead of exiting
    code, report = run(argv)
    assert code == 2
    assert report.startswith(f"REASON: <args>:0: {reason}") and report.endswith("\n")
    out = tmp_path / "report.txt"
    out.write_text("STALE\n")
    code, report = run(argv + ["--out", str(out)])
    assert code == 2 and report.startswith("REASON: <args>:0: ")
    assert out.read_text() == report


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_still_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert "usage: cechmod" in capsys.readouterr().out


def test_gauge_and_quotient_and_band_commands(tmp_path):
    path = _write(tmp_path / "z.coc", "cocycle point z2_trivial\n")
    code, report = run(["gauge", "--cocycle", path])
    assert code == 0 and "GSTAR: 2" in report and "HSTAR: 2" in report
    code, report = run(["quotient", "--cocycle", path])
    assert code == 0 and "OBJECTS: 1" in report and "MORPHISMS: 2" in report
    code, report = run(["aut2group", "--cm", "conj_s3"])
    assert code == 0 and "FUNCTORS: 6" in report and "TRANSFORMATIONS: 36" in report
    zpath = _write(tmp_path / "zb.coc",
                   "cocycle circle z2_into_z4\ng 0 1 1\ng 1 0 3\n"
                   "g 1 2 1\ng 2 1 3\ng 0 2 1\ng 2 0 3\n")
    code, report = run(["band", "--cocycle", zpath])
    assert code == 0 and "BAND_TRIVIAL_CLASS: no" in report
    code, report = run(["reduce-central", "--cocycle", path])
    assert code == 0 and "KERNEL_ORDER: 1" in report
    code, report = run(["stabilizer", "--cocycle", path])
    assert code == 0 and "SIZE: 2" in report


def test_band_budget_exhaustion_exits_3(tmp_path):
    zpath = _write(tmp_path / "zb.coc",
                   "cocycle circle z2_into_z4\ng 0 1 1\ng 1 0 3\n"
                   "g 1 2 1\ng 2 1 3\ng 0 2 1\ng 2 0 3\n")
    code, report = run(["band", "--cocycle", zpath, "--budget", "1"])
    assert code == 3 and report.startswith("REASON: ")
    code, report = run(["band", "--cocycle", zpath, "--budget", "100"])
    assert code == 0 and "BAND_TRIVIAL_CLASS: no" in report


def test_bundle_check_reports_axiom_failure(tmp_path, monkeypatch):
    from cechmod.bundle import FiniteGroupoid
    monkeypatch.setattr(FiniteGroupoid, "check_axioms", lambda self: ["x"])
    path = _write(tmp_path / "z.coc", "cocycle circle z2_trivial\n")
    code, report = run(["bundle-check", "--cocycle", path])
    assert code == 1
    assert report.splitlines()[-2:] == ["AXIOMS: fail", "REASON: x"]


# -- the --workers path ---------------------------------------------------------

CIRCLE_S3 = ["classify", "--complex", "circle", "--cm", "star_to_s3"]


@pytest.mark.parametrize("argv,nodes,reason", [
    (CIRCLE_S3, 122, "slice g at depth 3 of 6"),
    (["classify", "--complex", "torus7", "--cm", "star_to_s3"], 66942,
     "slice g at depth 7 of 42"),
    (["classify", "--complex", "rp26", "--cm", "z4_over_z2"], 336437,
     "slice h at depth 16 of 90"),
], ids=["circle-star_to_s3", "torus7-star_to_s3", "rp26-z4_over_z2"])
def test_budget_counts_the_nodes_brute_searches(argv, nodes, reason):
    # brute charges one node per row-0 level and the nodes of the subtrees
    # it searches, and nothing for the slice it does not: it finishes at that
    # count and runs out one below
    assert run(argv + ["--budget", str(nodes - 1)]) == \
        (3, f"REASON: visited nodes exceed budget {nodes - 1} in {reason}\n")
    code, report = run(argv + ["--budget", str(nodes)])
    assert code == 0 and "\nCLASSES: " in report


@pytest.mark.parametrize("budget,expected", [(1000, 0), (121, 3), (122, 0)])
def test_budget_outcome_is_independent_of_workers(budget, expected):
    # the slice search on circle x star_to_s3 visits 122 nodes
    runs = [run(CIRCLE_S3 + ["--budget", str(budget), "--workers", w])
            for w in ("1", "2")]
    assert [code for code, _ in runs] == [expected, expected]
    assert runs[0][1] == runs[1][1]
    if expected == 3:
        assert "REASON:" in runs[0][1]


# -- malformed input --------------------------------------------------------------

@pytest.mark.parametrize("files,argv,code", [
    ({"z.coc": "cocycle circle z2_trivial\ng 0 1 7\n"}, ["validate", "--cocycle", "z.coc"], 1),
    ({"z.coc": "cocycle circle z2_trivial\ng 0 5 1\n"}, ["validate", "--cocycle", "z.coc"], 1),
    ({"z.coc": "cocycle circle z2_trivial\nh 0 1 3 1\n"}, ["validate", "--cocycle", "z.coc"], 1),
    ({"g.grp": "group g 0\n"}, ["validate", "--group", "g.grp"], 1),
    ({"bad.cm": "cm bad\nG\n"}, ["validate", "--cm", "bad.cm"], 2),
    ({"c.cplx": "0 2\n"}, ["validate", "--complex", "c.cplx"], 1),
    ({"l.coc": "g 0 1 7\n"},
     ["lift", "--complex", "circle", "--cm", "z4_over_z2", "--cocycle", "l.coc"], 1),
    ({"l.coc": "g 0 5 1\n"},
     ["lift", "--complex", "circle", "--cm", "z4_over_z2", "--cocycle", "l.coc"], 1),
    ({}, ["oracle-h", "--complex", "circle", "--degree", "5"], 1),
    ({"a.coc": "cocycle circle z2_trivial\n", "b.coc": "cocycle point z2_trivial\n"},
     ["cohomologous", "--cocycle", "a.coc", "--cocycle2", "b.coc"], 1),
])
def test_malformed_input_gives_structured_error(tmp_path, files, argv, code):
    for name, text in files.items():
        _write(tmp_path / name, text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    got, report = run(argv)
    assert got == code
    assert "REASON:" in report


@pytest.mark.parametrize("files,argv", [
    ({"g.grp": "groupie g 2\n0 1\n1 0\n"}, ["validate", "--group", "g.grp"]),
    ({"z2.grp": Z2_GROUP, "z4.grp": Z4_GROUP,
      "c.cm": "cmfoo z4_over_z2\nG z2.grp\nH z4.grp\nbeta 0 1 0 1\nalpha\n"
              "0 1 2 3\n0 1 2 3\n"}, ["validate", "--cm", "c.cm"]),
    ({"z.coc": "cocyclex circle z2_trivial\n"}, ["validate", "--cocycle", "z.coc"]),
])
def test_header_keyword_must_match_exactly(tmp_path, files, argv):
    for name, text in files.items():
        _write(tmp_path / name, text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, report = run(argv)
    assert code == 2
    assert report.startswith("REASON:")


VALID_COCYCLE = ["cocycle circle z4_over_z2", "g 0 1 1", "g 1 0 1",
                 "h 0 1 0 2", "h 1 0 1 2"]


def _line(word, args):
    return " ".join([word, *map(str, args)])


LINES = st.one_of(
    st.builds(_line, st.just("g"), st.lists(st.integers(-2, 9), min_size=3, max_size=3)),
    st.builds(_line, st.just("h"), st.lists(st.integers(-2, 9), min_size=4, max_size=4)),
    st.builds(_line, st.sampled_from(["g", "h", "cocycle", "#", "1.5"]),
              st.lists(st.integers(-2, 9), max_size=5)))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(
    st.tuples(st.integers(1, len(VALID_COCYCLE)),
              st.sampled_from(["field", "replace", "insert", "delete"]),
              LINES, st.integers(0, 5), st.integers(-2, 9)),
    min_size=1, max_size=4))
def test_mutated_cocycle_files_never_raise(tmp_path, edits):
    # the header stays; every other line may be edited, replaced or deleted
    lines = list(VALID_COCYCLE)
    for pos, kind, line, col, value in edits:
        pos = min(pos, len(lines) - 1)
        if kind == "insert" or pos == 0:  # pos is 0 once only the header is left
            lines.insert(max(pos, 1), line)
        elif kind == "replace":
            lines[pos] = line
        elif kind == "delete":
            del lines[pos]
        else:
            parts = lines[pos].split()  # keep the keyword, change one argument
            parts[1 + col % (len(parts) - 1) if len(parts) > 1 else 0] = str(value)
            lines[pos] = " ".join(parts)
    path = _write(tmp_path / "z.coc", "\n".join(lines) + "\n")
    for argv in (["validate", "--cocycle", path],
                 ["cohomologous", "--cocycle", path, "--cocycle2", path]):
        code, report = run(argv)
        assert code in (0, 1, 2)
        if code:
            assert "REASON:" in report


@pytest.mark.parametrize("budget,expected", [(1193, 3), (1194, 0)])
def test_stabilizer_budget_is_pinned(tmp_path, budget, expected):
    # the coboundary search for the stabilizer of the trivial cocycle on
    # circle x conj_s3 visits 1194 nodes
    path = _write(tmp_path / "z.coc", "cocycle circle conj_s3\n")
    code, report = run(["stabilizer", "--cocycle", path, "--budget", str(budget)])
    assert code == expected
    if expected == 0:
        assert report.startswith("SIZE: 216\n")


@pytest.mark.parametrize("argv,reason", [
    (["classify", "--complex", "rp26", "--cm", "z4_over_z2", "--budget", "1000"],
     "visited nodes exceed budget 1000 in slice h at depth 57 of 90"),
    (["stabilizer", "--cocycle", "z.coc", "--budget", "1193"],
     "visited nodes exceed budget 1193 in coboundary search at depth 9 of 9"),
])
def test_budget_exhaustion_names_phase_and_depth(tmp_path, argv, reason):
    _write(tmp_path / "z.coc", "cocycle circle conj_s3\n")
    argv = [str(tmp_path / a) if a.endswith(".coc") else a for a in argv]
    for workers in ("1", "2"):
        assert run(argv + ["--workers", workers]) == (3, f"REASON: {reason}\n")


def test_subcommand_help_is_pinned(monkeypatch, capsys):
    # every subcommand shares one set of options; its help text is recorded
    # at 80 columns in tests/data/cli_help_80.txt
    from cechmod.cli import COMMANDS, build_parser
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for name in COMMANDS:
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--help"])
        parts.append(f"== {name} ==\n{capsys.readouterr().out}")
    path = os.path.join(os.path.dirname(__file__), "data", "cli_help_80.txt")
    with open(path, encoding="utf-8") as fh:
        assert "".join(parts) == fh.read()


@pytest.mark.parametrize("argv,report", [
    (["classify", "--budget", "x"],
     "REASON: <args>:0: argument --budget: invalid int value: 'x'\n"),
    (["classify", "--strategy", "nope"],
     "REASON: <args>:0: argument --strategy: invalid choice: 'nope' "
     "(choose from 'brute', 'abelian')\n"),
    (["nosuch"],
     "REASON: <args>:0: argument command: invalid choice: 'nosuch' (choose from "
     "'validate', 'classify', 'cohomologous', 'stabilizer', 'bundle-check', 'band', "
     "'reduce-central', 'lift', 'quotient', 'gauge', 'aut2group', 'oracle-h')\n"),
], ids=["bad-int", "bad-choice", "bad-command"])
def test_rejection_reports_are_pinned(argv, report):
    assert run(argv) == (2, report)


def test_run_rejections_match_the_full_parser():
    # run's rejections must read as the full parser's do
    from cechmod.cli import build_parser
    for argv in (["classify", "--budget", "x"],
                 ["classify", "--complex", "circle", "--cm", "star_to_s3", "--strategy", "nope"],
                 ["nosuch"], []):
        with pytest.raises(ParseError) as exc:
            build_parser().parse_args(argv)
        assert run(argv) == (2, f"REASON: {exc.value}\n"), argv


# every option without a default that each command reads, with a value
NEEDED_OPTIONS = {
    "classify": {"--complex": "circle", "--cm": "star_to_s3"},
    "cohomologous": {"--cocycle": "z.coc", "--cocycle2": "z.coc"},
    "stabilizer": {"--cocycle": "z.coc"},
    "bundle-check": {"--cocycle": "z.coc"},
    "band": {"--cocycle": "z.coc"},
    "reduce-central": {"--cocycle": "z.coc"},
    "lift": {"--complex": "circle", "--cm": "z4_over_z2", "--cocycle": "g.coc"},
    "quotient": {"--cocycle": "z.coc"},
    "gauge": {"--cocycle": "z.coc"},
    "aut2group": {"--cm": "z4_over_z2"},
    "oracle-h": {"--complex": "circle"},
}


def test_missing_option_gives_structured_report(tmp_path):
    # each needed option of each command, dropped in turn, gives exit 2 and
    # names the option, and --out still receives the report
    from cechmod.cli import COMMANDS
    assert set(NEEDED_OPTIONS) == set(COMMANDS) - {"validate"}
    _write(tmp_path / "z.coc", "cocycle circle z2_trivial\n")
    _write(tmp_path / "g.coc", "g 0 1 1\ng 1 0 1\n")
    out = tmp_path / "report.txt"
    for command, options in NEEDED_OPTIONS.items():
        for dropped in options:
            argv = [command]
            for option, value in options.items():
                if option != dropped:
                    argv += [option, str(tmp_path / value) if value.endswith(".coc") else value]
            report = f"REASON: <args>:0: {command} needs {dropped}\n"
            assert run(argv) == (2, report), argv
            out.write_text("STALE\n")
            assert run(argv + ["--out", str(out)]) == (2, report)
            assert out.read_text() == report


def test_repeated_entry_is_a_parse_error(tmp_path):
    # a second line for the same tuple is rejected at that line, whichever
    # value comes first, in both file kinds
    for first, second in (("g 0 1 1", "g 0 1 0"), ("g 0 1 0", "g 0 1 1")):
        path = _write(tmp_path / "z.coc", f"cocycle circle z2_trivial\n{first}\n{second}\n")
        code, report = run(["validate", "--cocycle", path])
        assert code == 2 and report.startswith(f"REASON: {path}:3: ")
    path = _write(tmp_path / "h.coc", "cocycle circle z4_over_z2\nh 0 1 0 2\n# again\n"
                                      "h 1 0 1 2\nh 0 1 0 2\n")
    with pytest.raises(ParseError) as exc:
        parse_cocycle_file(path)
    assert exc.value.line == 5
    path = _write(tmp_path / "g.coc", "g 0 1 1\ng 1 0 1\ng 0 1 0\n")
    code, report = run(["lift", "--complex", "circle", "--cm", "z4_over_z2", "--cocycle", path])
    assert code == 2 and report.startswith(f"REASON: {path}:3: ")
    # distinct tuples are no repeat
    path = _write(tmp_path / "g.coc", "g 0 1 1\ng 1 0 1\n")
    assert run(["lift", "--complex", "circle", "--cm", "z4_over_z2", "--cocycle", path])[0] == 0


# -- the strict parser ------------------------------------------------------------

def _argparse_outcome(argv):
    """What the full argparse parser makes of argv: a Namespace, or the
    type of what it raises (ParseError on a rejection, SystemExit on help)."""
    import contextlib
    import io
    from cechmod.cli import build_parser
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return build_parser().parse_args(argv)
    except (ParseError, SystemExit) as exc:
        return type(exc)


def _option_value(draw, name):
    """A value of the option's kind: one of its choices, a decimal int, or
    a short string (which may start with `-`)."""
    from cechmod.cli import OPTIONS
    kind, _, choices, _ = OPTIONS[name]
    if choices is not None:
        return draw(st.sampled_from(choices))
    if kind is int:
        return str(draw(st.integers(-3, 10 ** 9)))
    return draw(st.text(alphabet="ab./_ 0-=", max_size=6))


@st.composite
def _argv(draw):
    """A command and `--option value` pairs from the option table.  Each
    pair is well formed, or has its option abbreviated, joined to its value
    by `=` or given a value argparse may reject (a bad int or choice, a
    value starting with `-`); then a token may be dropped, or a stray one
    inserted (help, `--`, a word, an unknown option)."""
    from cechmod.cli import COMMANDS, OPTIONS
    tokens = [draw(st.sampled_from(sorted(COMMANDS)))]
    for _ in range(draw(st.integers(0, 5))):
        name = draw(st.sampled_from(sorted(OPTIONS)))
        flag, value = f"--{name}", _option_value(draw, name)
        form = draw(st.sampled_from(["pair"] * 4 + ["abbreviated", "joined", "value"]))
        if form == "abbreviated":
            tokens += [flag[:draw(st.integers(3, len(flag) - 1))], value]
        elif form == "joined":
            tokens.append(f"{flag}={value}")
        elif form == "value":
            tokens += [flag, draw(st.sampled_from(
                ["abel", "Brute", "x", "", "1.5", "1e3", "-5", "-x", " 7", "1_000", "+3",
                 "--cm", "-h"]))]
        else:
            tokens += [flag, value]
    stray = st.sampled_from(["--help", "-h", "--", "-", "x", "", "--nosuch", "classify",
                             "--strategy", "--out"])
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            del tokens[draw(st.integers(0, len(tokens) - 1))]
            if not tokens:
                break
        else:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(stray))
    return tokens


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=_argv())
def test_strict_parser_agrees_with_argparse(argv):
    # the strict parser declines, or returns what argparse returns; it never
    # accepts an argv that argparse rejects or answers with help
    from cechmod.cli import parse_strict
    got = parse_strict(list(argv))
    want = _argparse_outcome(list(argv))
    assert got is None or got == want, argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_strict_parser_reads_every_well_formed_argv(data):
    # a command and `--option value` pairs, each value not starting with `-`:
    # the strict parser accepts them all, as argparse reads them
    from cechmod.cli import COMMANDS, OPTIONS, parse_strict
    argv = [data.draw(st.sampled_from(sorted(COMMANDS)))]
    for _ in range(data.draw(st.integers(0, 6))):
        name = data.draw(st.sampled_from(sorted(OPTIONS)))
        value = _option_value(data.draw, name)
        if value.startswith("-"):
            continue
        argv += [f"--{name}", value]
    got = parse_strict(argv)
    assert got is not None and got == _argparse_outcome(argv), argv


def test_strict_parser_edge_cases(capsys):
    from cechmod.cli import parse_strict
    # a repeated option keeps its last value, as in argparse
    argv = ["oracle-h", "--complex", "rp26", "--coeff", "3", "--degree", "1", "--coeff", "2"]
    args = parse_strict(argv)
    assert args is not None and args.coeff == 2 and args == _argparse_outcome(argv)
    assert run(argv) == (0, "COMPLEX: rp26\nCOEFF: 2\nDEGREE: 1\nCARDINALITY: 2\n")
    # a negative value is declined; argparse reads it and the run still exits 2
    argv = ["classify", "--complex", "circle", "--cm", "star_to_s3", "--budget", "-5"]
    assert parse_strict(argv) is None
    assert run(argv) == (2, "REASON: budget and worker count must be positive\n")
    # an empty --out is read, and writes nothing
    argv = ["oracle-h", "--complex", "rp26", "--out", ""]
    args = parse_strict(argv)
    assert args is not None and args.out == "" and args == _argparse_outcome(argv)
    assert run(argv)[0] == 0
    # a `--` token is declined, and argparse still rejects it
    strict = ["classify", "--complex", "circle", "--cm", "star_to_s3"]
    assert parse_strict(strict + ["--"]) is None
    assert run(strict + ["--"]) == (2, "REASON: <args>:0: unrecognized arguments: --\n")
    # -h after options is declined and gets argparse's help
    assert parse_strict(strict + ["-h"]) is None
    with pytest.raises(SystemExit) as exc:
        run(strict + ["-h"])
    assert exc.value.code == 0 and "usage: cechmod classify" in capsys.readouterr().out
    # an option before the command is declined; argparse rejects it
    argv = ["--complex", "circle", "classify", "--cm", "star_to_s3"]
    assert parse_strict(argv) is None
    assert run(argv)[1].startswith("REASON: <args>:0: argument command: invalid choice: 'circle'")
    # an abbreviation and --opt=value are declined, and argparse reads them
    # to the same report as the strict form
    for argv in (["classify", "--comp", "circle", "--cm", "star_to_s3"],
                 ["classify", "--complex", "circle", "--cm=star_to_s3"]):
        assert parse_strict(argv) is None and run(argv) == run(strict)


def test_benchmark_jobs_build_no_parser(tmp_path, monkeypatch):
    # every job shape of the benchmark workloads, the --workers 2 probe
    # included, parses without argparse and still gives a correct outcome
    import cechmod.cli as cli
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)

    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark job built the argparse parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for workload in workloads.WORKLOADS:
        jobs = workloads.build_jobs(workload, workloads.DEFAULT_SEED, str(tmp_path))
        shapes = {}
        for job in jobs:
            assert cli.parse_strict(job.argv) is not None, job.argv
            # the last job of each shape is the cheapest to run
            shapes[(job.argv[0], tuple(a for a in job.argv if a.startswith("--")))] = job
        for job in shapes.values():
            code, report = cli.run(list(job.argv))
            assert job.check(code, report) is None, job.name
            if job.kind == "classify":
                assert cli.run(job.argv + ["--workers", "2"]) == (code, report)


def test_unwritable_out_gives_structured_report(tmp_path):
    # a failed --out write exits 2 with a REASON line worded as the read
    # errors, after an accepted argv and after a rejected one
    out = str(tmp_path / "missing" / "x")
    with pytest.raises(OSError) as exc:
        open(out, "w")
    reason = f"REASON: {out}:0: cannot write file: {exc.value}\n"
    for argv in (["classify", "--complex", "circle", "--cm", "star_to_s3"],
                 ["classify", "--complex", "circle", "--cm", "star_to_s3", "--budget", "x"],
                 ["nosuch"]):
        assert run(argv + ["--out", out]) == (2, reason), argv


@pytest.mark.parametrize("option", ["--cocycle", "--complex", "--cm", "--group"])
def test_undecodable_input_gives_structured_report(tmp_path, option):
    # a file that is not UTF-8 exits 2 with a REASON line worded as the
    # other read errors, for each option that reads a file
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as exc:
        path.read_text(encoding="utf-8")
    reason = f"REASON: {path}:0: cannot read file: {exc.value}\n"
    assert run(["validate", option, str(path)]) == (2, reason)


@pytest.mark.parametrize("argv", [
    ["validate", "--cocycle", "a\x00b"],
    ["validate", "--group", "a\x00b"],
    ["classify", "--complex", "a\x00b", "--cm", "z2_to_point"],
    ["classify", "--complex", "circle", "--cm", "a\x00b"],
], ids=["cocycle", "group", "complex", "cm"])
def test_nul_in_input_path_gives_structured_report(argv):
    # open() rejects a path with a NUL by ValueError, not OSError; the
    # report names it, and the path's NUL is printed escaped
    code, report = run(argv)
    assert (code, report) == (2, "REASON: a\\x00b:0: cannot read file: embedded null byte\n")


def test_newline_in_input_path_gives_one_line_report(tmp_path):
    # a control character in a path is printed as \xNN, so the report stays
    # one line of plain text
    path = str(tmp_path / "a\nb\x7f.coc")
    code, report = run(["validate", "--cocycle", path])
    assert code == 2 and report.count("\n") == 1
    escaped = path.replace("\n", "\\x0a").replace("\x7f", "\\x7f")
    assert report.startswith(f"REASON: {escaped}:0: cannot read file: ")


def test_nul_in_out_path_gives_structured_report():
    # a NUL in --out: the report is not written, and the run exits 2
    for argv in (["oracle-h", "--complex", "rp26", "--coeff", "2", "--degree", "2"],
                 ["nosuch"]):
        assert run(argv + ["--out", "a\x00b"]) == \
            (2, "REASON: a\\x00b:0: cannot write file: embedded null byte\n"), argv


# -- every REASON line an input file can produce ------------------------------------

DATA = os.path.join(os.path.dirname(__file__), "data")
ALPHA_Z2 = "cm x\nG z2.grp\nH z2.grp\nbeta 0 0\nalpha\n"
S3_GROUP = ("group S3 6\n0 1 2 3 4 5\n1 0 4 5 2 3\n2 3 0 1 5 4\n3 2 5 4 0 1\n"
            "4 5 1 0 3 2\n5 4 3 2 1 0\n")


@pytest.mark.parametrize("files,argv,code,report", [
    ({"a.cm": "cm x\nbeta 0 1\n"}, ["validate", "--cm", "a.cm"], 2,
     "REASON: {f}:2: beta line before H\n"),
    ({"a.cm": "cm x\nalpha\n0 1\n"}, ["validate", "--cm", "a.cm"], 2,
     "REASON: {f}:2: alpha block before G and H\n"),
    ({"a.cm": ALPHA_Z2 + "0 1\n"}, ["validate", "--cm", "a.cm"], 2,
     "REASON: {f}:5: alpha block needs 2 lines\n"),
    ({"a.cm": ALPHA_Z2 + "0\n0 1\n"}, ["validate", "--cm", "a.cm"], 2,
     "REASON: {f}:6: alpha row must have 2 indices\n"),
    ({"a.cm": "cm x\nfoo 1\n"}, ["validate", "--cm", "a.cm"], 2,
     "REASON: {f}:2: unrecognized directive 'foo'\n"),
    ({"a.cm": "cm x\nG z2.grp\n"}, ["validate", "--cm", "a.cm"], 2,
     "REASON: {f}:2: incomplete crossed-module file\n"),
    ({"g.grp": "group g 2\n0 1\n"}, ["validate", "--group", "g.grp"], 2,
     "REASON: {f}:2: expected 2 rows, got 1\n"),
    ({"g.grp": "group g 2\n0 x\n1 0\n"}, ["validate", "--group", "g.grp"], 2,
     "REASON: {f}:2: expected integers, got '0 x'\n"),
    ({"g.grp": "group g\n0\n"}, ["validate", "--group", "g.grp"], 2,
     "REASON: {f}:1: expected `group <name> <order>`\n"),
    ({"g.grp": "group g 2\n0 2\n1 0\n"}, ["validate", "--group", "g.grp"], 1,
     "VALID: no\nREASON: table entry 2 out of range\n"),
    ({"g.grp": "group g 3\n0 1 2\n1 0 1\n2 2 0\n"}, ["validate", "--group", "g.grp"], 1,
     "VALID: no\nREASON: multiplication is not associative at triple (1, 1, 2)\n"),
    ({}, ["validate", "--group", os.path.join(DATA, "z2.grp")], 0,
     "KIND: group\nNAME: Z2\nORDER: 2\nIDENTITY: 0\nVALID: yes\n"),
    ({"k.cplx": "# nothing\n"}, ["validate", "--complex", "k.cplx"], 2,
     "REASON: {f}:0: no simplices in file\n"),
    ({"z.coc": "cocycle circle\n"}, ["validate", "--cocycle", "z.coc"], 2,
     "REASON: {f}:1: expected `cocycle <complex> <cm>`\n"),
    ({}, ["validate", "--group", os.path.join(DATA, "z2.grp"), "--cm", "z4_over_z2"], 2,
     "REASON: <args>:0: validate needs exactly one of --group/--cm/--complex/--cocycle\n"),
    # a non-abelian kernel over a trivial base breaks the Peiffer identity, so
    # a non-abelian crossed module fails at its base group
    ({}, ["classify", "--complex", "circle", "--cm", "conj_s3", "--strategy", "abelian"], 1,
     "VALID: no\nREASON: abelian strategy needs a trivial base group\n"),
    ({"n.cm": "cm n\nG one.grp\nH z2xz4.grp\nbeta" + " 0" * 8 + "\nalpha\n"
              + " ".join(map(str, range(8))) + "\n"},
     ["classify", "--complex", "circle", "--cm", "n.cm", "--strategy", "abelian"], 1,
     "VALID: no\nREASON: abelian strategy needs cyclic coefficients\n"),
    # over a one-element base alpha is trivial, so the Peiffer identity
    # rejects a non-abelian H before the abelian strategy looks at it
    ({"n.cm": "cm n\nG one.grp\nH s3.grp\nbeta" + " 0" * 6 + "\nalpha\n0 1 2 3 4 5\n",
      "s3.grp": S3_GROUP},
     ["classify", "--complex", "circle", "--cm", "n.cm", "--strategy", "abelian"], 1,
     "VALID: no\nREASON: alpha(beta(h)).h' != h*h'*h^-1 at (h=1, h'=2)\n"),
], ids=["beta_before_h", "alpha_before_g_h", "alpha_rows", "alpha_row_short",
        "unknown_directive", "incomplete_cm", "group_rows", "group_entry", "group_header",
        "group_range", "group_associativity", "group_ok", "empty_complex",
        "cocycle_header", "two_kinds", "abelian_base", "abelian_cyclic",
        "abelian_peiffer"])
def test_every_input_reason_is_pinned(tmp_path, files, argv, code, report):
    with open(os.path.join(DATA, "z2xz4.grp")) as fh:
        groups = {"z2.grp": Z2_GROUP, "one.grp": "group one 1\n0\n", "z2xz4.grp": fh.read()}
    for name, text in {**groups, **files}.items():
        _write(tmp_path / name, text)
    path = str(tmp_path / next(iter(files), ""))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run(argv) == (code, report.format(f=path))
