import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cechmod.cli import run
from cechmod.errors import ParseError, SemanticError
from cechmod.io import (
    parse_cm_file,
    parse_coboundary_file,
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


def test_parse_complex_file_with_comments(tmp_path):
    text = "# a hollow triangle\n0 1\n1 2\n0 2\n"
    K = parse_complex_file(_write(tmp_path / "c.cplx", text))
    assert K.simplex_counts() == {0: 3, 1: 3}


def test_parse_coboundary_file(tmp_path):
    from cechmod import apply_coboundary, circle, trivial_cocycle
    from cechmod.catalog import named_crossed_module
    K, cmx = circle(), named_crossed_module("z2_trivial")
    path = _write(tmp_path / "c.cob", "gamma 0 1\neta 0 1 1\neta 1 0 1\n")
    c = parse_coboundary_file(path, K, cmx)
    assert c.gamma[0] == 1 and c.gamma[1] == 0
    assert c.eta[(0, 1)] == 1 and c.eta[(1, 2)] == 0
    apply_coboundary(trivial_cocycle(K, cmx), c)


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


def test_bundle_check_reports_axiom_failure(tmp_path, monkeypatch):
    from cechmod.bundle import FiniteGroupoid
    monkeypatch.setattr(FiniteGroupoid, "check_axioms", lambda self: ["x"])
    path = _write(tmp_path / "z.coc", "cocycle circle z2_trivial\n")
    code, report = run(["bundle-check", "--cocycle", path])
    assert code == 1
    assert report.splitlines()[-2:] == ["AXIOMS: fail", "REASON: x"]


# -- the --workers path ---------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
CIRCLE_S3 = ["classify", "--complex", "circle", "--cm", "star_to_s3"]


def test_worker_budget_exhaustion_exits_instead_of_hanging():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "cechmod.cli", *CIRCLE_S3, "--budget", "50",
         "--workers", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout.startswith("REASON: visited nodes exceed budget 50")


@pytest.mark.parametrize("budget,expected", [(1000, 3), (4361, 3), (4362, 0)])
def test_budget_outcome_is_independent_of_workers(budget, expected):
    # the sequential slice search on circle x star_to_s3 visits 4362 nodes
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


@pytest.mark.parametrize("text", ["gamma 0 9\n", "eta 0 1 5\n", "eta 0 7 1\n",
                                  "gamma 5 1\n"])
def test_malformed_coboundary_file(tmp_path, text):
    from cechmod import circle
    from cechmod.catalog import named_crossed_module
    with pytest.raises(SemanticError):
        parse_coboundary_file(_write(tmp_path / "c.cob", text), circle(),
                              named_crossed_module("z2_trivial"))


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
