"""Job lists, seeded inputs and outcome checks for the benchmark workloads.

Every job is one `cechmod.cli.run(argv)` call. A job's outcome is checked
independently of its timing: by invariants at any seed, and by exit code and
report sha256 against `expected.json` wherever the report does not depend on
the seed (classify jobs, `aut2group`) or the seed is the default one.

cechmod is imported lazily inside functions, because the benchmark's set-up
phase purges and re-imports the package to time it.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 0
FRONTIER_BUDGET = 200_000

# Expected class counts of the frontier jobs: the Smith-normal-form oracle
# where one applies (see _oracle_count), and |Hom(pi_1, S3)/conjugation| for
# star_to_s3 (pi_1(RP^2) = Z/2, pi_1(T^2) = Z^2).
FRONTIER = [
    ("rp26", "z4_over_z2", 2),
    ("torus7", "z4_over_z2", 2),
    ("rp26", "z2_to_point", 2),
    ("boundary3", "z3_to_point", 3),
    ("rp26", "star_to_s3", 2),
    ("torus7", "star_to_s3", 8),
]

CLASSIFY_BRUTE = [
    ("torus7", "star_to_z3"), ("rp26", "star_to_z3"),
    ("boundary3", "z4_over_z2"), ("boundary3", "z2_to_point"),
    ("boundary3", "star_to_s3"), ("torus7", "z2_into_z4"),
    ("torus7", "star_to_z2"), ("rp26", "z2_into_z4"),
    ("circle", "star_to_s3"), ("circle", "aut_z3"),
    ("full2", "aut_z3"), ("full2", "z4_to_point"),
]
CLASSIFY_ABELIAN = [(k, f"z{n}_to_point") for k in ("rp26", "torus7") for n in (2, 3, 4)]
ORACLE_H = [(k, n, d) for k in ("rp26", "torus7") for n in (2, 3, 4) for d in (1, 2)]

BUNDLE_PAIRS = [
    ("circle", "conj_s3"), ("boundary3", "z4_over_z2"),
    ("boundary3", "z2_into_z4"), ("boundary3", "star_to_s3"),
    ("full2", "z2_into_z4"), ("circle", "aut_z3"),
]

GAUGE_PAIRS = [
    ("circle", "conj_s3"), ("full2", "conj_s3"),
    ("boundary3", "z4_over_z2"), ("boundary3", "z2_into_z4"),
    ("rp26", "z2_into_z4"), ("circle", "aut_z3"),
]
NEGATIVE_PAIRS = [("boundary3", "z4_over_z2"), ("torus7", "z2_into_z4"),
                  ("circle", "star_to_s3")]
AUT2GROUP = ["conj_s3", "aut_z3", "z4_over_z2"]

WORKLOADS = ("classify", "bundle", "gauge")


@dataclass
class Job:
    name: str                  # unique within the workload; keys expected.json
    argv: list[str]
    kind: str                  # classify, frontier, oracle_h, bundle_check, ...
    seeded: bool               # the report depends on --seed
    check: Callable[[int, str], str | None]
    info: dict = field(default_factory=dict)


@dataclass
class Outcome:
    job: Job
    seconds: float
    code: int | None = None
    report: str = ""
    error: str | None = None   # a wrong outcome; None when the job is correct

    @property
    def solved(self) -> bool:
        return self.job.kind == "frontier" and self.code == 0 and self.error is None


def report_fields(report: str) -> dict[str, str]:
    """First value of each `KEY: value` line."""
    out: dict[str, str] = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect(code: int, report: str, want_code: int, **want: object) -> str | None:
    if code != want_code:
        return f"exit {code}, expected {want_code}: {report.splitlines()[:2]}"
    fields = report_fields(report)
    for key, value in want.items():
        if fields.get(key) != str(value):
            return f"{key}: {fields.get(key)!r}, expected {value!r}"
    if want_code != 0 and "REASON" not in fields:
        return "negative verdict without a REASON line"
    return None


# -- inputs -------------------------------------------------------------------

def names_used(workload: str) -> tuple[list[str], list[str]]:
    """The catalog complexes and crossed modules a workload names."""
    extra_complexes, extra_cms = set(), set()
    if workload == "classify":
        pairs = CLASSIFY_BRUTE + CLASSIFY_ABELIAN + [(k, c) for k, c, _ in FRONTIER]
        extra_complexes = {k for k, _, _ in ORACLE_H}
    elif workload == "bundle":
        pairs = BUNDLE_PAIRS
    else:
        pairs = GAUGE_PAIRS + NEGATIVE_PAIRS
        extra_cms = set(AUT2GROUP)
    return (sorted({k for k, _ in pairs} | extra_complexes),
            sorted({c for _, c in pairs} | extra_cms))


def _rng(seed: int, *parts: str) -> random.Random:
    return random.Random(":".join([str(seed), *parts]))


def seeded_cocycle(kname: str, cmname: str, seed: int, purpose: str):
    """A cocycle in a fixed class, moved by a coboundary drawn from the seed.

    The class is the one `sample_cocycle` reaches from a seed-independent
    generator. Keeping it fixed keeps the work per seed the same: stabilizer
    size, gauge group order and search effort depend on the class.
    """
    from cechmod.catalog import named_complex, named_crossed_module
    from cechmod.cech import apply_coboundary, random_coboundary, sample_cocycle
    K, cm = named_complex(kname), named_crossed_module(cmname)
    z = sample_cocycle(K, cm, random.Random(f"class:{kname}:{cmname}"))
    return apply_coboundary(z, random_coboundary(K, cm, _rng(seed, purpose, kname, cmname)))


def write_cocycle(path: str, kname: str, cmname: str, z) -> None:
    eG, eH = z.cm.G.identity, z.cm.H.identity
    lines = [f"cocycle {kname} {cmname}"]
    lines += [f"g {i} {j} {v}" for (i, j), v in sorted(z.g.items()) if v != eG]
    lines += [f"h {i} {j} {k} {v}" for (i, j, k), v in sorted(z.h.items()) if v != eH]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _simplex_sums(K) -> tuple[int, int]:
    sims = K.simplices_sorted()
    return sum(len(s) for s in sims), sum(len(s) ** 2 for s in sims)


class _Oracle:
    """Memoized |H^k(K; Z/n)|, computed before any timing or tracing."""

    def __init__(self):
        self.memo: dict[tuple, int] = {}

    def __call__(self, kname: str, n: int, k: int) -> int:
        from cechmod.catalog import named_complex
        from cechmod.complexes import abelian_cohomology_oracle
        key = (kname, n, k)
        if key not in self.memo:
            self.memo[key] = abelian_cohomology_oracle(named_complex(kname), n, k)
        return self.memo[key]


def _oracle_count(oracle: _Oracle, kname: str, cmname: str) -> int | None:
    """The class count the oracle predicts, where one applies.

    star_to_zn (G = Z/n, H = 1) classifies H^1(K; Z/n); zn_to_point
    (G = 1, H = Z/n) classifies H^2(K; Z/n); z4_over_z2 has trivial cokernel
    and kernel Z/2, so it is weakly equivalent to z2_to_point.
    """
    if cmname == "z4_over_z2":
        return oracle(kname, 2, 2)
    if cmname.startswith("star_to_z"):
        return oracle(kname, int(cmname[len("star_to_z"):]), 1)
    if cmname.endswith("_to_point"):
        return oracle(kname, int(cmname[1:-len("_to_point")]), 2)
    return None


# -- job lists ----------------------------------------------------------------

def _classify_jobs(oracle: _Oracle) -> list[Job]:
    jobs = []
    for strategy, pairs in (("brute", CLASSIFY_BRUTE), ("abelian", CLASSIFY_ABELIAN)):
        for kname, cmname in pairs:
            want = _oracle_count(oracle, kname, cmname)
            extra = {} if want is None else {"CLASSES": want}
            jobs.append(Job(
                f"classify:{kname}:{cmname}:{strategy}",
                ["classify", "--complex", kname, "--cm", cmname, "--strategy", strategy],
                "classify", False,
                lambda code, rep, extra=extra: _expect(code, rep, 0, **extra),
                {"strategy": strategy}))
    for kname, n, d in ORACLE_H:
        want = oracle(kname, n, d)
        jobs.append(Job(
            f"oracle-h:{kname}:{n}:{d}",
            ["oracle-h", "--complex", kname, "--coeff", str(n), "--degree", str(d)],
            "oracle_h", False,
            lambda code, rep, want=want: _expect(code, rep, 0, CARDINALITY=want)))
    for kname, cmname, want in FRONTIER:
        predicted = _oracle_count(oracle, kname, cmname)
        if predicted is not None and predicted != want:
            raise AssertionError(f"frontier table disagrees with the oracle on {kname}x{cmname}")
        jobs.append(Job(
            f"frontier:{kname}:{cmname}",
            ["classify", "--complex", kname, "--cm", cmname, "--strategy", "brute",
             "--budget", str(FRONTIER_BUDGET)],
            "frontier", False,
            lambda code, rep, want=want: _check_frontier(code, rep, want)))
    return jobs


def _check_frontier(code: int, report: str, want: int) -> str | None:
    # An exhausted budget is an unsolved job, not an error. Its message is not
    # hashed: the a-priori estimate in it is due to be replaced.
    if code == 3:
        return None if report.startswith("REASON: ") else "exit 3 without a REASON line"
    return _expect(code, report, 0, CLASSES=want)


def _bundle_jobs(seed: int, workdir: str) -> list[Job]:
    from cechmod.catalog import named_complex, named_crossed_module
    jobs = []
    for kname, cmname in BUNDLE_PAIRS:
        K, cm = named_complex(kname), named_crossed_module(cmname)
        z = seeded_cocycle(kname, cmname, seed, "bundle")
        path = os.path.join(workdir, f"bundle-{kname}-{cmname}.coc")
        write_cocycle(path, kname, cmname, z)
        s1, s2 = _simplex_sums(K)
        G, H = cm.G.order, cm.H.order
        image = len(set(cm.beta.image))
        tag = f"{kname}:{cmname}"
        jobs.append(Job(
            f"bundle-check:{tag}", ["bundle-check", "--cocycle", path], "bundle_check", True,
            lambda code, rep, o=s1 * G, m=s2 * H * G: _expect(
                code, rep, 0, OBJECTS=o, MORPHISMS=m, AXIOMS="pass", ACTION="pass",
                TRIVIALIZATIONS="pass", ROUNDTRIP="exact")))
        jobs.append(Job(
            f"quotient:{tag}", ["quotient", "--cocycle", path], "quotient", True,
            lambda code, rep, o=s1, m=s2 * H: _expect(
                code, rep, 0, OBJECTS=o, MORPHISMS=m, AXIOMS="pass")))
        jobs.append(Job(
            f"band:{tag}", ["band", "--cocycle", path], "band", True,
            lambda code, rep, order=G // image: _expect(code, rep, 0, BAND_GROUP_ORDER=order)))
        # Central reduction needs a surjective beta; otherwise the verdict is
        # the documented exit 1 with a REASON line.
        if image == G:
            check = (lambda code, rep, order=H // G: _expect(code, rep, 0, KERNEL_ORDER=order))
        else:
            check = (lambda code, rep: _expect(code, rep, 1, VALID="no"))
        jobs.append(Job(f"reduce-central:{tag}", ["reduce-central", "--cocycle", path],
                        "reduce_central", True, check))
    return jobs


def _gauge_jobs(seed: int, workdir: str) -> list[Job]:
    from cechmod.catalog import named_complex, named_crossed_module
    from cechmod.cech import apply_coboundary, classify, random_coboundary
    jobs = []
    for kname, cmname in GAUGE_PAIRS:
        K, cm = named_complex(kname), named_crossed_module(cmname)
        z = seeded_cocycle(kname, cmname, seed, "gauge")
        moved = apply_coboundary(z, random_coboundary(K, cm, _rng(seed, "moved", kname, cmname)))
        path = os.path.join(workdir, f"gauge-{kname}-{cmname}.coc")
        path2 = os.path.join(workdir, f"gauge-{kname}-{cmname}-moved.coc")
        write_cocycle(path, kname, cmname, z)
        write_cocycle(path2, kname, cmname, moved)
        tag = f"{kname}:{cmname}"
        hstar = cm.H.order ** K.vertex_count
        jobs.append(Job(f"stabilizer:{tag}", ["stabilizer", "--cocycle", path],
                        "stabilizer", True, _check_stabilizer, {"cocycle": tag}))
        jobs.append(Job(f"gauge:{tag}", ["gauge", "--cocycle", path], "gauge", True,
                        lambda code, rep, hs=hstar: _expect(code, rep, 0, HSTAR=hs),
                        {"cocycle": tag}))
        jobs.append(Job(f"cohomologous:{tag}:moved",
                        ["cohomologous", "--cocycle", path, "--cocycle2", path2],
                        "cohomologous", True,
                        lambda code, rep: _expect(code, rep, 0, COHOMOLOGOUS="yes")))
    for kname, cmname in NEGATIVE_PAIRS:
        K, cm = named_complex(kname), named_crossed_module(cmname)
        reps = classify(K, cm, "brute").representatives
        rng = _rng(seed, "negative", kname, cmname)
        a, b = rng.sample(range(len(reps)), 2)
        if reps[a].key() == reps[b].key():
            raise AssertionError(f"classify returned a repeated representative on {kname}x{cmname}")
        za = apply_coboundary(reps[a], random_coboundary(K, cm, rng))
        zb = apply_coboundary(reps[b], random_coboundary(K, cm, rng))
        paths = [os.path.join(workdir, f"negative-{kname}-{cmname}-{x}.coc") for x in "ab"]
        write_cocycle(paths[0], kname, cmname, za)
        write_cocycle(paths[1], kname, cmname, zb)
        jobs.append(Job(f"cohomologous:{kname}:{cmname}:distinct",
                        ["cohomologous", "--cocycle", paths[0], "--cocycle2", paths[1]],
                        "cohomologous", True,
                        lambda code, rep: _expect(code, rep, 1, COHOMOLOGOUS="no")))
    for cmname in AUT2GROUP:
        order = named_crossed_module(cmname).G.order
        jobs.append(Job(f"aut2group:{cmname}", ["aut2group", "--cm", cmname], "aut2group",
                        False, lambda code, rep, o=order: _expect(code, rep, 0, FUNCTORS=o)))
    return jobs


def _check_stabilizer(code: int, report: str) -> str | None:
    bad = _expect(code, report, 0)
    if bad:
        return bad
    size = int(report_fields(report).get("SIZE", "0"))
    listed = {line.split()[1] for line in report.splitlines() if line.startswith("ELEMENT ")}
    if size < 1 or len(listed) != size:
        return f"SIZE {size} but {len(listed)} elements listed"
    return None


def build_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """The workload's jobs, with their seeded input files written to workdir."""
    if workload == "classify":
        return _classify_jobs(_Oracle())
    if workload == "bundle":
        return _bundle_jobs(seed, workdir)
    if workload == "gauge":
        return _gauge_jobs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def check_pass(outcomes: list[Outcome], expected: dict | None, seed: int) -> None:
    """Fill in Outcome.error: per-job invariants, the recorded exit code and
    report hash (skipped when expected is None, while recording), and the
    cross-job invariant stabilizer SIZE == gauge GSTAR."""
    for out in outcomes:
        if out.error is not None:
            continue
        job = out.job
        out.error = job.check(out.code, out.report)
        if out.error is None and expected is not None and job.kind != "frontier" \
                and (seed == DEFAULT_SEED or not job.seeded):
            rec = expected.get(job.name)
            if rec is None:
                out.error = "no recorded report"
            elif out.code != rec["exit"] or sha256(out.report) != rec["sha256"]:
                out.error = f"report differs from the recorded one (exit {out.code})"
    sizes = {o.job.info["cocycle"]: report_fields(o.report).get("SIZE")
             for o in outcomes if o.job.kind == "stabilizer"}
    for out in outcomes:
        if out.job.kind == "gauge" and out.error is None:
            gstar = report_fields(out.report).get("GSTAR")
            if gstar != sizes.get(out.job.info["cocycle"]):
                out.error = f"GSTAR {gstar} differs from stabilizer SIZE"


def record(outcomes: list[Outcome]) -> dict:
    """Exit code and report hash of every job that should have one recorded."""
    return {o.job.name: {"exit": o.code, "sha256": sha256(o.report)}
            for o in outcomes if o.job.kind != "frontier"}
