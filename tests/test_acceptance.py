"""Acceptance suite.

Each test realizes one acceptance criterion at its stated tolerance (exact
equality throughout; runtime ceilings asserted) and prints one PASS line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

import pytest

from cechmod import (
    ad_equivariant_functor_count,
    apply_coboundary,
    are_cohomologous,
    band,
    build_total_groupoid,
    canonical_trivializations,
    check_action,
    check_trivialization,
    classify,
    coboundary_to_bundle_morphism,
    equivariant_endofunctors_of_2group,
    extract_cocycle,
    gauge_crossed_module,
    gauge_objects,
    is_weak_equivalence,
    lifting_obstruction,
    random_coboundary,
    reconstruction_morphism,
    sample_cocycle,
    trivial_cocycle,
    two_group_from_crossed_module,
    valid_tuples,
    validate_crossed_module,
)
from cechmod.bundle import band_cohomologous_to
from conftest import cm, cx
import routes
from test_bundle import _all_one_cocycles, _exhaustive_lift_exists


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _agreed(name, *need):
    """The one count that the class table's finishing routes report for the
    cell, when every route in `need` is among them; else None."""
    counts = routes.reported(name)["count"]
    if set(need) <= routes.finished(name).keys() and len(counts) == 1:
        return min(counts)


def test_ac1_degree_two_specialization():
    # the abelian classifier and the oracle (the smith route) on Z/n -> 1
    start = time.time()
    cases = [("boundary3", 2, 2), ("boundary3", 3, 3), ("rp26", 2, 2),
             ("rp26", 3, 1), ("torus7", 2, 2)] + [("full2", n, 1) for n in (2, 3, 4)]
    ok = all(_agreed(f"{kname}-z{n}_to_point", "abelian", "smith") == expected
             for kname, n, expected in cases)
    elapsed = time.time() - start
    _report("AC1 degree-2 specialization", ok and elapsed < 60,
            f"{elapsed:.1f}s")


def _conjugacy_class_count(G):
    seen = set()
    for a in G.elements():
        seen.add(min(G.conj(g, a) for g in G.elements()))
    return len(seen)


def test_ac2_degree_one_specialization():
    start = time.time()
    ok = True
    for cmname, expected in [("star_to_z2", 2), ("star_to_z3", 3), ("star_to_s3", 3)]:
        cmx = cm(cmname)
        got = classify(cx("circle"), cmx, "brute").count
        ok = ok and got == expected
        ok = ok and got == _conjugacy_class_count(cmx.G)
        ok = ok and got == routes._independent_degree_one_classes(cmx.G)
    elapsed = time.time() - start
    _report("AC2 degree-1 specialization", ok and elapsed < 30, f"{elapsed:.1f}s")


def test_ac3_contractible_base():
    start = time.time()
    ok = all(_agreed(f"full2-{cmname}", "brute") == 1
             for cmname in ("z2_to_point", "star_to_z2", "z4_over_z2"))
    elapsed = time.time() - start
    _report("AC3 contractible base is trivial", ok and elapsed < 60,
            f"{elapsed:.1f}s")


def test_ac4_central_extension_reduction():
    # brute against |H^2(K; Z2)| (the smith route: pi0 = 1, pi1 = Z2)
    start = time.time()
    ok = all(_agreed(f"{kname}-z4_over_z2", "brute", "smith") == expected
             for kname, expected in [("boundary3", 2), ("circle", 1), ("full2", 1)])
    elapsed = time.time() - start
    _report("AC4 central-extension reduction", ok and elapsed < 120,
            f"{elapsed:.1f}s")


def test_ac5_bundle_round_trip():
    start = time.time()
    rng = random.Random(2024)
    failures = 0
    samples = 0
    for kname in ("circle", "full2", "boundary3"):
        for cmname in ("z2_trivial", "z2_into_z4"):
            for _ in range(17):
                z = sample_cocycle(cx(kname), cm(cmname), rng)
                samples += 1
                P = build_total_groupoid(z)        # asserts the axiom suite
                if check_action(P):
                    failures += 1
                    continue
                trivs = canonical_trivializations(P)
                if any(check_trivialization(z, tv) for tv in trivs.values()):
                    failures += 1
                    continue
                if extract_cocycle(P, trivs) != z:
                    failures += 1
    elapsed = time.time() - start
    _report("AC5 bundle round trip", samples >= 100 and failures == 0
            and elapsed < 120, f"{samples} samples, {elapsed:.1f}s")


def test_ac6_morita_machinery():
    start = time.time()
    rng = random.Random(2025)
    failures = 0
    pairs = 0
    plan = [("circle", "z2_trivial", 20), ("circle", "z2_into_z4", 15),
            ("full2", "z2_trivial", 15), ("full2", "z2_into_z4", 5)]
    for kname, cmname, count in plan:
        K, cmx = cx(kname), cm(cmname)
        for _ in range(count):
            z = sample_cocycle(K, cmx, rng)
            c = random_coboundary(K, cmx, rng)
            pairs += 1
            F = coboundary_to_bundle_morphism(build_total_groupoid(z), c)
            if not is_weak_equivalence(F)[0]:
                failures += 1
                continue
            z2 = apply_coboundary(z, c)
            w = are_cohomologous(z, z2)
            if w is None or apply_coboundary(z, w) != z2:
                failures += 1
                continue
            P = build_total_groupoid(z)
            R = reconstruction_morphism(P, canonical_trivializations(P))
            if not is_weak_equivalence(R)[0]:
                failures += 1
    elapsed = time.time() - start
    _report("AC6 Morita machinery", pairs >= 50 and failures == 0,
            f"{pairs} pairs, {elapsed:.1f}s")


def test_ac7_band_class_invariance():
    start = time.time()
    rng = random.Random(2026)
    failures = 0
    pairs = 0
    plan = [("circle", "z2_into_z4", 30), ("full2", "z2_into_z4", 15),
            ("circle", "star_to_z2", 10)]
    for kname, cmname, count in plan:
        K, cmx = cx(kname), cm(cmname)
        for _ in range(count):
            z = sample_cocycle(K, cmx, rng)
            z2 = apply_coboundary(z, random_coboundary(K, cmx, rng))
            pairs += 1
            b1 = band(z)      # a 1-cocycle, since z is validated
            b2 = band(z2)
            if not band_cohomologous_to(b1, b2.values):
                failures += 1
    elapsed = time.time() - start
    _report("AC7 band invariance", pairs >= 50 and failures == 0,
            f"{pairs} pairs, {elapsed:.1f}s")


def test_ac8_endofunctors_of_the_structure_2group():
    start = time.time()
    ok = True
    for cmname in ("z2_trivial", "z4_over_z2", "conj_s3"):
        cmx = cm(cmname)
        tg = two_group_from_crossed_module(cmx)
        fs, ts = equivariant_endofunctors_of_2group(tg)
        ok = ok and len(fs) == cmx.G.order
        ok = ok and len(ts) == cmx.H.order * cmx.G.order
    elapsed = time.time() - start
    _report("AC8 equivariant endofunctors", ok, f"{elapsed:.1f}s")


def test_ac9_gauge_correspondence():
    start = time.time()
    rng = random.Random(2027)
    failures = 0
    instances = []
    for cmname in ("z2_trivial", "z4_over_z2"):
        instances.append(trivial_cocycle(cx("point"), cm(cmname)))
    instances.append(trivial_cocycle(cx("circle"), cm("z2_trivial")))
    for _ in range(2):
        instances.append(sample_cocycle(cx("circle"), cm("z2_trivial"), rng))
    for z in instances:
        if ad_equivariant_functor_count(z) != len(gauge_objects(z)):
            failures += 1
            continue
        gcm = gauge_crossed_module(z)
        try:
            validate_crossed_module(gcm.cm.G, gcm.cm.H, gcm.cm.beta, gcm.cm.alpha)
        except Exception:
            failures += 1
    elapsed = time.time() - start
    _report("AC9 gauge correspondence", failures == 0 and elapsed < 60,
            f"{len(instances)} instances, {elapsed:.1f}s")


def _is_coboundary_mod2(K, g):
    return any(
        all(g[(i, j)] == (lam[i] + lam[j]) % 2 for (i, j) in valid_tuples(K, 2))
        for lam in itertools.product([0, 1], repeat=K.vertex_count))


def test_ac10_lifting_obstruction():
    start = time.time()
    cmx = cm("z4_over_z2")
    ok = True

    K = cx("rp26")
    nontrivial = next(g for g in _all_one_cocycles(K, cmx.G)
                      if not _is_coboundary_mod2(K, g))
    res = lifting_obstruction(K, cmx, nontrivial)
    ok = ok and not res.exists
    ok = ok and any(v != res.kernel.identity for v in res.obstruction.values())
    res = lifting_obstruction(K, cmx, {p: 0 for p in valid_tuples(K, 2)})
    ok = ok and res.exists

    B = cx("boundary3")
    for g in _all_one_cocycles(B, cmx.G):
        ok = ok and lifting_obstruction(B, cmx, g).exists

    for kname in ("circle", "full2"):
        KK = cx(kname)
        for g in _all_one_cocycles(KK, cmx.G):
            ok = ok and (lifting_obstruction(KK, cmx, g).exists
                         == _exhaustive_lift_exists(KK, cmx, g))
    elapsed = time.time() - start
    _report("AC10 lifting obstruction", ok and elapsed < 60, f"{elapsed:.1f}s")
