"""The lift through beta on the routes the catalog's lift tests leave out:
the trivial kernel, which takes the modular solve, and a non-cyclic kernel,
which takes the pruned search; and the obstruction read off the central
reduction against its direct formula."""

import itertools
import random

import pytest

from cechmod import (
    crossed_module,
    group_from_operation,
    lifting_obstruction,
    section_of_beta,
    trivial_action,
    valid_tuples,
)
from cechmod.algebra import kernel_of_beta
from cechmod.catalog import CM_BUILDERS
from cechmod.cech import DEFAULT_BUDGET, Budget
from cechmod.errors import SearchSpaceTooLarge
from conftest import cm, cx
from test_bundle import _all_one_cocycles, _exhaustive_lift_exists

COMPLEXES = ("circle", "full2", "boundary3", "rp26", "torus7")


def _z2xz4_over_z2():
    """beta(a, b) = b mod 2 from Z2 x Z4 onto Z2, trivial action: the kernel
    {(a, b) : b even} is Z2 x Z2, central and not cyclic."""
    H, items = group_from_operation(
        [(a, b) for a in range(2) for b in range(4)],
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 4), "Z2xZ4")
    G, _ = group_from_operation([0, 1], lambda x, y: (x + y) % 2, "Z2")
    return crossed_module(G, H, [b % 2 for (_, b) in items], trivial_action(G, H).table)


def _random_one_cocycle(K, G, rng):
    """A 1-cocycle with values in G: the edges i < j in order, each tried at
    its values in a random order, backtracking when a triangle i < j < k it
    closes fails."""
    edges = sorted({tuple(sorted(p)) for p in valid_tuples(K, 2) if p[0] != p[1]})
    closing = {e: [t for t in valid_tuples(K, 3) if t[0] < t[1] < t[2] and t[1:] == e]
               for e in edges}
    g = {(v, v): G.identity for v in range(K.vertex_count)}

    def assign(n):
        if n == len(edges):
            return True
        i, j = edges[n]
        for v in rng.sample(list(G.elements()), G.order):
            g[(i, j)], g[(j, i)] = v, G.inv(v)
            if all(G.mul(g[(a, b)], g[(b, c)]) == g[(a, c)] for (a, b, c) in closing[(i, j)]) \
                    and assign(n + 1):
                return True
        return False

    assert assign(0)
    return g


def _reference_obstruction(K, cmx, g):
    """a_ijk = s(g_ij) s(g_jk) s(g_ik)^-1 in ker(beta), computed directly."""
    H = cmx.H
    _, inc = kernel_of_beta(cmx)
    back = {h: a for a, h in enumerate(inc)}
    sec = section_of_beta(cmx)
    return {(i, j, k): back[H.mul_many(sec[g[(i, j)]], sec[g[(j, k)]], H.inv(sec[g[(i, k)]]))]
            for (i, j, k) in valid_tuples(K, 3)}


def _reference_search_lift(K, cmx, g, budget):
    """The lift search that rescans every ordered triangle at every node and
    every valid triple at a full assignment: its lift, or None."""
    H = cmx.H
    A, inc = kernel_of_beta(cmx)
    sec = section_of_beta(cmx)
    edges = sorted({tuple(sorted(p)) for p in valid_tuples(K, 2) if p[0] != p[1]})
    triangles = [t for t in valid_tuples(K, 3) if len(set(t)) == 3]
    lift = {p: H.identity for p in valid_tuples(K, 2) if p[0] == p[1]}
    bud = Budget(budget, A.order ** len(edges))

    def consistent():
        return all(H.mul(lift[(i, j)], lift[(j, k)]) == lift[(i, k)]
                   for (i, j, k) in triangles
                   if (i, j) in lift and (j, k) in lift and (i, k) in lift)

    def assign(idx):
        if idx == len(edges):
            return all(H.mul(lift[(i, j)], lift[(j, k)]) == lift[(i, k)]
                       for (i, j, k) in valid_tuples(K, 3))
        i, j = edges[idx]
        for h in [H.mul(sec[g[(i, j)]], inc[x]) for x in A.elements()]:
            bud.tick("lift", idx, len(edges))
            lift[(i, j)], lift[(j, i)] = h, H.inv(h)
            if consistent() and assign(idx + 1):
                return True
            del lift[(i, j)], lift[(j, i)]
        return False

    return dict(lift) if assign(0) else None


def _outcome(run):
    try:
        return run()
    except SearchSpaceTooLarge as exc:
        return f"REASON: {exc}"


def _is_z2_coboundary(K, g):
    return any(all(g[(i, j)] == (lam[i] + lam[j]) % 2 for (i, j) in valid_tuples(K, 2))
               for lam in itertools.product((0, 1), repeat=K.vertex_count))


def _rp26_nontrivial_class():
    K = cx("rp26")
    rng = random.Random(26)
    while True:
        g = _random_one_cocycle(K, cm("z2_trivial").G, rng)
        if not _is_z2_coboundary(K, g):
            return g


def _search_cases(kname):
    """Every 1-cocycle of boundary3; on rp26, three seeded ones of the trivial
    class, since the rescanning search takes seconds to exhaust the other
    (its small budgets are compared below)."""
    K, cmx = cx(kname), _z2xz4_over_z2()
    if kname == "rp26":
        rng = random.Random(62)
        seeded = (_random_one_cocycle(K, cmx.G, rng) for _ in itertools.count())
        return K, cmx, list(itertools.islice(
            (g for g in seeded if _is_z2_coboundary(K, g)), 3))
    return K, cmx, _all_one_cocycles(K, cmx.G)


@pytest.mark.parametrize("kname", ["circle", "boundary3", "rp26", "torus7"])
def test_trivial_kernel_lifts_to_the_section(kname):
    K, cmx = cx(kname), cm("conj_s3")
    sec = section_of_beta(cmx)
    rng = random.Random(kname)
    for _ in range(4):
        g = _random_one_cocycle(K, cmx.G, rng)
        res = lifting_obstruction(K, cmx, g)
        assert res.kernel.order == 1 and res.exists
        assert set(res.obstruction.values()) == {res.kernel.identity}
        assert res.lift == {p: sec[g[p]] for p in valid_tuples(K, 2)}


@pytest.mark.parametrize("kname", ["circle", "full2", "boundary3"])
def test_non_cyclic_kernel_verdict_matches_exhaustive_search(kname):
    K, cmx = cx(kname), _z2xz4_over_z2()
    for g in _all_one_cocycles(K, cmx.G):
        assert lifting_obstruction(K, cmx, g).exists == _exhaustive_lift_exists(K, cmx, g)


@pytest.mark.parametrize("kname", ["boundary3", "rp26"])
def test_search_matches_the_rescanning_search(kname):
    K, cmx, cocycles = _search_cases(kname)
    for g in cocycles:
        for budget in [*range(1, 400, 7), DEFAULT_BUDGET]:
            res = _outcome(lambda: lifting_obstruction(K, cmx, g, budget))
            got = res if isinstance(res, str) else res.lift
            assert got == _outcome(lambda: _reference_search_lift(K, cmx, g, budget))


def test_rp26_nontrivial_class_has_no_lift_through_a_non_cyclic_kernel():
    K, cmx, g = cx("rp26"), _z2xz4_over_z2(), _rp26_nontrivial_class()
    res = lifting_obstruction(K, cmx, g)
    assert not res.exists and res.lift is None
    assert set(res.obstruction.values()) != {res.kernel.identity}
    for budget in range(1, 400, 7):
        got = _outcome(lambda: lifting_obstruction(K, cmx, g, budget))
        assert got == _outcome(lambda: _reference_search_lift(K, cmx, g, budget))
        assert got.startswith("REASON: ")


@pytest.mark.parametrize("cmname", sorted(
    name for name, build in CM_BUILDERS.items() if build().beta.is_surjective()))
def test_obstruction_is_the_direct_formula(cmname):
    cmx = cm(cmname)
    for kname in COMPLEXES:
        K = cx(kname)
        rng = random.Random(f"{cmname}/{kname}")
        for _ in range(3):
            g = _random_one_cocycle(K, cmx.G, rng)
            assert lifting_obstruction(K, cmx, g).obstruction == _reference_obstruction(K, cmx, g)
