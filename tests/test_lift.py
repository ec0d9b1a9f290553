"""The lift through beta on the kernels the catalog's lift tests leave out:
the trivial kernel, whose lift is the section, and non-cyclic kernels,
solved one invariant factor at a time.  Their verdicts are compared with an
exhaustive search, with two backtracking searches (one rescanning every
triangle, one checking each triangle once) and, on the torus, with the
commutator of the lifted loop holonomies; every lift found is checked on its
own.  The obstruction read off the central reduction is compared with its
direct formula."""

import itertools
import random
import time

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
from cechmod.complexes import normalized_tuples
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


def _d4xz2_over_d4_mod_center():
    """beta((r, f), z) = (r mod 2, f) from D4 x Z2 onto D4 / Z(D4) = Z2 x Z2,
    with D4 on pairs (r, f), (r, f)(r', f') = (r + (-1)^f r', f + f').  The
    class of (a, f) acts by conjugation with (a, f) on the D4 factor.  The
    kernel Z(D4) x Z2 is Z2 x Z2."""
    def d4(x, y):
        return ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2)

    def d4_inv(x):
        return ((-x[0] * (-1) ** x[1]) % 4, x[1])

    H, items = group_from_operation(
        [((r, f), z) for r in range(4) for f in range(2) for z in range(2)],
        lambda x, y: (d4(x[0], y[0]), (x[1] + y[1]) % 2), "D4xZ2")
    G, quotient = group_from_operation(
        [(a, f) for a in range(2) for f in range(2)],
        lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2), "Z2xZ2")
    at = {h: n for n, h in enumerate(items)}
    beta = [quotient.index((d[0] % 2, d[1])) for d, _ in items]
    alpha = [[at[(d4(d4(q, d), d4_inv(q)), z)] for d, z in items] for q in quotient]
    return crossed_module(G, H, beta, alpha)


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


def _reference_search_lift(K, cmx, g):
    """The lift search that rescans every ordered triangle at every node and
    every valid triple at a full assignment: its lift, or None."""
    H = cmx.H
    A, inc = kernel_of_beta(cmx)
    sec = section_of_beta(cmx)
    edges = sorted({tuple(sorted(p)) for p in valid_tuples(K, 2) if p[0] != p[1]})
    triangles = [t for t in valid_tuples(K, 3) if len(set(t)) == 3]
    lift = {p: H.identity for p in valid_tuples(K, 2) if p[0] == p[1]}

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
            lift[(i, j)], lift[(j, i)] = h, H.inv(h)
            if consistent() and assign(idx + 1):
                return True
            del lift[(i, j)], lift[(j, i)]
        return False

    return dict(lift) if assign(0) else None


def _pruned_search_lift(K, cmx, g):
    """Pruned backtracking over the edges i < j, the search the library ran
    on non-cyclic kernels before it solved per invariant factor: its lift,
    or None.

    Edge ij takes the values s(g_ij) * x for x in ker(beta), in order, with
    l_ji = l_ij^-1 and l_ii = e.  Under these the six orders of a triangle
    i < j < k state one equation, l_ij * l_jk = l_ik, and a triple with a
    repeated vertex always holds; so each triangle is checked once, when
    its last edge jk is set, and a full assignment is a lift.
    """
    H = cmx.H
    A, inc = kernel_of_beta(cmx)
    sec = section_of_beta(cmx)
    edges = [p for p in normalized_tuples(K, 2) if p[0] < p[1]]
    at = {e: n for n, e in enumerate(edges)}
    closing = [[] for _ in edges]  # (ij, ik) of each triangle with last edge jk
    for (i, j, k) in normalized_tuples(K, 3):
        if i < j < k:
            closing[at[(j, k)]].append((at[(i, j)], at[(i, k)]))
    mul = H.mul_table
    vals = [H.identity] * len(edges)

    def assign(idx):
        if idx == len(edges):
            return True
        for x in A.elements():
            h = mul[sec[g[edges[idx]]]][inc[x]]
            vals[idx] = h
            if all(mul[vals[ij]][h] == vals[ik] for ij, ik in closing[idx]) \
                    and assign(idx + 1):
                return True
        return False

    if not assign(0):
        return None
    lift = {p: sec[g[p]] for p in valid_tuples(K, 2)}
    for (i, j), h in zip(edges, vals):
        lift[(i, j)], lift[(j, i)] = h, H.inv(h)
    return lift


def _check_verdict(K, cmx, g, exists):
    """The lift's verdict is `exists`, and a lift it returns is a 1-cocycle
    l_ij * l_jk = l_ik on every valid triple with beta(l) = g."""
    res = lifting_obstruction(K, cmx, g)
    assert res.exists == exists and (res.lift is None) == (not exists)
    if exists:
        H, lift = cmx.H, res.lift
        assert all(H.mul(lift[(i, j)], lift[(j, k)]) == lift[(i, k)]
                   for (i, j, k) in valid_tuples(K, 3))
        assert all(cmx.beta_of(lift[p]) == g[p] for p in valid_tuples(K, 2))
    return res


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
    (it runs once, below)."""
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
        exists = _reference_search_lift(K, cmx, g) is not None
        assert exists == (_pruned_search_lift(K, cmx, g) is not None)
        _check_verdict(K, cmx, g, exists)


def test_rp26_nontrivial_class_has_no_lift_through_a_non_cyclic_kernel():
    K, cmx, g = cx("rp26"), _z2xz4_over_z2(), _rp26_nontrivial_class()
    assert _reference_search_lift(K, cmx, g) is None
    assert _pruned_search_lift(K, cmx, g) is None
    res = _check_verdict(K, cmx, g, False)
    assert set(res.obstruction.values()) != {res.kernel.identity}


def _holonomy(G, g, loop):
    return G.mul_many(*(g[(a, b)] for a, b in zip(loop, loop[1:])))


def test_torus7_lift_through_a_non_cyclic_kernel_finishes():
    """torus7 is R^2 over the lattice spanned by (7, 0) and (-2, 1), vertex
    (x, y) being x + 2y mod 7; the loops 0 1 2 3 4 5 6 0 and 0 6 5 0 run
    along these two vectors and generate its fundamental group Z^2.  A lift
    makes the holonomy a homomorphism from Z^2 into H, so lifts of the two
    loop holonomies commute; the kernel is central, so their commutator does
    not depend on the lifts chosen, and H^2(torus; ker beta) = ker beta
    reads it as the whole obstruction.  The search this solve replaced took
    21 s on the first no-lift case (a shared 2-core VM), so the CPU time is
    bounded."""
    K, cmx = cx("torus7"), _d4xz2_over_d4_mod_center()
    G, H, sec = cmx.G, cmx.H, section_of_beta(cmx)
    rng = random.Random("torus7")
    verdicts = []
    start = time.process_time()
    for _ in range(6):
        g = _random_one_cocycle(K, cmx.G, rng)
        a, b = (sec[_holonomy(G, g, loop)] for loop in ([0, 1, 2, 3, 4, 5, 6, 0], [0, 6, 5, 0]))
        exists = H.mul(a, b) == H.mul(b, a)
        _check_verdict(K, cmx, g, exists)
        verdicts.append(exists)
    assert time.process_time() - start < 10
    assert set(verdicts) == {False, True}


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


# -- validate_one_cocycle against its scan of every valid pair -----------------------

def _reference_validate_one_cocycle(K, G, g):
    """validate_one_cocycle as it was before it read the normalized and
    degenerate tuples held on the complex: scans of `valid_tuples(K, 2)` and
    `valid_tuples(K, 3)`, in lexicographic order."""
    from cechmod.errors import NotA1Cocycle, SemanticError
    pairs = valid_tuples(K, 2)
    stray = sorted(set(g).difference(pairs))
    if stray:
        raise SemanticError(f"value given on {stray[0]}, which is not a valid pair")
    full = dict(g)
    for p in pairs:
        if p[0] == p[1]:
            full.setdefault(p, G.identity)
        if p not in full:
            raise NotA1Cocycle(p)
        if not (0 <= full[p] < G.order):
            raise SemanticError(f"g{p} out of range")
        if full[p] != G.identity and p[0] == p[1]:
            raise NotA1Cocycle(p)
    for (i, j, k) in valid_tuples(K, 3):
        if G.mul(full[(i, j)], full[(j, k)]) != full[(i, k)]:
            raise NotA1Cocycle((i, j, k))
    return full


@pytest.mark.parametrize("kname", COMPLEXES)
def test_validate_one_cocycle_matches_the_scan(kname):
    # one or two seeded changes of sampled S3 1-cocycles: a value changed (in
    # range, which may break the identity on a triangle, or just out of it),
    # an entry or a diagonal entry deleted, a diagonal value set off e, a
    # stray pair added, or a normalized pair traded for an off-complex one;
    # both raise the same error with the same message, or both return the
    # same dict
    from cechmod.bundle import validate_one_cocycle
    from cechmod.cech import sample_cocycle
    from cechmod.errors import NotA1Cocycle, SemanticError
    K, cmx = cx(kname), cm("star_to_s3")
    G = cmx.G
    n = K.vertex_count
    rng = random.Random(f"one-cocycle:{kname}")
    seen = set()
    for _ in range(60):
        g = dict(sample_cocycle(K, cmx, rng).g)
        for _ in range(rng.randrange(1, 3)):
            kind = rng.randrange(6)
            if kind == 0:
                g[rng.choice(normalized_tuples(K, 2))] = rng.randrange(-1, G.order + 1)
            elif kind == 5:  # a diagonal entry may be omitted
                g.pop((v := rng.randrange(n), v), None)
            elif kind == 1 and g:
                del g[rng.choice(sorted(g))]
            elif kind == 2:
                g[(v := rng.randrange(n), v)] = rng.randrange(1, G.order + 1)
            elif kind == 3:
                g[(rng.randrange(n + 1), rng.randrange(n + 1))] = 0
            else:
                g.pop(rng.choice(normalized_tuples(K, 2)), None)
                g[(rng.randrange(n), n)] = 0
        outcomes = []
        for check in (_reference_validate_one_cocycle, validate_one_cocycle):
            try:
                outcomes.append(check(K, G, dict(g)))
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        seen.add(outcomes[0][0] if isinstance(outcomes[0], tuple) else True)
    assert {True, NotA1Cocycle, SemanticError} <= seen
