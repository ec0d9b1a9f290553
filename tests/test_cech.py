import functools
import itertools
import random

import pytest

from cechmod import (
    Coboundary,
    Cocycle,
    apply_coboundary,
    are_cohomologous,
    classify,
    coboundary,
    cocycle,
    compose_coboundaries,
    identity_coboundary,
    inverse_coboundary,
    random_coboundary,
    sample_cocycle,
    stabilizer,
    trivial_cocycle,
    validate_cocycle,
)
from cechmod import abelian_cohomology_oracle, circle, full_simplex, simplex_boundary
from cechmod import valid_tuples
from cechmod.errors import (
    Cocyc1Failure,
    Cocyc2Failure,
    MissingEntry,
    NormalizationFailure,
    ResultNotCocycle,
    SearchSpaceTooLarge,
    StrategyMismatch,
)
from conftest import cm, cx
import routes

HOLONOMY_EXAMPLE = {(0, 1): 1, (1, 0): 1, (1, 2): 0, (2, 1): 0, (0, 2): 1, (2, 0): 1}


def test_trivial_cocycle_everywhere():
    for kname in ("point", "circle", "full2", "boundary3"):
        for cmname in ("z2_trivial", "z4_over_z2", "star_to_s3", "z2_to_point"):
            validate_cocycle(trivial_cocycle(cx(kname), cm(cmname)))


def test_flat_circle_example_valid():
    cocycle(circle(), cm("star_to_z2"), HOLONOMY_EXAMPLE, {})


def test_broken_pair_fails_at_witness():
    bad = dict(HOLONOMY_EXAMPLE)
    bad[(1, 0)] = 0
    with pytest.raises(Cocyc1Failure) as exc:
        cocycle(circle(), cm("star_to_z2"), bad, {})
    assert exc.value.witness == (0, 1, 0)


def test_missing_entry_and_normalization():
    K, cmx = circle(), cm("star_to_z2")
    with pytest.raises(MissingEntry):
        validate_cocycle(Cocycle(K, cmx, {}, {}))
    g = {p: 0 for p in valid_tuples(K, 2)}
    g[(0, 0)] = 1
    with pytest.raises(NormalizationFailure):
        validate_cocycle(Cocycle(K, cmx, g, {t: 0 for t in valid_tuples(K, 3)}))
    cmh = cm("z2_trivial")
    h = {t: 0 for t in valid_tuples(K, 3)}
    h[(0, 0, 1)] = 1
    with pytest.raises(NormalizationFailure):
        validate_cocycle(Cocycle(K, cmh, {p: 0 for p in valid_tuples(K, 2)}, h))


def test_quadruple_identity_failure():
    K, cmx = full_simplex(2), cm("z2_to_point")
    h = {t: 0 for t in valid_tuples(K, 3)}
    h[(0, 1, 2)] = 1  # lone nonzero value breaks the quadruple identity
    with pytest.raises(Cocyc2Failure):
        validate_cocycle(Cocycle(K, cmx, {p: 0 for p in valid_tuples(K, 2)}, h))


def test_apply_coboundary_worked_example():
    # additive Z/2 computation: shifting gamma_0 adds beta(eta) and conjugates
    K, cmx = circle(), cm("star_to_z2")
    z = cocycle(K, cmx, HOLONOMY_EXAMPLE, {})
    c = coboundary(K, cmx, {0: 1, 1: 0, 2: 0},
                   {p: 0 for p in valid_tuples(K, 2)})
    z2 = apply_coboundary(z, c)
    assert z2.g[(0, 1)] == 0 and z2.g[(0, 2)] == 0 and z2.g[(1, 2)] == 0


def test_identity_coboundary_fixes_everything():
    K, cmx = circle(), cm("z2_trivial")
    rng = random.Random(11)
    for _ in range(5):
        z = sample_cocycle(K, cmx, rng)
        assert apply_coboundary(z, identity_coboundary(K, cmx)) == z


def test_abelian_case_matches_delta_convention():
    # with a trivial base group the action reduces to h' = h - (delta eta)
    K, cmx = full_simplex(2), cm("z3_to_point")
    rng = random.Random(5)
    z = sample_cocycle(K, cmx, rng)
    c = random_coboundary(K, cmx, rng)
    z2 = apply_coboundary(z, c)
    for (i, j, k) in valid_tuples(K, 3):
        delta = (c.eta[(i, j)] + c.eta[(j, k)] - c.eta[(i, k)]) % 3
        assert z2.h[(i, j, k)] == (z.h[(i, j, k)] - delta) % 3


def test_compose_contract_on_fifty_random_triples():
    K, cmx = circle(), cm("z2_trivial")
    rng = random.Random(0)
    for _ in range(50):
        z = sample_cocycle(K, cmx, rng)
        c1 = random_coboundary(K, cmx, rng)
        c2 = random_coboundary(K, cmx, rng)
        assert apply_coboundary(apply_coboundary(z, c1), c2) == \
            apply_coboundary(z, compose_coboundaries(c1, c2))


def test_compose_with_identity_and_inverse():
    K, cmx = circle(), cm("z4_over_z2")
    rng = random.Random(1)
    ident = identity_coboundary(K, cmx)
    for _ in range(10):
        c = random_coboundary(K, cmx, rng)
        assert compose_coboundaries(c, ident) == c
        assert compose_coboundaries(ident, c) == c
        ci = inverse_coboundary(c)
        assert compose_coboundaries(c, ci) == ident
        z = sample_cocycle(K, cmx, rng)
        assert apply_coboundary(apply_coboundary(z, c), ci) == z


def test_coboundary_set_is_a_group():
    K, cmx = circle(), cm("z2_trivial")
    rng = random.Random(2)
    cs = [random_coboundary(K, cmx, rng) for _ in range(4)]
    for a in cs:
        for b in cs:
            for c in cs:
                lhs = compose_coboundaries(compose_coboundaries(a, b), c)
                rhs = compose_coboundaries(a, compose_coboundaries(b, c))
                assert lhs == rhs


def test_are_cohomologous_reflexive_with_verified_witness():
    K, cmx = circle(), cm("z2_trivial")
    rng = random.Random(3)
    z = sample_cocycle(K, cmx, rng)
    w = are_cohomologous(z, z)
    assert w is not None and apply_coboundary(z, w) == z


def test_holonomy_classes_are_distinct():
    K, cmx = circle(), cm("star_to_z2")
    z1 = cocycle(K, cmx, {(0, 1): 1, (1, 0): 1}, {})
    assert are_cohomologous(z1, trivial_cocycle(K, cmx)) is None


def test_are_cohomologous_positive_on_orbit():
    K, cmx = circle(), cm("z2_into_z4")
    rng = random.Random(4)
    for _ in range(10):
        z = sample_cocycle(K, cmx, rng)
        c = random_coboundary(K, cmx, rng)
        z2 = apply_coboundary(z, c)
        w = are_cohomologous(z, z2)
        assert w is not None and apply_coboundary(z, w) == z2


def test_equivalence_relation_symmetry_transitivity():
    K, cmx = circle(), cm("z2_trivial")
    rng = random.Random(6)
    z1 = sample_cocycle(K, cmx, rng)
    z2 = apply_coboundary(z1, random_coboundary(K, cmx, rng))
    z3 = apply_coboundary(z2, random_coboundary(K, cmx, rng))
    assert are_cohomologous(z2, z1) is not None  # symmetry
    assert are_cohomologous(z1, z3) is not None  # transitivity


# circle x star_to_z3 is a cell on which brute, the full enumeration and the
# holonomy-conjugacy count all finish; tests/test_routes.py checks every cell
@pytest.mark.parametrize("cmname,expected", [("star_to_z3", 3)])
def test_degree_one_circle_matches_independent_oracle(cmname, expected):
    K, cmx = routes.case(f"circle-{cmname}")
    assert routes.brute(K, cmx) == expected == routes.degree_one(K, cmx)


@pytest.mark.parametrize("kname,cmname", [("circle", "star_to_z3")])
def test_classify_matches_independent_full_enumeration(kname, cmname):
    K, cmx = routes.case(f"{kname}-{cmname}")
    assert routes.brute(K, cmx) == routes.full_enumeration(K, cmx)


def test_degree_two_prime_power_modulus():
    K = simplex_boundary(3)
    result = classify(K, cm("z4_to_point"), "abelian")
    for rep in result.representatives:
        validate_cocycle(rep)
    for a, b in itertools.combinations(result.representatives, 2):
        assert are_cohomologous(a, b) is None


def test_classify_representatives_are_valid_and_distinct():
    result = classify(circle(), cm("star_to_s3"), "brute")
    for rep in result.representatives:
        validate_cocycle(rep)
    for a, b in itertools.combinations(result.representatives, 2):
        assert are_cohomologous(a, b) is None


def test_classify_budget_exceeded():
    with pytest.raises(SearchSpaceTooLarge) as exc:
        classify(circle(), cm("star_to_s3"), "brute", budget=10)
    assert (exc.value.budget, exc.value.phase) == (10, "slice h")


def test_strategy_validation():
    with pytest.raises(StrategyMismatch):
        classify(circle(), cm("z2_trivial"), "abelian")  # base group not trivial
    with pytest.raises(StrategyMismatch):
        classify(circle(), cm("z2_to_point"), "sideways")


def test_stabilizer_single_vertex_is_whole_group():
    for cmname, order in [("z2_trivial", 2), ("star_to_s3", 6)]:
        st = stabilizer(trivial_cocycle(cx("point"), cm(cmname)))
        assert len(st) == order


def test_stabilizer_contains_identity_and_central_constants():
    K, cmx = circle(), cm("z2_trivial")
    z = trivial_cocycle(K, cmx)
    st = stabilizer(z)
    keys = {c.key() for c in st}
    assert identity_coboundary(K, cmx).key() in keys
    # constant central gamma with eta = e stabilizes the trivial cocycle:
    # direct substitution, then membership
    for gval in cmx.G.elements():
        c = coboundary(K, cmx, {v: gval for v in range(K.vertex_count)},
                       {p: cmx.H.identity for p in valid_tuples(K, 2)})
        assert apply_coboundary(z, c) == z
        assert c.key() in keys


def test_stabilizer_of_flat_trivial_bundle_is_constants():
    K, cmx = circle(), cm("star_to_s3")
    st = stabilizer(trivial_cocycle(K, cmx))
    assert len(st) == cmx.G.order
    for c in st:
        assert len(set(c.gamma.values())) == 1


def test_stabilizer_order_constant_on_classes():
    K, cmx = circle(), cm("z4_over_z2")
    rng = random.Random(8)
    for _ in range(5):
        z = sample_cocycle(K, cmx, rng)
        z2 = apply_coboundary(z, random_coboundary(K, cmx, rng))
        assert len(stabilizer(z)) == len(stabilizer(z2))


def test_enumeration_count_reported():
    result = classify(circle(), cm("star_to_z2"), "brute")
    assert result.cocycles_enumerated == 8  # slice assignments on three edges


def test_stabilizer_budget():
    with pytest.raises(SearchSpaceTooLarge):
        stabilizer(trivial_cocycle(circle(), cm("z2_trivial")), budget=3)


@pytest.mark.parametrize("cmname,size", [
    ("z3_to_point", 243), ("aut_z3", 486), ("z4_over_z2", 4096)])
def test_stabilizer_of_the_trivial_cocycle_on_rp26(cmname, size):
    # cells of the gauge frontier that finish once each triple is checked at
    # the pair that completes it.  For the trivial cocycle on a connected K
    # with n vertices, |S| = |pi0| |H^1(K; pi1)| |H|^n / |H^0(K; pi1)|; on
    # rp26 (n = 6, H^1(K; Z3) = 0, H^1(K; Z2) = Z2) that is 3^6 / 3,
    # 2 * 3^6 / 3 and 2 * 4^6 / 2
    assert len(stabilizer(trivial_cocycle(cx("rp26"), cm(cmname)))) == size


def test_classify_with_nontrivial_action():
    # trivial homomorphism, inversion action; test_routes checks its count, 2
    result = classify(circle(), cm("aut_z3"), "brute")
    for rep in result.representatives:
        validate_cocycle(rep)
    for a, b in itertools.combinations(result.representatives, 2):
        assert are_cohomologous(a, b) is None


# sha256 of repr(key()) of sample_cocycle(K, cm, random.Random(seed)); the
# benchmark's expected report hashes depend on the order in which the slice
# search consumes the rng, so any change to that order fails here first
SAMPLE_PINS = {
    ("circle", "conj_s3"): [
        "4be6d7e02b9ab4b05f9d99316f4d66c46cc9c6b288e55f92237d38705c3a32e1",
        "eb4a44561b5ae72c46b4f94fa991da39138a1321c5fa38318d0df19239da6b1c",
        "59eedbe71de6f1c5bd2368aa4bd888df3eac99690c16c873dacc922612542958"],
    ("boundary3", "star_to_s3"): [
        "f5f3743de71cdce7c1462616776f18cd9658b3631dd3891458d3810856c4fa28",
        "5fd01526f1ff324751e6fb20f84432e4366b696d45dea2bee68a9d2aae7d6f3f",
        "fca471d4ab18e268f60cc6244816d37249ca0c41c295bc64e91061992d5104d1"],
    ("rp26", "z2_into_z4"): [
        "b286e532be189b41bb9d565ccdbc28c8b2403424807d63ef77c2886d8a81ae79",
        "136cf5c37a8b2d8192158cd51802ac529b26ea493aaf5898e2a5ba025b6afee2",
        "069c5766e1b8418ad479c5291182277c73a5ec7437c7ef97ae65a61e1fcdd1dd"],
}


@pytest.mark.parametrize("kname,cmname", sorted(SAMPLE_PINS))
def test_sample_cocycle_is_pinned(kname, cmname):
    import hashlib
    got = [hashlib.sha256(repr(sample_cocycle(cx(kname), cm(cmname),
                                              random.Random(seed)).key()).encode()).hexdigest()
           for seed in range(3)]
    assert got == SAMPLE_PINS[(kname, cmname)]


# witness keys and node counts of are_cohomologous(z, z2) for z trivial and
# z2 = z moved by random_coboundary(K, cm, Random(1)); they pin the order in
# which the coboundary search visits gamma and eta
WITNESS_PINS = {
    ("circle", "conj_s3"): ((0, 0, 0, 0, 3, 1, 5, 0, 4, 2, 1, 0), 9),
    ("circle", "z4_over_z2"): ((0, 0, 0, 0, 0, 0, 3, 0, 0, 2, 0, 0), 13),
    ("boundary3", "star_to_s3"):
        ((0, 2, 1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 23),
}


@pytest.mark.parametrize("kname,cmname", sorted(WITNESS_PINS))
def test_cohomologous_witness_is_pinned(kname, cmname):
    K, cmx = cx(kname), cm(cmname)
    z = trivial_cocycle(K, cmx)
    z2 = apply_coboundary(z, random_coboundary(K, cmx, random.Random(1)))
    key, nodes = WITNESS_PINS[(kname, cmname)]
    assert are_cohomologous(z, z2, budget=nodes).key() == key
    with pytest.raises(SearchSpaceTooLarge):
        are_cohomologous(z, z2, budget=nodes - 1)


def _reference_coboundary_search(ctx, z, z2, bud, find_all):
    """`cech._coboundary_search` as it stood before it checked each triple
    at the pair that completes it, charging `bud`: every pair at v is set
    before the triples at v are checked, together, at the leaf."""
    from cechmod.cech import _act_triples, _pack
    K, cmx = z.complex, z.cm
    n = K.vertex_count
    zg, zh = _pack(ctx, z)
    z2g, z2h = _pack(ctx, z2)
    triples_at_vertex = [[t for t, triple in enumerate(ctx.free_triples) if max(triple) == v]
                         for v in range(n)]
    want = [[z2h[t] for t in ts] for ts in triples_at_vertex]
    gamma = [cmx.G.identity] * n
    eta = [cmx.H.identity] * (len(ctx.distinct_pairs) + 1)
    levels = n + len(ctx.distinct_pairs)
    first_level = [v + sum(map(len, ctx.pairs_at_vertex[:v])) for v in range(n)]

    def assign_pairs(v, idx):
        pairs = ctx.pairs_at_vertex[v]
        if idx == len(pairs):
            if _act_triples(ctx, zg, zh, gamma, eta, triples_at_vertex[v]) == want[v]:
                yield from assign_vertex(v + 1)
            return
        p = pairs[idx]
        i, j = ctx.distinct_pairs[p]
        for cand in ctx.fiber[ctx.pair_beta(gamma[i], z2g[p], gamma[j], zg[p])]:
            bud.tick("coboundary search", first_level[v] + 1 + idx, levels)
            eta[p] = cand
            yield from assign_pairs(v, idx + 1)

    def assign_vertex(v):
        if v == n:
            yield coboundary(K, cmx, dict(enumerate(gamma)), dict(zip(ctx.distinct_pairs, eta)))
            return
        for val in cmx.G.elements():
            bud.tick("coboundary search", first_level[v], levels)
            gamma[v] = val
            yield from assign_pairs(v, 0)

    for c in assign_vertex(0):
        yield c
        if not find_all:
            return


def _reference_outcomes(z, z2, find_all):
    """`stabilizer(z)` (z2 is z) or `are_cohomologous(z, z2)` as the
    reference search gives them, at every budget: a function of the budget
    returning the sorted keys, the witness's key or None, or the message of
    SearchSpaceTooLarge.  One run without limit logs where each node stood;
    at budget b < its node count, the node b + 1 is the one that runs out."""
    from cechmod.cech import Budget, _Context

    class Log(Budget):
        """A budget without limit that logs where each node stood."""

        def __init__(self):
            super().__init__(0)
            self.nodes = []

        def tick(self, phase, level, levels):
            self.nodes.append((phase, level + 1, levels))

    bud = Log()
    found = list(_reference_coboundary_search(_Context(z.complex, z.cm), z, z2, bud, find_all))
    result = sorted(c.key() for c in found) if find_all else found[0].key() if found else None

    def outcome(budget):
        if budget < len(bud.nodes):
            return str(SearchSpaceTooLarge(budget, *bud.nodes[budget]))
        return result

    return outcome, len(bud.nodes)


def _search_outcome(z, z2, find_all, budget):
    try:
        if find_all:
            return [c.key() for c in stabilizer(z, budget=budget)]
        c = are_cohomologous(z, z2, budget=budget)
        return None if c is None else c.key()
    except SearchSpaceTooLarge as exc:
        return str(exc)


def _search_cases(kname, cmname):
    """(z, z2, find_all) by name: the stabilizers of the trivial and of a
    sampled cocycle, are_cohomologous on each of them against a moved copy,
    and on two classes, one of them moved, where there are two."""
    K, cmx = cx(kname), cm(cmname)
    rng = random.Random(f"{kname}:{cmname}")
    trivial, sampled = trivial_cocycle(K, cmx), sample_cocycle(K, cmx, rng)
    cases = {"trivial stabilizer": (trivial, trivial, True),
             "sampled stabilizer": (sampled, sampled, True)}
    for name, z in (("trivial", trivial), ("sampled", sampled)):
        cases[f"{name} moved"] = (z, apply_coboundary(z, random_coboundary(K, cmx, rng)), False)
    reps = classify(K, cmx, "abelian" if cmx.G.order == 1 else "brute").representatives
    if len(reps) > 1:
        a, b = rng.sample(reps, 2)
        cases["two classes"] = (a, apply_coboundary(b, random_coboundary(K, cmx, rng)), False)
    return cases


def _sampled_budgets(nodes, rng):
    return sorted({0, 1, nodes - 1, nodes} | {rng.randrange(nodes) for _ in range(30)})


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "conj_s3"), ("circle", "aut_z3"), ("circle", "z4_over_z2")])
def test_coboundary_search_matches_the_reference_at_every_budget(kname, cmname):
    # the stabilizer's keys, the witness or None, and where the budget runs
    # out, at every budget from 0 to the reference's node count; the sampled
    # cocycle's stabilizer, with as many nodes as the trivial one's, at
    # sampled budgets
    rng = random.Random(0)
    for name, (z, z2, find_all) in _search_cases(kname, cmname).items():
        outcome, nodes = _reference_outcomes(z, z2, find_all)
        budgets = (_sampled_budgets(nodes, rng) if name == "sampled stabilizer"
                   else range(nodes + 1))
        for budget in budgets:
            assert _search_outcome(z, z2, find_all, budget) == outcome(budget), (name, budget)


@pytest.mark.parametrize("kname,cmname", [
    ("boundary3", "z4_over_z2"), ("boundary3", "z4_to_point"), ("boundary3", "star_to_s3")])
def test_coboundary_search_matches_the_reference_at_sampled_budgets(kname, cmname):
    rng = random.Random(0)
    for name, (z, z2, find_all) in _search_cases(kname, cmname).items():
        outcome, nodes = _reference_outcomes(z, z2, find_all)
        for budget in _sampled_budgets(nodes, rng):
            assert _search_outcome(z, z2, find_all, budget) == outcome(budget), (name, budget)


def _reference_apply_coboundary(z, c):
    """The coboundary action as its defining formula, per valid tuple, the
    degenerate ones included, with no validation: (g', h') as dicts."""
    K, cmx = z.complex, z.cm
    G, H = cmx.G, cmx.H
    g2 = {}
    for (i, j) in valid_tuples(K, 2):
        g2[(i, j)] = G.mul_many(G.inv(c.gamma[i]), cmx.beta_of(c.eta[(i, j)]),
                                z.g[(i, j)], c.gamma[j])
    h2 = {}
    for (i, j, k) in valid_tuples(K, 3):
        inner = H.mul_many(
            c.eta[(i, k)],
            z.h[(i, j, k)],
            H.inv(cmx.act(z.g[(i, j)], c.eta[(j, k)])),
            H.inv(c.eta[(i, j)]),
        )
        h2[(i, j, k)] = cmx.act(G.inv(c.gamma[i]), inner)
    return g2, h2


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "conj_s3"), ("circle", "aut_z3"), ("boundary3", "z4_over_z2"),
    ("rp26", "z2_into_z4")])
def test_packed_action_matches_apply_coboundary(kname, cmname):
    # apply_coboundary runs on the packed action of the searches; it must
    # agree with the defining formula on every valid pair and triple,
    # degenerate ones included, for random, composed and inverse coboundaries
    K, cmx = cx(kname), cm(cmname)
    rng = random.Random(7)
    for _ in range(10):
        z = sample_cocycle(K, cmx, rng)
        c1, c2 = random_coboundary(K, cmx, rng), random_coboundary(K, cmx, rng)
        for c in (c1, compose_coboundaries(c1, c2), inverse_coboundary(c1)):
            got = apply_coboundary(z, c)
            assert (got.g, got.h) == _reference_apply_coboundary(z, c)


def test_coboundary_breaking_the_normalization_is_refused():
    # a hand-built coboundary with eta_00 != e takes a cocycle off the
    # normalization, so the action refuses it rather than drop the entry
    K, cmx = circle(), cm("conj_s3")
    z = sample_cocycle(K, cmx, random.Random(2))
    c = random_coboundary(K, cmx, random.Random(3))
    for a in cmx.H.elements():
        if a == cmx.H.identity:
            continue
        bad = Coboundary(K, cmx, c.gamma, {**c.eta, (0, 0): a})
        with pytest.raises(ResultNotCocycle) as exc:
            apply_coboundary(z, bad)
        assert isinstance(exc.value.cause, NormalizationFailure)
        # the defining formula breaks the normalization there too
        _, h2 = _reference_apply_coboundary(z, bad)
        assert h2[(0, 0, 0)] != cmx.H.identity


def test_cocycles_and_coboundaries_hash_by_value(tmp_path):
    from cechmod.io import parse_cocycle_file
    path = tmp_path / "z.coc"
    path.write_text("cocycle circle z2_into_z4\ng 0 1 1\ng 1 0 3\n"
                    "g 1 2 1\ng 2 1 3\ng 0 2 1\ng 2 0 3\n")
    parsed = parse_cocycle_file(str(path))
    g = {(0, 1): 1, (1, 0): 3, (1, 2): 1, (2, 1): 3, (0, 2): 1, (2, 0): 3}
    built = cocycle(circle(), cm("z2_into_z4"), g, {})
    assert parsed == built and hash(parsed) == hash(built)
    assert len({parsed, built}) == 1
    hash(trivial_cocycle(circle(), cm("conj_s3")))
    c = random_coboundary(circle(), cm("conj_s3"), random.Random(3))
    assert len({c, compose_coboundaries(c, identity_coboundary(circle(), cm("conj_s3")))}) == 1


# sha256 of the `classify --strategy brute` report (CLASSES, ENUMERATED and every
# REP line) and the nodes one slice search visits; recorded before the slice
# leaves and the orbit moves were re-encoded, so they pin what brute computes
BRUTE_PINS = {
    ("circle", "star_to_s3"):
        ("e29fa17e5108f8d39c4bdd741de6cbcbd6c0d7895db172a7297c1e722e23f841", 4362),
    ("circle", "aut_z3"):
        ("712ce7a77aa4a5ce557ab2f8a68c85a5451d0f0250dae1b3c956ec7cea7f3d01", 1878),
    ("circle", "conj_s3"):
        ("ad245bd397e4de66aec693fc9417e8c1633b3eb0f5f651236b2b375f495d9835", 12),
    ("boundary3", "z4_over_z2"):
        ("056bb23e78b779ad253fe1923609b3feb51501614067c30a0d6da6ab40cf02df", 68618),
    ("boundary3", "star_to_s3"):
        ("ffc1338941472bb44a3e99b53ba190351b2f6e2d36e5092ce8a1ad8e437b83b4", 19698),
    ("rp26", "z2_into_z4"):
        ("b16496cd9543defe599f9d84b59149b39202dc0c80e0ff76fc17fe3aa1d20616", 11262),
    ("full2", "aut_z3"):
        ("f5937c3b34d9390fd50aecb3b6222160d0f5a71fa90240024c9b00423378fb3e", 8294),
}


@pytest.mark.parametrize("kname,cmname", sorted(BRUTE_PINS))
def test_brute_report_and_slice_nodes_are_pinned(kname, cmname):
    import hashlib
    from cechmod.cech import DEFAULT_BUDGET, Budget, _Context, _enumerate_slice
    from cechmod.cli import run
    code, report = run(["classify", "--complex", kname, "--cm", cmname,
                        "--strategy", "brute"])
    ctx = _Context(cx(kname), cm(cmname))
    bud = Budget(DEFAULT_BUDGET)
    _enumerate_slice(ctx, bud)
    assert code == 0
    assert (hashlib.sha256(report.encode()).hexdigest(), bud.visited) == \
        BRUTE_PINS[(kname, cmname)]


# -- the orbit partition against every move ----------------------------------------

def _reference_slice_moves(ctx):
    """Every slice move: each non-identity kernel element on each pair and
    each non-identity element of G at each vertex."""
    G, H = ctx.cm.G, ctx.cm.H
    moves = [("kernel", p, a) for p in range(len(ctx.distinct_pairs))
             for a in ctx.kernel if a != H.identity]
    moves += [("vertex", v, x) for v in range(ctx.K.vertex_count)
              for x in G.elements() if x != G.identity]
    return moves


def _reference_apply_move(ctx, packed, move):
    """One slice move on the (g tuple, h tuple) encoding, through the full
    packed action: the vertex move refills every eta with the minimal fiber
    element that keeps g in the transversal."""
    from cechmod.cech import _apply_packed
    G = ctx.cm.G
    kind, a, b = move
    eta = [ctx.cm.H.identity] * (len(ctx.distinct_pairs) + 1)
    gamma = [G.identity] * ctx.K.vertex_count
    if kind == "kernel":
        eta[a] = b
    else:
        gamma[a] = b
        gmul, ginv = G.mul_table, G.inv_table
        for p, (i, j) in enumerate(ctx.distinct_pairs):
            gi, gj, cur = gamma[i], gamma[j], packed[0][p]
            target = ctx.coset_rep[gmul[gmul[ginv[gi]][cur]][gj]]
            eta[p] = ctx.fiber[ctx.pair_beta(gi, target, gj, cur)][0]
    return _apply_packed(ctx, packed, gamma, eta)


def _reference_partition(ctx, leaves):
    npairs = len(ctx.distinct_pairs)

    def split(leaf):
        digits = ctx.decode(leaf)
        return tuple(digits[:npairs]), tuple(digits[npairs:])

    index = {split(leaf): i for i, leaf in enumerate(leaves)}
    parent = list(range(len(leaves)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, leaf in enumerate(leaves):
        for mv in _reference_slice_moves(ctx):
            ri, rj = find(i), find(index[_reference_apply_move(ctx, split(leaf), mv)])
            parent[max(ri, rj)] = min(ri, rj)
    return _classes(leaves, [find(i) for i in range(len(leaves))])


def _classes(leaves, roots):
    classes = {}
    for leaf, r in zip(leaves, roots):
        classes.setdefault(r, set()).add(leaf)
    return {frozenset(c) for c in classes.values()}


# (all moves, generator moves) per pair
PARTITION_CASES = {
    ("circle", "star_to_s3"): (15, 6), ("circle", "aut_z3"): (15, 9),
    ("circle", "conj_s3"): (15, 6), ("boundary3", "z4_over_z2"): (16, 16),
    ("boundary3", "star_to_s3"): (20, 8), ("rp26", "z2_into_z4"): (18, 6),
    ("full2", "aut_z3"): (15, 9),
}


@pytest.mark.parametrize("kname,cmname", sorted(PARTITION_CASES))
def test_generator_moves_partition_like_every_move(kname, cmname):
    import sys
    from cechmod.cech import (DEFAULT_BUDGET, Budget, _Context, _enumerate_slice,
                              _slice_moves, _slice_orbits)
    ctx = _Context(cx(kname), cm(cmname))
    leaves = sorted(set(_enumerate_slice(ctx, Budget(DEFAULT_BUDGET))))
    assert (len(_reference_slice_moves(ctx)), len(_slice_moves(ctx))) == \
        PARTITION_CASES[(kname, cmname)]
    reference = _reference_partition(ctx, leaves)
    assert _classes(leaves, _slice_orbits(ctx, leaves)) == reference
    # the two-byte digits of groups above order 256 take the same code path
    # and give the same partition, in the same order
    digits = [ctx.decode(leaf) for leaf in leaves]
    ctx.digit, ctx.swap = "H", sys.byteorder == "little"
    wide = [ctx.encode(d) for d in digits]
    assert wide == sorted(wide) and len(wide[0]) == 2 * len(leaves[0])
    assert [list(ctx.decode(w)) for w in wide] == [list(d) for d in digits]
    assert {frozenset(leaves[wide.index(w)] for w in c)
            for c in _classes(wide, _slice_orbits(ctx, wide))} == reference


# -- the slice search against its tick-by-tick reference ------------------------

def _reference_enumerate_slice(ctx, bud, first_values=None, rng=None):
    """The slice search as it stood before bulk node charges: one tick and
    one check loop per candidate, and an h-search under the quadruple
    identity at every g-leaf."""
    G, H = ctx.cm.G, ctx.cm.H
    gmul, ginv, hmul, act = G.mul_table, G.inv_table, H.mul_table, ctx.cm.alpha.table
    leaves: list[bytes] = []
    npairs, ntrip = len(ctx.distinct_pairs), len(ctx.free_triples)
    gvec = [G.identity] * (npairs + 1)
    hvec = [H.identity] * (ntrip + 1)
    # fiber_at[g_ij * g_jk][g_ik] is the fiber of g_ik * (g_ij * g_jk)^-1,
    # where beta(h_ijk) must lie; in_coset says whether it is nonempty
    fiber_at = [[ctx.fiber[gmul[b][ginv[a]]] for b in G.elements()] for a in G.elements()]
    in_coset = [[bool(f) for f in row] for row in fiber_at]
    triple_pairs = [idx[:3] for idx in ctx.triple_idx]
    checks_at_pair = [[triple_pairs[t] for t in ts] for ts in ctx.triples_at_pair]

    def assign_h(ti: int) -> bool:
        """Extend the h-assignment; True once the search should stop."""
        if ti == ntrip:
            leaves.append(ctx.encode(gvec[:npairs] + hvec[:ntrip]))
            return rng is not None
        ij, jk, ik = triple_pairs[ti]
        domain = fiber_at[gmul[gvec[ij]][gvec[jk]]][gvec[ik]]
        if rng is not None:
            domain = list(domain)
            rng.shuffle(domain)
        quads = ctx.quads_at_triple[ti]
        for cand in domain:
            bud.tick("slice h", ti, ntrip)
            hvec[ti] = cand
            for ikl, ijk, ijl, jkl, qij in quads:
                if hmul[hvec[ikl]][hvec[ijk]] != hmul[hvec[ijl]][act[gvec[qij]][hvec[jkl]]]:
                    break
            else:
                if assign_h(ti + 1):
                    return True
        return False

    def assign_g(pi: int) -> bool:
        if pi == npairs:
            return assign_h(0)
        domain = ctx.transversal if first_values is None or pi > 0 else first_values
        if rng is not None:
            domain = list(domain)
            rng.shuffle(domain)
        checks = checks_at_pair[pi]
        for val in domain:
            bud.tick("slice g", pi, npairs)
            gvec[pi] = val
            for ij, jk, ik in checks:
                if not in_coset[gmul[gvec[ij]][gvec[jk]]][gvec[ik]]:
                    break
            else:
                if assign_g(pi + 1):
                    return True
        return False

    assign_g(0)
    return leaves



KERNEL_ONE_PAIRS = [
    (k, c) for c in ("conj_s3", "star_to_s3", "star_to_z2", "star_to_z3", "z2_into_z4",
                     "z2_trivial")
    for k in ("point", "full1", "full2", "full3", "circle", "boundary3", "rp26", "torus7")
    # the two pairs whose search takes more than 3 s
    if (k, c) not in {("rp26", "star_to_s3"), ("torus7", "star_to_s3")}]


@functools.lru_cache(maxsize=None)
def _reference_run(kname, cmname):
    from cechmod.cech import DEFAULT_BUDGET, Budget, _Context
    ctx = _Context(cx(kname), cm(cmname))
    bud = Budget(DEFAULT_BUDGET)
    return _reference_enumerate_slice(ctx, bud), bud.visited


@pytest.mark.parametrize("kname,cmname", KERNEL_ONE_PAIRS + [
    ("boundary3", "z4_over_z2"), ("full2", "aut_z3")])
def test_slice_search_matches_reference(kname, cmname):
    # the same leaves in the same order and the same nodes, with the forced
    # h-chain (ker beta = 1) and without it (the last two pairs); with an
    # rng, the same first leaf and the same draws
    from cechmod.cech import DEFAULT_BUDGET, Budget, _Context, _enumerate_slice
    ctx = _Context(cx(kname), cm(cmname))
    assert (len(ctx.kernel) == 1) == ((kname, cmname) in KERNEL_ONE_PAIRS)
    bud = Budget(DEFAULT_BUDGET)
    assert (_enumerate_slice(ctx, bud), bud.visited) == _reference_run(kname, cmname)
    for seed in range(2):
        runs = []
        for search in (_reference_enumerate_slice, _enumerate_slice):
            rng = random.Random(seed)
            bud = Budget(DEFAULT_BUDGET)
            runs.append((search(ctx, bud, rng=rng), bud.visited, rng.random()))
        assert runs[0] == runs[1]


def _reference_exhaustion(ctx, budget):
    from cechmod.cech import Budget
    with pytest.raises(SearchSpaceTooLarge) as info:
        _reference_enumerate_slice(ctx, Budget(budget))
    return str(info.value)


def _recording_budget(limit):
    """A Budget that records the (phase, level, levels) of every node charged
    to it, in order, in its `nodes`."""
    from cechmod.cech import Budget

    class Recorder(Budget):
        def __init__(self, limit):
            super().__init__(limit)
            self.nodes = []

        def tick(self, phase, level, levels):
            super().tick(phase, level, levels)
            self.nodes.append((phase, level, levels))

        def charge(self, n, phase, level, levels, rising=False):
            for k in range(n):
                self.tick(phase, level + k if rising else level, levels)

    return Recorder(limit)


def _searched_nodes(ctx):
    """(leaves, nodes): what brute's slice search keeps, and every node it
    charges, in order."""
    from cechmod.cech import DEFAULT_BUDGET, _enumerate_slice
    bud = _recording_budget(DEFAULT_BUDGET)
    return _enumerate_slice(ctx, bud, kernel_subtree=True), bud.nodes


def _reference_nodes(ctx, limit):
    """The first `limit` nodes of the full slice search, tick by tick."""
    bud = _recording_budget(limit)
    try:
        _reference_enumerate_slice(ctx, bud)
    except SearchSpaceTooLarge:
        pass
    return bud.nodes


def _exhausted_at(budget, node):
    """The message of a budget that runs out at `node`, the node past it."""
    phase, level, levels = node
    return str(SearchSpaceTooLarge(budget, phase, level + 1, levels))


def _brute_exhaustion(K, cmx, budget):
    with pytest.raises(SearchSpaceTooLarge) as info:
        classify(K, cmx, "brute", budget=budget)
    return str(info.value)


@pytest.mark.parametrize("kname,cmname", [("torus7", "star_to_z3"), ("circle", "star_to_s3")])
def test_slice_exhaustion_matches_reference(kname, cmname):
    # with ker beta = 1 the subtree brute searches, under the least row-0
    # prefix, is the start of the full search: every budget below its node
    # count runs out where the full search does (among them the first g
    # node, mid-way along the first forced h-chain and the last node), and
    # that count just suffices
    from cechmod.cech import _Context
    K, cmx = cx(kname), cm(cmname)
    ctx = _Context(K, cmx)
    assert len(ctx.kernel) == 1
    ntrip = len(ctx.free_triples)
    leaves, total = _reference_run(kname, cmname)
    _, nodes = _searched_nodes(ctx)
    n = len(nodes)
    assert n < total and nodes == _reference_nodes(ctx, n)
    first_h = next(b for b in itertools.count()
                   if "slice h" in _reference_exhaustion(ctx, b))
    mid = first_h + ntrip // 2
    assert f"in slice h at depth {ntrip // 2 + 1} of {ntrip}" in _reference_exhaustion(ctx, mid)
    for budget in sorted({0, mid, n - 1} | set(range(0, n, max(1, n // 40)))):
        want = _reference_exhaustion(ctx, budget)
        assert _exhausted_at(budget, nodes[budget]) == want
        assert _brute_exhaustion(K, cmx, budget) == want
    result = classify(K, cmx, "brute", budget=n)
    assert result.cocycles_enumerated == len(set(leaves))


# -- brute on the row-0 subtree against the full slice ----------------------------

def _previous_slice_moves(ctx):
    """`_slice_moves` as it stood before the row-0 stabilizer: kernel moves,
    then a vertex move by each generator of G at each vertex."""
    from cechmod.algebra import generating_set
    G, H = ctx.cm.G, ctx.cm.H
    gmul, ginv, act = G.mul_table, G.inv_table, ctx.cm.alpha.table
    npairs = len(ctx.distinct_pairs)
    fixed_g, fixed_h = list(G.elements()), tuple(H.elements())

    def table(rows, gamma):
        rows = [(p, g2, e2) for p, g2, e2 in rows
                if g2 != fixed_g or any(x != H.identity for x in e2)]
        moved = {p for p, _, e2 in rows if any(x != H.identity for x in e2)}
        triples = []
        for t, (ij, jk, ik, i) in enumerate(ctx.triple_idx):
            act_row = act[ginv[gamma[i]]]
            if moved.intersection((ij, jk, ik)) or tuple(act_row) != fixed_h:
                triples.append((npairs + t, ij, jk, ik, act_row))
        return rows, triples, [H.identity] * (npairs + 1)

    moves = []
    n = ctx.K.vertex_count
    for a in generating_set(ctx.kernel, H.mul_table, H.identity):
        for p in range(npairs):
            moves.append(table([(p, fixed_g, [a] * G.order)], [G.identity] * n))
    for x in generating_set(G.elements(), gmul, G.identity):
        for v in range(n):
            gamma = [x if u == v else G.identity for u in range(n)]
            rows = []
            for p, (i, j) in enumerate(ctx.distinct_pairs):
                gi, gj = gamma[i], gamma[j]
                g2 = [ctx.coset_rep[gmul[gmul[ginv[gi]][c]][gj]] for c in G.elements()]
                e2 = [ctx.fiber[ctx.pair_beta(gi, g2[c], gj, c)][0] for c in G.elements()]
                rows.append((p, g2, e2))
            moves.append(table(rows, gamma))
    return moves


def _complex(name):
    """A catalog complex, or "a+b" for the disjoint union of two of them."""
    from cechmod import disjoint_union
    parts = [cx(part) for part in name.split("+")]
    return functools.reduce(disjoint_union, parts)


def _row0(ctx):
    """(d, T): the number of row-0 pairs (0, j) and of beta(H)-cosets."""
    d = sum(1 for i, _ in ctx.distinct_pairs if i == 0)
    return d, len(ctx.transversal)


@functools.lru_cache(maxsize=None)
def _full_slice_classify(kname, cmname):
    """classify(K, cm, "brute") by the full slice search and the orbit
    partition of every leaf: (count, leaves, representative keys, nodes)."""
    from cechmod.cech import (DEFAULT_BUDGET, Budget, _Context, _enumerate_slice,
                              _slice_orbits, _unpack)
    ctx = _Context(_complex(kname), cm(cmname))
    bud = Budget(DEFAULT_BUDGET)
    leaves = sorted(set(_enumerate_slice(ctx, bud)))
    roots = _slice_orbits(ctx, leaves)
    reps = [_unpack(ctx, leaves[r]).key() for r in sorted(set(roots))]
    return len(reps), leaves, reps, bud.visited


# the catalog pairs whose full slice search and partition take under 2 s, a
# complex whose vertex 0 is isolated (no row-0 pair) and one with vertices
# off row 0
SUBTREE_PAIRS = [
    (k, c)
    for k in ("point", "full1", "full2", "full3", "circle", "boundary3", "rp26", "torus7")
    for c in ("z2_trivial", "z4_over_z2", "z2_into_z4", "star_to_z2", "star_to_z3",
              "star_to_s3", "z2_to_point", "z3_to_point", "z4_to_point", "conj_s3", "aut_z3")
    if not (k in ("full3", "boundary3") and c in ("z3_to_point", "z4_to_point", "aut_z3"))
    and not (k in ("rp26", "torus7") and c in ("z4_over_z2", "z2_to_point", "z3_to_point",
                                                 "z4_to_point", "aut_z3", "star_to_s3"))
] + [("point+circle", c) for c in ("star_to_s3", "aut_z3", "z4_over_z2")] \
  + [("circle+circle", c) for c in ("star_to_z2", "z4_over_z2", "aut_z3")]


def test_subtree_pairs_cover_every_case():
    from cechmod.cech import _Context
    seen = set()
    for kname, cmname in SUBTREE_PAIRS:
        ctx = _Context(_complex(kname), cm(cmname))
        d, T = _row0(ctx)
        cases = {"T = 1": T == 1, "T^d > 1": T ** d > 1, "ker > 1": len(ctx.kernel) > 1,
                 "d = 0 with pairs": d == 0 < len(ctx.distinct_pairs)}
        seen |= {name for name, holds in cases.items() if holds}
    assert seen == {"T = 1", "T^d > 1", "ker > 1", "d = 0 with pairs"}


def _check_subtree_search(kname, cmname):
    """brute's slice search against the full one.  It keeps the full
    search's leaves with row 0 at t0 and the row-0 triples at their fiber
    minima, in order (with ker beta = 1, every leaf with row 0 at t0), and
    classify takes the full search's count, leaf count and representatives
    from them.  Its budget counts the nodes it visits, at most those of the
    full search: classify finishes at that count and runs out one below, at
    the last node."""
    from cechmod.cech import _Context
    K, cmx = _complex(kname), cm(cmname)
    ctx = _Context(K, cmx)
    d, T = _row0(ctx)
    count, leaves, reps, visited = _full_slice_classify(kname, cmname)
    sub, nodes = _searched_nodes(ctx)
    assert sub == _kernel_part(ctx, leaves)
    assert len(leaves) == T ** d * len(ctx.kernel) ** _row0_triples(ctx) * len(sub)
    result = classify(K, cmx, "brute")
    assert (result.count, result.cocycles_enumerated,
            [z.key() for z in result.representatives]) == (count, len(leaves), reps)
    n = len(nodes)
    assert n <= visited
    result = classify(K, cmx, "brute", budget=n)
    assert (result.count, result.cocycles_enumerated) == (count, len(leaves))
    if n == 0:
        return  # a search that charges no node cannot run out
    assert _brute_exhaustion(K, cmx, n - 1) == _exhausted_at(n - 1, nodes[-1])


@pytest.mark.parametrize("kname,cmname", SUBTREE_PAIRS)
def test_row0_subtree_matches_full_slice(kname, cmname):
    _check_subtree_search(kname, cmname)


@pytest.mark.parametrize("kname,cmname", sorted(PARTITION_CASES))
def test_row0_moves_partition_the_subtree_like_every_move(kname, cmname):
    from cechmod.cech import _Context, _slice_moves, _slice_orbits
    ctx = _Context(cx(kname), cm(cmname))
    assert _slice_moves(ctx, 0) == _slice_moves(ctx) == _previous_slice_moves(ctx)
    d, _ = _row0(ctx)
    leaves = _full_slice_classify(kname, cmname)[1]
    sub = [leaf for leaf in leaves if list(ctx.decode(leaf)[:d]) == ctx.transversal[:1] * d]
    restricted = {c & frozenset(sub) for c in _reference_partition(ctx, leaves)} - {frozenset()}
    assert _classes(sub, _slice_orbits(ctx, sub, d)) == restricted


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "conj_s3"), ("circle", "z4_over_z2"), ("full2", "aut_z3"),
    ("boundary3", "z4_over_z2"), ("rp26", "z2_into_z4"), ("full2", "z2_trivial")])
def test_image_gauge_with_its_modification_fixes_every_cocycle(kname, cmname):
    # gamma_i = beta(k_i), eta_ij = k_i (g_ij . k_j^-1) acts trivially, which
    # is why the row-0 moves need no beta(H) moves at the neighbours of 0
    K, cmx = cx(kname), cm(cmname)
    H = cmx.H
    rng = random.Random(9)
    for _ in range(5):
        z = sample_cocycle(K, cmx, rng)
        k = [rng.randrange(H.order) for _ in range(K.vertex_count)]
        eta = {(i, j): H.mul(k[i], cmx.act(z.g[(i, j)], H.inv(k[j])))
               for (i, j) in valid_tuples(K, 2) if i != j}
        c = coboundary(K, cmx, {v: cmx.beta_of(k[v]) for v in range(K.vertex_count)}, eta)
        assert apply_coboundary(z, c) == z


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "star_to_s3"), ("full2", "aut_z3"), ("boundary3", "star_to_z3")])
def test_exhaustion_matches_full_slice_around_every_row0_node(kname, cmname):
    # brute visits the d row-0 nodes of the least prefix, the first d nodes
    # of the full search; the budget runs out at each of them, just after it
    # and just before it, as in the full search
    from cechmod.cech import _Context
    K, cmx = cx(kname), cm(cmname)
    ctx = _Context(K, cmx)
    d, _ = _row0(ctx)
    _, nodes = _searched_nodes(ctx)
    assert d > 0
    assert nodes[:d] == [("slice g", k, len(ctx.distinct_pairs)) for k in range(d)]
    for budget in range(d + 1):
        want = _reference_exhaustion(ctx, budget)
        assert _exhausted_at(budget, nodes[budget]) == want
        assert _brute_exhaustion(K, cmx, budget) == want


# -- brute on one kernel subtree per g-leaf against the full slice ------------------

def _row0_triples(ctx):
    """R, the number of free triples (0, j, k); they come first."""
    R = sum(1 for t in ctx.free_triples if t[0] == 0)
    assert all(t[0] == 0 for t in ctx.free_triples[:R])
    return R


def _kernel_part(ctx, leaves):
    """The leaves with row 0 at t0 whose row-0 triples each hold the least h
    of their beta-fiber, read off the groups."""
    G, H, cmx = ctx.cm.G, ctx.cm.H, ctx.cm
    d, R, npairs = _row0(ctx)[0], _row0_triples(ctx), len(ctx.distinct_pairs)
    out = []
    for leaf in leaves:
        digits = ctx.decode(leaf)
        g = {(i, i): G.identity for i in range(ctx.K.vertex_count)}
        g.update(zip(ctx.distinct_pairs, digits))
        least = [min(h for h in H.elements() if cmx.beta_of(h) ==
                     G.mul(g[(i, k)], G.inv(G.mul(g[(i, j)], g[(j, k)]))))
                 for (i, j, k) in ctx.free_triples[:R]]
        if list(digits[:d]) == ctx.transversal[:1] * d and \
                list(digits[npairs:npairs + R]) == least:
            out.append(leaf)
    return out


# the catalog cells with ker(beta) > 1 whose full slice search and partition
# take a few seconds at most, and unions with vertex 0 isolated or with
# several g-leaves
KERNEL_PAIRS = [
    (k, c) for k in ("point", "full1", "full2", "full3", "circle", "boundary3")
    for c in ("z4_over_z2", "z2_to_point", "z3_to_point", "z4_to_point", "aut_z3")
    if not (k in ("full3", "boundary3") and c in ("z3_to_point", "z4_to_point", "aut_z3"))
] + [("point+circle", c) for c in ("aut_z3", "z4_over_z2")] \
  + [("circle+circle", c) for c in ("z4_over_z2", "aut_z3")]


def test_kernel_pairs_cover_every_case():
    from cechmod.cech import _Context
    seen = set()
    for kname, cmname in KERNEL_PAIRS:
        ctx = _Context(_complex(kname), cm(cmname))
        d, T = _row0(ctx)
        gleaves = {bytes(ctx.decode(leaf)[:len(ctx.distinct_pairs)])
                   for leaf in _full_slice_classify(kname, cmname)[1]}
        assert len(ctx.kernel) > 1
        cases = {"T > 1": T > 1, "R > 1": _row0_triples(ctx) > 1,
                 "several g-leaves": len(gleaves) > T ** d > 1, "R = 0": d == 0}
        seen |= {name for name, holds in cases.items() if holds}
    assert seen == {"T > 1", "R > 1", "several g-leaves", "R = 0"}


@pytest.mark.parametrize("kname,cmname", KERNEL_PAIRS)
def test_kernel_subtree_matches_full_slice(kname, cmname):
    _check_subtree_search(kname, cmname)


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "aut_z3"), ("circle", "z4_to_point"), ("full2", "z3_to_point")])
def test_exhaustion_matches_full_slice_around_every_kernel_prefix_node(kname, cmname):
    # brute visits the R row-0 h nodes of the least prefix of their fibers
    # in every g-leaf; the budget runs out at each of them, just after it and
    # just before it, naming the node past it.  Up to the end of the first
    # kernel subtree the search is the start of the full one, and runs out
    # as it does
    from cechmod.cech import _Context
    K, cmx = cx(kname), cm(cmname)
    ctx = _Context(K, cmx)
    R, npairs = _row0_triples(ctx), len(ctx.distinct_pairs)
    leaves, nodes = _searched_nodes(ctx)
    at = [b for b, (phase, level, _) in enumerate(nodes, 1)
          if phase == "slice h" and level < R]   # numbered from 1
    gleaves = {bytes(ctx.decode(leaf)[:npairs]) for leaf in leaves}
    assert len(at) == len(gleaves) * R > 0
    end = next((b for b in range(at[0], len(nodes)) if nodes[b][0] == "slice g"), len(nodes))
    assert nodes[:end] == _reference_nodes(ctx, end)
    for budget in sorted({b for node in at for b in (node - 2, node - 1, node)} - {-1}):
        got = _brute_exhaustion(K, cmx, budget)
        assert got == _exhausted_at(budget, nodes[budget])
        if budget < end:
            assert got == _reference_exhaustion(ctx, budget)


KERNEL_PARTITION_CASES = sorted(
    (k, c) for k, c in PARTITION_CASES
    if sum(1 for h in cm(c).H.elements() if cm(c).beta_of(h) == cm(c).G.identity) > 1)


@pytest.mark.parametrize("kname,cmname", KERNEL_PARTITION_CASES)
def test_compensated_moves_partition_the_kernel_part_like_every_move(kname, cmname):
    from cechmod.cech import _Context, _slice_orbits
    assert len(KERNEL_PARTITION_CASES) == 3
    ctx = _Context(cx(kname), cm(cmname))
    d, _ = _row0(ctx)
    count, leaves, _, _ = _full_slice_classify(kname, cmname)
    sub = _kernel_part(ctx, leaves)
    restricted = {c & frozenset(sub) for c in _reference_partition(ctx, leaves)} - {frozenset()}
    assert len(restricted) == count
    assert _classes(sub, _slice_orbits(ctx, sub, d, kernel_subtree=True)) == restricted


# -- validate_cocycle on the tuples with no adjacent repeat ------------------------

def _previous_identity_failure(z):
    """The first cocycle-identity failure as validate_cocycle found it when
    it scanned every valid triple and quadruple: (type, witness) or None."""
    K, cmx = z.complex, z.cm
    G, H = cmx.G, cmx.H
    for (i, j, k) in valid_tuples(K, 3):
        if G.mul_many(cmx.beta_of(z.h[(i, j, k)]), z.g[(i, j)], z.g[(j, k)]) != z.g[(i, k)]:
            return Cocyc1Failure, (i, j, k)
    for (i, j, k, l) in valid_tuples(K, 4):
        if H.mul(z.h[(i, k, l)], z.h[(i, j, k)]) != \
                H.mul(z.h[(i, j, l)], cmx.act(z.g[(i, j)], z.h[(j, k, l)])):
            return Cocyc2Failure, (i, j, k, l)
    return None


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "conj_s3"), ("full2", "aut_z3"), ("full3", "z4_over_z2"),
    ("boundary3", "star_to_s3"), ("rp26", "z2_into_z4")])
def test_validate_cocycle_names_the_failure_of_the_full_scan(kname, cmname):
    # corrupted cocycles: a g-value, an h-value, or an h-value moved inside
    # its beta-fiber (which keeps every pair/triple identity)
    K, cmx = cx(kname), cm(cmname)
    G, H = cmx.G, cmx.H
    kernel = [h for h in H.elements() if cmx.beta_of(h) == G.identity]
    dpairs = [p for p in valid_tuples(K, 2) if p[0] != p[1]]
    free3 = [t for t in valid_tuples(K, 3) if not (t[0] == t[1] or t[1] == t[2])]
    rng = random.Random(11)
    seen = set()
    for _ in range(30):
        z = sample_cocycle(K, cmx, rng)
        g, h = dict(z.g), dict(z.h)
        for _ in range(rng.randrange(1, 3)):
            kind, t = rng.randrange(3), rng.choice(free3)
            if kind == 0:
                g[rng.choice(dpairs)] = rng.randrange(G.order)
            elif kind == 1:
                h[t] = rng.randrange(H.order)
            else:
                h[t] = H.mul(h[t], rng.choice(kernel))
        bad = Cocycle(K, cmx, g, h)
        want = _previous_identity_failure(bad)
        if want is None:
            assert validate_cocycle(bad) is bad
            continue
        with pytest.raises(want[0]) as info:
            validate_cocycle(bad)
        assert info.value.witness == want[1]
        seen.add(want[0])
    assert Cocyc1Failure in seen
    assert Cocyc2Failure in seen or len(kernel) == 1


# -- brute at frontier scale ---------------------------------------------------------

# the frontier cells of the benchmark's classify workload that run out at its
# budget 200000, each in a subtree it searches
FRONTIER_REASONS = [
    ("rp26", "z4_over_z2", 200000, "slice h at depth 72 of 90"),
    ("torus7", "z4_over_z2", 200000, "slice h at depth 93 of 126"),
    ("rp26", "z2_to_point", 200000, "slice h at depth 72 of 90"),
]

# sha256 of whole classify reports that finish: (complex, cm, budget, CLASSES,
# ENUMERATED, digest); a report that finishes reads the same at every budget
# it fits, so a cell pinned at 10^15 and at a smaller budget has one digest
FRONTIER_REPORTS = [
    ("torus7", "star_to_s3", 10 ** 15, 8, 839808,
     "bb3ca8267d48b92419a28f281577567078aa858021a41c90d13990e1fc13d31c"),
    ("boundary3", "z4_to_point", 10 ** 15, 4, 1048576,
     "7c3eb68906d143e8ef800cb4e80cafde6a77ddab01e1da02e91c4136571c8b41"),
    ("rp26", "star_to_s3", 10 ** 8, 2, 31104,
     "11774eba3b2cdf6463bf0c3d295c4f5b0ffc5dc10bf2ed0a58253b6ea7eeef3e"),
    ("boundary3", "z3_to_point", 200000, 3, 59049,
     "08060d44286df98aca654cf87b1f9a9e622a6192ad4fbbfcc0132b61980af059"),
    ("rp26", "star_to_s3", 200000, 2, 31104,
     "11774eba3b2cdf6463bf0c3d295c4f5b0ffc5dc10bf2ed0a58253b6ea7eeef3e"),
    ("torus7", "star_to_s3", 200000, 8, 839808,
     "bb3ca8267d48b92419a28f281577567078aa858021a41c90d13990e1fc13d31c"),
    ("torus7", "star_to_s3", 10 ** 8, 8, 839808,
     "bb3ca8267d48b92419a28f281577567078aa858021a41c90d13990e1fc13d31c"),
    ("boundary3", "z4_to_point", 10 ** 8, 4, 1048576,
     "7c3eb68906d143e8ef800cb4e80cafde6a77ddab01e1da02e91c4136571c8b41"),
    ("rp26", "z2_to_point", 10 ** 8, 2, 33554432,
     "048537587a7afe8d5e03afbc44a38e3c75f7cdb6f05d8876b7c7daebcc6afc41"),
    ("rp26", "z4_over_z2", 10 ** 8, 2, 33554432,
     "658a0143f40ae42dd9399d557ffa53d8013f28dfa8141520253faddaf3fdcac3"),
]


def test_brute_reports_are_pinned_at_frontier_scale():
    import hashlib
    from cechmod.cli import run
    for kname, cmname, budget, where in FRONTIER_REASONS:
        argv = ["classify", "--complex", kname, "--cm", cmname, "--strategy", "brute",
                "--budget", str(budget)]
        assert run(argv) == (3, f"REASON: visited nodes exceed budget {budget} in {where}\n")
    for kname, cmname, budget, count, enumerated, digest in FRONTIER_REPORTS:
        code, report = run(["classify", "--complex", kname, "--cm", cmname,
                            "--strategy", "brute", "--budget", str(budget)])
        assert code == 0
        assert report.splitlines()[3:5] == [f"CLASSES: {count}", f"ENUMERATED: {enumerated}"]
        assert hashlib.sha256(report.encode()).hexdigest() == digest


# -- abelian classes keyed by the Smith form -----------------------------------------

def _reference_classify_abelian(K, cmx):
    """The abelian search as it was before classes were keyed by the Smith
    form of d2: a candidate is kept when `solve_mod` finds it cohomologous to
    no representative kept so far.  Returns (count, representatives)."""
    from cechmod.algebra import abelian_invariants
    from cechmod.complexes import differential, normalized_tuples
    from cechmod.snf import image_size_mod, kernel_generators_mod, kernel_size_mod, solve_mod
    coords = abelian_invariants(cmx.H)[1]
    power = sorted(coords, key=coords.get)
    n = cmx.H.order
    d2 = differential(K, 1)
    d3 = differential(K, 2)
    count = kernel_size_mod(d3, n) // image_size_mod(d2, n)
    cols = normalized_tuples(K, 3)
    gens = kernel_generators_mod(d3, n)

    def cohomologous_vec(a, b):
        diff = [(x - y) % n for x, y in zip(a, b)]
        return solve_mod(d2, diff, n) is not None

    reps = [tuple([0] * len(cols))]
    queue = [reps[0]]
    while queue and len(reps) < count:
        base = queue.pop(0)
        for gvec in gens:
            cand = tuple((x + y) % n for x, y in zip(base, gvec))
            if not any(cohomologous_vec(cand, r) for r in reps):
                reps.append(cand)
                queue.append(cand)
                if len(reps) == count:
                    break
    g = {p: cmx.G.identity for p in valid_tuples(K, 2)}
    return count, [cocycle(K, cmx, g, {t: power[v] for t, v in zip(cols, vec)})
                   for vec in reps]


ABELIAN_CELLS = [(k, c) for k in ("point", "full1", "full2", "full3", "circle", "boundary3",
                                  "torus7", "rp26", "point+circle", "circle+circle")
                 for c in ("z2_to_point", "z3_to_point", "z4_to_point")]


@pytest.mark.parametrize("kname,cmname", ABELIAN_CELLS)
def test_abelian_keys_match_pairwise_solves(kname, cmname):
    from cechmod import disjoint_union
    parts = [cx(p) for p in kname.split("+")]
    K = parts[0] if len(parts) == 1 else disjoint_union(*parts)
    count, reps = _reference_classify_abelian(K, cm(cmname))
    result = classify(K, cm(cmname), "abelian")
    assert result.count == count == abelian_cohomology_oracle(K, cm(cmname).H.order, 2)
    assert [z.key() for z in result.representatives] == [z.key() for z in reps]


# sha256 of the `classify --strategy abelian` reports on cells the benchmark
# does not hash, recorded with the pairwise-solve search
ABELIAN_REPORT_PINS = {
    ("boundary3", 2): "a8d4805edac8905e607ee63609d2f5470096b9120f8f1e1b691e9284f8c289c3",
    ("boundary3", 3): "f3fa0c5fbbcd5243ddbdda1a5a95a4896fe13f23bc5c8ca7e94878e23a07a64f",
    ("boundary3", 4): "2b9e189783dfcfc315006f5dce3aa0d6f57d7cf5ba84af331bf08ed307b10b49",
    ("circle", 2): "3d7e81cc80467ebf1066506a451e31999cbaa922cc3d779bb3df8a52ee26f5da",
    ("circle", 3): "c97be7fc34c6b9ac1fc3cb5b4754c494183b990cacbb937571144126a07571dc",
    ("circle", 4): "8d2cfc4d6f65434e9729ae71f0e82d0c4854b6be4ff962044114f3c99712a49d",
    ("full2", 2): "fae4acd06202bde0fbe7b1a59a8e1d29d5d3af489251d0f28ef8fe0f044cfde8",
    ("full2", 3): "2941106f2222a5bdd3be1c8f5229f830ca7e2343a72049a9f459a2eb41586421",
    ("full2", 4): "ed2e603176078dd308bde1ee304db16eecba414cae5ae3347525eb2a5f69bbf7",
}


@pytest.mark.parametrize("kname,n", sorted(ABELIAN_REPORT_PINS))
def test_small_abelian_reports_are_pinned(kname, n):
    import hashlib
    from cechmod.cli import run
    code, report = run(["classify", "--complex", kname, "--cm", f"z{n}_to_point",
                        "--strategy", "abelian"])
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == ABELIAN_REPORT_PINS[(kname, n)]


# -- validate_cocycle against its scan of every valid tuple ---------------------------

def _reference_validate_cocycle(z):
    """validate_cocycle as it was before it read the normalized tuples held
    on the complex: the free triples filtered from the valid ones, each
    extended by every vertex l, and the identities through the group
    methods.  Its entry checks, a scan of `valid_tuples` in lexicographic
    order, are also those of validate_cocycle before it read the degenerate
    tuples."""
    from cechmod.errors import SemanticError
    K, cmx = z.complex, z.cm
    G, H = cmx.G, cmx.H
    pairs = valid_tuples(K, 2)
    triples = valid_tuples(K, 3)
    stray = sorted(set(z.g).difference(pairs)) + sorted(set(z.h).difference(triples))
    if stray:
        raise SemanticError(f"value given on {stray[0]}, which is not a valid tuple")
    for p in pairs:
        if p not in z.g:
            raise MissingEntry(p)
        if not (0 <= z.g[p] < G.order):
            raise SemanticError(f"g{p} out of range")
    for t in triples:
        if t not in z.h:
            raise MissingEntry(t)
        if not (0 <= z.h[t] < H.order):
            raise SemanticError(f"h{t} out of range")
    for p in pairs:
        if p[0] == p[1] and z.g[p] != G.identity:
            raise NormalizationFailure(p)
    for t in triples:
        if (t[0] == t[1] or t[1] == t[2]) and z.h[t] != H.identity:
            raise NormalizationFailure(t)
    free = [t for t in triples if t[0] != t[1] != t[2]]
    for (i, j, k) in free:
        lhs = G.mul_many(cmx.beta_of(z.h[(i, j, k)]), z.g[(i, j)], z.g[(j, k)])
        if lhs != z.g[(i, k)]:
            raise Cocyc1Failure(i, j, k)
    quads = [t + (l,) for t in free for l in range(K.vertex_count)
             if l != t[2] and (l in t or K.is_simplex(t + (l,)))]
    for (i, j, k, l) in quads:
        lhs = H.mul(z.h[(i, k, l)], z.h[(i, j, k)])
        rhs = H.mul(z.h[(i, j, l)], cmx.act(z.g[(i, j)], z.h[(j, k, l)]))
        if lhs != rhs:
            raise Cocyc2Failure(i, j, k, l)
    return z


def _outcome(check, z):
    try:
        return check(z) is z
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "conj_s3"), ("full2", "aut_z3"), ("full3", "z4_over_z2"),
    ("boundary3", "star_to_s3"), ("torus7", "z2_into_z4"), ("torus7", "aut_z3"),
    ("rp26", "z4_over_z2"), ("rp26", "conj_s3")])
def test_validate_cocycle_matches_the_scan_of_every_valid_tuple(kname, cmname):
    # seeded single changes of sampled cocycles: a g- or h-value changed
    # (in range, just out of it, or within its beta-fiber), an entry deleted, a stray tuple added, a
    # diagonal value set off e; both checks raise the same error with the
    # same message, or both pass
    from cechmod.errors import SemanticError
    K, cmx = cx(kname), cm(cmname)
    G, H = cmx.G, cmx.H
    kernel = [x for x in H.elements() if cmx.beta_of(x) == G.identity]
    n = K.vertex_count
    rng = random.Random(f"validate:{kname}:{cmname}")
    seen = set()
    for _ in range(80):
        z = sample_cocycle(K, cmx, rng)
        g, h = dict(z.g), dict(z.h)
        kind = rng.randrange(5)
        if kind == 0:
            g[rng.choice(sorted(g))] = rng.randrange(-1, G.order + 1)
        elif kind == 1:
            t = rng.choice(sorted(h))
            if rng.randrange(2):
                h[t] = rng.randrange(-1, H.order + 1)
            else:  # within its beta-fiber, which keeps every pair/triple identity
                h[t] = H.mul(h[t], rng.choice(kernel))
        elif kind == 2:
            table = rng.choice([g, h])
            del table[rng.choice(sorted(table))]
        elif kind == 3:
            arity = rng.choice([2, 3])
            t = tuple(rng.randrange(n + 1) for _ in range(arity))
            (g if arity == 2 else h)[t] = 0
        elif H.order == 1 or (G.order > 1 and rng.randrange(2)):
            g[(v := rng.randrange(n), v)] = rng.randrange(1, G.order)
        else:
            diagonal = [t for t in h if t[0] == t[1] or t[1] == t[2]]
            h[rng.choice(diagonal)] = rng.randrange(1, H.order)
        bad = Cocycle(K, cmx, g, h)
        want = _outcome(_reference_validate_cocycle, bad)
        assert _outcome(validate_cocycle, bad) == want
        seen.add(want if want is True else want[0])
    assert {MissingEntry, NormalizationFailure, SemanticError, Cocyc1Failure} <= seen
    assert Cocyc2Failure in seen or len(kernel) == 1


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "conj_s3"), ("full2", "aut_z3"), ("full3", "z4_over_z2"),
    ("boundary3", "star_to_s3"), ("torus7", "z2_into_z4"), ("rp26", "z4_over_z2")])
def test_size_preserving_entry_mutants_match_the_scan(kname, cmname):
    # each mutant keeps the size of both dicts, so only the membership of
    # each key can catch it: (a) a normalized key dropped and an off-complex
    # tuple added (a non-simplex or a vertex past the last); (b) a degenerate
    # key dropped and a stray key added (a tuple of the other arity, or of
    # arity 1); both raise the reference's first message, on the stray key
    from cechmod.complexes import degenerate_tuples, normalized_tuples
    from cechmod.errors import SemanticError
    K, cmx = cx(kname), cm(cmname)
    n = K.vertex_count
    rng = random.Random(f"size-preserving:{kname}:{cmname}")
    for _ in range(40):
        z = sample_cocycle(K, cmx, rng)
        arity = rng.choice([2, 3])
        entries = dict(z.g if arity == 2 else z.h)
        if rng.randrange(2):
            del entries[rng.choice(normalized_tuples(K, arity))]
            while True:
                t = tuple(rng.randrange(n + 1) for _ in range(arity))
                if not K.is_simplex(t):
                    break
        else:
            del entries[rng.choice(degenerate_tuples(K, arity))]
            t = rng.choice([tuple(rng.randrange(n) for _ in range(5 - arity)),
                            (rng.randrange(n),)])
        entries[t] = 0
        assert len(entries) == len(z.g if arity == 2 else z.h)
        bad = Cocycle(K, cmx, entries, z.h) if arity == 2 else Cocycle(K, cmx, z.g, entries)
        want = _outcome(_reference_validate_cocycle, bad)
        assert want == (SemanticError, f"value given on {t}, which is not a valid tuple")
        assert _outcome(validate_cocycle, bad) == want


# -- coboundary against its scan of every valid pair ----------------------------------

def _reference_coboundary(K, cmx, gamma, eta):
    """coboundary as it was before it read the normalized and degenerate
    pairs held on the complex: one scan of `valid_tuples(K, 2)`, in
    lexicographic order."""
    from cechmod.cech import Coboundary
    from cechmod.errors import SemanticError
    eH = cmx.H.identity
    pairs = valid_tuples(K, 2)
    stray = sorted(set(eta).difference(pairs)) + \
        sorted((v,) for v in set(gamma).difference(range(K.vertex_count)))
    if stray:
        raise SemanticError(f"value given on {stray[0]}, which is not a valid tuple")
    full_eta = {}
    for p in pairs:
        if p[0] == p[1]:
            if eta.get(p, eH) != eH:
                raise NormalizationFailure(p)
            full_eta[p] = eH
        else:
            if p not in eta:
                raise MissingEntry(p)
            if not (0 <= eta[p] < cmx.H.order):
                raise SemanticError(f"eta{p} out of range")
            full_eta[p] = eta[p]
    full_gamma = {}
    for v in range(K.vertex_count):
        if v not in gamma:
            raise MissingEntry((v,))
        if not (0 <= gamma[v] < cmx.G.order):
            raise SemanticError(f"gamma({v}) out of range")
        full_gamma[v] = gamma[v]
    return Coboundary(K, cmx, full_gamma, full_eta)


def _result(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "conj_s3"), ("full2", "aut_z3"), ("boundary3", "star_to_s3"),
    ("torus7", "z2_into_z4"), ("rp26", "z4_over_z2"), ("full3", "z2_to_point")])
def test_coboundary_matches_the_scan_of_every_valid_pair(kname, cmname):
    # one or two seeded changes of random coboundaries: an eta value changed
    # (in range or just out of it), an entry deleted, a diagonal eta set off
    # e, a stray pair or vertex added, a gamma changed, or a normalized pair
    # traded for an off-complex one (so the size stays); both raise the same
    # error with the same message, or both return equal coboundaries
    from cechmod.complexes import normalized_tuples
    from cechmod.errors import SemanticError
    K, cmx = cx(kname), cm(cmname)
    G, H = cmx.G, cmx.H
    n = K.vertex_count
    rng = random.Random(f"coboundary:{kname}:{cmname}")
    seen = set()
    for _ in range(80):
        c = random_coboundary(K, cmx, rng)
        gamma, eta = dict(c.gamma), dict(c.eta)
        for _ in range(rng.randrange(1, 3)):
            kind = rng.randrange(7)
            if kind == 0:
                eta[rng.choice(normalized_tuples(K, 2))] = rng.randrange(-1, H.order + 1)
            elif kind == 1:
                table = rng.choice([gamma, eta])
                if table:
                    del table[rng.choice(sorted(table))]
            elif kind == 2:
                eta[(v := rng.randrange(n), v)] = rng.randrange(1, H.order + 1)
            elif kind == 3:
                eta[(rng.randrange(n + 1), rng.randrange(n + 1))] = 0
            elif kind == 4:
                gamma[rng.randrange(n + 1)] = rng.randrange(-1, G.order + 1)
            elif kind == 5:
                gamma[rng.randrange(n)] = rng.randrange(G.order)
            else:
                eta.pop(rng.choice(normalized_tuples(K, 2)), None)
                eta[(rng.randrange(n), n)] = 0
        want = _result(_reference_coboundary, K, cmx, gamma, eta)
        assert _result(coboundary, K, cmx, gamma, eta) == want
        seen.add(want[0] if isinstance(want, tuple) else True)
    assert {True, MissingEntry, NormalizationFailure, SemanticError} <= seen


# -- the abelian count on the oriented complex ---------------------------------------

# -- abelian classes keyed on the oriented complex -----------------------------------

def _normalized_class_key(K, n):
    """The class key as `_classify_abelian` took it before it keyed on the
    oriented complex: U of the Smith form U * d2 * V = diag(d) of the
    normalized d2, applied to the whole normalized cochain, mod gcd(d_i, n)
    on row i (mod n past the divisors)."""
    import math
    from cechmod.complexes import differential
    from cechmod.snf import check_smith_form, smith_normal_form
    d2 = differential(K, 1)
    factors = smith_normal_form(d2)
    check_smith_form(d2, factors)
    d, U, _ = factors
    moduli = [math.gcd(d[i], n) if i < len(d) else n for i in range(len(U))]
    return lambda vec: tuple(sum(u * vec[c] for c, u in row.items()) % m
                             for row, m in zip(U, moduli))


@pytest.mark.parametrize("kname", ["point", "full1", "full2", "full3", "circle",
                                   "boundary3", "torus7", "rp26"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_oriented_keys_partition_candidates_as_normalized_keys(kname, n):
    # the candidates of the abelian search (each representative, and each
    # representative plus each kernel generator) and seeded random sums of
    # generators are all cocycles; the oriented keys split them into the
    # same classes as the normalized-d2 keys did, one class per representative
    from cechmod.algebra import abelian_invariants
    from cechmod.cech import _class_key
    from cechmod.complexes import differential, normalized_tuples
    from cechmod.snf import kernel_generators_mod
    K, cmx = cx(kname), cm(f"z{n}_to_point")
    cols = normalized_tuples(K, 3)
    coords = abelian_invariants(cmx.H)[1]
    result = classify(K, cmx, "abelian")
    reps = [tuple(coords[z.h[t]][0] for t in cols) for z in result.representatives]
    gens = kernel_generators_mod(differential(K, 2), n)
    rng = random.Random(f"abelian-keys:{kname}:{n}")
    candidates = reps + [tuple((x + y) % n for x, y in zip(r, gvec))
                         for r in reps for gvec in gens]
    for _ in range(40):
        vec = [0] * len(cols)
        for gvec in gens:
            c = rng.randrange(n)
            vec = [(x + c * y) % n for x, y in zip(vec, gvec)]
        candidates.append(tuple(vec))
    old, new = _normalized_class_key(K, n), _class_key(K, n)[0]
    keys = {(old(vec), tuple(new(vec))) for vec in candidates}
    assert len(keys) == len({o for o, _ in keys}) == len({k for _, k in keys}) == result.count
    assert len({tuple(new(vec)) for vec in reps}) == len(reps)


def _reference_compose_keys(K, cmx, a, b):
    """The dict law of `compose_coboundaries` as it stood, on two keys:
    gamma''_i = gamma_i * gamma'_i and eta''_ij = (gamma_i . eta'_ij) * eta_ij
    over `valid_tuples(K, 2)`, read back as a key."""
    G, H = cmx.G, cmx.H
    n, pairs = K.vertex_count, valid_tuples(K, 2)
    gamma, gamma2 = dict(enumerate(a[:n])), dict(enumerate(b[:n]))
    eta, eta2 = dict(zip(pairs, a[n:])), dict(zip(pairs, b[n:]))
    g3 = {v: G.mul(gamma[v], gamma2[v]) for v in range(n)}
    e3 = {p: H.mul(cmx.act(gamma[p[0]], eta2[p]), eta[p]) for p in pairs}
    return tuple(g3[v] for v in range(n)) + tuple(e3[p] for p in pairs)


@pytest.mark.parametrize("kname,cmname", [
    ("circle", "conj_s3"), ("boundary3", "z4_over_z2"), ("full2", "conj_s3")])
def test_packed_product_matches_the_dict_law_on_stabilizers(kname, cmname):
    # every ordered pair of stabilizer elements, for the trivial cocycle and
    # for a seeded moved one
    from cechmod.cech import _coboundary_product
    K, cmx = cx(kname), cm(cmname)
    product = _coboundary_product(K, cmx)
    rng = random.Random(11)
    z0 = trivial_cocycle(K, cmx)
    moved = apply_coboundary(sample_cocycle(K, cmx, rng), random_coboundary(K, cmx, rng))
    for z in (z0, moved):
        stab = stabilizer(z)
        keys = [c.key() for c in stab]
        assert len(keys) > 1
        for a in keys:
            for b in keys:
                assert product(a, b) == _reference_compose_keys(K, cmx, a, b)
        c1, c2 = stab[-2:]
        assert compose_coboundaries(c1, c2).key() == \
            _reference_compose_keys(K, cmx, c1.key(), c2.key())


@pytest.mark.parametrize("kname,cmname", [("circle", "z4_over_z2"), ("circle", "star_to_s3")])
def test_stabilizer_closure_check_fires_on_a_dropped_element(kname, cmname, monkeypatch):
    # a search that loses one non-identity element of the stabilizer leaves
    # a set that is not closed, which the generator check must find, for
    # each element dropped in turn
    import cechmod.cech as cech_mod
    from cechmod import gauge_crossed_module
    K, cmx = cx(kname), cm(cmname)
    z = trivial_cocycle(K, cmx)
    ident = identity_coboundary(K, cmx)
    others = [c for c in stabilizer(z) if c != ident]
    assert len(others) >= 2
    search = cech_mod._coboundary_search

    def dropping(lost):
        def lossy(*args, **kwargs):
            return (c for c in search(*args, **kwargs) if c != lost)
        return lossy

    for lost in others:
        monkeypatch.setattr(cech_mod, "_coboundary_search", dropping(lost))
        with pytest.raises(AssertionError, match="stabilizer is not closed under composition"):
            stabilizer(z)
    with pytest.raises(AssertionError, match="stabilizer is not closed under composition"):
        gauge_crossed_module(z)


def test_stabilizer_closure_check_fires_on_every_unclosed_four_element_set(monkeypatch):
    # a search that returns {e, a, b, a b} for stabilizer elements a and b of
    # a non-abelian stabilizer (S3 as constant coboundaries): whenever the
    # set is not closed, some product y x with x a generator leaves it,
    # including the products with earlier generators, such as b a
    import cechmod.cech as cech_mod
    K, cmx = circle(), cm("star_to_s3")
    z = trivial_cocycle(K, cmx)
    ident = identity_coboundary(K, cmx)
    stab = stabilizer(z)
    unclosed = 0
    for a in stab:
        for b in stab:
            subset = {c.key(): c for c in (ident, a, b, compose_coboundaries(a, b))}
            if all(compose_coboundaries(x, y).key() in subset
                   for x in subset.values() for y in subset.values()):
                continue
            unclosed += 1
            monkeypatch.setattr(cech_mod, "_coboundary_search",
                                lambda *args, found=list(subset.values()), **kwargs: iter(found))
            with pytest.raises(AssertionError, match="stabilizer is not closed under composition"):
                stabilizer(z)
    assert unclosed > 0
