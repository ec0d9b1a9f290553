import random

import pytest

from cechmod import (
    ad_equivariant_functor_count,
    compose_coboundaries,
    disjoint_union,
    equivariant_endofunctors_of_2group,
    gauge_crossed_module,
    gauge_objects,
    gauge_orders,
    identity_coboundary,
    sample_cocycle,
    trivial_cocycle,
    two_group_from_crossed_module,
    validate_crossed_module,
)
from cechmod.catalog import CM_BUILDERS
from cechmod.errors import (ConventionMismatch, EquivarianceFailure, PeifferFailure,
                            SearchSpaceTooLarge)
from conftest import assert_image_normal_and_kernel_central, cm, cx
import routes


@pytest.mark.parametrize("cmname", list(CM_BUILDERS))
def test_endofunctor_and_transformation_counts(cmname):
    cmx = cm(cmname)
    tg = two_group_from_crossed_module(cmx)
    functors, transformations = equivariant_endofunctors_of_2group(tg)
    assert len(functors) == cmx.G.order
    assert len(transformations) == cmx.H.order * cmx.G.order
    assert any(f.translation == cmx.G.identity for f in functors)


def test_endofunctors_trivial_base():
    # base group trivial, coefficients Z3: one functor, three transformations
    cmx = cm("z3_to_point")
    tg = two_group_from_crossed_module(cmx)
    functors, transformations = equivariant_endofunctors_of_2group(tg)
    assert len(functors) == 1
    assert len(transformations) == 3


def test_transformation_endpoints_lie_in_beta_fibers():
    cmx = cm("z4_over_z2")
    tg = two_group_from_crossed_module(cmx)
    _, transformations = equivariant_endofunctors_of_2group(tg)
    for t in transformations:
        assert cmx.G.mul(cmx.beta_of(t.value), t.source_translation) == \
            t.target_translation


def test_identity_coboundary_realizes_identity_automorphism():
    K, cmx = cx("circle"), cm("z2_trivial")
    z = trivial_cocycle(K, cmx)
    for go in gauge_objects(z):
        if go.coboundary == identity_coboundary(K, cmx):
            F = go.automorphism
            assert all(F.on_objects[o] == o for o in F.domain.objects)
            assert all(F.on_morphisms[m] == m for m in F.domain.morphisms)
            break
    else:
        pytest.fail("identity gauge object missing")


def test_realization_is_a_homomorphism():
    K, cmx = cx("circle"), cm("z2_trivial")
    rng = random.Random(23)
    z = sample_cocycle(K, cmx, rng)
    objs = gauge_objects(z)
    by_key = {go.coboundary.key(): go for go in objs}
    for a in objs[:4]:
        for b in objs[:4]:
            composed = compose_coboundaries(b.coboundary, a.coboundary)
            direct = by_key[composed.key()].automorphism
            chained = b.automorphism.then(a.automorphism)
            assert chained.on_objects == direct.on_objects
            assert chained.on_morphisms == direct.on_morphisms


def test_ad_functor_budget():
    z = trivial_cocycle(cx("circle"), cm("z2_trivial"))
    with pytest.raises(SearchSpaceTooLarge):
        ad_equivariant_functor_count(z, budget=2)


@pytest.mark.parametrize("kname,cmname,count,nodes,levels", [
    ("boundary3", "star_to_s3", 6, 1866, 16),
    ("full2", "z2_into_z4", 16, 196, 9),
])
def test_ad_functor_budget_is_pinned(kname, cmname, count, nodes, levels):
    # the search visits exactly `nodes` nodes, vertices first and then the
    # pairs in order, so a reordered or pruned search moves the pin
    z = trivial_cocycle(cx(kname), cm(cmname))
    assert ad_equivariant_functor_count(z, budget=nodes) == count
    with pytest.raises(SearchSpaceTooLarge) as exc:
        ad_equivariant_functor_count(z, budget=nodes - 1)
    assert str(exc.value) == (f"visited nodes exceed budget {nodes - 1} in gauge "
                              f"functors at depth {levels} of {levels}")


def test_gauge_crossed_module_single_vertex():
    gcm = gauge_crossed_module(trivial_cocycle(cx("point"), cm("z2_trivial")))
    assert gcm.cm.G.order == 2
    assert gcm.cm.H.order == 2
    assert gcm.convention == "left"
    validate_crossed_module(gcm.cm.G, gcm.cm.H, gcm.cm.beta, gcm.cm.alpha)


@pytest.mark.parametrize("kname,cmname", [("boundary3", "z2_into_z4"), ("circle", "aut_z3")])
def test_gauge_image_normal_and_kernel_central(kname, cmname):
    assert_image_normal_and_kernel_central(routes.gauge_cm(f"{kname}-{cmname}-trivial").cm)


def test_betastar_of_identity_tuple_is_identity():
    K, cmx = cx("circle"), cm("z4_over_z2")
    gcm = routes.gauge_cm("circle-z4_over_z2-trivial")
    idx = gcm.h_tuples.index(tuple([cmx.H.identity] * K.vertex_count))
    assert gcm.cm.beta.image[idx] == gcm.cm.G.identity


@pytest.mark.parametrize("cmname", ["aut_z3", "z4_over_z2"])
def test_gauge_automorphisms_preserve_fibers_and_are_equivariant(cmname):
    # both hold by construction; checked here on every (m, hbar, gbar)
    K, cmx = cx("circle"), cm(cmname)
    z = sample_cocycle(K, cmx, random.Random(35))
    for go in gauge_objects(z):
        F = go.automorphism
        P = F.domain
        for (i, s, g) in P.objects:
            assert F.on_objects[(i, s, g)][:2] == (i, s)
        for m in P.morphisms:
            for hbar in cmx.H.elements():
                for gbar in cmx.G.elements():
                    assert F.on_morphisms[P.act_mor(m, hbar, gbar)] == \
                        F.codomain.act_mor(F.on_morphisms[m], hbar, gbar)


@pytest.mark.parametrize("kname,cmname", routes.GAUGE_CELLS)
def test_trivial_gauge_2group_matches_mapping_2group(kname, cmname):
    # the mapping row of the gauge route table finishes on the trivial bundle,
    # and an isomorphic bundle reports the same orders
    trivial, moved = (f"{kname}-{cmname}-{kind}" for kind in ("trivial", "moved"))
    assert "mapping" in routes.finished(trivial)
    assert routes.reported(trivial) == routes.reported(moved)


@pytest.mark.parametrize("kname,cmname,order,gens,products", [
    ("circle", "conj_s3", 216, 6, 1296),
    ("boundary3", "z4_over_z2", 128, 7, 896),
])
def test_gauge_tables_take_one_product_per_element_and_generator(
        kname, cmname, order, gens, products, monkeypatch):
    # the stabilizer's closure check multiplies each element by each
    # generator once, and G*'s table is filled from those products, so a
    # gauge crossed module costs |S| |X| coboundary products, not |S|^2.
    # They are taken one generator at a time over the packed keys
    # (`cech._right_products`, one product per element of its row), and none
    # by the per-pair law
    import cechmod.cech as cech_mod
    law_of, rows_of = cech_mod._coboundary_product, cech_mod._right_products
    calls, row_products = [], []

    def counted(K, cmx):
        law = law_of(K, cmx)

        def product(a, b):
            calls.append(None)
            return law(a, b)

        return product

    def counted_rows(*args):
        row = rows_of(*args)
        row_products.append(len(row))
        return row

    monkeypatch.setattr(cech_mod, "_coboundary_product", counted)
    monkeypatch.setattr(cech_mod, "_right_products", counted_rows)
    gcm = gauge_crossed_module(trivial_cocycle(cx(kname), cm(cmname)))
    assert (gcm.cm.G.order, len(gcm.stabilizer_elements.rows)) == (order, gens)
    assert len(row_products) == gens
    assert sum(row_products) == products == order * gens
    assert calls == []


@pytest.mark.parametrize("name", ["circle-conj_s3-trivial", "boundary3-z4_over_z2-moved",
                                  "circle-aut_z3-sample"])
def test_gauge_tables_equal_the_all_pairs_tables(name):
    # G* and H* are filled from products by generators; the tables over all
    # pairs of the same laws, as `group_from_operation` builds them, agree
    from cechmod import group_from_operation
    from cechmod.cech import _coboundary_product
    gcm = routes.gauge_cm(name)
    z = routes.case(name)[0]
    H = z.cm.H
    keys = [c.key() for c in gcm.stabilizer_elements]
    gstar, _ = group_from_operation(keys, _coboundary_product(z.complex, z.cm))
    hstar, _ = group_from_operation(
        gcm.h_tuples, lambda a, b: tuple(H.mul(x, y) for x, y in zip(a, b)))
    assert gcm.cm.G.mul_table == gstar.mul_table
    assert gcm.cm.H.mul_table == hstar.mul_table


def _reference_endofunctors(tg):
    """`equivariant_endofunctors_of_2group` as it stood with equivariance
    checked at every pair (m, a) of morphisms."""
    from cechmod.bundle import GroupoidFunctor, NaturalTransformation, two_group_groupoid
    from cechmod.gauge import EndofunctorTransformation, EquivariantEndofunctor
    cmx = tg.cm
    G, H = cmx.G, cmx.H
    TG = two_group_groupoid(tg)
    kept = {}
    for k1 in H.elements():
        for k2 in G.elements():
            F1 = {}
            for m in TG.morphisms:
                h, g = tg.decode(m)
                F1[m] = tg.encode(H.mul(k1, cmx.act(k2, h)), G.mul(k2, g))
            F = GroupoidFunctor(TG, TG, {g: G.mul(k2, g) for g in TG.objects}, F1)
            if not F.check() and all(F1[tg.tensor(m, a)] == tg.tensor(F1[m], a)
                                     for m in TG.morphisms for a in TG.morphisms):
                assert k1 == H.identity, "non-translation functor survived"
                kept[k2] = F
    transformations = []
    for k, F in kept.items():
        for hbar in H.elements():
            k2 = G.mul(cmx.beta_of(hbar), k)
            tau = {g: tg.encode(hbar, G.mul(k, g)) for g in TG.objects}
            if not NaturalTransformation(F, kept[k2], tau).check():
                transformations.append(EndofunctorTransformation(k, k2, hbar))
    return [EquivariantEndofunctor(k) for k in kept], transformations


@pytest.mark.parametrize("cmname", list(CM_BUILDERS))
def test_endofunctors_on_generators_match_the_all_pairs_reference(cmname):
    # every candidate is equivariant, so the functor check alone keeps the
    # same translations and the same transformations, in order, as the
    # equivariance check at every pair of morphisms
    tg = two_group_from_crossed_module(cm(cmname))
    assert equivariant_endofunctors_of_2group(tg) == _reference_endofunctors(tg)


def test_interchange_and_equivariance_take_generator_many_tensor_products(monkeypatch):
    # over all pairs, the interchange law on conj_s3 takes 216^2 * 3 =
    # 139,968 tensor products and endofunctor equivariance 6 * 36^2 * 2 =
    # 15,552; the interchange law on generators takes a tenth of that or
    # less, and equivariance, which holds for every candidate, is not tested
    from cechmod.algebra import Strict2Group
    tensor = Strict2Group.tensor
    calls = []

    def counted(self, m, mb):
        calls.append(None)
        return tensor(self, m, mb)

    monkeypatch.setattr(Strict2Group, "tensor", counted)
    tg = two_group_from_crossed_module(cm("conj_s3"))
    functors, _ = equivariant_endofunctors_of_2group(tg)
    assert len(functors) == 6
    assert len(calls) <= (139_968 + 15_552) // 10


@pytest.mark.parametrize("cmname,seed", [("aut_z3", 0), ("aut_z3", 1), ("aut_z3", 3),
                                         ("z4_over_z2", 0), ("z2_into_z4", 0)])
def test_gauge_orders_count_pi1_per_component(cmname, seed):
    # on a base of two components PI1 is the product of the components'
    # counts; the direct count over every tuple of (ker beta)^7 agrees, and
    # aut_z3's sampled cocycles reach both 9 = 3 * 3 and 3 = 1 * 3
    K = disjoint_union(cx("circle"), cx("boundary3"))
    z = sample_cocycle(K, cm(cmname), random.Random(seed))
    got = gauge_orders(z)
    assert got.pi1 == routes.twisted_h0(z, None)["PI1"]
    assert got.hstar == cm(cmname).H.order ** 7
    assert got.gstar * got.pi1 == got.pi0 * got.hstar


def _untwisted_betastar(z):
    # eta_ij = t_i * t_j^-1, as if every g_ij acted trivially
    from cechmod.cech import _key_tuples
    cmx = z.cm
    hmul, hinv, beta = cmx.H.mul_table, cmx.H.inv_table, cmx.beta.image
    pairs = _key_tuples(z.complex, 2)
    return lambda t: tuple(beta[x] for x in t) + tuple(hmul[t[i]][hinv[t[j]]] for i, j in pairs)


def _untwisted_product(K, cmx):
    # eta'' = eta' * eta, the composition law as if G acted trivially on H
    G, H, n = cmx.G, cmx.H, K.vertex_count
    return lambda a, b: tuple(G.mul(x, y) for x, y in zip(a[:n], b[:n])) + \
        tuple(H.mul(y, x) for x, y in zip(a[n:], b[n:]))


@pytest.mark.parametrize("attr,mutant,error", [
    ("_betastar", _untwisted_betastar, ConventionMismatch),
    ("_alphastar", lambda act, gamma, tup: tup, PeifferFailure),
    ("_coboundary_product", _untwisted_product, EquivarianceFailure),
])
def test_gauge_orders_generator_checks_catch_their_mutant(attr, mutant, error, monkeypatch):
    # each check on generators fails when the part it checks is broken, on
    # a cocycle whose g_ij act nontrivially: a betastar that drops the
    # action of g_ij leaves the stabilizer, alphastar by the identity breaks
    # the Peiffer identity as S3 is not abelian, and a law that drops the
    # action breaks equivariance.  They are checked in that order, so each
    # mutant reaches its own check
    import cechmod.gauge as gauge_mod
    z = routes.case("circle-conj_s3-moved")[0]
    assert gauge_orders(z).gstar == 216
    monkeypatch.setattr(gauge_mod, attr, mutant)
    with pytest.raises(error):
        gauge_orders(z)


def _left_sided_betastar(z):
    # eta_ij = (g_ij . t_j)^-1 * t_i: t_i on the other side.  On a single
    # vertex's generator it agrees with the true map, so each generator's
    # image stabilizes the cocycle, but it is not a homomorphism
    from cechmod.cech import _key_tuples
    cmx = z.cm
    beta, act, hmul, hinv = cmx.beta.image, cmx.alpha.table, cmx.H.mul_table, cmx.H.inv_table
    edges = [(i, j, act[z.g[(i, j)]]) for i, j in _key_tuples(z.complex, 2)]
    return lambda t: tuple(beta[x] for x in t) + \
        tuple(hmul[hinv[row[t[j]]]][t[i]] for i, j, row in edges)


def test_gauge_orders_rejects_a_betastar_that_is_not_a_homomorphism(monkeypatch):
    # the table construction finds a product of generators whose image
    # leaves the stabilizer; gauge_orders checks betastar on pairs of
    # generators and must reject the map too
    import cechmod.gauge as gauge_mod
    z = routes.case("circle-conj_s3-moved")[0]
    monkeypatch.setattr(gauge_mod, "_betastar", _left_sided_betastar)
    with pytest.raises(ConventionMismatch, match="betastar image of .* does not stabilize"):
        gauge_crossed_module(z)
    with pytest.raises(ConventionMismatch, match="betastar is not a homomorphism at"):
        gauge_orders(z)


def test_betastar_helper_is_shared_with_the_table_construction(monkeypatch):
    import cechmod.gauge as gauge_mod
    z = routes.case("circle-conj_s3-moved")[0]
    monkeypatch.setattr(gauge_mod, "_betastar", _untwisted_betastar)
    for construction in (gauge_orders, gauge_crossed_module):
        with pytest.raises(ConventionMismatch, match="betastar image of .* does not stabilize"):
            construction(z)
