import itertools
import random

import pytest

from cechmod import (
    abelian_cohomology_oracle,
    ad_equivariant_functor_count,
    apply_coboundary,
    compose_coboundaries,
    equivariant_endofunctors_of_2group,
    gauge_crossed_module,
    gauge_objects,
    identity_coboundary,
    sample_cocycle,
    stabilizer,
    trivial_cocycle,
    two_group_from_crossed_module,
    valid_tuples,
    validate_crossed_module,
)
from cechmod.algebra import abelian_invariants, kernel_of_beta
from cechmod.catalog import CM_BUILDERS
from cechmod.errors import SearchSpaceTooLarge
from conftest import assert_image_normal_and_kernel_central, cm, cx


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


def test_gauge_objects_single_vertex():
    for cmname in ("z2_trivial", "z4_over_z2"):
        cmx = cm(cmname)
        z = trivial_cocycle(cx("point"), cmx)
        objs = gauge_objects(z)
        assert len(objs) == cmx.G.order
        # matches the endofunctor count of the structure 2-group
        tg = two_group_from_crossed_module(cmx)
        fs, _ = equivariant_endofunctors_of_2group(tg)
        assert len(objs) == len(fs)


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


def test_ad_functor_count_matches_gauge_objects():
    rng = random.Random(24)
    cases = [(cx("point"), cm("z2_trivial")), (cx("point"), cm("z4_over_z2")),
             (cx("circle"), cm("z2_trivial"))]
    for K, cmx in cases:
        z = trivial_cocycle(K, cmx)
        assert ad_equivariant_functor_count(z) == len(gauge_objects(z))
    for _ in range(3):
        z = sample_cocycle(cx("circle"), cm("z2_trivial"), rng)
        assert ad_equivariant_functor_count(z) == len(stabilizer(z))


@pytest.mark.parametrize("cmname", ["conj_s3", "aut_z3"])
def test_ad_functor_count_matches_stabilizer(cmname):
    K, cmx = cx("circle"), cm(cmname)
    for z in (trivial_cocycle(K, cmx), sample_cocycle(K, cmx, random.Random(f"ad:{cmname}"))):
        assert ad_equivariant_functor_count(z) == len(stabilizer(z))


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


def test_gauge_crossed_module_circle_instances():
    rng = random.Random(25)
    K, cmx = cx("circle"), cm("z2_trivial")
    for z in (trivial_cocycle(K, cmx), sample_cocycle(K, cmx, rng)):
        gcm = gauge_crossed_module(z)
        validate_crossed_module(gcm.cm.G, gcm.cm.H, gcm.cm.beta, gcm.cm.alpha)
        assert gcm.cm.G.order == len(stabilizer(z))
        assert gcm.cm.H.order == cmx.H.order ** K.vertex_count
        # Lagrange bookkeeping for the homotopy groups
        assert gcm.cm.G.order % gcm.pi0.order == 0
        assert gcm.cm.H.order % gcm.pi1.order == 0


@pytest.mark.parametrize("kname,cmname", [("boundary3", "z2_into_z4"), ("circle", "aut_z3")])
def test_gauge_image_normal_and_kernel_central(kname, cmname):
    gcm = gauge_crossed_module(trivial_cocycle(cx(kname), cm(cmname)))
    assert_image_normal_and_kernel_central(gcm.cm)


def test_betastar_of_identity_tuple_is_identity():
    K, cmx = cx("circle"), cm("z4_over_z2")
    z = trivial_cocycle(K, cmx)
    gcm = gauge_crossed_module(z)
    idx = gcm.h_tuples.index(tuple([cmx.H.identity] * K.vertex_count))
    assert gcm.cm.beta.image[idx] == gcm.cm.G.identity


def test_gauge_machinery_with_nontrivial_action():
    K, cmx = cx("circle"), cm("aut_z3")
    z = trivial_cocycle(K, cmx)
    assert ad_equivariant_functor_count(z) == len(gauge_objects(z))
    gcm = gauge_crossed_module(z)
    validate_crossed_module(gcm.cm.G, gcm.cm.H, gcm.cm.beta, gcm.cm.alpha)
    assert gcm.cm.H.order == 27
    assert gcm.cm.G.order % gcm.pi0.order == 0
    assert gcm.pi1.order == 3  # constant tuples, since the base is connected


def test_gauge_objects_invariant_along_class():
    K, cmx = cx("circle"), cm("z4_over_z2")
    rng = random.Random(26)
    z = sample_cocycle(K, cmx, rng)
    from cechmod import random_coboundary
    z2 = apply_coboundary(z, random_coboundary(K, cmx, rng))
    assert len(gauge_objects(z)) == len(gauge_objects(z2))


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


# -- the trivial bundle's gauge 2-group against the mapping 2-group ---------------

ALL_CMS = list(CM_BUILDERS)
# the catalog cells whose gauge 2-group of the trivial cocycle is built in
# under 1 s; the others (conj_s3 beyond full1, z4 kernels on full3 and
# boundary3, most of rp26 and torus7) take seconds to minutes
GAUGE_ORACLE_CELLS = [(k, c) for k in ("point", "full1") for c in ALL_CMS] + \
    [(k, c) for k in ("full2", "circle") for c in ALL_CMS if c != "conj_s3"] + \
    [(k, c) for k in ("full3", "boundary3") for c in ALL_CMS
     if c not in ("conj_s3", "z4_over_z2", "z4_to_point")] + \
    [("torus7", c) for c in ("star_to_z2", "star_to_z3", "star_to_s3")] + \
    [("rp26", c) for c in ("z2_trivial", "star_to_z2", "star_to_z3", "star_to_s3")]


def _mapping_2group_orders(K, cmx):
    """(|PI0|, |PI1|) that the trivial bundle's gauge 2-group must have.

    The gauge 2-group of a bundle is its 2-group of equivariant
    automorphisms; for the trivial bundle K x Gamma these are the
    Gamma-valued maps on K, the mapping 2-group C(K, Gamma), as C(X, G) is
    for a trivial classical bundle.  The realization |Gamma| has
    pi_0 = coker beta and pi_1 = ker beta, which is central, hence abelian
    (Baez & Lauda, Higher-dimensional algebra V: 2-groups, TAC 12, 2004),
    and every component of |Gamma| is a K(ker beta, 1).  So for connected K
    the maps K -> |Gamma| have pi_0 = coker beta x H^1(K; ker beta) and,
    at the constant map, pi_1 = H^0(K; ker beta) = ker beta.  H^1 comes from
    the integer Smith-form oracle, which shares no code with the gauge
    construction; every catalog kernel is cyclic.
    """
    kernel, _ = kernel_of_beta(cmx)
    assert len(abelian_invariants(kernel)[0]) <= 1
    coker = cmx.G.order // len(set(cmx.beta.image))
    h1 = abelian_cohomology_oracle(K, kernel.order, 1) if kernel.order > 1 else 1
    return coker * h1, kernel.order


def _twisted_h0(z):
    """|H^0(K; ker beta)| twisted by the band: the tuples t in (ker beta)^n
    with t_i = g_ij . t_j on every valid pair, counted directly."""
    K, cmx = z.complex, z.cm
    kernel = cmx.beta.kernel_indices()
    return sum(all(t[i] == cmx.act(z.g[(i, j)], t[j]) for (i, j) in valid_tuples(K, 2))
               for t in itertools.product(kernel, repeat=K.vertex_count))


def _orders(gcm):
    return gcm.cm.G.order, gcm.cm.H.order, gcm.pi0.order, gcm.pi1.order


@pytest.mark.parametrize("kname,cmname", GAUGE_ORACLE_CELLS)
def test_trivial_gauge_2group_matches_mapping_2group(kname, cmname):
    from cechmod import random_coboundary
    K, cmx = cx(kname), cm(cmname)
    assert abelian_cohomology_oracle(K, 2, 0) == 2  # K is connected
    pi0, pi1 = _mapping_2group_orders(K, cmx)
    z = trivial_cocycle(K, cmx)
    gstar, hstar, got_pi0, got_pi1 = _orders(gauge_crossed_module(z))
    assert (got_pi0, got_pi1) == (pi0, pi1)
    assert got_pi1 == _twisted_h0(z)
    assert hstar == cmx.H.order ** K.vertex_count
    assert gstar * pi1 == pi0 * hstar
    # isomorphic bundles have equivalent gauge 2-groups, and here equal orders
    moved = apply_coboundary(z, random_coboundary(K, cmx, random.Random(f"{kname}:{cmname}")))
    assert _orders(gauge_crossed_module(moved)) == (gstar, hstar, pi0, pi1)
    assert pi1 == _twisted_h0(moved)
