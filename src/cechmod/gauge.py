"""Finite gauge 2-groups: equivariant endofunctors, cocycle stabilizers as
bundle automorphisms, and the associated crossed module.

Gauge objects are represented by stabilizer coboundaries, with the bundle
automorphism derived from them; the cochain form is canonical and finite.
Equivariant H-valued data on the total space is locally constant, hence
determined by one value per chart star, so the 2-morphism group is modeled
by vertex-indexed H-tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    CrossedModule,
    FiniteGroup,
    Strict2Group,
    _group_from_right_multiplications,
    generating_set,
    kernel_of_beta,
    power_group,
    quotient_by_image,
    validate_action,
    validate_crossed_module,
    validate_hom,
)
from .bundle import (
    GroupoidFunctor,
    NaturalTransformation,
    build_total_groupoid,
    check_action,
    coboundary_to_bundle_morphism,
    is_weak_equivalence,
    two_group_groupoid,
)
from .cech import (
    Budget,
    Cocycle,
    Coboundary,
    DEFAULT_BUDGET,
    _Context,
    _coboundary_product,
    _key_tuples,
    stabilizer,
)
from .complexes import normalized_tuples
from .errors import ConventionMismatch, EquivarianceFailure, PeifferFailure


@dataclass
class EquivariantEndofunctor:
    """A strictly equivariant endofunctor of a 2-group, determined by the
    image of the identity object."""

    translation: int  # the object k with F(g) = k * g


@dataclass
class EndofunctorTransformation:
    source_translation: int
    target_translation: int
    value: int  # the H element giving every component


def equivariant_endofunctors_of_2group(
        tg: Strict2Group) -> tuple[list[EquivariantEndofunctor],
                                   list[EndofunctorTransformation]]:
    """Enumerate strictly equivariant endofunctors and the equivariant
    natural transformations between them.

    Candidates F with F(e,e) = (k1, k2) are forced onto F(h,g) =
    (k1 * (k2.h), k2*g) by equivariance, and each of them is equivariant:
    for m = (h, g) and a = (h', g'), m * a = (h (g.h'), g g'), so

        F(m * a) = (k1 (k2.h) (k2 g.h'), k2 g g') = F(m) * a,

    as alpha(k2) is an automorphism of H and alpha a homomorphism.  So each
    candidate is checked only as a functor of the 2-group's groupoid, which
    leaves exactly the translations k1 = e: F must send the identity
    morphism (e, e) to an identity.  A transformation is determined by its
    value at the identity object, and its naturality is checked on every
    morphism.
    """
    cm = tg.cm
    G, H = cm.G, cm.H
    TG = two_group_groupoid(tg)
    kept = {}                     # translation -> its functor of TG
    for k1 in H.elements():
        for k2 in G.elements():
            F1 = {}
            for m in TG.morphisms:
                h, g = tg.decode(m)
                F1[m] = tg.encode(H.mul(k1, cm.act(k2, h)), G.mul(k2, g))
            F = GroupoidFunctor(TG, TG, {g: G.mul(k2, g) for g in TG.objects}, F1)
            if not F.check():
                assert k1 == H.identity, "non-translation functor survived"
                kept[k2] = F
    functors = [EquivariantEndofunctor(k) for k in kept]
    transformations = []
    for k, F in kept.items():
        for hbar in H.elements():
            k2 = G.mul(cm.beta_of(hbar), k)
            # the component at g is (hbar, k*g)
            tau = {g: tg.encode(hbar, G.mul(k, g)) for g in TG.objects}
            if not NaturalTransformation(F, kept[k2], tau).check():
                transformations.append(EndofunctorTransformation(k, k2, hbar))
    return functors, transformations


# -- gauge objects of a bundle ---------------------------------------------------

@dataclass
class GaugeObject:
    coboundary: Coboundary
    automorphism: GroupoidFunctor


def gauge_objects(z: Cocycle, budget: int = DEFAULT_BUDGET) -> list[GaugeObject]:
    """One gauge object per stabilizer coboundary c: the self-equivalence
    `coboundary_to_bundle_morphism(P, c)` of the bundle groupoid P, built and
    action-checked once.  Each is checked to be a weak equivalence; it keeps
    fibers and is strictly equivariant by construction, as follows.

    act_obj and act_mor keep the fiber indices of the generators' images.
    act_mor is a strict right action, act_mor(act_mor(m, a), b) =
    act_mor(m, a (x) b) with (h, g) (x) (h', g') = (h * (g . h'), g g'): for
    m = (i, j, sigma, h0, g0) the H parts h0 (g0 . h) ((g0 g) . h') and
    h0 (g0 . (h (g . h'))) agree as alpha acts by automorphisms and is a
    homomorphism, the G parts (and act_obj) by associativity.  So for
    m = u . a with u its generator, F(m . b) = F(u) . (a (x) b) =
    (F(u) . a) . b = F(m) . b, and likewise on objects.
    """
    stab = stabilizer(z, budget)
    P = build_total_groupoid(z)
    bad = check_action(P)
    assert not bad, f"action check failed: {bad[0]}"
    out = []
    for c in stab:
        F = coboundary_to_bundle_morphism(P, c)
        ok, why = is_weak_equivalence(F)
        assert ok, why
        out.append(GaugeObject(c, F))
    return out


def ad_equivariant_functor_count(z: Cocycle, budget: int = DEFAULT_BUDGET) -> int:
    """Count strictly equivariant functors from the bundle groupoid to the
    structure 2-group with its right conjugation action.

    Equivariant locally constant data is constant on chart stars, so a
    candidate is a G-value per vertex plus an H-value per ordered pair of
    chart indices, constrained fiberwise; each candidate determines the full
    functor by equivariant extension and is kept iff the functor axioms pass.
    The search reads the packed layer of `cech._Context`: eta is a list over
    the distinct pairs, with the trailing identity slot for diagonal ones,
    and beta(eta_ij) = g_ij v_j g_ij^-1 v_i^-1 is the coboundary search's
    `pair_beta`.  The leaf check does not use the coboundary action.
    """
    cm, K = z.cm, z.complex
    G, H = cm.G, cm.H
    tg = Strict2Group(cm)
    TG = two_group_groupoid(tg)
    P = build_total_groupoid(z)
    ctx = _Context(K, cm)
    pairs = ctx.distinct_pairs
    zg = [z.g[p] for p in pairs]
    n = K.vertex_count

    bud = Budget(budget)
    levels = n + len(pairs)  # a G-value per vertex, then an H-value per pair
    count = 0
    v = [G.identity] * n
    eta = [H.identity] * (len(pairs) + 1)

    def functor_ok() -> bool:
        # build the candidate on all of P and check the functor axioms
        F0 = {o: G.mul_many(G.inv(o[2]), v[o[0]], o[2]) for o in P.objects}
        F1 = {}
        for m in P.morphisms:
            i, j, s, h, g = m
            w = tg.encode(eta[ctx.pos[(i, j)]], v[i])
            a = tg.encode(h, g)
            F1[m] = tg.tensor(tg.tensor(tg.tensor_inverse(a), w), a)
        return not GroupoidFunctor(P, TG, F0, F1).check()

    def assign(level: int):
        nonlocal count
        if level == levels:
            count += functor_ok()
        elif level < n:
            for val in G.elements():
                bud.tick("gauge functors", level, levels)
                v[level] = val
                assign(level + 1)
        else:
            p = level - n
            i, j = pairs[p]
            for cand in ctx.fiber[ctx.pair_beta(zg[p], v[j], zg[p], v[i])]:
                bud.tick("gauge functors", level, levels)
                eta[p] = cand
                assign(level + 1)

    assign(0)
    return count


# -- the gauge crossed module -----------------------------------------------------

def _betastar(z: Cocycle):
    """betastar on vertex-indexed H-tuples, as a coboundary key: t goes to
    gamma_i = beta(t_i), then eta_ij = t_i * (g_ij . t_j)^-1 over
    `_key_tuples(K, 2)` (e on a diagonal pair, as g_ii = e)."""
    cm = z.cm
    beta, act, hmul, hinv = cm.beta.image, cm.alpha.table, cm.H.mul_table, cm.H.inv_table
    edges = [(i, j, act[z.g[(i, j)]]) for i, j in _key_tuples(z.complex, 2)]

    def key(tup: tuple) -> tuple:
        return tuple(beta[t] for t in tup) + \
            tuple(hmul[tup[i]][hinv[row[tup[j]]]] for i, j, row in edges)

    return key


def _alphastar(act, gamma: tuple, tup: tuple) -> tuple:
    """alphastar of the gauge object with vertex part gamma on an H-tuple:
    pointwise through the base action."""
    return tuple(act[g][t] for g, t in zip(gamma, tup))


@dataclass
class GaugeCrossedModule:
    cm: CrossedModule               # (Gstar, Hstar, betastar, alphastar)
    stabilizer_elements: list[Coboundary]
    h_tuples: list[tuple]
    pi0: FiniteGroup
    pi1: FiniteGroup
    convention: str


def gauge_crossed_module(z: Cocycle, budget: int = DEFAULT_BUDGET) -> GaugeCrossedModule:
    """The crossed module of the gauge 2-group of a bundle.

    Gstar is the stabilizer of the cocycle under coboundary composition,
    on its keys.  Its table is filled from the products by generators that
    `cech.stabilizer`'s closure check computed
    (`algebra._group_from_right_multiplications`), so no product is taken
    beyond those.  Hstar is the group of vertex-indexed H-tuples
    (`power_group`, built the same way).  betastar sends a tuple t
    to the stabilizer element with gamma_i = beta(t_i) and eta_ij =
    t_i * (g_ij . t_j)^-1, and alphastar acts pointwise through the base
    action; its row for gamma is read off by mixed radix, as the tuples are
    in `itertools.product` order.  An image of betastar outside the
    stabilizer raises ConventionMismatch.  betastar is checked to be a
    homomorphism by `validate_hom`, alphastar to be an action by
    automorphisms by `validate_action`, then equivariance and the Peiffer
    identity by `validate_crossed_module`, each on generators; each failure
    raises its validator error.  `convention` is always "left", naming the
    side on which t_i multiplies in eta.
    """
    K, cm = z.complex, z.cm
    H = cm.H
    n = K.vertex_count
    stab = stabilizer(z, budget)
    gitems = stab.keys
    Gstar = _group_from_right_multiplications(
        len(gitems), stab.identity, stab.rows, "gauge-objects")
    gindex = {k: i for i, k in enumerate(gitems)}
    Hstar, hitems = power_group(H, n, name="H-tuples")

    key_of = _betastar(z)
    images = []
    for tup in hitems:
        k = key_of(tup)
        if k not in gindex:
            raise ConventionMismatch(
                f"betastar image of {tup} does not stabilize the cocycle")
        images.append(gindex[k])
    betastar = validate_hom(Hstar, Gstar, images)
    act = cm.alpha.table
    # the index of a tuple t is sum t_i |H|^(n-1-i), so gamma's row is built
    # vertex by vertex; keys with one gamma share their row
    m, act_rows = H.order, {}
    for gk in gitems:
        if gk[:n] not in act_rows:
            row = [0]
            for gi in gk[:n]:
                row = [r * m + a for r in row for a in act[gi]]
            act_rows[gk[:n]] = row
    alphastar = validate_action(Gstar, Hstar, [act_rows[gk[:n]] for gk in gitems])
    gauge_cm = validate_crossed_module(Gstar, Hstar, betastar, alphastar)
    pi0, _ = quotient_by_image(gauge_cm)
    pi1, _ = kernel_of_beta(gauge_cm)
    return GaugeCrossedModule(gauge_cm, stab, hitems, pi0, pi1, "left")


@dataclass
class GaugeOrders:
    gstar: int      # |Gstar|, the stabilizer of the cocycle
    hstar: int      # |Hstar| = |H|^n
    pi0: int        # |Gstar / betastar(Hstar)|
    pi1: int        # |ker betastar|
    convention: str


def gauge_orders(z: Cocycle, budget: int = DEFAULT_BUDGET) -> GaugeOrders:
    """The orders of `gauge_crossed_module(z, budget)`'s Gstar, Hstar, pi0
    and pi1, and its convention, without a Cayley table.

    GSTAR is |stabilizer(z)| and HSTAR = |H|^n.  PI1 = |ker betastar|:
    betastar(t) is the identity key exactly when every t_i lies in ker beta
    and t_i = g_ij . t_j on every key pair, so PI1 is the twisted H^0 that
    `_twisted_h0` counts.  PI0 = GSTAR * PI1 / HSTAR, as |betastar(Hstar)| =
    |Hstar| / |ker betastar|; the division is asserted exact.

    These orders are those of a crossed module by the following arguments,
    so no table is built to check them.
    - Gstar is a group.  It is closed under `cech._coboundary_product`, as
      `stabilizer` checks; that law is associative (`stabilizer`'s
      docstring) and a group law on all coboundaries, and a finite subset
      of a group closed under its law and holding the identity is a
      subgroup.
    - Hstar = H^n is a group under the pointwise law, and alphastar, which
      acts pointwise through alpha, is an action by automorphisms, as alpha
      is one.
    - betastar is a homomorphism into the coboundary law.  The product of
      betastar(t) and betastar(t') has gamma_i = beta(t_i) beta(t'_i) =
      beta(t_i t'_i), and eta_ij = (beta(t_i) . t'_i (g_ij . t'_j)^-1)
      t_i (g_ij . t_j)^-1 = t_i t'_i (g_ij . t'_j)^-1 (g_ij . t_j)^-1 by the
      Peiffer identity, which is t_i t'_i (g_ij . (t_j t'_j))^-1, as
      alpha(g_ij) is an automorphism: betastar(t t').

    Three checks stay, on generators, and each raises its error.
    - betastar of each generator of Hstar (one tuple per vertex and
      generator of H, e elsewhere) lies in the stabilizer, else
      ConventionMismatch.  As betastar is a homomorphism and the stabilizer
      a subgroup, every image then does.
    - The Peiffer identity alphastar(betastar(t)) t' = t t' t^-1 at every
      pair of generators of Hstar, else PeifferFailure.  For fixed t both
      sides are automorphisms in t', so they agree once they agree on
      generators; and the t at which they agree for every t' are closed
      under products, since betastar is a homomorphism and alphastar an
      action, so they are all of Hstar once they hold the generators.
    - Equivariance betastar(alphastar(g) t) g = g betastar(t) for g among
      `stabilizer`'s generators (`_Stabilizer.gens`) and t among Hstar's,
      else EquivarianceFailure.  For fixed g, t -> betastar(alphastar(g) t)
      and t -> g betastar(t) g^-1 are homomorphisms, so they agree once they
      agree on generators; and the g at which they agree for every t are
      closed under products, as alphastar is an action.
    The errors name elements by their positions in `gauge_crossed_module`'s
    tables: a stabilizer element by its sorted key, and a tuple t by
    sum t_i |H|^(n-1-i), its place in `itertools.product` order.
    """
    K, cm = z.complex, z.cm
    H = cm.H
    n = K.vertex_count
    stab = stabilizer(z, budget)
    elements = set(stab.keys)
    key_of = _betastar(z)
    act, hmul, hinv = cm.alpha.table, H.mul_table, H.inv_table
    e = (H.identity,) * n
    tgens = [e[:v] + (y,) + e[v + 1:] for v in range(n)
             for y in generating_set(H.elements(), H.mul_table, H.identity)]

    def place(tup: tuple) -> int:
        return sum(t * H.order ** (n - 1 - i) for i, t in enumerate(tup))

    images = {}
    for t in tgens:
        images[t] = key_of(t)
        if images[t] not in elements:
            raise ConventionMismatch(f"betastar image of {t} does not stabilize the cocycle")
    for t in tgens:
        for t2 in tgens:
            if _alphastar(act, images[t][:n], t2) != \
                    tuple(hmul[hmul[a][b]][hinv[a]] for a, b in zip(t, t2)):
                raise PeifferFailure(place(t), place(t2))
    product = _coboundary_product(K, cm)
    for g in stab.gens:
        for t in tgens:
            if product(key_of(_alphastar(act, g[:n], t)), g) != product(g, images[t]):
                raise EquivarianceFailure(stab.keys.index(g), place(t))
    gstar, hstar, pi1 = len(stab), H.order ** n, _twisted_h0(z)
    assert gstar * pi1 % hstar == 0, "the image of betastar does not divide Gstar"
    return GaugeOrders(gstar, hstar, gstar * pi1 // hstar, pi1, "left")


def _twisted_h0(z: Cocycle) -> int:
    """The number of tuples t in (ker beta)^n with t_i = g_ij . t_j on every
    key pair, one connected component of the base at a time.

    In a component, the value at its root fixes every other value along a
    spanning tree: t_i = g_ij . t_j, and t_j = g_ij^-1 . t_i.  Each root
    value in ker beta is kept when the values it fixes satisfy every pair
    of the component; they lie in ker beta, as beta(g . h) = g beta(h) g^-1.
    A diagonal pair reads t_i = t_i, as g_ii = e.  The count is the product
    over the components.
    """
    K, cm = z.complex, z.cm
    act, ginv = cm.alpha.table, cm.G.inv_table
    n = K.vertex_count
    edges = [[] for _ in range(n)]  # edges[i]: (j, row) with t_j = row[t_i]
    for i, j in normalized_tuples(K, 2):
        g = z.g[(i, j)]
        edges[i].append((j, act[ginv[g]]))
        edges[j].append((i, act[g]))

    def consistent(component: list[int], t: dict) -> bool:
        # the component is in search order, so t[i] is set when i is reached
        for i in component:
            for j, row in edges[i]:
                if t.setdefault(j, row[t[i]]) != row[t[i]]:
                    return False
        return True

    count, seen = 1, [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root], component = True, [root]
        for i in component:
            for j, _ in edges[i]:
                if not seen[j]:
                    seen[j] = True
                    component.append(j)
        count *= sum(consistent(component, {root: a}) for a in cm.beta.kernel_indices())
    return count
