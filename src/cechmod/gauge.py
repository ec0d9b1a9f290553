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
    GroupAction,
    GroupHom,
    Strict2Group,
    group_from_operation,
    kernel_of_beta,
    power_group,
    quotient_by_image,
    validate_crossed_module,
)
from .bundle import (
    GroupoidFunctor,
    build_total_groupoid,
    coboundary_to_bundle_morphism,
    is_weak_equivalence,
)
from .cech import (
    Budget,
    Cocycle,
    Coboundary,
    DEFAULT_BUDGET,
    compose_coboundaries,
    stabilizer,
)
from .complexes import valid_tuples
from .errors import ConventionMismatch


@dataclass
class EquivariantEndofunctor:
    """A strictly equivariant endofunctor of a 2-group, determined by the
    image of the identity object."""

    translation: int  # the object k with F(g) = k * g

    def on_object(self, tg: Strict2Group, g: int) -> int:
        return tg.cm.G.mul(self.translation, g)

    def on_morphism(self, tg: Strict2Group, m: int) -> int:
        h, g = tg.decode(m)
        return tg.encode(tg.cm.act(self.translation, h),
                         tg.cm.G.mul(self.translation, g))


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
    (k1 * (k2.h), k2*g) by equivariance; the functor axioms are then checked
    on the full tables, which leaves exactly the translations k1 = e.  A
    transformation is determined by its value at the identity object.
    """
    cm = tg.cm
    G, H = cm.G, cm.H
    functors = []
    for k1 in H.elements():
        for k2 in G.elements():
            def F1(m, k1=k1, k2=k2):
                h, g = tg.decode(m)
                return tg.encode(H.mul(k1, cm.act(k2, h)), G.mul(k2, g))

            ok = True
            for m in tg.morphisms():
                fm = F1(m)
                if tg.source(fm) != G.mul(k2, tg.source(m)) or \
                        tg.target(fm) != G.mul(k2, tg.target(m)):
                    ok = False
                    break
            if ok:
                for g in tg.objects():
                    if F1(tg.identity(g)) != tg.identity(G.mul(k2, g)):
                        ok = False
                        break
            if ok:
                for m1 in tg.morphisms():
                    for h2 in H.elements():
                        m2 = tg.encode(h2, tg.target(m1))
                        if F1(tg.compose(m2, m1)) != tg.compose(F1(m2), F1(m1)):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                # equivariance for the right translation action
                for m in tg.morphisms():
                    for a in tg.morphisms():
                        if F1(tg.tensor(m, a)) != tg.tensor(F1(m), a):
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                assert k1 == H.identity, "non-translation functor survived"
                functors.append(EquivariantEndofunctor(k2))
    transformations = []
    for F in functors:
        k = F.translation
        for hbar in H.elements():
            k2 = G.mul(cm.beta_of(hbar), k)
            # component at g is (hbar, k*g); check naturality exhaustively
            natural = True
            for m in tg.morphisms():
                h, g = tg.decode(m)
                tau_s = tg.encode(hbar, G.mul(k, g))
                tau_t = tg.encode(hbar, G.mul(k, tg.target(m)))
                Fm = tg.encode(cm.act(k, h), G.mul(k, g))
                F2m = tg.encode(cm.act(k2, h), G.mul(k2, g))
                if tg.compose(tau_t, Fm) != tg.compose(F2m, tau_s):
                    natural = False
                    break
            if natural:
                transformations.append(EndofunctorTransformation(k, k2, hbar))
    return functors, transformations


# -- gauge objects of a bundle ---------------------------------------------------

@dataclass
class GaugeObject:
    coboundary: Coboundary
    automorphism: GroupoidFunctor


def gauge_objects(z: Cocycle, budget: int = DEFAULT_BUDGET) -> list[GaugeObject]:
    """One gauge object per stabilizer coboundary, realized as a strictly
    equivariant fiber-preserving self-equivalence of the bundle groupoid."""
    out = []
    for c in stabilizer(z, budget):
        F = coboundary_to_bundle_morphism(z, c)
        for (i, s, g) in F.domain.objects:
            fi, fs, _ = F.on_objects[(i, s, g)]
            assert (fi, fs) == (i, s), "gauge automorphism moves a fiber"
        P = F.domain
        cm = z.cm
        for m in P.morphisms:
            for hbar in cm.H.elements():
                for gbar in cm.G.elements():
                    if F.on_morphisms[P.act_mor(m, hbar, gbar)] != \
                            F.codomain.act_mor(F.on_morphisms[m], hbar, gbar):
                        raise AssertionError("gauge automorphism is not equivariant")
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
    """
    cm, K = z.cm, z.complex
    G, H = cm.G, cm.H
    tg = Strict2Group(cm)
    P = build_total_groupoid(z)
    verts = list(range(K.vertex_count))
    dpairs = [p for p in valid_tuples(K, 2) if p[0] != p[1]]
    fiber = {g: [h for h in H.elements() if cm.beta_of(h) == g] for g in G.elements()}

    bud = Budget(budget, G.order ** len(verts) * max(1, H.order) ** len(dpairs))
    levels = len(verts) + len(dpairs)  # a G-value per vertex, then an H-value per pair
    count = 0
    v = {}
    eta = {}

    def functor_ok() -> bool:
        # build the candidate on all of P and check the axioms
        def F0(o):
            i, s, g = o
            return G.mul_many(G.inv(g), v[i], g)

        def F1(m):
            i, j, s, h, g = m
            w = tg.encode(eta.get((i, j), H.identity) if i != j else H.identity, v[i])
            a = tg.encode(h, g)
            return tg.tensor(tg.tensor(tg.tensor_inverse(a), w), a)

        for m in P.morphisms:
            fm = F1(m)
            if tg.source(fm) != F0(P.source[m]) or tg.target(fm) != F0(P.target[m]):
                return False
        for o in P.objects:
            if F1(P.identity[o]) != tg.identity(F0(o)):
                return False
        for (m2, m1), m in P.compose.items():
            if tg.compose(F1(m2), F1(m1)) != F1(m):
                return False
        return True

    def assign_pair(idx: int):
        nonlocal count
        if idx == len(dpairs):
            if functor_ok():
                count += 1
            return
        i, j = dpairs[idx]
        need = G.mul_many(z.g[(i, j)], v[j], G.inv(z.g[(i, j)]), G.inv(v[i]))
        for cand in fiber[need]:
            bud.tick("gauge functors", len(verts) + idx, levels)
            eta[(i, j)] = cand
            assign_pair(idx + 1)
            del eta[(i, j)]

    def assign_vertex(idx: int):
        if idx == len(verts):
            assign_pair(0)
            return
        for val in G.elements():
            bud.tick("gauge functors", idx, levels)
            v[verts[idx]] = val
            assign_vertex(idx + 1)
            del v[verts[idx]]

    assign_vertex(0)
    return count


# -- the gauge crossed module -----------------------------------------------------

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

    Gstar is the stabilizer of the cocycle under coboundary composition;
    Hstar is the group of vertex-indexed H-tuples.  betastar sends a tuple t
    to the stabilizer element with gamma_i = beta(t_i) and eta_ij =
    t_i * (g_ij . t_j)^-1, and alphastar acts pointwise through the base
    action.  The result passes the full crossed-module validation; an image
    of betastar outside the stabilizer raises ConventionMismatch, and any
    failed axiom raises its validator error.  `convention` is always "left",
    naming the side on which t_i multiplies in eta.
    """
    K, cm = z.complex, z.cm
    H = cm.H
    n = K.vertex_count
    stab = stabilizer(z, budget)
    by_key = {c.key(): c for c in stab}
    Gstar, gitems = group_from_operation(
        sorted(by_key), lambda a, b: compose_coboundaries(by_key[a], by_key[b]).key(),
        "gauge-objects")
    gindex = {k: i for i, k in enumerate(gitems)}
    Hstar, hitems = power_group(H, n, name="H-tuples")
    hindex = {t: i for i, t in enumerate(hitems)}

    images = []
    for tup in hitems:
        gamma = {i: cm.beta_of(tup[i]) for i in range(n)}
        eta = {(i, j): H.mul(tup[i], H.inv(cm.act(z.g[(i, j)], tup[j])))
               for (i, j) in valid_tuples(K, 2)}
        k = Coboundary(K, cm, gamma, eta).key()
        if k not in gindex:
            raise ConventionMismatch(
                f"betastar image of {tup} does not stabilize the cocycle")
        images.append(gindex[k])
    betastar = GroupHom(Hstar, Gstar, tuple(images))
    act_rows = []
    for gk in gitems:
        c = by_key[gk]
        row = []
        for tup in hitems:
            moved = tuple(cm.act(c.gamma[i], tup[i]) for i in range(n))
            row.append(hindex[moved])
        act_rows.append(tuple(row))
    alphastar = GroupAction(Gstar, Hstar, tuple(act_rows))
    gauge_cm = validate_crossed_module(Gstar, Hstar, betastar, alphastar)
    pi0, _ = quotient_by_image(gauge_cm)
    pi1, _ = kernel_of_beta(gauge_cm)
    return GaugeCrossedModule(gauge_cm, [by_key[k] for k in gitems], hitems,
                              pi0, pi1, "left")
