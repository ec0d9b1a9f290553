"""The explicit bundle groupoid of a cocycle, with its 2-group action,
trivializations, cocycle extraction, coboundary-induced morphisms, weak
equivalences, band, central reduction, lifting obstruction and structure
quotient.

Points of the base are simplices sigma of the complex; a chart index i is
valid at sigma iff i is a vertex of sigma.  Objects of the bundle groupoid
are triples (i, sigma, g) and morphisms are quintuples (i, j, sigma, h, g)
running from (i, sigma, g) to (j, sigma, g_ij^-1 * beta(h) * g).  All
structure is realized as finite tables, so every axiom is checked exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    CrossedModule,
    FiniteGroup,
    Strict2Group,
    cyclic_powers,
    kernel_of_beta,
    quotient_by_image,
)
from .cech import (
    Budget,
    Cocycle,
    Coboundary,
    apply_coboundary,
    validate_cocycle,
)
from .complexes import SimplicialComplex, valid_tuples
from .errors import (
    ActionNotFree,
    ActionNotFreeTransitive,
    BetaNotSurjective,
    NotA1Cocycle,
    SemanticError,
    TrivializationInvalid,
    VertexOutOfRange,
)


class FiniteGroupoid:
    """A finite groupoid given by explicit structure tables."""

    def __init__(self, objects, morphisms, source, target, compose, identity,
                 inverse, name=""):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.source = source          # dict: morphism -> object
        self.target = target          # dict: morphism -> object
        self.compose = compose        # dict: (m2, m1) -> m2 o m1
        self.identity = identity      # dict: object -> morphism
        self.inverse = inverse        # dict: morphism -> morphism
        self.name = name
        self._hom = {}
        self._out = {}                # object -> morphisms with that source
        for m in self.morphisms:
            self._hom.setdefault((self.source[m], self.target[m]), []).append(m)
            self._out.setdefault(self.source[m], []).append(m)

    def hom(self, x, y) -> list:
        return self._hom.get((x, y), [])

    def check_axioms(self) -> list[str]:
        """Exhaustive category-axiom suite; returns failures (empty = pass).

        Composable pairs and triples are walked through the out-index, so
        every pair and triple is checked once and no other is visited.  The
        laws are checked only on a well-formed table, since they look up
        composites the table must hold.
        """
        bad = []
        objset = set(self.objects)
        for m in self.morphisms:
            if self.source[m] not in objset or self.target[m] not in objset:
                bad.append(f"dangling endpoints at {m}")
                return bad
        for x in self.objects:
            e = self.identity[x]
            if self.source[e] != x or self.target[e] != x:
                bad.append(f"identity of {x} has wrong endpoints")
        for (m2, m1), m in self.compose.items():
            if self.source[m2] != self.target[m1]:
                bad.append(f"non-composable pair ({m2}, {m1}) in table")
            if self.source[m] != self.source[m1] or self.target[m] != self.target[m2]:
                bad.append(f"endpoints of composite ({m2}, {m1}) are wrong")
                break
        for m1 in self.morphisms:
            for m2 in self._out.get(self.target[m1], ()):
                if (m2, m1) not in self.compose:
                    bad.append(f"missing composite ({m2}, {m1})")
                    return bad
        if bad:
            return bad
        for m in self.morphisms:
            if self.compose[(m, self.identity[self.source[m]])] != m:
                bad.append(f"right identity law fails at {m}")
            if self.compose[(self.identity[self.target[m]], m)] != m:
                bad.append(f"left identity law fails at {m}")
            mi = self.inverse[m]
            if self.compose[(mi, m)] != self.identity[self.source[m]] or \
                    self.compose[(m, mi)] != self.identity[self.target[m]]:
                bad.append(f"inverse law fails at {m}")
        for (m2, m1), m21 in self.compose.items():
            for m3 in self._out.get(self.target[m2], ()):
                if self.compose[(self.compose[(m3, m2)], m1)] != \
                        self.compose[(m3, m21)]:
                    bad.append(f"associativity fails at ({m3}, {m2}, {m1})")
                    return bad
        return bad

    def components(self) -> dict:
        """Object -> canonical representative of its isomorphism class."""
        parent = {x: x for x in self.objects}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for m in self.morphisms:
            a, b = find(self.source[m]), find(self.target[m])
            if a != b:
                parent[max(a, b, key=repr)] = min(a, b, key=repr)
        return {x: find(x) for x in self.objects}


@dataclass
class GroupoidFunctor:
    domain: FiniteGroupoid
    codomain: FiniteGroupoid
    on_objects: dict
    on_morphisms: dict

    def check(self) -> list[str]:
        bad = []
        F0, F1 = self.on_objects, self.on_morphisms
        for x in self.domain.objects:
            if x not in F0:
                return [f"object map misses {x}"]
        for m in self.domain.morphisms:
            if m not in F1:
                return [f"morphism map misses {m}"]
            fm = F1[m]
            if self.codomain.source[fm] != F0[self.domain.source[m]] or \
                    self.codomain.target[fm] != F0[self.domain.target[m]]:
                bad.append(f"source/target not preserved at {m}")
                return bad
        for x in self.domain.objects:
            if F1[self.domain.identity[x]] != self.codomain.identity[F0[x]]:
                bad.append(f"identity not preserved at {x}")
        for (m2, m1), m in self.domain.compose.items():
            if self.codomain.compose[(F1[m2], F1[m1])] != F1[m]:
                bad.append(f"composition not preserved at ({m2}, {m1})")
                return bad
        return bad

    def then(self, other: "GroupoidFunctor") -> "GroupoidFunctor":
        """self followed by other."""
        return GroupoidFunctor(
            self.domain, other.codomain,
            {x: other.on_objects[v] for x, v in self.on_objects.items()},
            {m: other.on_morphisms[v] for m, v in self.on_morphisms.items()})

    def is_faithful(self) -> bool:
        for x in self.domain.objects:
            for y in self.domain.objects:
                imgs = [self.on_morphisms[m] for m in self.domain.hom(x, y)]
                if len(set(imgs)) != len(imgs):
                    return False
        return True


def identity_functor(P: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(P, P, {x: x for x in P.objects},
                           {m: m for m in P.morphisms})


@dataclass
class NaturalTransformation:
    """Components live in the codomain; tau_x runs from F(x) to G(x)."""

    F: GroupoidFunctor
    G: GroupoidFunctor
    component: dict

    def check(self) -> list[str]:
        bad = []
        cod = self.F.codomain
        for x in self.F.domain.objects:
            if x not in self.component:
                return [f"component missing at {x}"]
            t = self.component[x]
            if cod.source[t] != self.F.on_objects[x] or \
                    cod.target[t] != self.G.on_objects[x]:
                bad.append(f"component at {x} has wrong endpoints")
                return bad
        for m in self.F.domain.morphisms:
            x, y = self.F.domain.source[m], self.F.domain.target[m]
            lhs = cod.compose[(self.component[y], self.F.on_morphisms[m])]
            rhs = cod.compose[(self.G.on_morphisms[m], self.component[x])]
            if lhs != rhs:
                bad.append(f"naturality square fails at {m}")
                return bad
        return bad


# -- the bundle groupoid ---------------------------------------------------------

class BundleGroupoid(FiniteGroupoid):
    """The finite groupoid of a cocycle, together with its 2-group action."""

    def __init__(self, z: Cocycle):
        self.z = z
        self.cm = z.cm
        self.complex = z.complex
        cm, K = z.cm, z.complex
        G, H = cm.G, cm.H
        sigmas = K.simplices_sorted()
        objects = [(i, s, g) for s in sigmas for i in s for g in G.elements()]
        morphisms = [(i, j, s, h, g) for s in sigmas for i in s for j in s
                     for h in H.elements() for g in G.elements()]
        source, target, identity, inverse = {}, {}, {}, {}
        for m in morphisms:
            i, j, s, h, g = m
            source[m] = (i, s, g)
            target[m] = (j, s, G.mul_many(G.inv(z.g[(i, j)]), cm.beta_of(h), g))
        for o in objects:
            i, s, g = o
            identity[o] = (i, i, s, H.identity, g)
        for m in morphisms:
            i, j, s, h, g = m
            hh = cm.act(G.inv(z.g[(i, j)]),
                        H.inv(H.mul(h, z.h[(i, j, i)])))
            inverse[m] = (j, i, s, hh, target[m][2])
        compose = {}
        super().__init__(objects, morphisms, source, target, compose,
                         identity, inverse, name="P_z")
        for m1 in morphisms:
            i, j, s, h, g = m1
            for m2 in self._out[target[m1]]:
                j2, k, s2, h2, g2 = m2
                hh = H.mul_many(z.h[(i, j, k)], cm.act(z.g[(i, j)], h2), h)
                compose[(m2, m1)] = (i, k, s, hh, g)

    # -- the strict right action of the structure 2-group ----------------------

    def act_obj(self, o, gbar: int):
        i, s, g = o
        return (i, s, self.cm.G.mul(g, gbar))

    def act_mor(self, m, hbar: int, gbar: int):
        i, j, s, h, g = m
        return (i, j, s, self.cm.H.mul(h, self.cm.act(g, hbar)),
                self.cm.G.mul(g, gbar))

    def object_fiber(self, i: int, s) -> list:
        return [(i, s, g) for g in self.cm.G.elements()]

    def morphism_fiber(self, i: int, j: int, s) -> list:
        return [(i, j, s, h, g) for h in self.cm.H.elements()
                for g in self.cm.G.elements()]


def build_total_groupoid(z: Cocycle) -> BundleGroupoid:
    """Construct the bundle groupoid and run the full axiom suite."""
    P = BundleGroupoid(z)
    bad = P.check_axioms()
    assert not bad, f"axiom suite failed: {bad[0]}"
    return P


def check_action(P: BundleGroupoid) -> list[str]:
    """Verify the action is a strict functor P x 2group -> P and that it is
    free and transitive on every object and morphism fiber.

    P must pass `check_axioms`.  Endpoint compatibility is checked for every
    morphism m of P and n of the 2-group, and identities for every object
    and morphism.  Functoriality, act(m2 m1, n2 n1) = act(m2, n2) act(m1, n1),
    is checked only on the quadruples with an identity on one side, which
    suffices (the bifunctor lemma, Mac Lane, CWM II.3 Prop. 1); 1_x is the
    identity of x in P and 1_g that of g in the 2-group:

      (a) act(m2 m1, 1_g) = act(m2, 1_g) act(m1, 1_g);
      (b) act(1_x, n2 n1) = act(1_x, n2) act(1_x, n1);
      (c) act(m, n) = act(m, 1_g') act(1_x, n) = act(1_y, n) act(m, 1_g)
          for m: x -> y and n: g -> g'.

    For m1: x -> y, m2: y -> z, n1: g -> g' and n2: g' -> g'',
      act(m2 m1, n2 n1) = act(m2 m1, 1_g'') act(1_x, n2 n1)              by (c)
        = act(m2, 1_g'') act(m1, 1_g'') act(1_x, n2) act(1_x, n1)    by (a), (b)
        = act(m2, 1_g'') act(1_y, n2) act(m1, 1_g') act(1_x, n1)     by (c) twice
        = act(m2, n2) act(m1, n1)                                     by (c).
    """
    bad = []
    tg = Strict2Group(P.cm)
    G, H = P.cm.G, P.cm.H
    for o in P.objects:
        if P.act_obj(o, G.identity) != o:
            bad.append(f"identity object action moves {o}")
            return bad
    for m in P.morphisms:
        if P.act_mor(m, H.identity, G.identity) != m:
            bad.append(f"identity morphism action moves {m}")
            return bad
        for n in tg.morphisms():
            hbar, gbar = tg.decode(n)
            mm = P.act_mor(m, hbar, gbar)
            if P.source[mm] != P.act_obj(P.source[m], tg.source(n)) or \
                    P.target[mm] != P.act_obj(P.target[m], tg.target(n)):
                bad.append(f"action endpoint compatibility fails at ({m}, {n})")
                return bad
    for o in P.objects:
        for g in G.elements():
            if P.identity[P.act_obj(o, g)] != P.act_mor(P.identity[o], H.identity, g):
                bad.append(f"action does not preserve identities at {o}")
                return bad
    dec = [tg.decode(n) for n in tg.morphisms()]
    ids = [tg.identity(g) for g in G.elements()]
    ends = [(ids[tg.source(n)], ids[tg.target(n)]) for n in tg.morphisms()]
    comp_tg = [(n2, n1, tg.compose(n2, n1)) for n1 in tg.morphisms()
               for n2 in tg.morphisms() if tg.source(n2) == tg.target(n1)]

    def quadruples():
        """(m2, m1, n2, n1, n2 o n1) for the checks (a), (b) and (c)."""
        for (m2, m1) in P.compose:
            for e in ids:
                yield m2, m1, e, e, e
        for x in P.objects:
            e = P.identity[x]
            for (n2, n1, n21) in comp_tg:
                yield e, e, n2, n1, n21
        for m in P.morphisms:
            ex, ey = P.identity[P.source[m]], P.identity[P.target[m]]
            for n in tg.morphisms():
                e_source, e_target = ends[n]
                yield m, ex, e_target, n, n
                yield ey, m, n, e_source, n

    for (m2, m1, n2, n1, n21) in quadruples():
        lhs = P.act_mor(P.compose[(m2, m1)], *dec[n21])
        a2 = P.act_mor(m2, *dec[n2])
        a1 = P.act_mor(m1, *dec[n1])
        if P.compose[(a2, a1)] != lhs:
            bad.append(f"action functoriality fails at ({m2}, {m1}, {n2}, {n1})")
            return bad
    for s in P.complex.simplices_sorted():
        for i in s:
            fib = P.object_fiber(i, s)
            base = fib[0]
            orbit = {P.act_obj(base, g) for g in G.elements()}
            if len(orbit) != G.order or orbit != set(fib):
                bad.append(f"object action not free/transitive on fiber ({i}, {s})")
                return bad
            for j in s:
                mfib = P.morphism_fiber(i, j, s)
                mbase = mfib[0]
                morbit = {P.act_mor(mbase, h, g)
                          for h in H.elements() for g in G.elements()}
                if len(morbit) != H.order * G.order or morbit != set(mfib):
                    bad.append(f"morphism action not free/transitive on ({i},{j},{s})")
                    return bad
    return bad


# -- trivializations ---------------------------------------------------------------

@dataclass
class Trivialization:
    vertex: int
    chart: FiniteGroupoid          # star(i) x 2group
    restricted: FiniteGroupoid     # the bundle groupoid over star(i)
    phi: GroupoidFunctor           # restricted -> chart
    phibar: GroupoidFunctor        # chart -> restricted
    taubar: NaturalTransformation  # phibar o phi => identity


def chart_groupoid(K: SimplicialComplex, cm: CrossedModule, vertex: int) -> FiniteGroupoid:
    """The product of the star of a vertex with the structure 2-group."""
    G, H = cm.G, cm.H
    stars = K.star_simplices(vertex)
    objects = [(s, g) for s in stars for g in G.elements()]
    morphisms = [(s, h, g) for s in stars for h in H.elements() for g in G.elements()]
    source = {m: (m[0], m[2]) for m in morphisms}
    target = {m: (m[0], G.mul(cm.beta_of(m[1]), m[2])) for m in morphisms}
    identity = {o: (o[0], H.identity, o[1]) for o in objects}
    inverse = {m: (m[0], H.inv(m[1]), target[m][1]) for m in morphisms}
    compose = {}
    for m1 in morphisms:
        for h2 in H.elements():
            m2 = (m1[0], h2, target[m1][1])
            compose[(m2, m1)] = (m1[0], H.mul(h2, m1[1]), m1[2])
    return FiniteGroupoid(objects, morphisms, source, target, compose,
                          identity, inverse, name=f"U_{vertex} x 2group")


def restricted_groupoid(P: BundleGroupoid, vertex: int) -> FiniteGroupoid:
    objs = [o for o in P.objects if vertex in o[1]]
    mors = [m for m in P.morphisms if vertex in m[2]]
    keep = set(mors)
    comp = {k: v for k, v in P.compose.items() if k[0] in keep and k[1] in keep}
    return FiniteGroupoid(objs, mors, {m: P.source[m] for m in mors},
                          {m: P.target[m] for m in mors}, comp,
                          {o: P.identity[o] for o in objs},
                          {m: P.inverse[m] for m in mors},
                          name=f"P_z | star({vertex})")


def trivializations(P: BundleGroupoid, vertex: int) -> Trivialization:
    """The canonical chart data of the bundle groupoid P of z = P.z over the
    star of a vertex.

    P is used as given: pass a groupoid that has passed `check_axioms`, and
    build it once for all vertices.  phibar is the inclusion (sigma, g) ->
    (i, sigma, g); phi sends (j, sigma, g) to (sigma, g_ij * g) and
    (j, k, sigma, h, g) to (sigma, h_ijk * (g_ij . h), g_ij * g); phi o
    phibar is the identity on the nose, and taubar with components
    (j, sigma, g) -> (i, j, sigma, e, g_ij * g) is natural from phibar o phi
    to the identity.
    """
    z = P.z
    K, cm = z.complex, z.cm
    if not (0 <= vertex < K.vertex_count):
        raise VertexOutOfRange(vertex, K.vertex_count)
    i = vertex
    G, H = cm.G, cm.H
    chart = chart_groupoid(K, cm, i)
    restr = restricted_groupoid(P, i)
    phibar = GroupoidFunctor(
        chart, restr,
        {(s, g): (i, s, g) for (s, g) in chart.objects},
        {(s, h, g): (i, i, s, h, g) for (s, h, g) in chart.morphisms})
    phi_obj = {}
    phi_mor = {}
    for (j, s, g) in restr.objects:
        phi_obj[(j, s, g)] = (s, G.mul(z.g[(i, j)], g))
    for (j, k, s, h, g) in restr.morphisms:
        phi_mor[(j, k, s, h, g)] = (
            s, H.mul(z.h[(i, j, k)], cm.act(z.g[(i, j)], h)), G.mul(z.g[(i, j)], g))
    phi = GroupoidFunctor(restr, chart, phi_obj, phi_mor)
    comp = {(j, s, g): (i, j, s, H.identity, G.mul(z.g[(i, j)], g))
            for (j, s, g) in restr.objects}
    taubar = NaturalTransformation(phi.then(phibar), identity_functor(restr), comp)
    return Trivialization(i, chart, restr, phi, phibar, taubar)


def canonical_trivializations(P: BundleGroupoid) -> dict[int, Trivialization]:
    return {i: trivializations(P, i) for i in range(P.complex.vertex_count)}


def check_trivialization(z: Cocycle, triv: Trivialization) -> list[str]:
    """phi and phibar are functors, strictly equivariant, phi o phibar = id,
    and taubar is natural."""
    bad = triv.phi.check() + triv.phibar.check()
    if bad:
        return bad
    rt = triv.phibar.then(triv.phi)
    for o in triv.chart.objects:
        if rt.on_objects[o] != o:
            return [f"phi o phibar moves object {o}"]
    for m in triv.chart.morphisms:
        if rt.on_morphisms[m] != m:
            return [f"phi o phibar moves morphism {m}"]
    bad = triv.taubar.check()
    if bad:
        return bad
    cm = z.cm
    G, H = cm.G, cm.H
    P = triv.restricted
    for (j, s, g) in P.objects:
        for gbar in G.elements():
            lhs = triv.phi.on_objects[(j, s, G.mul(g, gbar))]
            o = triv.phi.on_objects[(j, s, g)]
            if lhs != (o[0], G.mul(o[1], gbar)):
                return [f"phi not equivariant at object (({j},{s},{g}), {gbar})"]
    for (s, g) in triv.chart.objects:
        for gbar in G.elements():
            lhs = triv.phibar.on_objects[(s, G.mul(g, gbar))]
            o = triv.phibar.on_objects[(s, g)]
            if lhs != (o[0], o[1], G.mul(o[2], gbar)):
                return [f"phibar not equivariant at object (({s},{g}), {gbar})"]
    for m in P.morphisms:
        for hbar in H.elements():
            for gbar in G.elements():
                i, j, s, h, g = m
                moved = (i, j, s, H.mul(h, cm.act(g, hbar)), G.mul(g, gbar))
                img = triv.phi.on_morphisms[m]
                s2, h2, g2 = img
                moved_img = (s2, H.mul(h2, cm.act(g2, hbar)), G.mul(g2, gbar))
                if triv.phi.on_morphisms[moved] != moved_img:
                    return [f"phi not equivariant at morphism ({m}, {hbar}, {gbar})"]
    return []


# -- extraction and reconstruction ---------------------------------------------

def extract_cocycle(P: BundleGroupoid, trivs: dict[int, Trivialization]) -> Cocycle:
    """Read the transition data back from a family of trivializations.

    g_ij is the group part of phi_i(phibar_j(sigma, e)); h_ijk is the H part
    of phi_i(taubar_j(phibar_k(sigma, e))).  Values must not depend on sigma
    (charts have connected overlaps) and the result must validate; with the
    canonical trivializations of a bundle groupoid the original cocycle is
    recovered exactly.
    """
    bad = check_action(P)
    if bad:
        raise ActionNotFreeTransitive(bad[0])
    return _read_transitions(P, trivs)


def _read_transitions(P: BundleGroupoid, trivs: dict[int, Trivialization]) -> Cocycle:
    """extract_cocycle without its action check, for a caller that has
    already run check_action on P."""
    K, cm = P.complex, P.cm
    eG = cm.G.identity
    g, h = {}, {}
    for (i, j) in valid_tuples(K, 2):
        vals = set()
        for s in K.simplices_sorted():
            if i in s and j in s:
                try:
                    o = trivs[j].phibar.on_objects[(s, eG)]
                    vals.add(trivs[i].phi.on_objects[o][1])
                except KeyError as exc:
                    raise TrivializationInvalid(f"missing chart data at {exc}")
        if len(vals) != 1:
            raise TrivializationInvalid(
                f"transition value on pair ({i}, {j}) depends on the fiber: {sorted(vals)}")
        g[(i, j)] = vals.pop()
    for (i, j, k) in valid_tuples(K, 3):
        vals = set()
        for s in K.simplices_sorted():
            if i in s and j in s and k in s:
                try:
                    o = trivs[k].phibar.on_objects[(s, eG)]
                    m = trivs[j].taubar.component[o]
                    vals.add(trivs[i].phi.on_morphisms[m][1])
                except KeyError as exc:
                    raise TrivializationInvalid(f"missing chart data at {exc}")
        if len(vals) != 1:
            raise TrivializationInvalid(
                f"triple value on ({i}, {j}, {k}) depends on the fiber: {sorted(vals)}")
        h[(i, j, k)] = vals.pop()
    try:
        return validate_cocycle(Cocycle(K, cm, g, h))
    except Exception as exc:
        raise TrivializationInvalid(f"extracted data is not a cocycle: {exc}")


def coboundary_to_bundle_morphism(z: Cocycle, c: Coboundary) -> GroupoidFunctor:
    """The bundle morphism P_z -> P_z' induced by a coboundary.

    Objects (i, sigma, g) map to (i, sigma, gamma_i^-1 * g) and morphisms
    (i, j, sigma, h, g) to (i, j, sigma, gamma_i^-1 . (eta_ij * h),
    gamma_i^-1 * g); the functor is strictly equivariant and preserves the
    fiber index sigma.  The H part is forced: the generator (i, j, sigma, e,
    e) must map to a morphism whose target matches the relocated chart
    object, which pins its H part to gamma_i^-1 . eta_ij, and every
    morphism is the generator acted on by (h, g).
    """
    z2 = apply_coboundary(z, c)
    P, P2 = build_total_groupoid(z), build_total_groupoid(z2)
    cm = z.cm
    G, H = cm.G, cm.H
    on_obj = {}
    for (i, s, g) in P.objects:
        on_obj[(i, s, g)] = (i, s, G.mul(G.inv(c.gamma[i]), g))
    on_mor = {}
    for (i, j, s, h, g) in P.morphisms:
        hh = cm.act(G.inv(c.gamma[i]), H.mul(c.eta[(i, j)], h))
        on_mor[(i, j, s, h, g)] = (i, j, s, hh, G.mul(G.inv(c.gamma[i]), g))
    F = GroupoidFunctor(P, P2, on_obj, on_mor)
    bad = F.check()
    assert not bad, f"induced bundle morphism is not a functor: {bad[0]}"
    return F


def reconstruction_morphism(P: BundleGroupoid,
                            trivs: dict[int, Trivialization]) -> GroupoidFunctor:
    """The comparison morphism from the bundle groupoid of the extracted
    cocycle back to P: objects (i, sigma, g) -> phibar_i(sigma, g), and the
    generator (i, j, sigma, e, e) maps to
    phibar_j(sigma, (h_jij, g_ji)) o taubar_j(phibar_i(sigma, e))^-1,
    extended equivariantly.  With canonical data this is the identity."""
    zhat = extract_cocycle(P, trivs)
    Pz = build_total_groupoid(zhat)
    cm = P.cm
    eG, eH = cm.G.identity, cm.H.identity
    on_obj = {}
    for (i, s, g) in Pz.objects:
        on_obj[(i, s, g)] = trivs[i].phibar.on_objects[(s, g)]
    base = {}
    for s in P.complex.simplices_sorted():
        for i in s:
            for j in s:
                o = trivs[i].phibar.on_objects[(s, eG)]
                back = P.inverse[trivs[j].taubar.component[o]]
                corr = trivs[j].phibar.on_morphisms[
                    (s, zhat.h[(j, i, j)], zhat.g[(j, i)])]
                base[(i, j, s)] = P.compose[(corr, back)]
    on_mor = {}
    for (i, j, s, h, g) in Pz.morphisms:
        on_mor[(i, j, s, h, g)] = P.act_mor(base[(i, j, s)], h, g)
    F = GroupoidFunctor(Pz, P, on_obj, on_mor)
    bad = F.check()
    assert not bad, f"reconstruction morphism is not a functor: {bad[0]}"
    assert F.is_faithful(), "reconstruction morphism is not faithful"
    return F


def is_weak_equivalence(F: GroupoidFunctor) -> tuple[bool, str]:
    """Essential surjectivity plus full faithfulness, checked exhaustively."""
    comp = F.codomain.components()
    hit = {comp[F.on_objects[x]] for x in F.domain.objects}
    for y in F.codomain.objects:
        if comp[y] not in hit:
            return False, f"object {y} is not isomorphic to any image object"
    for x in F.domain.objects:
        for y in F.domain.objects:
            dom_hom = F.domain.hom(x, y)
            cod_hom = F.codomain.hom(F.on_objects[x], F.on_objects[y])
            imgs = [F.on_morphisms[m] for m in dom_hom]
            if len(set(imgs)) != len(imgs):
                return False, f"not faithful on hom({x}, {y})"
            if len(imgs) != len(cod_hom):
                return False, f"not full on hom({x}, {y})"
    return True, ""


@dataclass
class MoritaSpan:
    left: GroupoidFunctor
    right: GroupoidFunctor


def morita_equivalent(z: Cocycle, z2: Cocycle,
                      budget: int = 10 ** 8) -> tuple[bool, MoritaSpan | None, Coboundary | None]:
    """Same-cover Morita test: positive exactly when the cocycles are
    cohomologous, in which case an explicit span of weak equivalences
    P_z <- P_z -> P_z2 is produced (identity and the coboundary morphism)."""
    from .cech import are_cohomologous
    w = are_cohomologous(z, z2, budget)
    if w is None:
        return False, None, None
    P = build_total_groupoid(z)
    left = identity_functor(P)
    right = coboundary_to_bundle_morphism(z, w)
    ok_l, _ = is_weak_equivalence(left)
    ok_r, _ = is_weak_equivalence(right)
    assert ok_l and ok_r, "span legs must be weak equivalences"
    return True, MoritaSpan(left, right), w


# -- band, central reduction, lifting -------------------------------------------

@dataclass
class Band:
    group: FiniteGroup
    projection: "GroupHom"
    values: dict

    def is_trivial_class(self) -> bool:
        return band_cohomologous_to(self, {p: self.group.identity for p in self.values})


def band(z: Cocycle) -> Band:
    """The ordinary 1-cocycle obtained by projecting g to G/beta(H)."""
    Kgrp, proj = quotient_by_image(z.cm)
    vals = {p: proj(z.g[p]) for p in valid_tuples(z.complex, 2)}
    for (i, j, k) in valid_tuples(z.complex, 3):
        assert Kgrp.mul(vals[(i, j)], vals[(j, k)]) == vals[(i, k)], \
            "band violates the 1-cocycle identity"
    return Band(Kgrp, proj, vals)


def band_cohomologous_to(b: Band, other: dict) -> bool:
    """Brute-force test for cohomology of two band cocycles (small quotients)."""
    grp = b.group
    verts = sorted({v for p in b.values for v in p})
    n = len(verts)
    for lam in itertools.product(grp.elements(), repeat=n):
        lam_of = dict(zip(verts, lam))
        if all(other[p] == grp.mul_many(grp.inv(lam_of[p[0]]), b.values[p], lam_of[p[1]])
               for p in b.values):
            return True
    return False


def section_of_beta(cm: CrossedModule) -> dict:
    """Minimal-index set-theoretic section of beta with s(e) = e."""
    if not cm.beta.is_surjective():
        raise BetaNotSurjective()
    sec = {}
    for g in cm.G.elements():
        sec[g] = min(h for h in cm.H.elements() if cm.beta_of(h) == g)
    sec[cm.G.identity] = cm.H.identity
    return sec


@dataclass
class CentralReduction:
    kernel: FiniteGroup
    inclusion: list[int]
    reduced: dict          # triple -> kernel index
    witness: Coboundary
    reduced_cocycle: Cocycle


def central_reduction(z: Cocycle) -> CentralReduction:
    """Reduce a cocycle with surjective beta to a kernel-valued abelian one.

    The coboundary (gamma = e, eta_ij = s(g_ij)^-1) for a section s kills
    the g part; the remaining h part lands in ker(beta) and satisfies the
    abelian quadruple identity.
    """
    cm, K = z.cm, z.complex
    A, inc = kernel_of_beta(cm)  # checks centrality when beta is surjective
    sec = section_of_beta(cm)
    from .cech import coboundary as make_coboundary
    eta = {p: cm.H.inv(sec[z.g[p]]) for p in valid_tuples(K, 2)}
    c = make_coboundary(K, cm, {v: cm.G.identity for v in range(K.vertex_count)}, eta)
    z2 = apply_coboundary(z, c)
    back = {hidx: a for a, hidx in enumerate(inc)}
    reduced = {}
    for t in valid_tuples(K, 3):
        assert z2.g[(t[0], t[1])] == cm.G.identity, "reduced transition is not trivial"
        if z2.h[t] not in back:
            raise AssertionError("reduced value escapes the kernel")
        reduced[t] = back[z2.h[t]]
    for (i, j, k, l) in valid_tuples(K, 4):
        lhs = A.mul(reduced[(i, k, l)], reduced[(i, j, k)])
        rhs = A.mul(reduced[(i, j, l)], reduced[(j, k, l)])
        assert lhs == rhs, "reduced cochain violates the abelian identity"
    return CentralReduction(A, inc, reduced, c, z2)


@dataclass
class LiftResult:
    obstruction: dict      # triple -> kernel index
    kernel: FiniteGroup
    exists: bool
    lift: dict | None      # pair -> H index


def validate_one_cocycle(K: SimplicialComplex, G: FiniteGroup, g: dict) -> dict:
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


def lifting_obstruction(K: SimplicialComplex, cm: CrossedModule, g: dict,
                        budget: int = 10 ** 7) -> LiftResult:
    """The kernel-valued obstruction to lifting a 1-cocycle through beta.

    a_ijk = s(g_ij) * s(g_jk) * s(g_ik)^-1 for a fixed section s; the lift
    exists exactly when the affine system 'h on edges with beta(h) = g and
    h a 1-cocycle' is solvable, i.e. when the class of a vanishes.  Cyclic
    kernels go through an exact modular linear solve; otherwise a pruned
    search runs over the kernel fibers.
    """
    G, H = cm.G, cm.H
    g = validate_one_cocycle(K, G, g)
    A, inc = kernel_of_beta(cm)
    back = {hidx: a for a, hidx in enumerate(inc)}
    sec = section_of_beta(cm)
    a = {}
    for (i, j, k) in valid_tuples(K, 3):
        v = H.mul_many(sec[g[(i, j)]], sec[g[(j, k)]], H.inv(sec[g[(i, k)]]))
        a[(i, j, k)] = back[v]

    lift = _solve_lift(K, cm, g, A, inc, sec, a, budget)
    if lift is not None:
        for (i, j, k) in valid_tuples(K, 3):
            assert H.mul(lift[(i, j)], lift[(j, k)]) == lift[(i, k)]
        for p in valid_tuples(K, 2):
            assert cm.beta_of(lift[p]) == g[p]
    return LiftResult(a, A, lift is not None, lift)


def _solve_lift(K, cm, g, A, inc, sec, a, budget):
    from .complexes import coboundary_matrix, normalized_tuples
    from .snf import solve_mod

    H = cm.H
    powers = cyclic_powers(A)
    if powers is not None and A.order > 1:
        # coordinates: A = <x>, exponent log
        log = {a: t for t, a in enumerate(powers)}
        pairs = normalized_tuples(K, 2)
        triples = normalized_tuples(K, 3)
        d1 = coboundary_matrix(K, 1)
        rhs = [(-log[a[t]]) % A.order for t in triples]
        sol = solve_mod(d1, rhs, A.order)
        if sol is None:
            return None
        lift = {}
        pair_pos = {p: i for i, p in enumerate(pairs)}
        for p in valid_tuples(K, 2):
            if p[0] == p[1]:
                lift[p] = H.identity
            else:
                bexp = sol[pair_pos[p]] % A.order
                lift[p] = H.mul(sec[g[p]], inc[powers[bexp]])
        return lift
    if A.order == 1:
        lift = {p: sec[g[p]] for p in valid_tuples(K, 2)}
        for (i, j, k) in valid_tuples(K, 3):
            if H.mul(lift[(i, j)], lift[(j, k)]) != lift[(i, k)]:
                return None
        return lift
    return _search_lift(K, cm, g, A, inc, sec, budget)


def _search_lift(K, cm, g, A, inc, sec, budget):
    """Pruned backtracking over undirected edges for non-cyclic kernels."""
    H = cm.H
    edges = sorted({tuple(sorted(p)) for p in valid_tuples(K, 2) if p[0] != p[1]})
    triangles = [t for t in valid_tuples(K, 3) if len(set(t)) == 3]
    lift = {p: H.identity for p in valid_tuples(K, 2) if p[0] == p[1]}
    bud = Budget(budget, A.order ** len(edges))

    def fiber(p):
        return [H.mul(sec[g[p]], inc[x]) for x in A.elements()]

    def consistent():
        for (i, j, k) in triangles:
            if (i, j) in lift and (j, k) in lift and (i, k) in lift:
                if H.mul(lift[(i, j)], lift[(j, k)]) != lift[(i, k)]:
                    return False
        return True

    def assign(idx):
        if idx == len(edges):
            return all(
                H.mul(lift[(i, j)], lift[(j, k)]) == lift[(i, k)]
                for (i, j, k) in valid_tuples(K, 3))
        i, j = edges[idx]
        for h in fiber((i, j)):
            bud.tick("lift", idx, len(edges))
            lift[(i, j)] = h
            lift[(j, i)] = H.inv(h)
            if consistent() and assign(idx + 1):
                return True
            del lift[(i, j)], lift[(j, i)]
        return False

    if assign(0):
        return dict(lift)
    return None


# -- the structure quotient -------------------------------------------------------

def quotient_by_structure_group(P: BundleGroupoid) -> FiniteGroupoid:
    """The groupoid of charts obtained by quotienting out the object group.

    The object group acts freely (verified) on objects and morphisms of the
    bundle groupoid; orbit representatives have group part e, and the
    structure maps descend.  Over a single vertex this is the one-object
    groupoid with automorphism group H.
    """
    cm = P.cm
    G, H = cm.G, cm.H
    for o in P.objects:
        seen = set()
        for gbar in G.elements():
            img = P.act_obj(o, gbar)
            if img in seen:
                raise ActionNotFree(f"object action has a repeat at {o}")
            seen.add(img)
    for m in P.morphisms:
        seen = set()
        for hbar in H.elements():
            for gbar in G.elements():
                img = P.act_mor(m, hbar, gbar)
                if img in seen:
                    raise ActionNotFree(f"morphism action has a repeat at {m}")
                seen.add(img)

    def obj_class(o):
        return (o[0], o[1])

    def mor_rep(m):
        # translate the group part to the identity
        i, j, s, h, g = m
        return P.act_mor(m, H.identity, G.inv(g))

    def mor_class(m):
        i, j, s, h, g = mor_rep(m)
        return (i, j, s, h)

    objects = sorted({obj_class(o) for o in P.objects})
    morphisms = sorted({mor_class(m) for m in P.morphisms})
    source, target, identity, inverse, compose = {}, {}, {}, {}, {}
    rep_of = {mor_class(m): mor_rep(m) for m in P.morphisms}
    for mc in morphisms:
        m = rep_of[mc]
        source[mc] = obj_class(P.source[m])
        target[mc] = obj_class(P.target[m])
        inverse[mc] = mor_class(P.inverse[m])
    for oc in objects:
        i, s = oc
        identity[oc] = mor_class(P.identity[(i, s, G.identity)])
    for m1c in morphisms:
        m1 = rep_of[m1c]
        t = P.target[m1]
        for m2c in morphisms:
            if source[m2c] != target[m1c]:
                continue
            m2 = rep_of[m2c]
            # translate m2 so that it composes with m1 on the nose
            m2t = P.act_mor(m2, H.identity, t[2])
            compose[(m2c, m1c)] = mor_class(P.compose[(m2t, m1)])
    Q = FiniteGroupoid(objects, morphisms, source, target, compose, identity,
                       inverse, name="P_z / G")
    bad = Q.check_axioms()
    assert not bad, f"quotient groupoid axiom failure: {bad[0]}"
    return Q
