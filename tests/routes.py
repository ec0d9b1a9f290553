"""Two tables of independent routes, each checked by `test_routes`.

`ROUTES` maps a route name to a function (K, cm) -> the class count, on the
cells `CELLS`; `GAUGE_ROUTES` to a function (z, name) -> the orders of the
gauge 2-group (GSTAR, HSTAR, PI0, PI1, as `cechmod gauge` prints them) that
it computes, on the cases `GAUGE_CASES`.  A route returns None where it does
not apply or is past its size guard; running out of its fixed budget reads as
None too.  Where two routes report a quantity they must agree; a new
classifier or gauge construction adds one row, and that row is its gate."""

import functools
import itertools
import math
import os
import random

from cechmod import (BundleGroupoid, Cocycle, abelian_cohomology_oracle,
                     ad_equivariant_functor_count, apply_coboundary, circle, classify,
                     coboundary, crossed_module, cyclic_group, gauge_crossed_module,
                     gauge_orders, kernel_of_beta, quotient_by_image, random_coboundary,
                     sample_cocycle, trivial_action, trivial_cocycle,
                     valid_tuples, validate_cocycle, validate_crossed_module)
from cechmod.algebra import abelian_invariants
from cechmod.catalog import CM_BUILDERS, COMPLEX_BUILDERS, _to_point, named_complex
from cechmod.cech import DEFAULT_BUDGET
from cechmod.complexes import differential
from cechmod.errors import SearchSpaceTooLarge, StrategyMismatch
from cechmod.io import parse_cm_file
from cechmod.snf import image_size_mod, kernel_size_mod

BRUTE_BUDGET = 200_000  # the benchmark's FRONTIER_BUDGET: visited nodes, not seconds
FULL_ENUMERATION_SIZE = 4096  # most g tuples, and h tuples per g, enumerated
GAUGE_BUDGET = 100_000  # visited nodes of the stabilizer search: full3 x z4_to_point needs 88,762
HSTAR_SIZE = 256  # most |H|^n, vertices n, for which the gauge crossed module is built
FUNCTOR_BUDGET = 2_500  # visited nodes of the functor search: circle x aut_z3 needs 2,204


def twisted():
    """T: H = Z4 -> G = Z4, h -> 2h, with g acting by h -> (-1)^g h.  Here
    pi0 = pi1 = Z2, pi0 acts trivially on pi1 and the k-invariant is nonzero."""
    Z4 = cyclic_group(4)
    return crossed_module(Z4, Z4, [2 * h % 4 for h in range(4)],
                          [[(-1) ** g * h % 4 for h in range(4)] for g in range(4)])


def untwisted():
    """T's twin with k = 0: Z4 -> Z4, h -> 2h, with the trivial action.  Its
    pi0, pi1 and action on pi1 are T's."""
    Z4 = cyclic_group(4)
    return crossed_module(Z4, Z4, [2 * h % 4 for h in range(4)], trivial_action(Z4, Z4).table)


CMS = {**CM_BUILDERS, "z5_to_point": lambda: _to_point(cyclic_group(5)),
       "z6_to_point": lambda: _to_point(cyclic_group(6)),
       "z2xz4_over_z2": lambda: parse_cm_file(os.path.join(
           os.path.dirname(__file__), "data", "z2xz4_over_z2.cm")),
       "twisted": twisted, "untwisted": untwisted}
# T and its twin are class cells on rp26 only, where k changes the count (3
# against 4): `full_enumeration` takes about 11 s on circle x T, and `brute`
# runs out of the default budget on torus7 after 89-98 s
KINVARIANT_CELLS = ["rp26-twisted", "rp26-untwisted"]
CELLS = [f"{k}-{c}" for k in COMPLEX_BUILDERS for c in CMS
         if c not in ("twisted", "untwisted")] + KINVARIANT_CELLS


def brute(K, cmx):
    # the k-invariant cells need more than BRUTE_BUDGET; at DEFAULT_BUDGET
    # each finishes in about 1 s
    big = any((K, cmx) == case(name) for name in KINVARIANT_CELLS)
    try:
        return classify(K, cmx, "brute", DEFAULT_BUDGET if big else BRUTE_BUDGET).count
    except SearchSpaceTooLarge:
        return None


def abelian(K, cmx):
    try:
        result = classify(K, cmx, "abelian")
    except StrategyMismatch:
        return None
    # the count factors the oriented differentials; the normalized ones give the same quotient
    n = cmx.H.order
    assert result.count == len(result.representatives) == \
        kernel_size_mod(differential(K, 2), n) // image_size_mod(differential(K, 1), n)
    return result.count


def smith(K, cmx):
    """The count from the 2-type of beta: H -> G: pi0 = G / beta(H), pi1 =
    ker beta (central, so abelian), the action of pi0 on pi1 and a k-invariant
    in H^3(pi0; pi1) determine the classifying space up to homotopy (Mac Lane
    & Whitehead, PNAS 36, 1950), hence the classes [K, B(cm)] (Brown &
    Higgins, Math. Proc. Camb. Phil. Soc. 110, 1991).  With pi0 = 1 they are
    H^2(K; pi1); with pi1 = 1 and pi0 abelian, H^1(K; pi0).  Each is the
    oracle's product over the invariant factors."""
    pi0, pi1 = quotient_by_image(cmx)[0], kernel_of_beta(cmx)[0]
    if pi0.order == 1:
        group, degree = pi1, 2
    elif pi1.order == 1 and pi0.is_abelian():
        group, degree = pi0, 1
    else:
        return None
    return math.prod(abelian_cohomology_oracle(K, n, degree) for n in abelian_invariants(group)[0])


def _independent_degree_one_classes(G):
    """Holonomy-conjugacy oracle: enumerate flat transition data on the three
    circle edges and partition by the vertex coboundary action directly."""
    edges = [(0, 1), (1, 2), (0, 2)]
    reps = set()
    for z in itertools.product(G.elements(), repeat=3):
        orbit = set()
        for gam in itertools.product(G.elements(), repeat=3):
            orbit.add(tuple(G.mul_many(G.inv(gam[i]), z[n], gam[j])
                            for n, (i, j) in enumerate(edges)))
        reps.add(min(orbit))
    return len(reps)


def degree_one(K, cmx):
    """On a 1-dimensional K the classes are the flat pi0-bundles: the fiber
    of B(cm) -> B(pi0) is 1-connected, so the obstructions to lifting a map
    or a homotopy lie in H^n(K; -) for n >= 2, which vanish."""
    if K == circle():
        return _independent_degree_one_classes(quotient_by_image(cmx)[0])


def full_enumeration(K, cmx):
    """Independent classification: enumerate every valid cocycle by raw
    product filtering and partition under single-vertex/single-pair
    coboundary generators through the public action.  Runs where the g
    tuples, and the h tuples per g, number at most FULL_ENUMERATION_SIZE."""
    pairs, triples = valid_tuples(K, 2), valid_tuples(K, 3)
    dpairs = [p for p in pairs if p[0] != p[1]]
    free3 = [t for t in triples if not (t[0] == t[1] or t[1] == t[2])]
    G, H = cmx.G, cmx.H
    if max(G.order ** len(dpairs), H.order ** len(free3)) > FULL_ENUMERATION_SIZE:
        return None
    all_z = []
    for gvals in itertools.product(G.elements(), repeat=len(dpairs)):
        g = dict.fromkeys(pairs, G.identity) | dict(zip(dpairs, gvals))
        fibers = []
        for (i, j, k) in free3:
            need = G.mul(g[(i, k)], G.inv(G.mul(g[(i, j)], g[(j, k)])))
            fib = [h for h in H.elements() if cmx.beta_of(h) == need]
            if not fib:
                break
            fibers.append(fib)
        else:
            for hvals in itertools.product(*fibers):
                h = dict.fromkeys(triples, H.identity) | dict(zip(free3, hvals))
                if all(H.mul(h[(i, k, l)], h[(i, j, k)]) ==
                       H.mul(h[(i, j, l)], cmx.act(g[(i, j)], h[(j, k, l)]))
                       for (i, j, k, l) in valid_tuples(K, 4)):
                    all_z.append(validate_cocycle(Cocycle(K, cmx, dict(g), h)))
    index = {z.key(): i for i, z in enumerate(all_z)}
    parent = list(range(len(all_z)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gamma, eta = dict.fromkeys(range(K.vertex_count), G.identity), dict.fromkeys(pairs, H.identity)
    gens = [coboundary(K, cmx, {**gamma, v: val}, eta)
            for v in range(K.vertex_count) for val in G.elements() if val != G.identity]
    gens += [coboundary(K, cmx, gamma, {**eta, p0: hv})
             for p0 in dpairs for hv in H.elements() if hv != H.identity]
    for i, z in enumerate(all_z):
        for c in gens:
            ri, rj = find(i), find(index[apply_coboundary(z, c).key()])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return len({find(i) for i in range(len(all_z))})


ROUTES = {"brute": brute, "abelian": abelian, "smith": smith,
          "full_enumeration": full_enumeration, "degree_one": degree_one}


# -- the gauge routes ---------------------------------------------------------------

# the cells with a trivial and a moved case: every cell on the complexes of at
# most four vertices with |H|^n at most HSTAR_SIZE, and a few rp26 and torus7
# cells.  The largest (conj_s3 on circle and full2, |H|^n = 216, and the z4
# kernels on full3 and boundary3, 256) build the gauge 2-group of the trivial
# cocycle in 0.07-0.3 s; conj_s3 on full3 and boundary3 (1296) and most of
# rp26 and torus7 take seconds or more
GAUGE_CELLS = [(k, c) for k in ("point", "full1", "full2", "circle") for c in CM_BUILDERS] + \
    [(k, c) for k in ("full3", "boundary3") for c in CM_BUILDERS if c != "conj_s3"] + \
    [("torus7", c) for c in ("star_to_z2", "star_to_z3", "star_to_s3")] + \
    [("rp26", c) for c in ("z2_trivial", "star_to_z2", "star_to_z3", "star_to_s3")]
# trivial: the trivial cocycle; moved: the trivial cocycle moved by a seeded
# coboundary, an isomorphic bundle; sample: a seeded `sample_cocycle`
GAUGE_CASES = [f"{k}-{c}-{kind}" for k, c in GAUGE_CELLS for kind in ("trivial", "moved")] + \
    ["circle-twisted-trivial"] + \
    [f"circle-{c}-sample" for c in ("z2_trivial", "z4_over_z2", "conj_s3", "aut_z3")]
# the functor search builds a whole functor of P at each leaf, 0.1-0.9 s a
# case on the circle's larger modules, so past full1 it runs on these cases
FUNCTOR_CASES = [f"circle-{c}-{kind}" for c in ("z2_trivial", "conj_s3", "aut_z3")
                 for kind in ("trivial", "sample")]


@functools.lru_cache(maxsize=None)
def case(name):
    """The arguments of a route: (K, cm) for a class cell K-cm, and (z, name)
    for a gauge case K-cm-kind, its cocycle drawn with the name as seed."""
    kname, cmname, *kind = name.split("-")
    K, cmx = named_complex(kname), CMS[cmname]()
    if not kind:
        return K, cmx
    rng = random.Random(name)
    z = sample_cocycle(K, cmx, rng) if kind == ["sample"] else trivial_cocycle(K, cmx)
    if kind == ["moved"]:
        z = apply_coboundary(z, random_coboundary(K, cmx, rng))
    return z, name


@functools.lru_cache(maxsize=None)
def gauge_cm(name):
    """The gauge crossed module of a gauge case, shared by its row and tests."""
    return gauge_crossed_module(case(name)[0], GAUGE_BUDGET)


def crossed_module_orders(z, name):
    """All four orders of the crossed module with its Cayley tables, where
    |H|^n is at most HSTAR_SIZE."""
    if z.cm.H.order ** z.complex.vertex_count > HSTAR_SIZE:
        return None
    try:
        gcm = gauge_cm(name)
    except SearchSpaceTooLarge:
        return None
    validate_crossed_module(gcm.cm.G, gcm.cm.H, gcm.cm.beta, gcm.cm.alpha)
    gstar, hstar, pi0, pi1 = gcm.cm.G.order, gcm.cm.H.order, gcm.pi0.order, gcm.pi1.order
    # pi0 is a quotient of Gstar and pi1 a subgroup of Hstar, and the orders of
    # the exact sequence pi1 -> Hstar -> Gstar -> pi0 multiply out
    assert gstar % pi0 == 0 and hstar % pi1 == 0 and gstar * pi1 == pi0 * hstar
    return {"GSTAR": gstar, "HSTAR": hstar, "PI0": pi0, "PI1": pi1}


def orders(z, name):
    """All four orders as `cechmod gauge` reports them, from the stabilizer
    and the twisted H^0, with no Cayley table (`gauge_orders`)."""
    try:
        got = gauge_orders(z, GAUGE_BUDGET)
    except SearchSpaceTooLarge:
        return None
    return {"GSTAR": got.gstar, "HSTAR": got.hstar, "PI0": got.pi0, "PI1": got.pi1}


def functors(z, name):
    if z.complex.vertex_count <= 2 or name in FUNCTOR_CASES:
        try:
            return {"GSTAR": ad_equivariant_functor_count(z, FUNCTOR_BUDGET)}
        except SearchSpaceTooLarge:
            return None


def mapping(z, name):
    """(HSTAR, PI0, PI1) that the trivial bundle's gauge 2-group must have,
    on the trivial cocycle and on a moved one, an isomorphic bundle.

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
    construction; every catalog kernel is cyclic.  HSTAR = |H|^n, as Hstar
    is the group of vertex-indexed H-tuples.
    """
    K, cmx = z.complex, z.cm
    if name.endswith("sample") or abelian_cohomology_oracle(K, 2, 0) != 2:  # K is connected
        return None
    kernel, _ = kernel_of_beta(cmx)
    assert len(abelian_invariants(kernel)[0]) <= 1
    coker = cmx.G.order // len(set(cmx.beta.image))
    h1 = abelian_cohomology_oracle(K, kernel.order, 1) if kernel.order > 1 else 1
    return {"HSTAR": cmx.H.order ** K.vertex_count, "PI0": coker * h1, "PI1": kernel.order}


def twisted_h0(z, name):
    """PI1 as |H^0(K; ker beta)| twisted by the band: the tuples t in
    (ker beta)^n with t_i = g_ij . t_j on every valid pair, counted directly."""
    K, cmx = z.complex, z.cm
    kernel = cmx.beta.kernel_indices()
    return {"PI1": sum(all(t[i] == cmx.act(z.g[(i, j)], t[j]) for (i, j) in valid_tuples(K, 2))
                       for t in itertools.product(kernel, repeat=K.vertex_count))}


def transformations(z, name):
    """PI1 as the equivariant natural automorphisms of the identity functor
    of the bundle groupoid P, read through P's composition table.

    Such a transformation is locally constant, so it is one t_i in H per
    vertex, with the component (i, i, sigma, t_i, g) at each object
    (i, sigma, g); that component is equivariant by the form of `act_mor`.
    It is kept when every component is a loop and naturality holds on every
    morphism m of P: tau(target m) o m = m o tau(source m).  The morphism
    (i, i, sigma, t_i, g) runs to (i, sigma, beta(t_i) g), so a loop forces
    beta(t_i) = e.  At m = (i, j, sigma, h, g), with h_ijj = h_iij = e,
    naturality reads (g_ij . t_j) h = h t_i, that is t_i = g_ij . t_j, as
    ker beta is central.  So the count is the twisted H^0 that
    `gauge_crossed_module` gives as ker betastar, here checked on the
    2-morphisms of the bundle rather than on the crossed module.
    """
    P = BundleGroupoid(z)  # its tables are read, not checked: `test_bundle` checks them
    H, n = z.cm.H, z.complex.vertex_count
    over = [[o for o in P.objects if o[0] == i] for i in range(n)]
    loops = [[t for t in H.elements() if all(P.target[(i, i, o[1], t, o[2])] == o for o in over[i])]
             for i in range(n)]

    def natural(t):
        tau = {o: (o[0], o[0], o[1], t[o[0]], o[2]) for o in P.objects}
        return all(P.compose[(tau[P.target[m]], m)] == P.compose[(m, tau[P.source[m]])]
                   for m in P.morphisms)

    return {"PI1": sum(map(natural, itertools.product(*loops)))}


GAUGE_ROUTES = {"crossed_module": crossed_module_orders, "orders": orders, "functors": functors,
                "mapping": mapping, "twisted_h0": twisted_h0, "transformations": transformations}


@functools.lru_cache(maxsize=None)
def _run(route, name):
    return route(*case(name))


def finished(name, routes=None):
    """The results of the routes that finish on the cell or case, by route
    name; the routes are those of its table unless `routes` is given."""
    routes = routes or (GAUGE_ROUTES if name.count("-") == 2 else ROUTES)
    return {r: c for r, fn in routes.items() if (c := _run(fn, name)) is not None}


def quantities(result):
    """A gauge route's orders by name, or a class route's count as `count`."""
    return result if isinstance(result, dict) else {"count": result}


def reported(name, routes=None):
    """The values the finishing routes give for each quantity they report."""
    values = {}
    for result in finished(name, routes).values():
        for quantity, value in quantities(result).items():
            values.setdefault(quantity, set()).add(value)
    return values


def disagreements(routes=None, names=CELLS):
    """The cells or cases on which two finishing routes report different values
    of one quantity."""
    return [name for name in names if any(len(v) > 1 for v in reported(name, routes).values())]
