"""The class-count routes.  `ROUTES` maps a route name to a count function
(K, cm) -> the class count, or None where the route does not apply or runs out
of its fixed budget.  Where two routes finish they must agree (`test_routes`);
a new classifier adds one row, and that row is its count gate."""

import functools
import itertools
import math
import os

from cechmod import (Cocycle, abelian_cohomology_oracle, apply_coboundary, circle, classify,
                     coboundary, cyclic_group, kernel_of_beta, quotient_by_image, valid_tuples,
                     validate_cocycle)
from cechmod.algebra import abelian_invariants
from cechmod.catalog import CM_BUILDERS, COMPLEX_BUILDERS, _to_point, named_complex
from cechmod.complexes import differential
from cechmod.errors import SearchSpaceTooLarge, StrategyMismatch
from cechmod.io import parse_cm_file
from cechmod.snf import image_size_mod, kernel_size_mod

BRUTE_BUDGET = 200_000  # the benchmark's FRONTIER_BUDGET: visited nodes, not seconds
FULL_ENUMERATION_SIZE = 4096  # most g tuples, and h tuples per g, enumerated
CMS = {**CM_BUILDERS, "z5_to_point": lambda: _to_point(cyclic_group(5)),
       "z6_to_point": lambda: _to_point(cyclic_group(6)),
       "z2xz4_over_z2": lambda: parse_cm_file(os.path.join(
           os.path.dirname(__file__), "data", "z2xz4_over_z2.cm"))}
CELLS = [f"{k}-{c}" for k in COMPLEX_BUILDERS for c in CMS]


@functools.lru_cache(maxsize=None)
def cell(name):
    kname, cmname = name.split("-")
    return named_complex(kname), CMS[cmname]()


def brute(K, cmx):
    try:
        return classify(K, cmx, "brute", BRUTE_BUDGET).count
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


@functools.lru_cache(maxsize=None)
def _run(route, name):
    return route(*cell(name))


def finished(name, routes=ROUTES):
    """The counts of the routes that finish on the cell, by route name."""
    return {r: c for r, fn in routes.items() if (c := _run(fn, name)) is not None}


def disagreements(routes=ROUTES):
    """The cells on which two finishing routes give different counts."""
    return [name for name in CELLS if len(set(finished(name, routes).values())) > 1]
