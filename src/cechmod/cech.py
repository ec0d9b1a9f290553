"""Nonabelian Cech cocycles with crossed-module coefficients, and their classification.

A cocycle over a complex K assigns g_ij in G to every valid ordered pair and
h_ijk in H to every valid ordered triple, subject to

    beta(h_ijk) * g_ij * g_jk = g_ik                  (pair/triple identity)
    h_ikl * h_ijk = h_ijl * (g_ij . h_jkl)            (quadruple identity)

with the normalization g_ii = e and h_ijk = e whenever the first two or the
last two indices coincide.  Note that g_ji is stored independently of g_ij:
the normalization does not force g_ij * g_ji = e, only that the product lies
in beta(H).  A coboundary (gamma_i, eta_ij) acts by

    g'_ij  = gamma_i^-1 * beta(eta_ij) * g_ij * gamma_j
    h'_ijk = gamma_i^-1 . ( eta_ik * h_ijk * (g_ij . eta_jk)^-1 * eta_ij^-1 )

and cohomology classes are the orbits of this action (over a fixed complex;
refinements of the cover are out of scope).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import CrossedModule, cyclic_powers
from .complexes import SimplicialComplex, is_degenerate, valid_tuples
from .errors import (
    Cocyc1Failure,
    Cocyc2Failure,
    MissingEntry,
    NormalizationFailure,
    ResultNotCocycle,
    SearchSpaceTooLarge,
    SemanticError,
    StrategyMismatch,
)

DEFAULT_BUDGET = 10 ** 8


@dataclass(frozen=True)
class Cocycle:
    complex: SimplicialComplex
    cm: CrossedModule
    g: dict
    h: dict

    def key(self) -> tuple:
        """Canonical encoding: values in the fixed lexicographic tuple order."""
        gs = tuple(self.g[p] for p in valid_tuples(self.complex, 2))
        hs = tuple(self.h[t] for t in valid_tuples(self.complex, 3))
        return gs + hs

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cocycle) and self.complex == other.complex
                and self.cm == other.cm and self.g == other.g and self.h == other.h)

    def __hash__(self) -> int:
        return hash(self.key())


@dataclass(frozen=True)
class Coboundary:
    complex: SimplicialComplex
    cm: CrossedModule
    gamma: dict
    eta: dict

    def key(self) -> tuple:
        gs = tuple(self.gamma[v] for v in range(self.complex.vertex_count))
        es = tuple(self.eta[p] for p in valid_tuples(self.complex, 2))
        return gs + es

    def __eq__(self, other) -> bool:
        return (isinstance(other, Coboundary) and self.complex == other.complex
                and self.cm == other.cm and self.gamma == other.gamma
                and self.eta == other.eta)

    def __hash__(self) -> int:
        return hash(self.key())


def coboundary(K: SimplicialComplex, cm: CrossedModule, gamma: dict,
               eta: dict) -> Coboundary:
    """Well-formedness: total gamma, total eta on valid pairs, eta_ii = e,
    every value in range and no value off the complex."""
    eH = cm.H.identity
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
            if not (0 <= eta[p] < cm.H.order):
                raise SemanticError(f"eta{p} out of range")
            full_eta[p] = eta[p]
    full_gamma = {}
    for v in range(K.vertex_count):
        if v not in gamma:
            raise MissingEntry((v,))
        if not (0 <= gamma[v] < cm.G.order):
            raise SemanticError(f"gamma({v}) out of range")
        full_gamma[v] = gamma[v]
    return Coboundary(K, cm, full_gamma, full_eta)


def identity_coboundary(K: SimplicialComplex, cm: CrossedModule) -> Coboundary:
    return coboundary(K, cm, {v: cm.G.identity for v in range(K.vertex_count)},
                      {p: cm.H.identity for p in valid_tuples(K, 2)})


def validate_cocycle(z: Cocycle) -> Cocycle:
    """Exhaustive check of totality, normalization and both cocycle identities.

    Diagnostics name the first failing tuple in lexicographic order.
    """
    K, cm = z.complex, z.cm
    G, H = cm.G, cm.H
    pairs = valid_tuples(K, 2)
    triples = valid_tuples(K, 3)
    quads = valid_tuples(K, 4)
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
    for (i, j, k) in triples:
        lhs = G.mul_many(cm.beta_of(z.h[(i, j, k)]), z.g[(i, j)], z.g[(j, k)])
        if lhs != z.g[(i, k)]:
            raise Cocyc1Failure(i, j, k)
    for (i, j, k, l) in quads:
        lhs = H.mul(z.h[(i, k, l)], z.h[(i, j, k)])
        rhs = H.mul(z.h[(i, j, l)], cm.act(z.g[(i, j)], z.h[(j, k, l)]))
        if lhs != rhs:
            raise Cocyc2Failure(i, j, k, l)
    return z


def cocycle(K: SimplicialComplex, cm: CrossedModule, g: dict, h: dict) -> Cocycle:
    """Fill omitted entries with identities, then validate."""
    eG, eH = cm.G.identity, cm.H.identity
    gg = dict(g)
    hh = dict(h)
    for p in valid_tuples(K, 2):
        gg.setdefault(p, eG)
    for t in valid_tuples(K, 3):
        hh.setdefault(t, eH)
    return validate_cocycle(Cocycle(K, cm, gg, hh))


def trivial_cocycle(K: SimplicialComplex, cm: CrossedModule) -> Cocycle:
    g = {p: cm.G.identity for p in valid_tuples(K, 2)}
    h = {t: cm.H.identity for t in valid_tuples(K, 3)}
    return validate_cocycle(Cocycle(K, cm, g, h))


def apply_coboundary(z: Cocycle, c: Coboundary) -> Cocycle:
    """Act on a cocycle; the result is re-validated before being returned."""
    K, cm = z.complex, z.cm
    if c.complex != K or c.cm != cm:
        raise SemanticError("coboundary lives over a different complex or crossed module")
    G, H = cm.G, cm.H
    g2 = {}
    for (i, j) in valid_tuples(K, 2):
        g2[(i, j)] = G.mul_many(G.inv(c.gamma[i]), cm.beta_of(c.eta[(i, j)]),
                                z.g[(i, j)], c.gamma[j])
    h2 = {}
    for (i, j, k) in valid_tuples(K, 3):
        inner = H.mul_many(
            c.eta[(i, k)],
            z.h[(i, j, k)],
            H.inv(cm.act(z.g[(i, j)], c.eta[(j, k)])),
            H.inv(c.eta[(i, j)]),
        )
        h2[(i, j, k)] = cm.act(G.inv(c.gamma[i]), inner)
    try:
        return validate_cocycle(Cocycle(K, cm, g2, h2))
    except Exception as exc:  # indicates an implementation fault; never silent
        raise ResultNotCocycle(exc)


def compose_coboundaries(c: Coboundary, c2: Coboundary) -> Coboundary:
    """The coboundary acting like `c` followed by `c2`.

    gamma''_i = gamma_i * gamma'_i and eta''_ij = (gamma_i . eta'_ij) * eta_ij;
    this is the unique law making sequential application functorial, and it
    is property-tested against its defining contract rather than assumed.
    """
    K, cm = c.complex, c.cm
    G, H = cm.G, cm.H
    gamma = {v: G.mul(c.gamma[v], c2.gamma[v]) for v in range(K.vertex_count)}
    eta = {p: H.mul(cm.act(c.gamma[p[0]], c2.eta[p]), c.eta[p])
           for p in valid_tuples(K, 2)}
    return Coboundary(K, cm, gamma, eta)


def inverse_coboundary(c: Coboundary) -> Coboundary:
    K, cm = c.complex, c.cm
    G, H = cm.G, cm.H
    gamma = {v: G.inv(c.gamma[v]) for v in range(K.vertex_count)}
    eta = {p: cm.act(G.inv(c.gamma[p[0]]), H.inv(c.eta[p]))
           for p in valid_tuples(K, 2)}
    return Coboundary(K, cm, gamma, eta)


# -- shared search context -------------------------------------------------------

class _Context:
    """Precomputed tuple orders, beta fibers and constraint schedules for (K, cm).

    Every search and move works on one packed encoding: g (and eta) as a
    list over `distinct_pairs`, h as a list over `free_triples`, both in
    lexicographic order.  Everything below indexes into it by position.
    Position -1 reads a trailing identity slot at the end of a working
    vector; that slot stands for every diagonal pair and every degenerate
    triple, whose values the normalization fixes at e.

    - `triple_idx[t]` = (ij, jk, ik, i): the pair positions of free triple t
      and its first vertex (ij and jk are never diagonal).
    - `triples_at_pair[p]`: the free triples whose last pair is p, checkable
      once g is set up to p.
    - `quads_at_triple[t]`: for each quadruple (i, j, k, l) whose last free
      face is t, the positions (ikl, ijk, ijl, jkl, ij).  Quadruples with
      every face degenerate hold for any g and are left out.
    - `pairs_at_vertex[v]`, `triples_at_vertex[v]`: the distinct pairs and
      free triples whose largest vertex is v, for the coboundary search.
    """

    def __init__(self, K: SimplicialComplex, cm: CrossedModule):
        self.K, self.cm = K, cm
        G, H = cm.G, cm.H
        self.pairs = valid_tuples(K, 2)
        self.triples = valid_tuples(K, 3)
        self.distinct_pairs = [p for p in self.pairs if p[0] != p[1]]
        self.free_triples = [t for t in self.triples if not is_degenerate(t)]
        # beta fibers, each sorted ascending
        self.fiber = {g: [] for g in G.elements()}
        for h in H.elements():
            self.fiber[cm.beta_of(h)].append(h)
        self.kernel = self.fiber[G.identity]
        # transversal of left cosets beta(H)*g, minimal representative first
        img = sorted(set(cm.beta.image))
        self.coset_rep = {}
        for g in G.elements():
            self.coset_rep[g] = min(G.mul(b, g) for b in img)
        self.transversal = sorted(set(self.coset_rep.values()))
        # positions in the packed encoding; -1 is the identity slot
        pos = {t: -1 for t in self.pairs + self.triples}
        pos.update((p, n) for n, p in enumerate(self.distinct_pairs))
        pos.update((t, n) for n, t in enumerate(self.free_triples))
        self.triple_idx = [(pos[(i, j)], pos[(j, k)], pos[(i, k)], i)
                           for (i, j, k) in self.free_triples]
        self.triples_at_pair = [[] for _ in self.distinct_pairs]
        for t, (ij, jk, ik, _) in enumerate(self.triple_idx):
            self.triples_at_pair[max(ij, jk, ik)].append(t)
        self.quads_at_triple = [[] for _ in self.free_triples]
        for (i, j, k, l) in valid_tuples(K, 4):
            faces = (pos[(i, k, l)], pos[(i, j, k)], pos[(i, j, l)], pos[(j, k, l)])
            if max(faces) >= 0:
                self.quads_at_triple[max(faces)].append(faces + (pos[(i, j)],))
        n = K.vertex_count
        self.pairs_at_vertex = [[] for _ in range(n)]
        for p, pair in enumerate(self.distinct_pairs):
            self.pairs_at_vertex[max(pair)].append(p)
        self.triples_at_vertex = [[] for _ in range(n)]
        for t, triple in enumerate(self.free_triples):
            self.triples_at_vertex[max(triple)].append(t)
        # a slice leaf is one bytes object: the g digits, then the h digits,
        # each high byte first at one fixed width, so that bytes compare as
        # the digit tuples do
        self.digit = "B" if max(G.order, H.order) <= 256 else "H"
        self.swap = array(self.digit).itemsize > 1 and sys.byteorder == "little"

    def encode(self, digits: Sequence[int]) -> bytes:
        packed = array(self.digit, digits)
        if self.swap:
            packed.byteswap()
        return packed.tobytes()

    def decode(self, leaf: bytes) -> array:
        digits = array(self.digit, leaf)
        if self.swap:
            digits.byteswap()
        return digits

    def pair_beta(self, gi: int, g2: int, gj: int, g: int) -> int:
        """The beta(eta_ij) that carries g_ij = g to g'_ij = g2 when gamma_i = gi
        and gamma_j = gj, namely gi * g2 * gj^-1 * g^-1."""
        gmul, ginv = self.cm.G.mul_table, self.cm.G.inv_table
        return gmul[gmul[gmul[gi][g2]][ginv[gj]]][ginv[g]]

    def estimate(self) -> int:
        return (self.cm.G.order ** len(self.distinct_pairs)
                * max(1, len(self.kernel)) ** len(self.free_triples))


class Budget:
    """The node counter every backtracking search charges.

    Each tick names the search phase and the level being assigned (0-based,
    out of `levels`), so exceeding the limit raises SearchSpaceTooLarge
    saying where the search stood; the message is built only then.
    """

    def __init__(self, limit: int, estimate: int):
        self.limit, self.estimate, self.visited = limit, estimate, 0

    def tick(self, phase: str, level: int, levels: int):
        self.visited += 1
        if self.visited > self.limit:
            raise SearchSpaceTooLarge(self.estimate, self.limit, phase, level + 1, levels)


# -- coboundary search (cohomology testing, stabilizers) --------------------------

def _coboundary_search(z: Cocycle, z2: Cocycle, budget: int,
                       find_all: bool) -> Iterator[Coboundary]:
    """Yield coboundaries c with apply_coboundary(z, c) == z2.

    Backtracking over vertex values with per-pair fiber pruning (the pair
    equation determines beta(eta_ij)) and per-triple checks.  Diagonal
    pairs and degenerate triples are fixed at e and never visited.
    """
    K, cm = z.complex, z.cm
    G = cm.G
    ctx = _Context(K, cm)
    n = K.vertex_count
    bud = Budget(budget, G.order ** n * max(1, len(ctx.kernel)) ** len(ctx.distinct_pairs))
    zg, zh = _pack(ctx, z)
    z2g, z2h = _pack(ctx, z2)
    want = [[z2h[t] for t in ts] for ts in ctx.triples_at_vertex]
    gamma = [G.identity] * n
    eta = [cm.H.identity] * (len(ctx.distinct_pairs) + 1)
    # vertex by vertex, the search assigns gamma_v and then eta on the pairs
    # at v; first_level[v] is the level of gamma_v
    levels = n + len(ctx.distinct_pairs)
    first_level = [v + sum(map(len, ctx.pairs_at_vertex[:v])) for v in range(n)]

    def assign_pairs(v: int, idx: int) -> Iterator[Coboundary]:
        pairs = ctx.pairs_at_vertex[v]
        if idx == len(pairs):
            if _act_triples(ctx, zg, zh, gamma, eta, ctx.triples_at_vertex[v]) == want[v]:
                yield from assign_vertex(v + 1)
            return
        p = pairs[idx]
        i, j = ctx.distinct_pairs[p]
        for cand in ctx.fiber[ctx.pair_beta(gamma[i], z2g[p], gamma[j], zg[p])]:
            bud.tick("coboundary search", first_level[v] + 1 + idx, levels)
            eta[p] = cand
            yield from assign_pairs(v, idx + 1)

    def assign_vertex(v: int) -> Iterator[Coboundary]:
        if v == n:
            yield coboundary(K, cm, dict(enumerate(gamma)),
                             dict(zip(ctx.distinct_pairs, eta)))
            return
        for val in G.elements():
            bud.tick("coboundary search", first_level[v], levels)
            gamma[v] = val
            yield from assign_pairs(v, 0)

    for c in assign_vertex(0):
        yield c
        if not find_all:
            return


def are_cohomologous(z: Cocycle, z2: Cocycle,
                     budget: int = DEFAULT_BUDGET) -> Coboundary | None:
    """A witness coboundary carrying z to z2, or None (a definitive negative)."""
    if z.complex != z2.complex or z.cm != z2.cm:
        raise SemanticError("cocycles live over different complexes or crossed modules")
    for c in _coboundary_search(z, z2, budget, find_all=False):
        assert apply_coboundary(z, c) == z2  # witness is verified before return
        return c
    return None


def stabilizer(z: Cocycle, budget: int = DEFAULT_BUDGET) -> list[Coboundary]:
    """All coboundaries fixing z; verified to be closed under composition."""
    out = list(_coboundary_search(z, z, budget, find_all=True))
    keys = {c.key() for c in out}
    for c in out:
        for c2 in out:
            assert compose_coboundaries(c, c2).key() in keys, \
                "stabilizer is not closed under composition"
    return sorted(out, key=lambda c: c.key())


# -- enumeration and classification ----------------------------------------------

def _enumerate_slice(ctx: _Context, bud: Budget,
                     first_values: Sequence[int] | None = None,
                     rng=None) -> list[bytes]:
    """All valid cocycles with every g_ij in the coset transversal, as leaves
    encoded by `_Context.encode`.

    Every cohomology class meets this slice: multiplying g_ij on the left by
    beta(eta_ij) moves it anywhere in its beta(H)-coset.  Backtracking
    assigns g on ordered distinct pairs, prunes a triple as soon as its
    beta-fiber is empty, then assigns h per triple fiber under the
    quadruple identity.  With an rng, every domain is tried in shuffled
    order and the search stops at the first leaf.
    """
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


def _act_triples(ctx: _Context, gvec: Sequence[int], hvec: Sequence[int],
                 gamma: Sequence[int], eta: Sequence[int],
                 triples: Sequence[int]) -> list[int]:
    """h'_ijk under the coboundary (gamma, eta) for the free triples at the
    given positions; eta carries the trailing identity slot."""
    H = ctx.cm.H
    hmul, hinv, ginv, act = H.mul_table, H.inv_table, ctx.cm.G.inv_table, ctx.cm.alpha.table
    out = []
    for t in triples:
        ij, jk, ik, i = ctx.triple_idx[t]
        inner = hmul[hmul[eta[ik]][hvec[t]]][hinv[act[gvec[ij]][eta[jk]]]]
        out.append(act[ginv[gamma[i]]][hmul[inner][hinv[eta[ij]]]])
    return out


def _apply_packed(ctx: _Context, packed: tuple, gamma: Sequence[int],
                  eta: Sequence[int]) -> tuple:
    """apply_coboundary on the packed (gvec, hvec) encoding, for any full
    coboundary; the tests hold the move tables of `_slice_moves` to it.

    eta is packed like gvec, followed by the trailing identity slot that
    stands for the diagonal pairs.
    """
    gmul, ginv, beta = ctx.cm.G.mul_table, ctx.cm.G.inv_table, ctx.cm.beta.image
    gvec, hvec = packed
    g2 = tuple(gmul[gmul[gmul[ginv[gamma[i]]][beta[eta[p]]]][gvec[p]]][gamma[j]]
               for p, (i, j) in enumerate(ctx.distinct_pairs))
    return (g2, tuple(_act_triples(ctx, gvec, hvec, gamma, eta, range(len(ctx.free_triples)))))


def _generating_set(elements: Sequence[int], mul_table, identity: int) -> list[int]:
    """Generators of the group on `elements`, chosen greedily: an element
    joins when it lies outside the subgroup the earlier ones generate."""
    gens, closure = [], {identity}
    for x in elements:
        if x in closure:
            continue
        gens.append(x)
        closure.add(x)
        queue = list(closure)
        while queue:
            y = queue.pop()
            for s in gens:
                z = mul_table[y][s]
                if z not in closure:
                    closure.add(z)
                    queue.append(z)
    return gens


def _slice_moves(ctx: _Context) -> list[tuple]:
    """Generator moves for the orbit partition within the slice, as tables.

    A vertex move sets gamma_v to a generator x of G and refills every eta
    with the minimal fiber element that keeps all g-values inside the
    transversal; a kernel move sets a single eta_ij to a generator of
    ker(beta).  Moves by these generators alone partition the slice as the
    moves by every element of G and of ker(beta) do:

    - Let z be in the slice, and let vertex moves at v by x_1, ..., x_k
      take it to z', also in the slice.  Let z'' be the single move
      (v, x_1...x_k) applied to z.  Both composites have gamma_v =
      x_1...x_k and gamma = e elsewhere, so z' and z'' differ by a
      coboundary with gamma = e everywhere.  Its pair rule reads
      g''_ij = beta(eta_ij) g'_ij, so g''_ij and g'_ij lie in one
      beta(H)-coset.  Both are in the transversal, hence equal, and
      beta(eta_ij) = e for every pair.  With gamma = e, coboundaries
      compose by multiplying their eta pairwise, so this one is a product
      of single-pair kernel moves.
    - A kernel move by a*b is the kernel move by a followed by the one by
      b, for the same reason.

    Each move is (rows, triples, eta).  `rows` holds (p, g2, e2) for every
    pair p the move touches: a current g-value c goes to g2[c], with
    eta_p = e2[c].  `triples` holds (position, ij, jk, ik, act_row) for
    every free triple whose h may change: those that read a pair with a
    non-identity eta, and those whose first vertex carries a gamma acting
    nontrivially; act_row is the action of gamma_i^-1.  `eta` is a scratch
    vector, the identity off the listed pairs, with the trailing slot.
    """
    G, H = ctx.cm.G, ctx.cm.H
    gmul, ginv, act = G.mul_table, G.inv_table, ctx.cm.alpha.table
    npairs = len(ctx.distinct_pairs)
    fixed_g, fixed_h = list(G.elements()), tuple(H.elements())

    def table(rows: list, gamma: list[int]) -> tuple:
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
    for a in _generating_set(ctx.kernel, H.mul_table, H.identity):
        for p in range(npairs):
            moves.append(table([(p, fixed_g, [a] * G.order)], [G.identity] * n))
    for x in _generating_set(G.elements(), gmul, G.identity):
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


def _slice_orbits(ctx: _Context, leaves: list[bytes]) -> list[int]:
    """For each of the sorted leaves, the index of the least leaf in its
    class; two leaves share a class when moves of `_slice_moves` join them."""
    hmul, hinv, act = ctx.cm.H.mul_table, ctx.cm.H.inv_table, ctx.cm.alpha.table
    index = {leaf: i for i, leaf in enumerate(leaves)}
    parent = list(range(len(leaves)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    moves = _slice_moves(ctx)
    for i, leaf in enumerate(leaves):
        cur = ctx.decode(leaf)
        for rows, triples, eta in moves:
            img = cur[:]
            for p, g2, e2 in rows:
                img[p] = g2[cur[p]]
                eta[p] = e2[cur[p]]
            for pos, ij, jk, ik, act_row in triples:
                inner = hmul[hmul[eta[ik]][cur[pos]]][hinv[act[cur[ij]][eta[jk]]]]
                img[pos] = act_row[hmul[inner][hinv[eta[ij]]]]
            union(i, index[ctx.encode(img)])
    return [find(i) for i in range(len(leaves))]


@dataclass
class ClassifyResult:
    count: int
    representatives: list[Cocycle]
    strategy: str
    cocycles_enumerated: int | None = None


def _pack(ctx: _Context, z: Cocycle) -> tuple:
    return ([z.g[p] for p in ctx.distinct_pairs], [z.h[t] for t in ctx.free_triples])


def _unpack(ctx: _Context, leaf: bytes) -> Cocycle:
    G, H = ctx.cm.G, ctx.cm.H
    digits = ctx.decode(leaf)
    g = {p: G.identity for p in ctx.pairs if p[0] == p[1]}
    g.update(zip(ctx.distinct_pairs, digits))
    h = {t: H.identity for t in ctx.triples if is_degenerate(t)}
    h.update(zip(ctx.free_triples, digits[len(ctx.distinct_pairs):]))
    return validate_cocycle(Cocycle(ctx.K, ctx.cm, g, h))


def _classify_brute(K: SimplicialComplex, cm: CrossedModule, budget: int,
                    workers: int) -> ClassifyResult:
    ctx = _Context(K, cm)
    bud = Budget(budget, ctx.estimate())
    if workers > 1 and ctx.distinct_pairs:
        leaves = []
        tasks = _enumerate_parallel(ctx, budget, workers)
        for first, (chunk, visited) in zip(ctx.transversal, tasks):
            if bud.visited + visited > budget:
                # the sequential search runs out inside this task (one that
                # ran out alone reports budget + 1 nodes): rerun it here so
                # the budget runs out at the same node, phase and depth
                chunk = _enumerate_slice(ctx, bud, first_values=[first])
            else:
                bud.visited += visited
            leaves.extend(chunk)
    else:
        leaves = _enumerate_slice(ctx, bud)
    leaves = sorted(set(leaves))
    roots = _slice_orbits(ctx, leaves)
    reps = [leaves[r] for r in sorted(set(roots))]
    return ClassifyResult(len(reps), [_unpack(ctx, leaf) for leaf in reps], "brute",
                          len(leaves))


def _enumerate_parallel(ctx: _Context, budget: int,
                        workers: int) -> list[tuple[list[bytes] | None, int]]:
    """Split the top-level g-assignment across processes, one task per
    transversal element in order.

    Each task returns its leaves and the nodes it visited, or None and
    budget + 1 if it ran out of budget on its own.  The per-task counts add up
    to the sequential count, so the caller can charge them to one budget in
    task order and make the outcome, exhaustion included, independent of
    the worker count.
    """
    import multiprocessing as mp

    tasks = [(ctx.K, ctx.cm, budget, [v]) for v in ctx.transversal]
    with mp.get_context("fork").Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(_enumerate_task, tasks)


def _enumerate_task(args) -> tuple[list[bytes] | None, int]:
    K, cm, budget, first_values = args
    ctx = _Context(K, cm)
    bud = Budget(budget, ctx.estimate())
    try:
        return _enumerate_slice(ctx, bud, first_values=first_values), bud.visited
    except SearchSpaceTooLarge:
        return None, bud.visited


def _classify_abelian(K: SimplicialComplex, cm: CrossedModule) -> ClassifyResult:
    """Linear route: solve the cocycle system and quotient by the coboundary
    image over Z/n.  The count comes from elimination over Z/p^e (combined by
    CRT), a route independent of the integer-Smith-form oracle."""
    from .complexes import coboundary_matrix, normalized_tuples
    from .snf import (image_size_mod, kernel_generators_mod, kernel_size_mod,
                      smith_normal_form, solve_mod)

    if cm.G.order != 1:
        raise StrategyMismatch("abelian strategy needs a trivial base group")
    if not cm.H.is_abelian():
        raise StrategyMismatch("abelian strategy needs abelian coefficients")
    power = cyclic_powers(cm.H)
    if power is None:
        raise StrategyMismatch("abelian strategy needs cyclic coefficients")
    n = cm.H.order

    d2 = coboundary_matrix(K, 1)   # C^1 -> C^2, coboundaries
    d3 = coboundary_matrix(K, 2)   # C^2 -> C^3, cocycle condition
    count = kernel_size_mod(d3, n) // image_size_mod(d2, n)

    cols = normalized_tuples(K, 3)
    gens = kernel_generators_mod(d3, n) if d3 else \
        [[int(i == j) for j in range(len(cols))] for i in range(len(cols))]

    factors = smith_normal_form(d2, want_transforms=True) if d2 else None

    def cohomologous_vec(a, b):
        diff = [(x - y) % n for x, y in zip(a, b)]
        return solve_mod(d2, diff, n, factors) is not None if d2 else all(v == 0 for v in diff)

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
    assert len(reps) == count, "class representatives do not exhaust the count"

    out = []
    for vec in reps:
        h = {t: power[v] for t, v in zip(cols, vec)}
        g = {p: cm.G.identity for p in valid_tuples(K, 2)}
        out.append(cocycle(K, cm, g, h))
    return ClassifyResult(count, out, "abelian")


def classify(K: SimplicialComplex, cm: CrossedModule, strategy: str = "brute",
             budget: int = DEFAULT_BUDGET, workers: int = 1) -> ClassifyResult:
    """Cohomology classes over K with coefficients in cm.

    brute: pruned backtracking enumeration restricted to the band slice
    (every g_ij in a fixed transversal of beta(H)-cosets), followed by an
    orbit partition under slice-preserving coboundary moves.  abelian:
    linear algebra mod n; needs a trivial base group and cyclic coefficients.
    Representatives are lexicographically minimal in the fixed tuple order
    (within the slice for brute); output is deterministic.
    """
    if strategy == "brute":
        return _classify_brute(K, cm, budget, workers)
    if strategy == "abelian":
        return _classify_abelian(K, cm)
    raise StrategyMismatch(f"unknown strategy {strategy!r}")


# -- random sampling ----------------------------------------------------------

def random_coboundary(K: SimplicialComplex, cm: CrossedModule, rng) -> Coboundary:
    gamma = {v: rng.randrange(cm.G.order) for v in range(K.vertex_count)}
    eta = {}
    for p in valid_tuples(K, 2):
        eta[p] = cm.H.identity if p[0] == p[1] else rng.randrange(cm.H.order)
    return coboundary(K, cm, gamma, eta)


def sample_cocycle(K: SimplicialComplex, cm: CrossedModule, rng,
                   budget: int = DEFAULT_BUDGET) -> Cocycle:
    """A random valid cocycle: a randomized walk to one slice solution,
    followed by a uniformly random coboundary move off the slice."""
    ctx = _Context(K, cm)
    leaves = _enumerate_slice(ctx, Budget(budget, ctx.estimate()), rng=rng)
    if not leaves:
        raise AssertionError("no valid cocycle exists (trivial one always does)")
    return apply_coboundary(_unpack(ctx, leaves[0]), random_coboundary(K, cm, rng))
