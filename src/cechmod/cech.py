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
from functools import cached_property
from typing import Collection, Sequence

from .algebra import CrossedModule, abelian_invariants, generating_set
from .complexes import SimplicialComplex, degenerate_tuples, normalized_tuples
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
        gs = tuple(self.g[p] for p in _key_tuples(self.complex, 2))
        hs = tuple(self.h[t] for t in _key_tuples(self.complex, 3))
        return gs + hs

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
        es = tuple(self.eta[p] for p in _key_tuples(self.complex, 2))
        return gs + es

    def __hash__(self) -> int:
        return hash(self.key())


def coboundary(K: SimplicialComplex, cm: CrossedModule, gamma: dict,
               eta: dict) -> Coboundary:
    """Well-formedness: total gamma, total eta on valid pairs, eta_ii = e,
    every value in range and no value off the complex.  The valid pairs are
    the normalized and degenerate ones the complex holds, scanned in
    lexicographic order, so a failure names the first failing pair."""
    eH = cm.H.identity
    pairs = _key_tuples(K, 2)
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
                      dict.fromkeys(normalized_tuples(K, 2), cm.H.identity))


def _entry_failure(z: Cocycle, pairs: list, triples: list) -> None:
    """Raise the first failure of totality, range or normalization, scanning
    the valid pairs and triples, each list in lexicographic order: first a
    stray key, then per tuple a missing or out-of-range value, then per
    tuple a degenerate value other than e."""
    G, H = z.cm.G, z.cm.H
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


def validate_cocycle(z: Cocycle) -> Cocycle:
    """Exhaustive check of totality, normalization and both cocycle identities.

    The valid pairs and triples split into the normalized ones, with no
    adjacent repeat, and the degenerate ones (`normalized_tuples` and
    `degenerate_tuples` of the complex).  The entries pass when every
    normalized tuple carries a value in range, every degenerate one carries
    e, and each dict has exactly as many keys as there are such tuples, so
    that none is a stray.  Only when they fail are the two parts merged in
    lexicographic order and scanned (`_entry_failure`), so diagnostics name
    the first failing tuple in lexicographic order.  Once the normalization
    holds, the pair/triple identity holds on every degenerate triple (it
    reads g_ik = g_ik) and the quadruple identity on every quadruple with an
    adjacent repeat (it reads h = h for one of its faces), so the identities
    are checked on the tuples with no adjacent repeat, in lexicographic
    order: `normalized_tuples(K, 3)` and `normalized_tuples(K, 4)`, read
    against the group tables.
    """
    K, cm = z.complex, z.cm
    G, H = cm.G, cm.H
    g, h = z.g, z.h
    pairs, triples = normalized_tuples(K, 2), normalized_tuples(K, 3)
    flat_pairs, flat_triples = degenerate_tuples(K, 2), degenerate_tuples(K, 3)
    eG, eH = G.identity, H.identity
    if not (len(g) == len(pairs) + len(flat_pairs)
            and len(h) == len(triples) + len(flat_triples)
            and all(p in g and 0 <= g[p] < G.order for p in pairs)
            and all(t in h and 0 <= h[t] < H.order for t in triples)
            and all(p in g and g[p] == eG for p in flat_pairs)
            and all(t in h and h[t] == eH for t in flat_triples)):
        _entry_failure(z, _key_tuples(K, 2), _key_tuples(K, 3))
        raise AssertionError("entries fail, but their scan finds no failure")
    gmul, hmul = G.mul_table, H.mul_table
    beta, act = cm.beta.image, cm.alpha.table
    for (i, j, k) in triples:
        if gmul[gmul[beta[h[(i, j, k)]]][g[(i, j)]]][g[(j, k)]] != g[(i, k)]:
            raise Cocyc1Failure(i, j, k)
    for (i, j, k, l) in normalized_tuples(K, 4):
        if hmul[h[(i, k, l)]][h[(i, j, k)]] != hmul[h[(i, j, l)]][act[g[(i, j)]][h[(j, k, l)]]]:
            raise Cocyc2Failure(i, j, k, l)
    return z


def cocycle(K: SimplicialComplex, cm: CrossedModule, g: dict, h: dict) -> Cocycle:
    """Fill omitted entries with identities, then validate."""
    gg = dict.fromkeys(normalized_tuples(K, 2) + degenerate_tuples(K, 2), cm.G.identity)
    hh = dict.fromkeys(normalized_tuples(K, 3) + degenerate_tuples(K, 3), cm.H.identity)
    gg.update(g)
    hh.update(h)
    return validate_cocycle(Cocycle(K, cm, gg, hh))


def trivial_cocycle(K: SimplicialComplex, cm: CrossedModule) -> Cocycle:
    return cocycle(K, cm, {}, {})


def apply_coboundary(z: Cocycle, c: Coboundary) -> Cocycle:
    """Act on a cocycle; the result is re-validated before being returned.

    The action runs on the packed encoding (`_apply_packed`), so only the
    normalized tuples are computed and the degenerate ones read e.  That is
    exact for a validated z and eta_ii = e: then
    g'_ii = gamma_i^-1 beta(e) gamma_i = e, and h'_iij, h'_ijj and h'_iii
    each reduce to gamma_i^-1 . e = e, as the normalization of z makes
    h_iij = h_ijj = h_iii = e and g_ii = e, and g_ij . eta_jj = e.  A
    coboundary with some eta_ii other than e would break the normalization,
    so it raises ResultNotCocycle, as any invalid result does."""
    K, cm = z.complex, z.cm
    if c.complex != K or c.cm != cm:
        raise SemanticError("coboundary lives over a different complex or crossed module")
    ctx = _Context(K, cm)
    try:
        for p in ctx.flat_pairs:
            if c.eta[p] != cm.H.identity:
                raise NormalizationFailure(p)
        gamma = [c.gamma[v] for v in range(K.vertex_count)]
        eta = [c.eta[p] for p in ctx.distinct_pairs] + [cm.H.identity]
        g2, h2 = _apply_packed(ctx, _pack(ctx, z), gamma, eta)
        return _unpack(ctx, ctx.encode(g2 + h2))
    except Exception as exc:  # indicates an implementation fault; never silent
        raise ResultNotCocycle(exc)


def _key_tuples(K: SimplicialComplex, arity: int) -> tuple[tuple[int, ...], ...]:
    """The valid tuples of arity 2 or 3 in lexicographic order, the order of
    the keys of `Cocycle` and `Coboundary` (that of `valid_tuples`), read
    from the tuples the complex holds.  Sorted once per complex and held on
    it, as `normalized_tuples` holds its tuples."""
    held = K._cochains
    key = ("keys", arity)
    if key not in held:
        held[key] = tuple(sorted(normalized_tuples(K, arity) + degenerate_tuples(K, arity)))
    return held[key]


def _coboundary_product(K: SimplicialComplex, cm: CrossedModule):
    """The composition law of coboundaries over (K, cm), on their keys.

    A key is gamma over the vertices, then eta over `_key_tuples(K, 2)`.  The
    product of a and b, c followed by c2, reads gamma''_i = gamma_i *
    gamma'_i and eta''_ij = (gamma_i . eta'_ij) * eta_ij off the group
    tables, with the first vertex i of each pair read once, here.
    """
    gmul, hmul, act = cm.G.mul_table, cm.H.mul_table, cm.alpha.table
    n = K.vertex_count
    first = [i for i, _ in _key_tuples(K, 2)]

    def product(a: tuple, b: tuple) -> tuple:
        gamma = [gmul[x][y] for x, y in zip(a, b[:n])]
        return tuple(gamma + [hmul[act[a[i]][y]][x]
                              for i, x, y in zip(first, a[n:], b[n:])])

    return product


def compose_coboundaries(c: Coboundary, c2: Coboundary) -> Coboundary:
    """The coboundary acting like `c` followed by `c2`.

    gamma''_i = gamma_i * gamma'_i and eta''_ij = (gamma_i . eta'_ij) * eta_ij,
    computed on keys by `_coboundary_product`; this is the unique law making
    sequential application functorial, and it is property-tested against
    its defining contract rather than assumed.
    """
    K, cm = c.complex, c.cm
    n = K.vertex_count
    k = _coboundary_product(K, cm)(c.key(), c2.key())
    return Coboundary(K, cm, dict(enumerate(k[:n])), dict(zip(_key_tuples(K, 2), k[n:])))


def inverse_coboundary(c: Coboundary) -> Coboundary:
    K, cm = c.complex, c.cm
    G, H = cm.G, cm.H
    gamma = {v: G.inv(c.gamma[v]) for v in range(K.vertex_count)}
    eta = {p: cm.act(G.inv(c.gamma[p[0]]), H.inv(c.eta[p])) for p in normalized_tuples(K, 2)}
    return coboundary(K, cm, gamma, eta)


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
      once g (or eta) is set up to p.
    - `quads_at_triple[t]`: for each quadruple (i, j, k, l) with no adjacent
      repeat whose last free face is t, the positions (ikl, ijk, ijl, jkl,
      ij).  A quadruple with an adjacent repeat reads h = h under the
      normalization and is left out.  Built on first read, by the slice search.
    - `pairs_at_vertex[v]`: the distinct pairs whose largest vertex is v,
      for the coboundary search.
    - `pos[t]`: the position of a valid pair or triple t, -1 when the
      normalization fixes it at e.
    """

    def __init__(self, K: SimplicialComplex, cm: CrossedModule):
        self.K, self.cm = K, cm
        G, H = cm.G, cm.H
        self.distinct_pairs = normalized_tuples(K, 2)
        self.free_triples = normalized_tuples(K, 3)
        self.flat_pairs = degenerate_tuples(K, 2)
        self.flat_triples = degenerate_tuples(K, 3)
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
        pos = dict.fromkeys(self.flat_pairs + self.flat_triples, -1)
        pos.update((p, n) for n, p in enumerate(self.distinct_pairs))
        pos.update((t, n) for n, t in enumerate(self.free_triples))
        self.triple_idx = [(pos[(i, j)], pos[(j, k)], pos[(i, k)], i)
                           for (i, j, k) in self.free_triples]
        self.triples_at_pair = [[] for _ in self.distinct_pairs]
        for t, (ij, jk, ik, _) in enumerate(self.triple_idx):
            self.triples_at_pair[max(ij, jk, ik)].append(t)
        self.pos = pos
        n = K.vertex_count
        self.pairs_at_vertex = [[] for _ in range(n)]
        for p, pair in enumerate(self.distinct_pairs):
            self.pairs_at_vertex[max(pair)].append(p)
        # the row-0 pairs (0, j) and free triples (0, j, k) come first
        self.row0_pairs = sum(1 for i, _ in self.distinct_pairs if i == 0)
        self.row0_triples = sum(1 for t in self.free_triples if t[0] == 0)
        # a slice leaf is one bytes object: the g digits, then the h digits,
        # each high byte first at one fixed width, so that bytes compare as
        # the digit tuples do
        self.digit = "B" if max(G.order, H.order) <= 256 else "H"
        self.swap = array(self.digit).itemsize > 1 and sys.byteorder == "little"

    @cached_property
    def quads_at_triple(self) -> list[list[tuple]]:
        pos, quads = self.pos, [[] for _ in self.free_triples]
        for (i, j, k, l) in normalized_tuples(self.K, 4):
            faces = (pos[(i, k, l)], pos[(i, j, k)], pos[(i, j, l)], pos[(j, k, l)])
            quads[max(faces)].append(faces + (pos[(i, j)],))
        return quads

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


class Budget:
    """The node counter every backtracking search charges: it holds only the
    node limit and the nodes visited so far.  Every search charges its full
    candidate tree: the candidates it tries, and those a failed check rules
    out without trying them, counted as the nodes a search that tried them
    would visit (`_enumerate_slice` and `_coboundary_search` say how).  So a
    budget means the same on every path, and a faster test of a node does
    not change the count.

    Each tick names the search phase and the level being assigned (0-based,
    out of `levels`), so exceeding the limit raises SearchSpaceTooLarge
    saying where the search stood; the message is built only then.
    """

    def __init__(self, limit: int):
        self.limit, self.visited = limit, 0

    def tick(self, phase: str, level: int, levels: int):
        self.visited += 1
        if self.visited > self.limit:
            raise SearchSpaceTooLarge(self.limit, phase, level + 1, levels)

    def charge(self, n: int, phase: str, level: int, levels: int, rising: bool = False):
        """n ticks in one step, all at `level`, or at level, level + 1, ...
        when `rising`.  A charge that crosses the limit is ticked one by one,
        so it runs out at the node, phase and depth the single ticks would."""
        if self.visited + n <= self.limit:
            self.visited += n
            return
        for k in range(n):
            self.tick(phase, level + k if rising else level, levels)

    def charge_tree(self, sizes: Sequence[int], phase: str, level: int, levels: int):
        """The nodes of the product tree with sizes[k] values at level
        `level` + k, f1 + f1 f2 + ... + f1 ... fm, in one step.  A charge
        that crosses the limit is ticked in DFS order, each subtree that
        fits in one step, so it runs out at the node, phase and depth the
        single ticks would."""
        below = [0]  # below[-1 - k]: the nodes of the tree of sizes[k:]
        for f in reversed(sizes):
            below.append(f * (1 + below[-1]))
        if self.visited + below[-1] <= self.limit:
            self.visited += below[-1]
            return
        # the tree does not fit: nor does the subtree of the first node at
        # level k that does not fit whole, so descend into it
        for k in range(len(sizes)):
            step = 1 + below[-2 - k]
            self.visited += (self.limit - self.visited) // step * step
            self.tick(phase, level + k, levels)


# -- coboundary search (cohomology testing, stabilizers) --------------------------

def _coboundary_search(ctx: _Context, z: Cocycle, z2: Cocycle, budget: int,
                       find_all: bool) -> list[Coboundary]:
    """The coboundaries c with apply_coboundary(z, c) == z2 in search order,
    or only the first of them unless `find_all`.

    Backtracking, vertex by vertex: gamma_v, then eta on the distinct pairs
    at v (`pairs_at_vertex[v]`).  Diagonal pairs and degenerate triples are
    fixed at e and never visited.  Each candidate value is one node charged
    to the budget.

    Once gamma_v is set, the domain of every pair at v is fixed: the pair
    equation fixes beta(eta_ij) (`pair_beta`), which reads only gamma_i and
    gamma_j, with i, j <= v.  A free triple at v holds v and has no adjacent
    repeat, so its last pair, in the order of `distinct_pairs`, holds v too
    (`triples_at_pair`).  Each triple is checked, h'_ijk against z2's h_ijk,
    right after that pair is set, and a candidate is dropped at its first
    failing triple.

    The node count is that of the search which sets every pair at v before
    it checks any triple at v.  Under a failed prefix, that search visits
    the whole product tree of the later pairs' domains, f1 + f1 f2 + ...,
    and none of its leaves passes, since the failed triple reads only values
    already set.  That tree is charged in one step (`Budget.charge_tree`).
    So the budget runs out at the node and depth where that search would,
    and since only subtrees without a solution are skipped, the coboundaries
    come out in the same order.  The tree ends at an empty domain, so the
    domains at v are read up to the first empty one.

    Each solution is built as a `Coboundary` directly, in the form
    `coboundary` returns: gamma over the vertices and eta over every key
    pair, in order.  It needs none of that function's checks: every gamma_v
    is an element of G and every eta_ij an element of a beta fiber of H, so
    each value is in range; eta is total on the valid pairs and on nothing
    else; and every diagonal pair reads the identity slot, e.
    """
    K, cm = z.complex, z.cm
    G, H = cm.G, cm.H
    hmul, hinv, ginv, act = H.mul_table, H.inv_table, G.inv_table, cm.alpha.table
    n = K.vertex_count
    bud = Budget(budget)
    phase = "coboundary search"
    zg, zh = _pack(ctx, z)
    z2g, z2h = _pack(ctx, z2)
    # checks[p]: the free triples whose last pair is p, as (ij, jk, ik, i,
    # the action row of g_ij, h_ijk, the wanted h'_ijk)
    checks = [[ctx.triple_idx[t] + (act[zg[ctx.triple_idx[t][0]]], zh[t], z2h[t])
               for t in ts] for ts in ctx.triples_at_pair]
    gamma = [G.identity] * n
    eta = [H.identity] * (len(ctx.distinct_pairs) + 1)
    # a solution's eta over the key pairs; a diagonal pair reads the identity slot
    key_pairs = _key_tuples(K, 2)
    slots = [ctx.pos[p] for p in key_pairs]
    # first_level[v] is the level of gamma_v; the pairs at v follow it
    levels = n + len(ctx.distinct_pairs)
    first_level = [v + sum(map(len, ctx.pairs_at_vertex[:v])) for v in range(n)]
    found: list[Coboundary] = []

    def assign_pairs(v: int, idx: int, fibers: list, sizes: list) -> bool:
        """Extend the assignment; True once the search should stop."""
        pairs = ctx.pairs_at_vertex[v]
        if idx == len(pairs):
            return assign_vertex(v + 1)
        p, level = pairs[idx], first_level[v] + 1 + idx
        for cand in fibers[idx]:
            bud.tick(phase, level, levels)
            eta[p] = cand
            for ij, jk, ik, i, row, h, want in checks[p]:
                inner = hmul[hmul[eta[ik]][h]][hinv[row[eta[jk]]]]
                if act[ginv[gamma[i]]][hmul[inner][hinv[eta[ij]]]] != want:
                    bud.charge_tree(sizes[idx + 1:], phase, level + 1, levels)
                    break
            else:
                if assign_pairs(v, idx + 1, fibers, sizes):
                    return True
        return False

    def assign_vertex(v: int) -> bool:
        if v == n:
            found.append(Coboundary(K, cm, dict(enumerate(gamma)),
                                    dict(zip(key_pairs, [eta[s] for s in slots]))))
            return not find_all
        pairs = [(p, ctx.distinct_pairs[p]) for p in ctx.pairs_at_vertex[v]]
        for val in G.elements():
            bud.tick(phase, first_level[v], levels)
            gamma[v] = val
            fibers = []
            for p, (i, j) in pairs:
                fibers.append(ctx.fiber[ctx.pair_beta(gamma[i], z2g[p], gamma[j], zg[p])])
                if not fibers[-1]:
                    break
            if assign_pairs(v, 0, fibers, list(map(len, fibers))):
                return True
        return False

    assign_vertex(0)
    return found


def are_cohomologous(z: Cocycle, z2: Cocycle,
                     budget: int = DEFAULT_BUDGET) -> Coboundary | None:
    """A witness coboundary carrying z to z2, or None (a definitive negative).
    The witness is verified on the search's own context: its packed action
    on z must be z2's packed encoding (c has eta_ii = e, as the search
    built it, so the degenerate tuples read e on both sides)."""
    if z.complex != z2.complex or z.cm != z2.cm:
        raise SemanticError("cocycles live over different complexes or crossed modules")
    ctx = _Context(z.complex, z.cm)
    for c in _coboundary_search(ctx, z, z2, budget, find_all=False):
        eta = [c.eta[p] for p in ctx.distinct_pairs] + [z.cm.H.identity]
        moved = _apply_packed(ctx, _pack(ctx, z), [c.gamma[v] for v in sorted(c.gamma)], eta)
        assert list(map(list, moved)) == list(_pack(ctx, z2)), "witness does not carry z to z2"
        return c
    return None


class _Stabilizer(list):
    """`stabilizer`'s sorted list of coboundaries, holding their sorted keys
    and the products its closure check computed: `identity` is the position
    of the identity, `gens` the keys of the greedy generators, and rows[k][a]
    the position of the product of the a-th element by the k-th generator.
    `gauge_crossed_module` fills G*'s table from them
    (`algebra._group_from_right_multiplications`), and `gauge_orders` checks
    equivariance on `gens`."""

    keys: list[tuple]
    identity: int
    gens: list[tuple]
    rows: list[list[int]]


def stabilizer(z: Cocycle, budget: int = DEFAULT_BUDGET) -> list[Coboundary]:
    """All coboundaries fixing z, sorted by key; verified to be closed under
    composition.

    Closure is checked on generators.  They are chosen greedily from the
    sorted keys, as in `algebra.generating_set`: a key joins X when it lies
    outside the closure C grown from the identity by right multiplication by
    the earlier ones, and each product y x computed must lie in the set S
    found.  When x joins, each y already in C is multiplied by x, and each
    element new to C by every generator so far, so every product y x is
    computed once.  Every key of S either lies in C already or joins X, so
    at the end C = S, S x lies in S for each x in X, and each element of S
    is the identity or a word x_1 ... x_k in X.
    The composition law is associative: gamma multiplies pointwise, and on
    eta both bracketings give (gamma_i gamma'_i . eta''_ij)
    (gamma_i . eta'_ij) eta_ij, as alpha is a homomorphism into Aut(H).  So
    a (x_1 ... x_k) = (...(a x_1) ...) x_k lies in S for every a in S, which
    is S S in S, at |S| |X| products instead of |S|^2.  The list returned
    keeps those products (`_Stabilizer`).
    """
    K, cm = z.complex, z.cm
    found = {c.key(): c for c in _coboundary_search(_Context(K, cm), z, z, budget,
                                                    find_all=True)}
    keys = sorted(found)
    pos = {k: a for a, k in enumerate(keys)}
    product = _coboundary_product(K, cm)
    identity = pos[identity_coboundary(K, cm).key()]
    closure, gens, rows = [identity], [], []
    seen = [False] * len(keys)
    seen[identity] = True
    for x, xkey in enumerate(keys):
        if seen[x]:
            continue
        gens.append(xkey)
        rows.append([None] * len(keys))
        # (y, s): y is still to be multiplied by gens[s:]
        queue = [(y, len(gens) - 1) for y in closure] + [(x, 0)]
        seen[x] = True
        closure.append(x)
        while queue:
            y, start = queue.pop()
            ykey = keys[y]
            for s in range(start, len(gens)):
                w = pos.get(product(ykey, gens[s]))
                assert w is not None, "stabilizer is not closed under composition"
                rows[s][y] = w
                if not seen[w]:
                    seen[w] = True
                    closure.append(w)
                    queue.append((w, 0))
    out = _Stabilizer(found[k] for k in keys)
    out.keys, out.identity, out.gens, out.rows = keys, identity, gens, rows
    return out


# -- enumeration and classification ----------------------------------------------

def _enumerate_slice(ctx: _Context, bud: Budget, rng=None,
                     kernel_subtree: bool = False) -> list[bytes]:
    """All valid cocycles with every g_ij in the coset transversal, as leaves
    encoded by `_Context.encode`, in sorted order.

    Every cohomology class meets this slice: multiplying g_ij on the left by
    beta(eta_ij) moves it anywhere in its beta(H)-coset.  Backtracking
    assigns g on ordered distinct pairs, prunes a triple as soon as its
    beta-fiber is empty, then assigns h per triple fiber under the
    quadruple identity.  g values are tried in transversal order and h
    values in fiber order, so the leaves come out sorted.  With an rng,
    every domain is tried in shuffled order and the search stops at the
    first leaf.

    Each candidate value is one node charged to `bud`, in domain order, so
    that the count and the point of exhaustion do not depend on how a node
    is tested.  The pair checks of a g candidate are bit masks over G, one
    per role of the pair in a triple (ik, ij or jk), indexed by the values
    of the other two pairs; their AND is the set of candidates that pass.
    The candidates skipped before a survivor are charged with it, the ones
    after the last survivor at the end.

    Free levels, where every value passes and the subtrees under any two
    prefixes are images of one another, take only their least value: each
    charges one node, and the search goes on in the least prefix's subtree
    alone.  Three kinds are used:

    - When ker(beta) = 1, all h levels.  beta is then injective, so each
      fiber, nonempty once g passed its checks, holds one element h_ijk
      with beta(h_ijk) = g_ik g_jk^-1 g_ij^-1; degenerate triples satisfy
      this too, with h = e and g_ii = e.  Both sides of the quadruple
      identity then have the same image: by equivariance,
      beta(g_ij . h_jkl) = g_ij beta(h_jkl) g_ij^-1, so
          beta(h_ikl h_ijk) = g_il g_kl^-1 g_jk^-1 g_ij^-1
                            = beta(h_ijl (g_ij . h_jkl)),
      and injectivity makes the identity hold.  Every g-leaf thus visits
      one node per free triple and yields one leaf, read off the fibers,
      just as a search of every value would.  (A shuffle of a one-element
      domain draws nothing from the rng.)
    - With `kernel_subtree` and no rng, the R row-0 triples (0, j, k), the
      first R free triples, of each g-leaf.  A quadruple checked at their
      levels has only row-0 free faces, so it is (0, j, k, l) with an
      adjacent repeat, and under the normalization its identity reads
      h = h: each level passes a whole fiber of |ker beta| elements.  The
      coboundary with gamma = e and eta = e except for eta_jk in ker(beta)
      keeps g, multiplies h_0jk by (g_0j . eta_jk)^-1, leaves every other
      row-0 triple alone and multiplies each further triple by a constant
      of the g-leaf (ker(beta) is central).  It keeps every quadruple
      identity one by one, so it maps the h-subtree under one row-0 prefix
      onto the one under any other, node for node.  Only the leaves whose
      row-0 triples hold their fiber minima are returned.
    - With `kernel_subtree` and no rng, the d row-0 pairs (0, j), by the
      argument of `_classify_brute`.  Only the leaves whose row 0 holds
      transversal[0] are returned.

    So the budget counts the nodes the search visits.  With ker(beta) = 1
    the only values it skips are those after transversal[0] at the row-0
    levels, so it is the start of the search of every value, and runs out
    where that search would.
    """
    G, H = ctx.cm.G, ctx.cm.H
    gmul, ginv, hmul, act = G.mul_table, G.inv_table, H.mul_table, ctx.cm.alpha.table
    leaves: list[bytes] = []
    npairs, ntrip = len(ctx.distinct_pairs), len(ctx.free_triples)
    gvec = [G.identity] * (npairs + 1)
    hvec = [H.identity] * (ntrip + 1)
    # fiber_at[g_ij * g_jk][g_ik] is the fiber of g_ik * (g_ij * g_jk)^-1,
    # where beta(h_ijk) must lie; the triple passes when it is nonempty
    fiber_at = [[ctx.fiber[gmul[b][ginv[a]]] for b in G.elements()] for a in G.elements()]
    triple_pairs = [idx[:3] for idx in ctx.triple_idx]
    # bit c of ik_ok[a][b] is set when g_ij = a, g_jk = b, g_ik = c pass;
    # ij_ok[b][c] holds the passing a, and jk_ok[a][c] the passing b
    ik_ok, ij_ok, jk_ok = ([[0] * G.order for _ in G.elements()] for _ in range(3))
    for a in G.elements():
        for b in G.elements():
            for c, fib in enumerate(fiber_at[gmul[a][b]]):
                if fib:
                    ik_ok[a][b] |= 1 << c
                    ij_ok[b][c] |= 1 << a
                    jk_ok[a][c] |= 1 << b
    checks_at_pair = [[] for _ in range(npairs)]
    for pi, ts in enumerate(ctx.triples_at_pair):
        for t in ts:
            ij, jk, ik = triple_pairs[t]
            checks_at_pair[pi].append((ik_ok, ij, jk) if pi == ik else
                                      (ij_ok, jk, ik) if pi == ij else (jk_ok, ij, ik))
    every = (1 << G.order) - 1
    least = kernel_subtree and rng is None
    # the free g levels, and the free h levels of every g-leaf
    d = ctx.row0_pairs if least else 0
    R = ntrip if len(ctx.kernel) == 1 else ctx.row0_triples if least else 0
    plans: dict[int, tuple] = {}

    def plan(domain: Sequence[int], passing: int) -> tuple:
        """(steps, tail): each passing value with the nodes charged up to and
        including it, and the nodes left after the last one."""
        steps, skipped = [], 0
        for val in domain:
            if passing >> val & 1:
                steps.append((val, skipped + 1))
                skipped = 0
            else:
                skipped += 1
        return steps, skipped

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
            bud.charge(R, "slice h", 0, ntrip, rising=True)
            hvec[:R] = [fiber_at[gmul[gvec[ij]][gvec[jk]]][gvec[ik]][0]
                        for ij, jk, ik in triple_pairs[:R]]
            return assign_h(R)
        passing = every
        for ok, x, y in checks_at_pair[pi]:
            passing &= ok[gvec[x]][gvec[y]]
        if rng is None:
            steps, tail = plans.get(passing) or plans.setdefault(
                passing, plan(ctx.transversal, passing))
        else:
            domain = list(ctx.transversal)
            rng.shuffle(domain)
            steps, tail = plan(domain, passing)
        for val, n in steps:
            bud.charge(n, "slice g", pi, npairs)
            gvec[pi] = val
            if assign_g(pi + 1):
                return True
        bud.charge(tail, "slice g", pi, npairs)
        return False

    bud.charge(d, "slice g", 0, npairs, rising=True)
    gvec[:d] = ctx.transversal[:1] * d
    assign_g(d)
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
    """The coboundary action on the packed (gvec, hvec) encoding, for any
    full coboundary: `apply_coboundary` runs on it, and the tests hold the
    move tables of `_slice_moves` to it.

    eta is packed like gvec, followed by the trailing identity slot that
    stands for the diagonal pairs.
    """
    gmul, ginv, beta = ctx.cm.G.mul_table, ctx.cm.G.inv_table, ctx.cm.beta.image
    gvec, hvec = packed
    g2 = tuple(gmul[gmul[gmul[ginv[gamma[i]]][beta[eta[p]]]][gvec[p]]][gamma[j]]
               for p, (i, j) in enumerate(ctx.distinct_pairs))
    return (g2, tuple(_act_triples(ctx, gvec, hvec, gamma, eta, range(len(ctx.free_triples)))))


def _slice_moves(ctx: _Context, d: int = 0, fixed: Collection[int] = ()) -> list[tuple]:
    """Generator moves for the orbit partition within the slice, as tables,
    or, for d > 0, within the part S0 of the slice whose first d pairs (the
    row-0 pairs (0, j), j a neighbour of 0) all hold t0 = transversal[0].

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

    For d > 0 the vertex moves are those of the stabilizer R of S0: the
    gamma with gamma_j in t0^-1 gamma_0 t0 beta(H) at every neighbour j.
    A coboundary takes one S0 leaf to another only if its gamma is in R,
    since g'_0j = gamma_0^-1 beta(eta_0j) t0 gamma_j = t0 and beta(H) is
    normal; and every gamma in R keeps S0, its refilled g'_0j being the
    representative of t0.  R is generated, as a subgroup of G^n, by
    gamma_0 = x with gamma_j = t0^-1 x t0 at every neighbour (the image of
    x under a homomorphism G -> G^n), for x a generator of G; by a
    generator of G at one vertex that is neither 0 nor a neighbour; and by
    beta(H) at each neighbour.  The last need no moves of their own: for k
    in H^n, gamma_i = beta(k_i) with eta_ij = k_i (g_ij . k_j^-1) fixes
    every cocycle (by the Peiffer identity), so a move whose gamma differs
    from another's by beta(H) at some vertices lands where the other does,
    up to a coboundary with gamma = e between slice leaves, a product of
    kernel moves.  The argument above, with R in place of G^n, then makes
    these moves, with the kernel moves, join two S0 leaves exactly when
    they are cohomologous.  With d = 0 the list is the slice's, move for
    move.

    Kernel moves on the pairs in `fixed` are left out; `_slice_orbits`
    passes the pairs whose kernel moves its compensation undoes.

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
    neighbours = [j for _, j in ctx.distinct_pairs[:d]]
    t0 = ctx.transversal[0]
    for a in generating_set(ctx.kernel, H.mul_table, H.identity):
        for p in range(npairs):
            if p not in fixed:
                moves.append(table([(p, fixed_g, [a] * G.order)], [G.identity] * n))
    for x in generating_set(G.elements(), gmul, G.identity):
        for v in range(n):
            if v in neighbours:
                continue
            gamma = [x if u == v else G.identity for u in range(n)]
            if v == 0:
                for j in neighbours:
                    gamma[j] = gmul[gmul[ginv[t0]][x]][t0]
            rows = []
            for p, (i, j) in enumerate(ctx.distinct_pairs):
                gi, gj = gamma[i], gamma[j]
                g2 = [ctx.coset_rep[gmul[gmul[ginv[gi]][c]][gj]] for c in G.elements()]
                e2 = [ctx.fiber[ctx.pair_beta(gi, g2[c], gj, c)][0] for c in G.elements()]
                rows.append((p, g2, e2))
            moves.append(table(rows, gamma))
    return moves


def _slice_orbits(ctx: _Context, leaves: list[bytes], d: int = 0,
                  kernel_subtree: bool = False) -> list[int]:
    """For each of the sorted leaves, the index of the least leaf in its
    class; two leaves share a class when moves of `_slice_moves(ctx, d)`
    join them.  The leaves are the slice, or its part S0 when d > 0.

    With `kernel_subtree` the leaves are the part S0' of S0 whose row-0
    triples hold their fiber minima (`_enumerate_slice`), and each move is
    followed by its compensation: the coboundary with gamma = e and eta_jk
    in ker(beta) on the pair (j, k) of each row-0 triple (0, j, k), the
    unique one that takes the row-0 h-values back to the fiber minima.  It
    keeps g, so the image is in S0'.  Compensated moves join two leaves of
    S0' exactly when moves join them in S0.  Let N be the coboundaries
    with gamma = e and eta in ker(beta).  They keep g, multiply pairwise
    (ker(beta) is central), and are normal among coboundaries.  So
    N = N0 x N1, N0 on the pairs (j, k) of the row-0 triples and N1 on the
    others, and h_0jk moves by (g_0j . eta_jk)^-1 times a factor read off
    N1: for each n1 in N1 exactly one n0 in N0 takes n1 z into S0'.
    Write pi for the compensation.  A move M acts on a leaf by a
    coboundary c that depends on g alone, so for n in N0,
    M(n z) = (c n c^-1) M(z), and pi(M(n z)) = n0 n1 pi(M(z)) with n0 in
    N0, n1 in N1.  The compensated kernel moves by generators of ker(beta)
    on the N1 pairs take pi(M(z)) to n0' n1 pi(M(z)) in S0', so n0' = n0.
    Thus a chain of moves in S0 between two leaves of S0' descends, step
    by step, to a chain of compensated moves; kernel moves on the N0 pairs
    compensate to the identity and are left out.  The least leaf of a
    class lies in S0': pi keeps g and lowers the first h-digits to the
    fiber minima, so it never makes a leaf greater.
    """
    G, H = ctx.cm.G, ctx.cm.H
    gmul, ginv = G.mul_table, G.inv_table
    hmul, hinv, act = H.mul_table, H.inv_table, ctx.cm.alpha.table
    npairs = len(ctx.distinct_pairs)
    index = {leaf: i for i, leaf in enumerate(leaves)}
    parent = list(range(len(leaves)))
    # the row-0 triples and every free triple that reads one of their pairs (j, k)
    row0 = ctx.triple_idx[:ctx.row0_triples] if kernel_subtree and len(ctx.kernel) > 1 else []
    fixed = {jk for _, jk, _, _ in row0}
    touched = [(npairs + t, ij, jk, ik) for t, (ij, jk, ik, _) in enumerate(ctx.triple_idx)
               if fixed.intersection((ij, jk, ik))]
    ceta = [H.identity] * (npairs + 1)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    moves = _slice_moves(ctx, d, fixed)
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
            for t, (ij, jk, ik, _) in enumerate(row0):
                # h''_0jk = h'_0jk (g_0j . eta_jk)^-1 is the fiber minimum
                gik = img[ik] if ik >= 0 else G.identity
                least = ctx.fiber[gmul[gik][ginv[gmul[img[ij]][img[jk]]]]][0]
                ceta[jk] = act[ginv[img[ij]]][hmul[hinv[least]][img[npairs + t]]]
            for pos, ij, jk, ik in touched:
                inner = hmul[hmul[ceta[ik]][img[pos]]][hinv[act[img[ij]][ceta[jk]]]]
                img[pos] = hmul[inner][hinv[ceta[ij]]]
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
    g = dict.fromkeys(ctx.flat_pairs, G.identity)
    g.update(zip(ctx.distinct_pairs, digits))
    h = dict.fromkeys(ctx.flat_triples, H.identity)
    h.update(zip(ctx.free_triples, digits[len(ctx.distinct_pairs):]))
    return validate_cocycle(Cocycle(ctx.K, ctx.cm, g, h))


def _classify_brute(K: SimplicialComplex, cm: CrossedModule, budget: int) -> ClassifyResult:
    """The slice search and its orbit partition, run on one row-0 subtree
    and, within each of its g-leaves, on one kernel subtree.

    Let d be the number of row-0 pairs (0, j), the first d distinct pairs,
    T the number of beta(H)-cosets and t0 = transversal[0].  No triple check
    sits on a row-0 pair (every free triple reads a pair (j, k) with j != 0),
    so every value passes at the first d levels of the slice search.  The
    T^d prefixes head subtrees that are images of one another: for a prefix
    A, the coboundary gamma_0 = e, gamma_j = t0^-1 A_j on the neighbours,
    with g -> coset_rep[gamma_i^-1 g gamma_j] and eta refilled as in
    `_slice_moves`, maps the subtree under (t0, ..., t0) onto the one
    under A level by level, node for node.  It permutes each pair's
    transversal, since beta(H) is normal; it keeps every triple check, a
    coset identity in pi_0 = G/beta(H); it maps every h-fiber onto the
    fiber of the image triple; and it keeps every quadruple identity, as a
    coboundary does.  So every subtree holds the same number of leaves,
    |S0|: the row-0 levels are free, and `_enumerate_slice` searches only
    the subtree under (t0, ..., t0).  Every class meets S0 (the coboundary
    above, run backwards, moves any leaf into it), so its least leaf lies
    in S0.  Within S0 the h-search of each g-leaf runs on the kernel
    subtree whose R row-0 triples hold their fiber minima, so the search
    keeps the part S0' of S0, with |S0| = |ker beta|^R * |S0'| and
    T^d * |S0| leaves in the whole slice, reported as `ENUMERATED`;
    `_slice_orbits(ctx, S0', d, True)` partitions S0' by class and finds
    each class's least leaf.  The budget counts the nodes searched: one
    per row-0 level, then the nodes of the subtrees.
    """
    ctx = _Context(K, cm)
    leaves = _enumerate_slice(ctx, Budget(budget), kernel_subtree=True)
    roots = _slice_orbits(ctx, leaves, ctx.row0_pairs, kernel_subtree=True)
    reps = [leaves[r] for r in sorted(set(roots))]
    enumerated = len(ctx.transversal) ** ctx.row0_pairs * \
        len(ctx.kernel) ** ctx.row0_triples * len(leaves)
    return ClassifyResult(len(reps), [_unpack(ctx, leaf) for leaf in reps], "brute", enumerated)


def _class_key(K: SimplicialComplex, n: int) -> tuple:
    """(key, moduli): a map from normalized 2-cochains mod n, as vectors over
    `normalized_tuples(K, 3)`, to residues mod `moduli`, which two normalized
    cocycles share exactly when they are cohomologous.

    Restricting a normalized cochain to the increasing tuples is a chain map
    to the oriented cochains, the dual of the chain equivalence of
    `abelian_cohomology_oracle`, so it is an isomorphism on cohomology.  For
    normalized cocycles c and c', c - c' is then a normalized coboundary
    exactly when its restriction r(c - c') is an oriented one: if
    c - c' = d b, then r(c - c') = d r(b); if r(c - c') is a coboundary, the
    class of c - c' maps to zero, so it is zero.  The key comes from the
    Smith form D = U * d1 * V of the oriented coboundaries d1: C^1 -> C^2.
    As V is invertible over Z, r(c - c') lies in the image of d1 mod n
    exactly when U r(c) and U r(c') agree mod gcd(d_i, n) on every row i,
    with d_i = 0 past the divisors.
    """
    from math import gcd

    from .complexes import oriented_differential
    from .snf import check_smith_form, smith_normal_form

    d1 = oriented_differential(K, 1)
    factors = smith_normal_form(d1)
    check_smith_form(d1, factors)
    d, U, _ = factors
    moduli = [gcd(d[i], n) if i < len(d) else n for i in range(len(U))]
    # the rows of d1 are the 2-simplices, the increasing normalized triples,
    # in order; U by the columns of those triples, so a key costs the
    # nonzeros of its cochain's restriction
    cols = normalized_tuples(K, 3)
    simplex_col = [c for c, (i, j, k) in enumerate(cols) if i < j < k]
    ucols = [[] for _ in cols]
    for k, row in enumerate(U):
        for r, u in row.items():
            ucols[simplex_col[r]].append((k, u))

    def key(vec):
        acc = [0] * len(moduli)
        for r, x in enumerate(vec):
            if x:
                for k, u in ucols[r]:
                    acc[k] += u * x
        return [a % m for a, m in zip(acc, moduli)]

    return key, moduli


def _classify_abelian(K: SimplicialComplex, cm: CrossedModule) -> ClassifyResult:
    """Linear route: solve the cocycle system and quotient by the coboundary
    image over Z/n.  The count comes from elimination over Z/p^e (combined by
    CRT), a route independent of the integer-Smith-form oracle, on the
    oriented differentials, one cochain per simplex: the oriented complex has
    the cohomology of the normalized one (see `abelian_cohomology_oracle`)
    and is far smaller.  Generators and representatives read the normalized
    complex, and the search must find exactly `count` classes.

    Classes are keyed on the oriented complex by `_class_key`: the Smith
    form of the oriented d1 applied to each cochain's restriction to the
    increasing triples.  For cocycles, equal keys mean equal classes.  The
    search walks the kernel generators (V of the Smith form of the
    normalized d3) out from the zero cochain; every candidate is a cocycle,
    and it is kept when its key is new.  H is abelian with no check of its
    own: G = 1 makes alpha trivial, so the Peiffer identity reads
    h h' h^-1 = h', and `crossed_module` rejects a non-abelian H first.
    """
    from .complexes import differential, oriented_differential
    from .snf import image_size_mod, kernel_generators_mod, kernel_size_mod

    if cm.G.order != 1:
        raise StrategyMismatch("abelian strategy needs a trivial base group")
    orders, coords = abelian_invariants(cm.H)
    if len(orders) > 1:
        raise StrategyMismatch("abelian strategy needs cyclic coefficients")
    power = sorted(coords, key=coords.get)
    n = cm.H.order

    count = kernel_size_mod(oriented_differential(K, 2), n) // \
        image_size_mod(oriented_differential(K, 1), n)
    gens = kernel_generators_mod(differential(K, 2), n)  # normalized cocycles
    key, moduli = _class_key(K, n)
    cols = normalized_tuples(K, 3)

    # keys are linear: a candidate's key is its base's plus its generator's,
    # so every key vanishes where all the generators' keys do (on every row
    # of modulus 1, for one)
    gen_keys = [key(gvec) for gvec in gens]
    live = [k for k in range(len(moduli)) if any(gk[k] for gk in gen_keys)]
    gen_keys = [[gk[k] for k in live] for gk in gen_keys]
    moduli = [moduli[k] for k in live]
    reps = [tuple([0] * len(cols))]
    rep_keys = [tuple([0] * len(live))]
    seen = set(rep_keys)
    queue = [0]
    while queue and len(reps) < count:
        b = queue.pop(0)
        for gvec, gkey in zip(gens, gen_keys):
            k = tuple((x + y) % m for x, y, m in zip(rep_keys[b], gkey, moduli))
            if k not in seen:
                seen.add(k)
                queue.append(len(reps))
                reps.append(tuple((x + y) % n for x, y in zip(reps[b], gvec)))
                rep_keys.append(k)
                if len(reps) == count:
                    break
    assert len(reps) == count, "class representatives do not exhaust the count"

    g = dict.fromkeys(normalized_tuples(K, 2) + degenerate_tuples(K, 2), cm.G.identity)
    h = dict.fromkeys(degenerate_tuples(K, 3), cm.H.identity)
    out = []
    for vec in reps:
        h.update(zip(cols, map(power.__getitem__, vec)))
        out.append(validate_cocycle(Cocycle(K, cm, dict(g), dict(h))))
    return ClassifyResult(count, out, "abelian")


def classify(K: SimplicialComplex, cm: CrossedModule, strategy: str = "brute",
             budget: int = DEFAULT_BUDGET) -> ClassifyResult:
    """Cohomology classes over K with coefficients in cm.

    brute: pruned backtracking enumeration restricted to the band slice
    (every g_ij in a fixed transversal of beta(H)-cosets), followed by an
    orbit partition under slice-preserving coboundary moves; both run on
    the one subtree whose row-0 values are the least coset representative,
    and the leaf count of the whole slice follows from it.  `budget` bounds
    the nodes that search visits.  abelian:
    linear algebra mod n; needs a trivial base group and cyclic coefficients.
    Representatives are lexicographically minimal in the fixed tuple order
    (within the slice for brute); output is deterministic.
    """
    if strategy == "brute":
        return _classify_brute(K, cm, budget)
    if strategy == "abelian":
        return _classify_abelian(K, cm)
    raise StrategyMismatch(f"unknown strategy {strategy!r}")


# -- random sampling ----------------------------------------------------------

def random_coboundary(K: SimplicialComplex, cm: CrossedModule, rng) -> Coboundary:
    gamma = {v: rng.randrange(cm.G.order) for v in range(K.vertex_count)}
    eta = {p: rng.randrange(cm.H.order) for p in normalized_tuples(K, 2)}
    return coboundary(K, cm, gamma, eta)


def sample_cocycle(K: SimplicialComplex, cm: CrossedModule, rng,
                   budget: int = DEFAULT_BUDGET) -> Cocycle:
    """A random valid cocycle: a randomized walk to one slice solution,
    followed by a uniformly random coboundary move off the slice."""
    ctx = _Context(K, cm)
    leaves = _enumerate_slice(ctx, Budget(budget), rng=rng)
    if not leaves:
        raise AssertionError("no valid cocycle exists (trivial one always does)")
    return apply_coboundary(_unpack(ctx, leaves[0]), random_coboundary(K, cm, rng))
