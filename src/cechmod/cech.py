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

    def pair_beta(self, gi: int, g2: int, gj: int, g: int) -> int:
        """The beta(eta_ij) that carries g_ij = g to g'_ij = g2 when gamma_i = gi
        and gamma_j = gj, namely gi * g2 * gj^-1 * g^-1."""
        gmul, ginv = self.cm.G.mul_table, self.cm.G.inv_table
        return gmul[gmul[gmul[gi][g2]][ginv[gj]]][ginv[g]]

    def estimate(self) -> int:
        return (self.cm.G.order ** len(self.distinct_pairs)
                * max(1, len(self.kernel)) ** len(self.free_triples))


class Budget:
    """The node counter every backtracking search charges; exceeding the
    limit raises SearchSpaceTooLarge with the search's a-priori estimate."""

    def __init__(self, limit: int, estimate: int):
        self.limit, self.estimate, self.visited = limit, estimate, 0

    def tick(self, n: int = 1):
        self.visited += n
        if self.visited > self.limit:
            raise SearchSpaceTooLarge(self.estimate, self.limit)


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

    def assign_pairs(v: int, idx: int) -> Iterator[Coboundary]:
        pairs = ctx.pairs_at_vertex[v]
        if idx == len(pairs):
            if _act_triples(ctx, zg, zh, gamma, eta, ctx.triples_at_vertex[v]) == want[v]:
                yield from assign_vertex(v + 1)
            return
        p = pairs[idx]
        i, j = ctx.distinct_pairs[p]
        for cand in ctx.fiber[ctx.pair_beta(gamma[i], z2g[p], gamma[j], zg[p])]:
            bud.tick()
            eta[p] = cand
            yield from assign_pairs(v, idx + 1)

    def assign_vertex(v: int) -> Iterator[Coboundary]:
        if v == n:
            yield coboundary(K, cm, dict(enumerate(gamma)),
                             dict(zip(ctx.distinct_pairs, eta)))
            return
        for val in G.elements():
            bud.tick()
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
                     rng=None) -> list[tuple]:
    """All valid cocycles with every g_ij in the coset transversal.

    Every cohomology class meets this slice: multiplying g_ij on the left by
    beta(eta_ij) moves it anywhere in its beta(H)-coset.  Backtracking
    assigns g on ordered distinct pairs, prunes a triple as soon as its
    beta-fiber is empty, then assigns h per triple fiber under the
    quadruple identity.  With an rng, every domain is tried in shuffled
    order and the search stops at the first leaf.
    """
    G, H = ctx.cm.G, ctx.cm.H
    gmul, ginv, hmul, act = G.mul_table, G.inv_table, H.mul_table, ctx.cm.alpha.table
    leaves: list[tuple] = []
    npairs, ntrip = len(ctx.distinct_pairs), len(ctx.free_triples)
    gvec = [G.identity] * (npairs + 1)
    hvec = [H.identity] * (ntrip + 1)

    def required_fiber(t: int) -> list[int]:
        """The fiber of g_ik * (g_ij * g_jk)^-1, where beta(h_ijk) must lie."""
        ij, jk, ik, _ = ctx.triple_idx[t]
        return ctx.fiber[gmul[gvec[ik]][ginv[gmul[gvec[ij]][gvec[jk]]]]]

    def quads_ok(t: int) -> bool:
        return all(hmul[hvec[ikl]][hvec[ijk]] == hmul[hvec[ijl]][act[gvec[ij]][hvec[jkl]]]
                   for ikl, ijk, ijl, jkl, ij in ctx.quads_at_triple[t])

    def assign_h(ti: int) -> bool:
        """Extend the h-assignment; True once the search should stop."""
        if ti == ntrip:
            leaves.append((tuple(gvec[:npairs]), tuple(hvec[:ntrip])))
            return rng is not None
        domain = required_fiber(ti)
        if rng is not None:
            domain = list(domain)
            rng.shuffle(domain)
        for cand in domain:
            bud.tick()
            hvec[ti] = cand
            if quads_ok(ti) and assign_h(ti + 1):
                return True
        return False

    def assign_g(pi: int) -> bool:
        if pi == npairs:
            return assign_h(0)
        domain = ctx.transversal if first_values is None or pi > 0 else first_values
        if rng is not None:
            domain = list(domain)
            rng.shuffle(domain)
        for val in domain:
            bud.tick()
            gvec[pi] = val
            if all(required_fiber(t) for t in ctx.triples_at_pair[pi]) \
                    and assign_g(pi + 1):
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
    """apply_coboundary on the packed (gvec, hvec) slice encoding.

    eta is packed like gvec, followed by the trailing identity slot that
    stands for the diagonal pairs.
    """
    gmul, ginv, beta = ctx.cm.G.mul_table, ctx.cm.G.inv_table, ctx.cm.beta.image
    gvec, hvec = packed
    g2 = tuple(gmul[gmul[gmul[ginv[gamma[i]]][beta[eta[p]]]][gvec[p]]][gamma[j]]
               for p, (i, j) in enumerate(ctx.distinct_pairs))
    return (g2, tuple(_act_triples(ctx, gvec, hvec, gamma, eta, range(len(ctx.free_triples)))))


def _slice_moves(ctx: _Context) -> list[tuple]:
    """Generator moves for the orbit partition within the slice.

    Kernel moves change a single eta_ij inside ker(beta); vertex moves set a
    single gamma_v and refill every eta with the minimal fiber element that
    keeps all g-values inside the transversal.  Together these moves connect
    exactly the intersections of cohomology classes with the slice.
    """
    moves = []
    G, H = ctx.cm.G, ctx.cm.H
    for p in range(len(ctx.distinct_pairs)):
        for a in ctx.kernel:
            if a != H.identity:
                moves.append(("kernel", p, a))
    for v in range(ctx.K.vertex_count):
        for val in G.elements():
            if val != G.identity:
                moves.append(("vertex", v, val))
    return moves


def _apply_move(ctx: _Context, packed: tuple, move: tuple) -> tuple:
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


@dataclass
class ClassifyResult:
    count: int
    representatives: list[Cocycle]
    strategy: str
    cocycles_enumerated: int | None = None


def _pack(ctx: _Context, z: Cocycle) -> tuple:
    return ([z.g[p] for p in ctx.distinct_pairs], [z.h[t] for t in ctx.free_triples])


def _unpack(ctx: _Context, packed: tuple) -> Cocycle:
    G, H = ctx.cm.G, ctx.cm.H
    g = {p: G.identity for p in ctx.pairs if p[0] == p[1]}
    g.update({p: packed[0][i] for i, p in enumerate(ctx.distinct_pairs)})
    h = {t: H.identity for t in ctx.triples if is_degenerate(t)}
    h.update({t: packed[1][i] for i, t in enumerate(ctx.free_triples)})
    return validate_cocycle(Cocycle(ctx.K, ctx.cm, g, h))


def _classify_brute(K: SimplicialComplex, cm: CrossedModule, budget: int,
                    workers: int) -> ClassifyResult:
    ctx = _Context(K, cm)
    bud = Budget(budget, ctx.estimate())
    if workers > 1 and ctx.distinct_pairs:
        leaves = []
        for chunk, visited in _enumerate_parallel(ctx, budget, workers):
            bud.tick(visited)
            leaves.extend(chunk)
    else:
        leaves = _enumerate_slice(ctx, bud)
    leaves = sorted(set(leaves))
    index = {packed: i for i, packed in enumerate(leaves)}

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
    for i, packed in enumerate(leaves):
        for mv in moves:
            img = _apply_move(ctx, packed, mv)
            union(i, index[img])

    classes: dict[int, tuple] = {}
    for i, packed in enumerate(leaves):
        r = find(i)
        if r not in classes or packed < classes[r]:
            classes[r] = packed
    reps = sorted(classes.values())
    return ClassifyResult(len(reps), [_unpack(ctx, p) for p in reps], "brute",
                          len(leaves))


def _enumerate_parallel(ctx: _Context, budget: int,
                        workers: int) -> list[tuple[list[tuple], int]]:
    """Split the top-level g-assignment across processes.

    Each task returns its leaves and the nodes it visited; the per-task
    counts add up to the sequential count, so charging them to one budget
    makes the outcome, exhaustion included, independent of the worker count.
    """
    import multiprocessing as mp

    tasks = [(ctx.K, ctx.cm, budget, [v]) for v in ctx.transversal]
    with mp.get_context("fork").Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(_enumerate_task, tasks)


def _enumerate_task(args) -> tuple[list[tuple], int]:
    K, cm, budget, first_values = args
    ctx = _Context(K, cm)
    bud = Budget(budget, ctx.estimate())
    return _enumerate_slice(ctx, bud, first_values=first_values), bud.visited


def _classify_abelian(K: SimplicialComplex, cm: CrossedModule) -> ClassifyResult:
    """Linear route: solve the cocycle system and quotient by the coboundary
    image over Z/n.  The count comes from elimination over Z/p^e (combined by
    CRT), a route independent of the integer-Smith-form oracle."""
    from .complexes import coboundary_matrix, normalized_tuples
    from .snf import image_size_mod, kernel_generators_mod, kernel_size_mod, solve_mod

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

    def cohomologous_vec(a, b):
        diff = [(x - y) % n for x, y in zip(a, b)]
        return solve_mod(d2, diff, n) is not None if d2 else all(v == 0 for v in diff)

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
