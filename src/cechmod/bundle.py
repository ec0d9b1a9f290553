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

from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import itemgetter

from .algebra import (
    CrossedModule,
    FiniteGroup,
    GroupHom,
    Strict2Group,
    abelian_invariants,
    crossed_module,
    generating_set,
    kernel_of_beta,
    quotient_by_image,
    trivial_action,
    trivial_group,
)
from .cech import (
    DEFAULT_BUDGET,
    Cocycle,
    Coboundary,
    _key_tuples,
    apply_coboundary,
    are_cohomologous,
    coboundary,
    validate_cocycle,
)
from .complexes import SimplicialComplex, degenerate_tuples, differential, normalized_tuples
from .errors import (
    ActionNotFreeTransitive,
    BetaNotSurjective,
    NotA1Cocycle,
    SemanticError,
    TrivializationInvalid,
    VertexOutOfRange,
)
from .snf import solve_mod


def _first_difference(a: list, b: list) -> int:
    """The first position where two equally long lists differ; len(a) if none."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), len(a))


def _positions(table: dict, cells) -> list[int]:
    """The positions of the cells in `table`, -1 for a cell outside it."""
    found = list(map(table.get, cells))
    return [-1 if p is None else p for p in found] if None in found else found


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
        self._idx = None              # the integer index, read by the first `_index` call

    def hom(self, x, y) -> list:
        """The morphisms x -> y, in `morphisms` order, read from the index."""
        obj_pos, _, _, target, _, _, _, out, _ = self._index()
        p, q = obj_pos.get(x), obj_pos.get(y)
        return [] if p is None else [self.morphisms[m] for m in out[p] if target[m] == q]

    def _index(self) -> tuple:
        """The tables with objects and morphisms replaced by their positions
        in `objects` and `morphisms`, read by the first call and kept, and
        read by every check; a table edited later needs a new groupoid:

          (obj_pos, pos, source, target, identity, inverse, compose, out,
           malformed)

        obj_pos and pos map objects and morphisms to positions; source,
        target and inverse are lists over morphisms and identity a list over
        objects; compose maps m2 * M + m1 to m2 o m1, M = len(morphisms);
        out lists the morphisms leaving each object.  A cell outside the
        groupoid, or missing from a table, reads as position -1.

        malformed names, from these lists, what keeps the tables from being
        well formed: the first dangling endpoint alone; else every identity
        that is not a loop at its object and every non-composable key (as is
        one naming a cell outside the groupoid), up to the first composite
        with wrong endpoints, then the first missing composite, m1 by m1.
        Once the keys are distinct composable pairs, a composite is missing
        exactly when there are fewer keys than composable pairs; so the keys
        are checked a list at a time, and walked only to name a failure.
        Tables that list a cell twice raise ValueError.
        """
        if self._idx is not None:
            return self._idx
        objects, mors = self.objects, self.morphisms
        obj_pos = {x: p for p, x in enumerate(objects)}
        pos = {m: p for p, m in enumerate(mors)}
        M = len(mors)
        source = _positions(obj_pos, map(self.source.get, mors))
        target = _positions(obj_pos, map(self.target.get, mors))
        identity = _positions(pos, map(self.identity.get, objects))
        inverse = _positions(pos, map(self.inverse.get, mors))
        bad = [f"identity of {o} has wrong endpoints"
               for x, (o, e) in enumerate(zip(objects, identity))
               if e < 0 or not source[e] == x == target[e]]
        # the keys (m2, m1) and composites m, as three parallel position lists
        m2s = _positions(pos, map(itemgetter(0), self.compose))
        m1s = _positions(pos, map(itemgetter(1), self.compose))
        ms = _positions(pos, self.compose.values())
        compose = dict(zip([a * M + b for a, b in zip(m2s, m1s)], ms))
        out = [[] for _ in objects]
        for p, x in enumerate(source):
            if x >= 0:
                out[x].append(p)
        src_of, tgt_of = source.__getitem__, target.__getitem__
        well_formed = (not bad and -1 not in source and -1 not in target
                       and -1 not in m2s and -1 not in m1s and -1 not in ms
                       # composable keys, then the composite's source and target
                       and list(map(src_of, m2s)) == list(map(tgt_of, m1s))
                       and list(map(src_of, ms)) == list(map(src_of, m1s))
                       and list(map(tgt_of, ms)) == list(map(tgt_of, m2s))
                       and len(compose) == sum(len(out[y]) for y in target))
        if not well_formed:
            if len(obj_pos) < len(objects) or len(pos) < M:
                raise ValueError(f"{self.name}: the tables repeat a cell")
            dangling = [p for p, (x, y) in enumerate(zip(source, target)) if x < 0 or y < 0]
            if dangling:
                bad = [f"dangling endpoints at {mors[dangling[0]]}"]
            else:
                for (c2, c1), m2, m1, m in zip(self.compose, m2s, m1s, ms):
                    inside = m2 >= 0 and m1 >= 0
                    if not inside or source[m2] != target[m1]:
                        bad.append(f"non-composable pair ({c2}, {c1}) in table")
                    if inside and (m < 0 or source[m] != source[m1] or target[m] != target[m2]):
                        bad.append(f"endpoints of composite ({c2}, {c1}) are wrong")
                        break
                keys = set(zip(m2s, m1s))
                missing = next(((m2, m1) for m1, y in enumerate(target) for m2 in out[y]
                                if (m2, m1) not in keys), None)
                if missing:
                    bad.append(f"missing composite ({mors[missing[0]]}, {mors[missing[1]]})")
        self._idx = obj_pos, pos, source, target, identity, inverse, compose, out, tuple(bad)
        return self._idx

    def check_axioms(self) -> list[str]:
        """Exhaustive category-axiom suite; returns failures (empty = pass).

        Well-formedness is checked, and its failures named, as `_index` reads
        the tables.  The right identity, inverse and associativity laws run
        on the index, only on well-formed tables, since they look up
        composites the tables must hold; every triple is checked once.  The
        left identity law follows from those three, so it is not checked
        again: for m: x -> y,

          1_y m = (m m^-1) m = m (m^-1 m) = m 1_x = m.
        """
        _, _, src, tgt, ident, inv, comp, out, malformed = self._index()
        if malformed:
            return list(malformed)
        bad = []
        mors = self.morphisms
        M = len(mors)
        for m in range(M):
            if comp[m * M + ident[src[m]]] != m:
                bad.append(f"right identity law fails at {mors[m]}")
            # an inverse outside the groupoid or with the wrong endpoints has
            # no composite with m
            mi = inv[m]
            if comp.get(mi * M + m) != ident[src[m]] or comp.get(m * M + mi) != ident[tgt[m]]:
                bad.append(f"inverse law fails at {mors[m]}")
        # after[m][k]: the k-th morphism out of the target of m, composed with m;
        # slot[m]: the place of m in the out-list of its source
        after = [[comp[m3 * M + m] for m3 in out[tgt[m]]] for m in range(M)]
        slot = [0] * M
        for row in out:
            for k, m in enumerate(row):
                slot[m] = k
        after_slot = [list(map(slot.__getitem__, row)) for row in after]
        for key, m21 in comp.items():
            m2, m1 = divmod(key, M)
            # (m3 m2) m1 against m3 (m2 m1) for every m3 out of the target of
            # m2; m3 m2 leaves the target of m1, so (m3 m2) m1 is in after[m1]
            lhs = list(map(after[m1].__getitem__, after_slot[m2]))
            if lhs != after[m21]:
                m3 = out[tgt[m2]][_first_difference(lhs, after[m21])]
                bad.append(f"associativity fails at ({mors[m3]}, {mors[m2]}, {mors[m1]})")
                return bad
        return bad

    def components(self) -> dict:
        """Object -> the least object, by `repr`, of its isomorphism class.
        In a groupoid, y is isomorphic to x exactly when some morphism x -> y
        exists: the class of x is the targets of its out-list, one step."""
        _, _, _, target, _, _, _, out, _ = self._index()
        return {x: min((self.objects[q] for q in {target[m] for m in out[p]}), key=repr)
                for p, x in enumerate(self.objects)}


@dataclass
class GroupoidFunctor:
    domain: FiniteGroupoid
    codomain: FiniteGroupoid
    on_objects: dict
    on_morphisms: dict

    def check(self) -> list[str]:
        """The functor laws on the indexes, the maps read once as codomain
        positions.  First a missing object; then, by morphism, a missing one or
        an image off the codomain or its endpoints; then identities, composites."""
        dom, cod, F0, F1 = self.domain, self.codomain, self.on_objects, self.on_morphisms
        _, _, d_src, d_tgt, d_ident, _, d_comp, _, _ = dom._index()
        c_obj, c_pos, c_src, c_tgt, c_ident, _, c_comp, _, _ = cod._index()
        for x in dom.objects:
            if x not in F0:
                return [f"object map misses {x}"]
        f0 = _positions(c_obj, map(F0.get, dom.objects))
        f1 = _positions(c_pos, map(F1.get, dom.morphisms))
        for m, a, x, y in zip(dom.morphisms, f1, d_src, d_tgt):
            if a < 0 or c_src[a] != f0[x] or c_tgt[a] != f0[y]:
                return [f"morphism map misses {m}" if m not in F1
                        else f"source/target not preserved at {m}"]
        bad = [f"identity not preserved at {x}"
               for x, e, y in zip(dom.objects, d_ident, f0) if f1[e] != c_ident[y]]
        mors, M, CM = dom.morphisms, len(dom.morphisms), len(cod.morphisms)
        lhs = [c_comp.get(f1[key // M] * CM + f1[key % M]) for key in d_comp]
        rhs = list(map(f1.__getitem__, d_comp.values()))
        if lhs != rhs:
            m2, m1 = divmod(list(d_comp)[_first_difference(lhs, rhs)], M)
            bad.append(f"composition not preserved at ({mors[m2]}, {mors[m1]})")
        return bad

    def then(self, other: "GroupoidFunctor") -> "GroupoidFunctor":
        """self followed by other."""
        return GroupoidFunctor(
            self.domain, other.codomain,
            {x: other.on_objects[v] for x, v in self.on_objects.items()},
            {m: other.on_morphisms[v] for m, v in self.on_morphisms.items()})


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
        """Naturality on the indexes, read as `GroupoidFunctor.check` reads
        them.  First, by object, a missing component or one off the codomain or
        its endpoints; then the first square unequal or missing a composite."""
        dom, cod, tau = self.F.domain, self.F.codomain, self.component
        _, _, d_src, d_tgt, _, _, _, _, _ = dom._index()
        c_obj, c_pos, c_src, c_tgt, _, _, c_comp, _, _ = cod._index()
        FG, CM = (self.F, self.G), len(cod.morphisms)
        f0, g0 = (_positions(c_obj, map(H.on_objects.get, dom.objects)) for H in FG)
        t = _positions(c_pos, map(tau.get, dom.objects))
        for x, tx, a, b in zip(dom.objects, t, f0, g0):
            if tx < 0 or c_src[tx] != a or c_tgt[tx] != b:
                return [f"component missing at {x}" if x not in tau
                        else f"component at {x} has wrong endpoints"]
        f1, g1 = (_positions(c_pos, map(H.on_morphisms.get, dom.morphisms)) for H in FG)
        for m, a, b, x, y in zip(dom.morphisms, f1, g1, d_src, d_tgt):
            # t_y F(m) against G(m) t_x: an image outside has no composite,
            # and a missing composite reads -1 on the left, -2 on the right
            if a < 0 or b < 0 or c_comp.get(t[y] * CM + a, -1) != c_comp.get(b * CM + t[x], -2):
                return [f"naturality square fails at {m}"]
        return []


# -- the structure 2-group ---------------------------------------------------------

def two_group_groupoid(tg: Strict2Group) -> FiniteGroupoid:
    """The 2-group's underlying groupoid: objects G, morphisms the codes of
    H x G, and the composite of every composable pair, m1 by m1 in code order
    and for each m1 by h2, so that the pairs are listed as a scan over
    (m1, m2) in code order would find them."""
    mors = tg.morphisms()
    compose = {}
    for m1 in mors:
        t = tg.target(m1)
        for h2 in tg.cm.H.elements():
            m2 = tg.encode(h2, t)
            compose[(m2, m1)] = tg.compose(m2, m1)
    return FiniteGroupoid(
        tg.objects(), mors, {m: tg.source(m) for m in mors},
        {m: tg.target(m) for m in mors}, compose,
        {g: tg.identity(g) for g in tg.objects()},
        {m: tg.vertical_inverse(m) for m in mors}, name="2group")


def two_group_from_crossed_module(cm: CrossedModule) -> Strict2Group:
    """Build the strict 2-group and verify the category axioms on its
    groupoid, then the interchange law (f1 o f2) * (f3 o f4) = (f1 * f3) o
    (f2 * f4) for every two composable pairs, on generators.

    The tensor * on morphisms is the product of H x| G, which is associative
    because alpha is a validated action by automorphisms, with unit 1_e.
    The interchange law says that the composable pairs C = {(f1, f2) :
    source f1 = target f2} are closed under the componentwise product, and
    that composition C -> morphisms is a homomorphism for it (Brown &
    Spencer, 1976).  So it is checked as `validate_hom` checks one: X is a
    greedy generating set of C, an element joining when it lies outside the
    closure of the earlier ones under y -> y * x, and the closure walk
    asserts, at every product y * x it takes, that y * x is composable and
    that its composite is (f1 o f2) * (f3 o f4).  The walk after the last
    generator joins takes y * x for every y in C and every x in X.

    That is exact.  The walk keeps inside C, and every element of C joins X
    or is reached, so C is the set of products of elements of X; by
    induction on word length, with the product associative, y * w lies in C
    for all y and w in C and composition is multiplicative on them.  Each
    assertion is an instance of the law at two composable pairs, so the
    check fails exactly when the law fails at some two pairs.
    """
    tg = Strict2Group(cm)
    TG = two_group_groupoid(tg)
    bad = TG.check_axioms()
    assert not bad, f"2-group axiom failure: {bad[0]}"
    comp, tensor = TG.compose, tg.tensor
    unit = tg.identity(cm.G.identity)
    gens, closure = [], {(unit, unit)}
    for pair in comp:
        if pair in closure:
            continue
        gens.append(pair)
        closure.add(pair)
        queue = list(closure)
        while queue:
            y = queue.pop()
            fy = comp[y]
            for x in gens:
                yx = (tensor(y[0], x[0]), tensor(y[1], x[1]))
                assert comp.get(yx) == tensor(fy, comp[x]), "interchange law fails"
                if yx not in closure:
                    closure.add(yx)
                    queue.append(yx)
    return tg


# -- the bundle groupoid ---------------------------------------------------------

class BundleGroupoid(FiniteGroupoid):
    """The finite groupoid of a cocycle, together with its 2-group action.

    Every cell is computed from the group tables, which the instance holds
    for its action: `_gmul` and `_hmul` multiply in G and H, and `_alpha` is
    the action of G on H.  Each object and morphism is one tuple, shared by
    every table that names it.
    """

    def __init__(self, z: Cocycle):
        self.z = z
        self.cm = cm = z.cm
        self.complex = K = z.complex
        G, H = cm.G, cm.H
        self._gmul, self._hmul, self._alpha = G.mul_table, H.mul_table, cm.alpha.table
        gmul, hmul, alpha = self._gmul, self._hmul, self._alpha
        ginv, hinv, beta = G.inv_table, H.inv_table, cm.beta.image
        gs, hs, nG, eH = G.elements(), H.elements(), G.order, H.identity
        objects, morphisms = [], []
        obj_over = {}             # (i, sigma) -> the objects (i, sigma, g), by g
        mor_over = {}             # (i, j, sigma) -> the morphisms (i, j, sigma, h, g), by h |G| + g
        for s in K.simplices_sorted():
            for i in s:
                obj_over[(i, s)] = fib = [(i, s, g) for g in gs]
                objects += fib
            for i in s:
                for j in s:
                    mor_over[(i, j, s)] = fib = [(i, j, s, h, g) for h in hs for g in gs]
                    morphisms += fib
        source, target, identity, inverse, compose = {}, {}, {}, {}, {}
        for (i, s), fib in obj_over.items():
            ids = mor_over[(i, i, s)]
            for g in gs:
                identity[fib[g]] = ids[eH * nG + g]
        for (i, j, s), fib in mor_over.items():
            # m = (i, j, sigma, h, g) runs from (i, sigma, g) to (j, sigma, t) with
            # t = g_ij^-1 beta(h) g; its inverse is (j, i, sigma, g_ij^-1 .
            # (h h_iji)^-1, t), and it composes with each (j, k, sigma, h2, t) to
            # (i, k, sigma, h_ijk (g_ij . h2) h, g)
            gij, hiji = z.g[(i, j)], z.h[(i, j, i)]
            at_source, at_target, back = obj_over[(i, s)], obj_over[(j, s)], mor_over[(j, i, s)]
            per_k = []                # the m2 by (h2, t), the composites, h_ijk (g_ij . h2) by h2
            for k in s:
                hijk = hmul[z.h[(i, j, k)]]
                per_k.append((mor_over[(j, k, s)], mor_over[(i, k, s)],
                              [hijk[alpha[gij][h2]] for h2 in hs]))
            for h in hs:
                row = gmul[gmul[ginv[gij]][beta[h]]]
                hh = alpha[ginv[gij]][hinv[hmul[h][hiji]]] * nG
                # the composites' H parts times |G|, by h2
                cols = [(out, into, [hmul[x][h] * nG for x in left])
                        for out, into, left in per_k]
                for g in gs:
                    m, t = fib[h * nG + g], row[g]
                    source[m] = at_source[g]
                    target[m] = at_target[t]
                    inverse[m] = back[hh + t]
                    for out, into, col in cols:
                        for m2, c in zip(out[t::nG], col):
                            compose[(m2, m)] = into[c + g]
        super().__init__(objects, morphisms, source, target, compose,
                         identity, inverse, name="P_z")
        self._over = None         # simplex -> its composites, grouped by the first `composites_over`

    def composites_over(self, s) -> dict:
        """The part of `compose` over the simplex s, in its order, grouped on
        the first call and kept.  Once P passed `check_axioms` the morphisms
        of a key lie over one simplex, and `__init__` lists the composites
        simplex by simplex in sorted order."""
        if self._over is None:
            self._over = defaultdict(dict)
            for key, m in self.compose.items():
                self._over[key[1][2]][key] = m
        return self._over[s]

    # -- the strict right action of the structure 2-group ----------------------

    def act_obj(self, o, gbar: int):
        i, s, g = o
        return (i, s, self._gmul[g][gbar])

    def act_mor(self, m, hbar: int, gbar: int):
        i, j, s, h, g = m
        return (i, j, s, self._hmul[h][self._alpha[g][hbar]], self._gmul[g][gbar])


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
    morphism m of P and n of the 2-group, and act(m, 1_e) = m for every
    morphism.  Functoriality, act(m2 m1, n2 n1) = act(m2, n2) act(m1, n1),
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

    The identity action on objects and on identities needs no check of its
    own.  The morphism identity check gives act(1_x, 1_e) = 1_x, whose source
    is act_obj(x, e) by endpoint compatibility; so act_obj(x, e) = x.  And
    (a) at (1_x, 1_x) makes a = act(1_x, 1_g) idempotent, so an identity in a
    groupoid that passed `check_axioms`: a = (a^-1 a) a = a^-1 (a a) = a^-1 a.
    Its source is act_obj(x, g), so act(1_x, 1_g) = 1_act_obj(x, g).

    The action is read once: act[m][n] is the position of P.act_mor(m, n)
    for every morphism position m and 2-group morphism n, filled by the
    endpoint loop; a cell off P fails endpoint compatibility, as it has no
    endpoints.  Identities, functoriality and the fiber orbits are then
    table lookups on the integer index of P, the one `check_axioms` read.
    A fiber is the cells of P that agree but in their trailing (h, g); the
    action is free and transitive on it exactly when the row of its first
    cell, sorted, is the fiber's positions.
    The 2-group's endpoints, identities and composable pairs are read from
    `two_group_groupoid`, whose axioms are not rechecked here.
    """
    bad = []
    tg = Strict2Group(P.cm)
    TG = two_group_groupoid(tg)
    G = P.cm.G
    obj_pos, pos, src, tgt, ident, _, comp, _, _ = P._index()
    mors = P.morphisms
    M = len(mors)
    ns = TG.morphisms
    dec = [tg.decode(n) for n in ns]
    ids = [TG.identity[g] for g in G.elements()]
    n_source = [TG.source[n] for n in ns]
    n_target = [TG.target[n] for n in ns]
    # obj_act[x][g]: position of P.act_obj(x, g), -1 off the groupoid; an
    # acted morphism must run from obj_act[x] at the source of n to obj_act[y]
    # at its target
    obj_act = [[obj_pos.get(P.act_obj(o, g), -1) for g in G.elements()] for o in P.objects]
    to_source = [[row[g] for g in n_source] for row in obj_act]
    to_target = [[row[g] for g in n_target] for row in obj_act]
    e_n = ids[G.identity]
    act = []
    for p, m in enumerate(mors):
        row = [P.act_mor(m, hbar, gbar) for (hbar, gbar) in dec]
        if row[e_n] != m:
            bad.append(f"identity morphism action moves {m}")
            return bad
        row = _positions(pos, row)
        if -1 in row:             # compare the endpoints up to the first cell off P
            row = row[:row.index(-1)]
        sources, targets = [src[a] for a in row], [tgt[a] for a in row]
        if sources != to_source[src[p]] or targets != to_target[tgt[p]]:
            n = min(_first_difference(sources, to_source[src[p]]),
                    _first_difference(targets, to_target[tgt[p]]))
            bad.append(f"action endpoint compatibility fails at ({m}, {n})")
            return bad
        act.append(row)

    # Each family compares act(m2 m1, n2 n1) with act(m2, n2) act(m1, n1) a
    # list at a time: (a) a column of act over all composable pairs, (b) and
    # (c) a row.  The first differing entry names the failing quadruple, in
    # the order the quadruples are listed above.
    def fails(m2, m1, n2, n1):
        return [f"action functoriality fails at ({mors[m2]}, {mors[m1]}, {n2}, {n1})"]

    first = None
    for k, e in enumerate(ids):                                        # (a)
        col = [row[e] for row in act]
        lhs = [comp[col[key // M] * M + col[key % M]] for key in comp]
        rhs = [col[m21] for m21 in comp.values()]
        if lhs != rhs:
            j = _first_difference(lhs, rhs)
            if first is None or j < first[0]:
                first = (j, k)
    if first is not None:
        e = ids[first[1]]
        return fails(*divmod(list(comp)[first[0]], M), e, e)
    n2s, n1s, n21s = zip(*[(n2, n1, n21) for (n2, n1), n21 in TG.compose.items()])
    for e in ident:                                                    # (b)
        row = act[e]
        lhs = [comp[row[n2] * M + row[n1]] for n2, n1 in zip(n2s, n1s)]
        rhs = [row[n21] for n21 in n21s]
        if lhs != rhs:
            k = _first_difference(lhs, rhs)
            return fails(e, e, n2s[k], n1s[k])
    at_target = [ids[g] for g in n_target]
    at_source = [ids[g] for g in n_source]
    for m in range(M):                                                 # (c)
        ex, ey = ident[src[m]], ident[tgt[m]]
        row = act[m]
        lhs_x, lhs_y = act[comp[m * M + ex]], act[comp[ey * M + m]]
        rhs_x = [comp[row[e] * M + a] for e, a in zip(at_target, act[ex])]
        rhs_y = [comp[a * M + row[e]] for a, e in zip(act[ey], at_source)]
        if lhs_x != rhs_x or lhs_y != rhs_y:
            kx = _first_difference(lhs_x, rhs_x)
            ky = _first_difference(lhs_y, rhs_y)
            if kx <= ky:
                return fails(m, ex, at_target[kx], kx)
            return fails(ey, m, ky, at_source[ky])
    # the fibers, as positions in P's order
    obj_fibers, mor_fibers = defaultdict(list), defaultdict(list)
    for p, o in enumerate(P.objects):
        obj_fibers[o[:2]].append(p)
    for p, m in enumerate(mors):
        mor_fibers[m[:3]].append(p)
    for s in P.complex.simplices_sorted():
        for i in s:
            fib = obj_fibers.get((i, s))
            if not fib or sorted(obj_act[fib[0]]) != fib:
                bad.append(f"object action not free/transitive on fiber ({i}, {s})")
                return bad
            for j in s:
                fib = mor_fibers.get((i, j, s))
                if not fib or sorted(act[fib[0]]) != fib:
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
    """The full subgroupoid of P over the star of a vertex, with P's
    composites over each simplex of the star (`composites_over`)."""
    objs = [o for o in P.objects if vertex in o[1]]
    mors = [m for m in P.morphisms if vertex in m[2]]
    comp = {}
    for s in P.complex.star_simplices(vertex):
        comp.update(P.composites_over(s))
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
    """The trivializations at every vertex; P.compose is read once, into
    the grouping by simplex they share (`BundleGroupoid.composites_over`)."""
    return {i: trivializations(P, i) for i in range(P.complex.vertex_count)}


def check_trivialization(z: Cocycle, triv: Trivialization) -> list[str]:
    """phi and phibar are functors, strictly equivariant, phi o phibar = id,
    and taubar is natural.

    The functor and naturality checks are exhaustive.  Equivariance is
    checked on generators: on objects for gbar in a generating set of G, and
    on morphisms for n in {(h, e) : h in gens H} and {(e, g) : g in gens G},
    which generate the 2-group's morphisms H x G under the tensor product
    (h, g) (h', g') = (h (g . h'), g g'), since (h, g) = (h, e) (e, g).  This
    is exact.  Both sides of each test compute the acted cell by formula,
    (j, sigma, g) . gbar = (j, sigma, g gbar) and (j, k, sigma, h, g) . (hbar,
    gbar) = (j, k, sigma, h (g . hbar), g gbar), and on the chart alike.  That
    formula is a right action, because alpha acts by automorphisms:
    (m . n1) . n2 = m . (n1 n2).  So if phi(m . n) = phi(m) . n for every m
    and for n in {n1, n2}, then for every m

      phi(m . n1 n2) = phi((m . n1) . n2) = phi(m . n1) . n2
                     = (phi(m) . n1) . n2 = phi(m) . n1 n2,

    whatever the tables of phi hold; the same holds for objects and for
    phibar.  Every element of a finite group is a product of generators.

    phibar is checked on objects only: phi o phibar = id and taubar is a
    natural isomorphism (groupoid morphisms are invertible), so phi is an
    equivalence, hence faithful; phibar(m . n) and phibar(m) . n are parallel
    by object equivariance, and phi sends both to m . n (phi is equivariant).
    """
    phi, phibar = triv.phi, triv.phibar
    bad = phi.check() + phibar.check()
    if bad:
        return bad
    phi_obj, phi_mor = phi.on_objects, phi.on_morphisms
    for o in triv.chart.objects:
        if phi_obj[phibar.on_objects[o]] != o:
            return [f"phi o phibar moves object {o}"]
    for m in triv.chart.morphisms:
        if phi_mor[phibar.on_morphisms[m]] != m:
            return [f"phi o phibar moves morphism {m}"]
    bad = triv.taubar.check()
    if bad:
        return bad
    cm = z.cm
    G, H = cm.G, cm.H
    gmul, hmul, alpha = G.mul_table, H.mul_table, cm.alpha.table
    gens_g = generating_set(G.elements(), gmul, G.identity)
    gens_n = sorted([(hbar, G.identity) for hbar in generating_set(H.elements(), hmul, H.identity)]
                    + [(H.identity, gbar) for gbar in gens_g])
    P = triv.restricted
    for o in P.objects:
        j, s, g = o
        s2, g2 = phi_obj[o]
        for gbar in gens_g:
            if phi_obj[(j, s, gmul[g][gbar])] != (s2, gmul[g2][gbar]):
                return [f"phi not equivariant at object (({j},{s},{g}), {gbar})"]
    for o in triv.chart.objects:
        s, g = o
        j, s2, g2 = phibar.on_objects[o]
        for gbar in gens_g:
            if phibar.on_objects[(s, gmul[g][gbar])] != (j, s2, gmul[g2][gbar]):
                return [f"phibar not equivariant at object (({s},{g}), {gbar})"]
    for m in P.morphisms:
        i, j, s, h, g = m
        s2, h2, g2 = phi_mor[m]
        for hbar, gbar in gens_n:
            moved = (i, j, s, hmul[h][alpha[g][hbar]], gmul[g][gbar])
            if phi_mor[moved] != (s2, hmul[h2][alpha[g2][hbar]], gmul[g2][gbar]):
                return [f"phi not equivariant at morphism ({m}, {hbar}, {gbar})"]
    return []


# -- extraction and reconstruction ---------------------------------------------

def extract_cocycle(P: BundleGroupoid, trivs: dict[int, Trivialization]) -> Cocycle:
    """Read the transition data back from a family of trivializations.

    P must pass `check_action`, as `trivializations` requires `check_axioms`;
    the action is not rechecked here.  g_ij is the group part of
    phi_i(phibar_j(sigma, e)); h_ijk is the H part of
    phi_i(taubar_j(phibar_k(sigma, e))).  Values must not depend on sigma
    (charts have connected overlaps) and the result must validate; with the
    canonical trivializations of a bundle groupoid the original cocycle is
    recovered exactly.
    """
    K, cm = P.complex, P.cm
    eG = cm.G.identity
    simplices = [(s, set(s)) for s in K.simplices_sorted()]

    def read(what, tup, value):
        try:
            vals = {value(s, *tup) for s, support in simplices if support.issuperset(tup)}
        except KeyError as exc:
            raise TrivializationInvalid(f"missing chart data at {exc}")
        if len(vals) != 1:
            raise TrivializationInvalid(f"{what} {tup} depends on the fiber: {sorted(vals)}")
        return vals.pop()

    def g_value(s, i, j):
        return trivs[i].phi.on_objects[trivs[j].phibar.on_objects[(s, eG)]][1]

    def h_value(s, i, j, k):
        o = trivs[k].phibar.on_objects[(s, eG)]
        return trivs[i].phi.on_morphisms[trivs[j].taubar.component[o]][1]

    # every valid tuple, in lexicographic order, so a failure names the first
    g = {p: read("transition value on pair", p, g_value) for p in _key_tuples(K, 2)}
    h = {t: read("triple value on", t, h_value) for t in _key_tuples(K, 3)}
    try:
        return validate_cocycle(Cocycle(K, cm, g, h))
    except Exception as exc:
        raise TrivializationInvalid(f"extracted data is not a cocycle: {exc}")


def _equivariant_functor(P: BundleGroupoid, Q: BundleGroupoid,
                         obj_image, mor_image) -> GroupoidFunctor:
    """The functor P -> Q with (i, sigma, e) -> obj_image(i, sigma) and
    (i, j, sigma, e, e) -> mor_image(i, j, sigma), extended by Q's action:
    (i, sigma, g) is its generator acted on by g, and (i, j, sigma, h, g) its
    generator acted on by (h, g).  The functor laws are checked exhaustively."""
    F = GroupoidFunctor(P, Q, {o: Q.act_obj(obj_image(*o[:2]), o[2]) for o in P.objects},
                        {m: Q.act_mor(mor_image(*m[:3]), *m[3:]) for m in P.morphisms})
    bad = F.check()
    assert not bad, f"bundle morphism is not a functor: {bad[0]}"
    return F


def coboundary_to_bundle_morphism(P: BundleGroupoid, c: Coboundary) -> GroupoidFunctor:
    """The bundle morphism P_z -> P_z' induced by a coboundary, z = P.z.

    P must have passed `check_axioms`; the codomain is P when c fixes z and
    the checked groupoid of z' otherwise.  The generators (i, sigma, e) and
    (i, j, sigma, e, e) go to (i, sigma, gamma_i^-1) and (i, j, sigma,
    gamma_i^-1 . eta_ij, gamma_i^-1), whose H part is forced by its target,
    the relocated chart object; so (i, j, sigma, h, g) goes to
    (i, j, sigma, gamma_i^-1 . (eta_ij * h), gamma_i^-1 * g).
    """
    z2 = apply_coboundary(P.z, c)
    Q = P if z2 == P.z else build_total_groupoid(z2)
    ginv = {i: P.cm.G.inv(gi) for i, gi in c.gamma.items()}
    return _equivariant_functor(
        P, Q, lambda i, s: (i, s, ginv[i]),
        lambda i, j, s: (i, j, s, P.cm.act(ginv[i], c.eta[(i, j)]), ginv[i]))


def reconstruction_morphism(P: BundleGroupoid,
                            trivs: dict[int, Trivialization]) -> GroupoidFunctor:
    """The comparison morphism from the bundle groupoid of the extracted
    cocycle back to P: the generators (i, sigma, e) and (i, j, sigma, e, e)
    go to phibar_i(sigma, e) and phibar_j(sigma, (h_jij, g_ji)) o
    taubar_j(phibar_i(sigma, e))^-1, extended equivariantly.  Its domain is
    P when the extracted cocycle is P.z; with canonical data it is the identity."""
    bad = check_action(P)
    if bad:
        raise ActionNotFreeTransitive(bad[0])
    zhat = extract_cocycle(P, trivs)
    Pz = P if zhat == P.z else build_total_groupoid(zhat)
    eG = P.cm.G.identity

    def mor_image(i, j, s):
        o = trivs[i].phibar.on_objects[(s, eG)]
        back = P.inverse[trivs[j].taubar.component[o]]
        corr = trivs[j].phibar.on_morphisms[(s, zhat.h[(j, i, j)], zhat.g[(j, i)])]
        return P.compose[(corr, back)]

    F = _equivariant_functor(
        Pz, P, lambda i, s: trivs[i].phibar.on_objects[(s, eG)], mor_image)
    ok, why = is_weak_equivalence(F)
    assert ok, f"reconstruction morphism is not a weak equivalence: {why}"
    return F


def is_weak_equivalence(F: GroupoidFunctor) -> tuple[bool, str]:
    """Essential surjectivity plus full faithfulness, checked exhaustively on the indexes.

    Only pairs whose images lie in one codomain component are walked: for
    any other pair the codomain hom set is empty, and so is the domain one,
    since a morphism x -> y would map to one F(x) -> F(y).  Such a pair
    passes, so the first failure is the one the all-pairs walk reports.
    """
    dom, cod = F.domain, F.codomain
    _, _, d_src, d_tgt, _, _, _, _, _ = dom._index()
    c_obj, _, c_src, c_tgt, _, _, _, _, _ = cod._index()
    comp = cod.components()
    f0 = [c_obj[F.on_objects[x]] for x in dom.objects]
    members = defaultdict(list)   # codomain component -> positions of the domain objects there
    for p, a in enumerate(f0):
        members[comp[cod.objects[a]]].append(p)
    for y in cod.objects:
        if comp[y] not in members:
            return False, f"object {y} is not isomorphic to any image object"
    sizes = Counter(zip(c_src, c_tgt))    # (a, b) -> |hom(a, b)|, by positions
    hom = defaultdict(list)               # (x, y) -> the images of hom(x, y), by positions
    for m, x, y in zip(dom.morphisms, d_src, d_tgt):
        hom[x, y].append(F.on_morphisms[m])
    for p, x in enumerate(dom.objects):
        for q in members[comp[cod.objects[f0[p]]]]:
            if len(set(hom[p, q])) != len(hom[p, q]):
                return False, f"not faithful on hom({x}, {dom.objects[q]})"
            if len(hom[p, q]) != sizes[f0[p], f0[q]]:
                return False, f"not full on hom({x}, {dom.objects[q]})"
    return True, ""


@dataclass
class MoritaSpan:
    left: GroupoidFunctor
    right: GroupoidFunctor


def morita_equivalent(z: Cocycle, z2: Cocycle,
                      budget: int = DEFAULT_BUDGET) -> tuple[bool, MoritaSpan | None, Coboundary | None]:
    """Same-cover Morita test: positive exactly when the cocycles are
    cohomologous, in which case an explicit span of weak equivalences
    P_z <- P_z -> P_z2 is produced (identity and the coboundary morphism).
    Only the right leg is checked: the left one is the identity functor of
    P, a weak equivalence on any groupoid."""
    w = are_cohomologous(z, z2, budget)
    if w is None:
        return False, None, None
    P = build_total_groupoid(z)
    left = identity_functor(P)
    right = coboundary_to_bundle_morphism(P, w)
    assert is_weak_equivalence(right)[0], "span legs must be weak equivalences"
    return True, MoritaSpan(left, right), w


# -- band, central reduction, lifting -------------------------------------------

@dataclass
class Band:
    group: FiniteGroup
    projection: GroupHom
    values: dict
    complex: SimplicialComplex

    def is_trivial_class(self, budget: int = DEFAULT_BUDGET) -> bool:
        return band_cohomologous_to(self, {p: self.group.identity for p in self.values},
                                    budget)


def band(z: Cocycle) -> Band:
    """The ordinary 1-cocycle obtained by projecting g to G/beta(H).

    z is validated, so beta(h_ijk) g_ij g_jk = g_ik on every normalized
    triple; the projection kills beta(H), so it carries that identity to the
    band's b_ij b_jk = b_ik; g_ii = e gives it on the other triples."""
    K = z.complex
    Kgrp, proj = quotient_by_image(z.cm)
    vals = {p: proj(z.g[p]) for p in normalized_tuples(K, 2) + degenerate_tuples(K, 2)}
    return Band(Kgrp, proj, vals, K)


def band_cohomologous_to(b: Band, other: dict, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether some lambda carries the band cocycle to `other`, other_ij =
    lambda_i^-1 * b_ij * lambda_j: the coboundary search of `are_cohomologous`
    over the crossed module 1 -> G/beta(H), on cocycles with h = e, charging
    `budget`.  b is a 1-cocycle because z was validated (`band`), and `other`
    needs no check, since a witness counts only when its validated image of
    b equals `other`."""
    grp, one = b.group, trivial_group()
    cm = crossed_module(grp, one, [grp.identity], trivial_action(grp, one).table)
    K = b.complex
    h = dict.fromkeys(normalized_tuples(K, 3) + degenerate_tuples(K, 3), one.identity)
    return are_cohomologous(Cocycle(K, cm, b.values, h),
                            Cocycle(K, cm, other, h), budget) is not None


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
    abelian quadruple identity.  `apply_coboundary` validates the reduced
    cocycle z2, and nothing is checked again: g'_ij = beta(s(g_ij))^-1 g_ij
    = e, as beta(s(g)) = g and s(e) = e; z2's pair identity beta(h'_ijk) e e
    = e puts every h' in ker(beta), where `back` inverts the inclusion; and
    with g' = e, alpha drops out of z2's quadruple identity.
    """
    cm, K = z.cm, z.complex
    A, inc = kernel_of_beta(cm)
    sec = section_of_beta(cm)
    # eta is e on the diagonal, where `coboundary` fills it in: s(e) = e
    eta = {p: cm.H.inv(sec[z.g[p]]) for p in normalized_tuples(K, 2)}
    c = coboundary(K, cm, {v: cm.G.identity for v in range(K.vertex_count)}, eta)
    z2 = apply_coboundary(z, c)
    back = {hidx: a for a, hidx in enumerate(inc)}
    reduced = {t: back[v] for t, v in z2.h.items()}
    return CentralReduction(A, inc, reduced, c, z2)


@dataclass
class LiftResult:
    obstruction: dict      # triple -> kernel index
    kernel: FiniteGroup
    exists: bool
    lift: dict | None      # pair -> H index


def validate_one_cocycle(K: SimplicialComplex, G: FiniteGroup, g: dict) -> dict:
    """g on every valid pair, checked to be a normalized 1-cocycle; g may
    omit a diagonal pair, which then reads e.  The valid pairs are the
    normalized and degenerate ones the complex holds, scanned in
    lexicographic order, so a failure names the first failing pair.  With
    g_ii = e the identity g_ij g_jk = g_ik holds on every triple with an
    adjacent repeat, so it is checked on the normalized triples, in
    lexicographic order."""
    pairs = _key_tuples(K, 2)
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
    for (i, j, k) in normalized_tuples(K, 3):
        if G.mul(full[(i, j)], full[(j, k)]) != full[(i, k)]:
            raise NotA1Cocycle((i, j, k))
    return full


def lifting_obstruction(K: SimplicialComplex, cm: CrossedModule, g: dict) -> LiftResult:
    """The kernel-valued obstruction to lifting a 1-cocycle through beta.

    The obstruction is the central reduction of the cocycle (g, h = e).  Its
    witness is gamma = e, eta_ij = s(g_ij)^-1 for the section s, and since
    beta(s(g_ij)) = g_ij the Peiffer identity turns g_ij . x into
    s(g_ij) x s(g_ij)^-1, so the reduced value is

        h'_ijk = s(g_ik)^-1 s(g_ij) s(g_jk) = s(g_ik)^-1 a_ijk s(g_ik),
        a_ijk  = s(g_ij) s(g_jk) s(g_ik)^-1.

    a_ijk lies in ker(beta), which is central when beta is surjective, so
    h' = a.  A lift l_ij = s(g_ij) b_ij with b in ker(beta) is a 1-cocycle
    exactly when a_ijk = b_ik b_ij^-1 b_jk^-1, i.e. when the class of a
    vanishes.  ker(beta) is abelian, so db = -a splits over its invariant
    factors into one exact modular linear solve per factor; a trivial kernel
    has none, and its lift is the section.

    g is validated once, by `validate_one_cocycle`, and (g, e) is built
    without `validate_cocycle`: with h = e the h totality, normalization and
    quadruple identity hold trivially, and the pair and triple identities
    are the 1-cocycle identity just checked.  `central_reduction` still
    validates its result through `apply_coboundary`.
    """
    G, H = cm.G, cm.H
    g = validate_one_cocycle(K, G, g)
    triples = normalized_tuples(K, 3) + degenerate_tuples(K, 3)
    red = central_reduction(Cocycle(K, cm, g, dict.fromkeys(triples, H.identity)))
    base = {p: H.inv(eta) for p, eta in red.witness.eta.items()}  # s(g_ij)
    lift = _solve_lift(K, H, red, base)
    if lift is not None:
        for (i, j, k) in triples:
            assert H.mul(lift[(i, j)], lift[(j, k)]) == lift[(i, k)]
        for p in g:
            assert cm.beta_of(lift[p]) == g[p]
    return LiftResult(red.reduced, red.kernel, lift is not None, lift)


def _solve_lift(K, H, red, base):
    """A lift s(g_ij) * b_ij, with db = -a solved mod n_r in each coordinate
    of ker(beta) = (+) Z/n_r, or None when some coordinate has no solution."""
    orders, coords = abelian_invariants(red.kernel)
    sols = []
    for r, n in enumerate(orders):
        rhs = [(-coords[red.reduced[t]][r]) % n for t in normalized_tuples(K, 3)]
        sols.append(solve_mod(differential(K, 1), rhs, n))
        if sols[-1] is None:
            return None
    element = {c: x for x, c in coords.items()}
    lift = dict(base)  # s(e) = e on the diagonal
    for p, b in zip(normalized_tuples(K, 2), zip(*sols)):
        lift[p] = H.mul(base[p], red.inclusion[element[b]])
    return lift


# -- the structure quotient -------------------------------------------------------

def quotient_by_structure_group(P: BundleGroupoid) -> FiniteGroupoid:
    """The groupoid of charts obtained by quotienting out the object group.

    The object group acts freely on objects and morphisms of the bundle
    groupoid, and the structure maps descend.  Over a single vertex this is
    the one-object groupoid with automorphism group H.

    P must be the groupoid of a cocycle over a crossed module built by
    `crossed_module`, as the catalog and `io` build every one; then a class
    is a cell of P without its group part.  gbar acts by (e, gbar), which
    sends (i, sigma, g) to (i, sigma, g gbar) and (i, j, sigma, h, g) to
    (i, j, sigma, h (g . e), g gbar) = (i, j, sigma, h, g gbar), as alpha(g)
    is an automorphism (`validate_crossed_module`); G passed
    `validate_group`, so g gbar runs over G once.  An orbit is thus the
    cells that agree everywhere but in the group part, and the member with
    group part e represents it.  The composite of m2 after m1 acts on m2's
    representative by (e, t), t the group part of m1's target, so that the
    two compose on the nose.
    """
    e = P.cm.G.identity
    objects = sorted({o[:2] for o in P.objects})
    morphisms = sorted(m[:4] for m in P.morphisms if m[4] == e)
    source, target, identity, inverse, compose = {}, {}, {}, {}, {}
    out = defaultdict(list)       # object class -> morphism classes it sources
    for mc in morphisms:
        m = mc + (e,)
        source[mc] = P.source[m][:2]
        target[mc] = P.target[m][:2]
        inverse[mc] = P.inverse[m][:4]
        out[source[mc]].append(mc)
    for oc in objects:
        identity[oc] = P.identity[oc + (e,)][:4]
    for m1c in morphisms:
        m1 = m1c + (e,)
        t = P.target[m1][2]
        for m2c in out[target[m1c]]:
            compose[(m2c, m1c)] = P.compose[(m2c + (t,), m1)][:4]
    Q = FiniteGroupoid(objects, morphisms, source, target, compose, identity,
                       inverse, name="P_z / G")
    bad = Q.check_axioms()
    assert not bad, f"quotient groupoid axiom failure: {bad[0]}"
    return Q
