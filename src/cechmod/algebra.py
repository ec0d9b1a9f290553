"""Exact arithmetic for finite groups, homomorphisms, actions and crossed modules.

Elements are dense integer indices 0..n-1 and every operation is a table
lookup, so all computation is exact.  Constructors re-check their axioms
eagerly: downstream enumeration assumes validity, and failing fast keeps
the witness of a broken axiom close to its source.

Group equality is table identity.  Isomorphism testing exists only as a
brute-force utility for small orders; classification results elsewhere in
the package are reported as cardinalities and canonical encodings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter, ne
from typing import Callable, Hashable, Iterator, Sequence

from .errors import (
    EquivarianceFailure,
    NoIdentity,
    NoInverse,
    NotAssociative,
    PeifferFailure,
    SemanticError,
    TooLarge,
)

AUT_SEARCH_BOUND = 24  # largest |H| for which automorphism enumeration runs


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on indices 0..order-1 given by its multiplication table."""

    order: int
    mul_table: tuple[tuple[int, ...], ...]
    identity: int
    inv_table: tuple[int, ...]
    name: str = "group"

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def elements(self) -> range:
        return range(self.order)

    def mul_many(self, *elts: int) -> int:
        acc = self.identity
        for x in elts:
            acc = self.mul_table[acc][x]
        return acc

    def conj(self, g: int, h: int) -> int:
        """g * h * g^-1."""
        return self.mul_table[self.mul_table[g][h]][self.inv_table[g]]

    def is_abelian(self) -> bool:
        t = self.mul_table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order))

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.mul_table[x][a]
            n += 1
        return n


def abelian_invariants(A: FiniteGroup) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """The invariant factors n_1, n_2, ... of an abelian A, each divisible by
    the next, and the isomorphism `coords` from A onto (+) Z/n_r.

    Basis elements x_1, x_2, ... are chosen greedily.  With S the span of
    those chosen so far, take the first y of largest order m modulo S, then
    x = the first element of y + S whose order in A is m.  Such an x exists,
    and S + <x> is direct:
    - write S_r for the span of x_1..x_r and n_r for the order of x_r.  The
      largest order in a finite abelian group is its exponent, so n_r kills
      A / S_(r-1), and m divides n_r, since A / S is a quotient of it;
    - so m y = sum_r c_r x_r, and in A / S_(r-1), where the x_s with s >= r
      stay independent of orders n_s, (n_r / m) m y = n_r y = 0 reads
      (n_r / m) c_r = 0 mod n_r, i.e. m | c_r;
    - then y - sum_r (c_r / m) x_r lies in y + S and has order m in A;
    - any x in y + S of order m in A has order m modulo S, so k x lies in
      S only when m | k, that is when k x = e.
    m | n_r for every earlier r gives the divisibility chain.
    A cyclic A gets its first generator x, and sorted(coords,
    key=coords.get) is [e, x, x^2, ...].
    """
    mul = A.mul_table
    orders, coords = [], {A.identity: ()}
    while len(coords) < A.order:
        quotient = []
        for y in A.elements():  # the order of y modulo the span
            k, z = 1, y
            while z not in coords:
                z, k = mul[z][y], k + 1
            quotient.append(k)
        m = max(quotient)
        y = quotient.index(m)
        x = min(z for z in (mul[y][s] for s in coords) if A.element_order(z) == m)
        extended, xt = {}, A.identity
        for t in range(m):
            for s, c in coords.items():
                extended[mul[s][xt]] = (*c, t)
            xt = mul[xt][x]
        orders.append(m)
        coords = extended
    return orders, coords


def generating_set(elements: Sequence[int], mul_table, identity: int) -> list[int]:
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


def _row_getter(indices: Sequence[int]) -> Callable:
    """row -> (row[i] for i in indices) as a tuple, in one C-level call.
    `itemgetter` of a single index returns the bare entry, so one index gets
    a 1-tuple of its own."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


def _associativity_failure(table: tuple[tuple[int, ...], ...]) -> None:
    """Raise NotAssociative at the first triple (a, b, c), in lexicographic
    order, with (a b) c != a (b c)."""
    order = len(table)
    for a in range(order):
        ta = table[a]
        for b in range(order):
            tab = table[ta[b]]
            tb = table[b]
            for c in range(order):
                if tab[c] != ta[tb[c]]:
                    raise NotAssociative(a, b, c)


def validate_group(order: int, mul_table: Sequence[Sequence[int]],
                   name: str = "group") -> FiniteGroup:
    """Check the group axioms on a raw table; derive identity and inverses.

    Associativity is checked by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, section 1.2) on a generating set X of
    the table as a magma, chosen greedily: an element joins X when it lies
    outside the closure of the earlier ones under y x and x y, x in X.  The
    test checks (a x) c = a (x c) for all a, c and each x in X, at a cost of
    |G|^2 |X| lookups instead of |G|^3.  It is exact.  Let T be the set of y
    with (a y) c = a (y c) for all a and c.  For y and y' in T,
    (a (y y')) c = ((a y) y') c = (a y) (y' c) = a (y (y' c)) = a ((y y') c),
    so T is closed under products.  T contains X, and the identity e if
    the table has one, as (a e) c = a c = a (e c).  Every element of the
    table is a product of these, so T is the whole table.  Only when
    the test fails does the ordered scan run, so NotAssociative names the
    first failing triple (a, b, c) in lexicographic order.  For each x the
    test compares whole rows, row (a x) against row x read through row a,
    one `itemgetter` per x.

    The identity is the first e whose row and column are the identity map,
    compared whole.  It is found before the test, whose closure starts at e,
    so that e never joins X.  NoIdentity is raised after the test, so
    NotAssociative still comes first.  The inverse of a is the first b
    with a b = e, `row.index(e)`, which is exact once associativity is
    proven.  A two-sided identity is unique.  In a finite monoid a b = e implies
    b a = e: c -> a c is onto, as a (b c) = c, hence one-to-one, and
    a (b a) = (a b) a = a = a e.  So b is a two-sided inverse, the only one,
    and a has none exactly when e is missing from its row, so NoInverse
    names the same first element as a scan for two-sided inverses.  The
    range scan reads each row's min and max, and walks the entries only to
    name the first one out of range.
    """
    if order <= 0:
        raise SemanticError("order must be positive")
    if len(mul_table) != order or any(len(row) != order for row in mul_table):
        raise SemanticError(f"multiplication table must be {order}x{order}")
    table = tuple(tuple(row) for row in mul_table)
    for row in table:
        if min(row) < 0 or max(row) >= order:
            v = next(v for v in row if not (0 <= v < order))
            raise SemanticError(f"table entry {v} out of range")

    ident = tuple(range(order))
    identity = next((e for e, row in enumerate(table)
                     if row == ident and tuple(map(itemgetter(e), table)) == ident), None)

    gens, closure = [], set() if identity is None else {identity}
    for x in range(order):
        if x in closure:
            continue
        gens.append(x)
        closure.add(x)
        queue = list(closure)
        while queue:
            y = queue.pop()
            ty = table[y]
            for s in gens:
                for w in (ty[s], table[s][y]):
                    if w not in closure:
                        closure.add(w)
                        queue.append(w)
    for x in gens:
        # row (a x) against row x read through row a, for every a
        if any(map(ne, map(table.__getitem__, map(itemgetter(x), table)),
                   map(_row_getter(table[x]), table))):
            _associativity_failure(table)
            raise AssertionError("Light's test fails, but the scan finds no triple")
    if identity is None:
        raise NoIdentity()

    inv = []
    for a, row in enumerate(table):
        if identity not in row:
            raise NoInverse(a)
        inv.append(row.index(identity))

    return FiniteGroup(order, table, identity, tuple(inv), name)


def group_from_operation(items: Sequence[Hashable], op: Callable,
                         name: str = "group") -> tuple[FiniteGroup, list]:
    """Build a validated group from a closed binary operation on hashable items.

    Returns the group together with the item list in index order.
    """
    items = list(items)
    index = {x: i for i, x in enumerate(items)}
    if len(index) != len(items):
        raise ValueError("duplicate items")
    table = []
    for a in items:
        row = []
        for b in items:
            c = op(a, b)
            if c not in index:
                raise ValueError(f"operation not closed at ({a!r}, {b!r})")
            row.append(index[c])
        table.append(row)
    return validate_group(len(items), table, name), items


def _group_from_right_multiplications(order: int, identity: int, rows: list[list[int]],
                                      name: str = "group") -> FiniteGroup:
    """The validated group whose Cayley table is filled from the right
    multiplications R_x: a -> a x of an associative law with identity e,
    one index list in `rows` for each x of a generating set X.

    Column b of the table is col(b)[a] = a b.  col(e) is the identity map,
    and col(b x) = R_x o col(b), one C-level `map` per element, reached by a
    breadth-first walk from e along b -> b x.  That is exact: for an
    associative law (a b) x = a (b x), so every derived entry is the law's
    own product, and the law is called |G| |X| times, for the rows, instead
    of |G|^2.  A walk that misses an element raises.  The table then passes
    `validate_group`, as any other.  Only laws the package proves
    associative are built here: the coboundary product (`cech.stabilizer`)
    and the pointwise product of a direct power (`power_group`).
    """
    cols = [None] * order
    cols[identity] = range(order)
    walk = [identity]
    for b in walk:
        for row in rows:
            c = row[b]
            if cols[c] is None:
                cols[c] = tuple(map(row.__getitem__, cols[b]))
                walk.append(c)
    if len(walk) != order:
        raise ValueError("generators do not reach every element")
    return validate_group(order, list(zip(*cols)), name)


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return validate_group(n, table, f"Z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on lexicographically ordered permutation tuples; (p*q)(i) = p(q(i))."""
    perms = sorted(itertools.permutations(range(n)))
    grp, _ = group_from_operation(
        perms, lambda p, q: tuple(p[q[i]] for i in range(n)), f"S{n}")
    return grp


def trivial_group() -> FiniteGroup:
    return validate_group(1, [[0]], "1")


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism between finite groups, stored as an image table."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.image[a]

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.target.order

    def kernel_indices(self) -> list[int]:
        e = self.target.identity
        return [a for a in self.source.elements() if self.image[a] == e]


def validate_hom(source: FiniteGroup, target: FiniteGroup,
                 image: Sequence[int]) -> GroupHom:
    """Check that `image` is a homomorphism source -> target: f(e) = e, and
    f(y x) = f(y) f(x) for every y and each x in `generating_set(source)`.

    That is exhaustive, by the induction in `_bijective_homs`' docstring.
    Only when it fails does the scan over all pairs (a, b) in order run, so
    the error names the first failing pair.
    """
    image = tuple(image)
    if len(image) != source.order:
        raise SemanticError("image table has wrong length")
    for v in image:
        if not (0 <= v < target.order):
            raise SemanticError(f"image entry {v} out of range")
    if image[source.identity] != target.identity:
        raise SemanticError("identity is not preserved")
    smul, tmul = source.mul_table, target.mul_table
    for x in generating_set(source.elements(), smul, source.identity):
        fx = image[x]
        if any(image[sy[x]] != tmul[fy][fx] for sy, fy in zip(smul, image)):
            for a in source.elements():
                for b in source.elements():
                    if image[smul[a][b]] != tmul[image[a]][image[b]]:
                        raise SemanticError(f"not a homomorphism at ({a}, {b})")
            raise AssertionError("the generator check fails, but the scan finds no pair")
    return GroupHom(source, target, image)


@dataclass(frozen=True)
class GroupAction:
    """An action of `actor` on the group `space` by automorphisms."""

    actor: FiniteGroup
    space: FiniteGroup
    table: tuple[tuple[int, ...], ...]

    def act(self, g: int, h: int) -> int:
        return self.table[g][h]

    def is_faithful(self) -> bool:
        return len(set(self.table)) == self.actor.order


def validate_action(actor: FiniteGroup, space: FiniteGroup,
                    table: Sequence[Sequence[int]]) -> GroupAction:
    """Check that `table` is an action of `actor` on `space` by automorphisms,
    on generating sets X of the actor and Y of the space
    (`generating_set`): the identity row is the identity; for each x in X,
    row x is a bijection with row x (h y) = row x (h) row x (y) for every h
    and every y in Y; and table[g x] = table[g] o table[x] for every g and
    every x in X.

    That is exhaustive.  In a finite group every element is a word in the
    generators, with no inverses needed.  Row x (e) = e, by h = e and
    cancellation; then, by induction on the length of a word h' in Y,
    row x (h h') = row x (h) row x (h'), so row x is an automorphism.  By
    induction on the length of a word g' = x_1 ... x_k in X,
    table[g g'] = table[g] o table[x_1] o ... o table[x_k]; at g = e, whose
    row is the identity, this says table[g'] = table[x_1] o ... o table[x_k].
    So every row is a composite of automorphisms, and
    table[g g'] = table[g] o table[g'] for all g and g'.  The cost is
    |X| |space| (|actor| + |Y|) lookups, against |actor| |space|
    (|actor| + |space|) for the check at every pair.

    Both laws compare whole rows at C level: column y of the space's table
    read through row x against row x read through column row x (y); and,
    for each x, the rows g x over all g against the rows g read through
    row x, one `itemgetter` per x.  Only when the action law fails does the
    scan over (g, x, h) in order run, so the error names its first witness.
    """
    table = tuple(tuple(row) for row in table)
    if len(table) != actor.order or any(len(r) != space.order for r in table):
        raise SemanticError("action table has wrong shape")
    ident = tuple(range(space.order))
    if table[actor.identity] != ident:
        raise SemanticError("identity does not act trivially")
    gens = generating_set(actor.elements(), actor.mul_table, actor.identity)
    space_gens = generating_set(space.elements(), space.mul_table, space.identity)
    smul = space.mul_table
    columns = [list(map(itemgetter(y), smul)) for y in space_gens]
    for x in gens:
        row = table[x]
        if sorted(row) != list(ident):
            raise SemanticError(f"element {x} does not act bijectively")
        # row x (h y) against row x (h) row x (y), over every h at once
        for y, col in zip(space_gens, columns):
            times_ry = list(map(itemgetter(row[y]), smul))  # h' -> h' row x (y)
            if list(map(row.__getitem__, col)) != list(map(times_ry.__getitem__, row)):
                raise SemanticError(f"element {x} does not act by automorphisms")
    mul = actor.mul_table
    if any(any(map(ne, map(table.__getitem__, map(itemgetter(x), mul)),
                   map(_row_getter(table[x]), table))) for x in gens):
        for g in actor.elements():
            tg = table[g]
            for x in gens:
                tx, tgx = table[x], table[mul[g][x]]
                for h in space.elements():
                    if tg[tx[h]] != tgx[h]:
                        raise SemanticError(f"action is not associative at ({g}, {x}, {h})")
        raise AssertionError("the row check fails, but the scan finds no triple")
    return GroupAction(actor, space, table)


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    row = tuple(range(space.order))
    return GroupAction(actor, space, tuple(row for _ in range(actor.order)))


def conjugation_action(grp: FiniteGroup) -> GroupAction:
    table = tuple(tuple(grp.conj(g, h) for h in grp.elements()) for g in grp.elements())
    return GroupAction(grp, grp, table)


@dataclass(frozen=True)
class CrossedModule:
    """Two groups G, H with a homomorphism beta: H -> G and an action alpha of G on H.

    Validated against equivariance  beta(alpha(g).h) = g beta(h) g^-1  and the
    Peiffer identity  alpha(beta(h)).h' = h h' h^-1.  These imply that beta(H)
    is normal in G and that ker(beta) is central in H; see
    `validate_crossed_module` and `kernel_of_beta`.
    """

    G: FiniteGroup
    H: FiniteGroup
    beta: GroupHom
    alpha: GroupAction

    def act(self, g: int, h: int) -> int:
        return self.alpha.table[g][h]

    def beta_of(self, h: int) -> int:
        return self.beta.image[h]


def validate_crossed_module(G: FiniteGroup, H: FiniteGroup, beta: GroupHom,
                            alpha: GroupAction) -> CrossedModule:
    """Check equivariance and the Peiffer identity, on a generating set Y =
    `generating_set(H)`.  beta and alpha are not re-checked here; they must
    already have passed `validate_hom` and `validate_action`, as
    `crossed_module` and the gauge construction check them.

    Equivariance is checked at every (g, y) in G x Y and the Peiffer
    identity at every (h, y) in H x Y, in order.  That is exhaustive, given
    that precondition.  For fixed g, h -> beta(alpha(g).h) and
    h -> g beta(h) g^-1 are homomorphisms H -> G, as beta is one and
    alpha(g) an automorphism; for fixed h, h' -> alpha(beta(h)).h' and
    h' -> h h' h^-1 are automorphisms of H.  Two homomorphisms that agree
    on Y agree on every word in Y, that is on all of H.  The failure named
    is the first of the scan over all pairs in order, equivariance before
    Peiffer: the first element at which two homomorphisms differ is in Y,
    since the greedy Y puts every element outside it in the subgroup
    generated by the elements of Y before it, on which the two agree.

    beta(H) is normal in G without a check of its own: equivariance at
    (g, h) reads g beta(h) g^-1 = beta(alpha(g).h), an element of beta(H).
    """
    if beta.source is not H or beta.target is not G:
        raise ValueError("beta must map H to G")
    if alpha.actor is not G or alpha.space is not H:
        raise ValueError("alpha must be an action of G on H")
    gens = generating_set(H.elements(), H.mul_table, H.identity)
    b, act = beta.image, alpha.table
    for g in G.elements():
        for y in gens:
            if b[act[g][y]] != G.conj(g, b[y]):
                raise EquivarianceFailure(g, y)
    for h in H.elements():
        for y in gens:
            if act[b[h]][y] != H.conj(h, y):
                raise PeifferFailure(h, y)
    return CrossedModule(G, H, beta, alpha)


def crossed_module(G: FiniteGroup, H: FiniteGroup, beta_image: Sequence[int],
                   alpha_table: Sequence[Sequence[int]]) -> CrossedModule:
    """Validate all components and assemble a crossed module."""
    return validate_crossed_module(
        G, H, validate_hom(H, G, beta_image), validate_action(G, H, alpha_table))


@dataclass(frozen=True)
class Strict2Group:
    """The one-object 2-group of a crossed module: objects G, morphisms H x G.

    The morphism (h, g) runs from g to beta(h)*g.  Vertical composition is
    (h', beta(h)g) o (h, g) = (h'h, g); the tensor (horizontal) product is
    (h, g) * (hb, gb) = (h * (g.hb), g*gb).  Its groupoid and axiom checks
    are in `bundle`.
    """

    cm: CrossedModule

    # -- encoding ---------------------------------------------------------

    def morphisms(self) -> range:
        return range(self.cm.H.order * self.cm.G.order)

    def objects(self) -> range:
        return range(self.cm.G.order)

    def encode(self, h: int, g: int) -> int:
        return h * self.cm.G.order + g

    def decode(self, m: int) -> tuple[int, int]:
        return divmod(m, self.cm.G.order)

    # -- structure maps ------------------------------------------------------

    def source(self, m: int) -> int:
        return m % self.cm.G.order

    def target(self, m: int) -> int:
        h, g = self.decode(m)
        return self.cm.G.mul(self.cm.beta_of(h), g)

    def identity(self, g: int) -> int:
        return self.encode(self.cm.H.identity, g)

    def compose(self, m2: int, m1: int) -> int:
        """m2 o m1, defined when source(m2) == target(m1)."""
        h2, _ = self.decode(m2)
        h1, g1 = self.decode(m1)
        return self.encode(self.cm.H.mul(h2, h1), g1)

    def vertical_inverse(self, m: int) -> int:
        h, g = self.decode(m)
        return self.encode(self.cm.H.inv(h), self.target(m))

    def tensor(self, m: int, mb: int) -> int:
        h, g = self.decode(m)
        hb, gb = self.decode(mb)
        return self.encode(self.cm.H.mul(h, self.cm.act(g, hb)), self.cm.G.mul(g, gb))

    def tensor_inverse(self, m: int) -> int:
        h, g = self.decode(m)
        gi = self.cm.G.inv(g)
        return self.encode(self.cm.act(gi, self.cm.H.inv(h)), gi)


# -- automorphisms, kernels, quotients ----------------------------------------

def _bijective_homs(src: FiniteGroup, dst: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """The group isomorphisms src -> dst as image tuples, from generator images,
    one at a time.

    For X = `generating_set(src)`, each choice of images of X that keeps
    element orders is extended from f(e) = e along the Cayley-graph edges
    y -> y x (x in X), and kept when every edge agrees and f is one-to-one.
    If f(e) = e and f(y x) = f(y) f(x) for every y and every x in X, f is a
    homomorphism: every element of a finite group is a positive word in X, and
    by induction on word length, f(y w x) = f(y w) f(x) = f(y) f(w) f(x) =
    f(y) f(w x).
    """
    if src.order != dst.order:
        return iter(())
    n, smul, dmul = src.order, src.mul_table, dst.mul_table
    gens = generating_set(src.elements(), smul, src.identity)
    choices = [[v for v in dst.elements() if dst.element_order(v) == src.element_order(x)]
               for x in gens]

    def extend(images: tuple[int, ...]) -> list[int] | None:
        img = [None] * n
        img[src.identity] = dst.identity
        walk = [src.identity]
        for y in walk:  # breadth first; each edge (y, x) is read once
            for x, fx in zip(gens, images):
                yx, v = smul[y][x], dmul[img[y]][fx]
                if img[yx] is None:
                    img[yx] = v
                    walk.append(yx)
                elif img[yx] != v:
                    return None
        return img

    maps = map(extend, itertools.product(*choices))
    return (tuple(f) for f in maps if f is not None and len(set(f)) == n)


def automorphism_group(H: FiniteGroup) -> tuple[FiniteGroup, GroupAction]:
    """Aut(H) as an abstract group with its tautological action on H.

    Every automorphism, from the images of a generating set (see
    `_bijective_homs`).  Refuses orders above AUT_SEARCH_BOUND, and stops with
    TooLarge once it has found more than AUT_SEARCH_BOUND ** 2
    automorphisms, before any Cayley table is built (the order it reports is
    then a lower bound): Z2^4 has order 16 but 20160 automorphisms.
    """
    if H.order > AUT_SEARCH_BOUND:
        raise TooLarge(H.order, AUT_SEARCH_BOUND)
    most = AUT_SEARCH_BOUND ** 2
    perms = sorted(itertools.islice(_bijective_homs(H, H), most + 1))
    if len(perms) > most:
        raise TooLarge(len(perms), most)
    grp, items = group_from_operation(
        perms, lambda p, q: tuple(p[q[i]] for i in range(H.order)), f"Aut({H.name})")
    action = GroupAction(grp, H, tuple(items))
    assert action.is_faithful()
    return grp, action


def kernel_of_beta(cm: CrossedModule) -> tuple[FiniteGroup, list[int]]:
    """The kernel A = ker(beta) as a group, with its inclusion into H.

    A is central in H, with no check of its own: the Peiffer identity at
    h = e gives alpha(beta(e)) = id, and beta(e) = e for a homomorphism, so
    at h = a in A it reads h' = alpha(beta(a)).h' = a h' a^-1.
    """
    H = cm.H
    return group_from_operation(
        cm.beta.kernel_indices(), lambda a, b: H.mul(a, b), f"ker(beta<{H.name}>)")


def quotient_by_image(cm: CrossedModule) -> tuple[FiniteGroup, GroupHom]:
    """K = G / beta(H) with the canonical projection (beta(H) is normal).

    Each coset beta(H) g is listed once, at its first member in index order,
    and all of its members take its least element as representative."""
    G = cm.G
    img = set(cm.beta.image)
    rep = {}
    for g in G.elements():
        if g not in rep:
            coset = [G.mul(b, g) for b in img]
            rep.update(dict.fromkeys(coset, min(coset)))
    reps = sorted(set(rep.values()))
    grp, items = group_from_operation(
        reps, lambda a, b: rep[G.mul(a, b)], f"{G.name}/beta")
    idx = {r: i for i, r in enumerate(items)}
    proj = GroupHom(G, grp, tuple(idx[rep[g]] for g in G.elements()))
    assert grp.order * len(img) == G.order
    return grp, proj


def power_group(H: FiniteGroup, n: int, name: str | None = None) -> tuple[FiniteGroup, list]:
    """Direct power H^n on index tuples, in `itertools.product` order, with
    pointwise multiplication.

    The table is filled from one generator per (coordinate, generator of H),
    the tuple that is e elsewhere (`_group_from_right_multiplications`); the
    pointwise law is associative because H's is.
    """
    tuples = list(itertools.product(H.elements(), repeat=n))
    index = {t: i for i, t in enumerate(tuples)}
    e = (H.identity,) * n
    gens = [e[:v] + (y,) + e[v + 1:] for v in range(n)
            for y in generating_set(H.elements(), H.mul_table, H.identity)]
    rows = [[index[tuple(map(H.mul, a, x))] for a in tuples] for x in gens]
    return _group_from_right_multiplications(
        len(tuples), index[e], rows, name or f"{H.name}^{n}"), tuples
