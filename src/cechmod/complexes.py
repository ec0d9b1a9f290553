"""Finite simplicial base models and an exact abelian-cohomology oracle.

A base space is modeled purely combinatorially: the cover is the vertex-star
cover, every intersection of stars is connected (it is the star of the
spanned simplex), and the nerve of the cover is the complex itself.  A
locally constant cochain is therefore a single group element per ordered
tuple, and an ordered tuple carries data exactly when its support spans a
simplex.

The nonabelian machinery reads the ordered, *normalized* cochain complex
(cochains vanish on tuples with an adjacent repeated index).  The oracle
reads the oriented one instead, one cochain per simplex: its k-cochains are
the values on the k-simplices with their vertices in increasing order.  The
two are chain-equivalent (see `abelian_cohomology_oracle`), so they give the
same cohomology, while the oriented one is far smaller.  Each complex builds
both once, a piece at a time on first use: the normalized and degenerate
tuples of each arity and the differentials d_0, d_1, d_2 of both cochain
complexes as sparse rows, held on the instance and shared by every caller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import EmptyInput, IndexOutOfRange, SemanticError
from .snf import SparseMatrix, rank_and_divisors


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract simplicial complex, downward closed."""

    vertex_count: int
    simplices: frozenset[frozenset[int]]
    # the normalized and degenerate tuples by arity and the normalized and
    # oriented differentials by degree, each built on first use by
    # `normalized_tuples`, `degenerate_tuples`, `differential` and
    # `oriented_differential`; equality, hashing and repr ignore it.  A
    # field, not a cached_property: adding an attribute after construction
    # would give the instance a dict of its own, and every attribute read on
    # it (`simplices` in `valid_tuples`) slower.
    _cochains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def is_simplex(self, vertices: Iterable[int]) -> bool:
        return frozenset(vertices) in self.simplices

    def simplices_sorted(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(s)) for s in self.simplices)

    def simplex_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self.simplices:
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        return counts

    def euler_characteristic(self) -> int:
        return sum((-1) ** dim * cnt for dim, cnt in self.simplex_counts().items())

    def star_simplices(self, vertex: int) -> list[tuple[int, ...]]:
        """Simplices containing the vertex (the chart of its star)."""
        return sorted(tuple(sorted(s)) for s in self.simplices if vertex in s)


def build_complex(maximal_simplices: Sequence[Sequence[int]],
                  vertex_count: int | None = None) -> SimplicialComplex:
    """Downward closure of the given simplices."""
    if not maximal_simplices:
        raise EmptyInput()
    sims = set()
    top = 0
    for s in maximal_simplices:
        s = tuple(s)
        if not s:
            raise EmptyInput("empty simplex given")
        for v in s:
            if v < 0:
                raise IndexOutOfRange(v, vertex_count or 0)
            top = max(top, v + 1)
        if vertex_count is not None and max(s) >= vertex_count:
            raise IndexOutOfRange(max(s), vertex_count)
        for k in range(1, len(s) + 1):
            for sub in itertools.combinations(sorted(set(s)), k):
                sims.add(frozenset(sub))
    n = vertex_count if vertex_count is not None else top
    covered = set().union(*sims)
    for v in range(n):
        if v not in covered:
            raise SemanticError(f"vertex {v} appears in no simplex")
    return SimplicialComplex(n, frozenset(sims))


def full_simplex(n: int) -> SimplicialComplex:
    """The solid n-simplex on vertices 0..n (contractible)."""
    return build_complex([list(range(n + 1))])


def simplex_boundary(n: int) -> SimplicialComplex:
    """All proper faces of the n-simplex: a triangulated sphere S^(n-1)."""
    verts = list(range(n + 1))
    return build_complex(list(itertools.combinations(verts, n)))


def circle() -> SimplicialComplex:
    return simplex_boundary(2)


def torus_7() -> SimplicialComplex:
    """The 7-vertex (2-neighborly) triangulation of the torus."""
    facets = []
    for i in range(7):
        facets.append([i, (i + 1) % 7, (i + 3) % 7])
        facets.append([i, (i + 2) % 7, (i + 3) % 7])
    return build_complex(facets)


def rp2_6() -> SimplicialComplex:
    """The 6-vertex triangulation of the projective plane (icosahedron / antipodes)."""
    facets = [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
        [1, 2, 4], [2, 4, 5], [2, 3, 5], [1, 3, 5], [1, 3, 4],
    ]
    return build_complex(facets)


def point_complex() -> SimplicialComplex:
    return build_complex([[0]])


def disjoint_union(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    shift = k1.vertex_count
    sims = [tuple(sorted(s)) for s in k1.simplices]
    sims += [tuple(v + shift for v in sorted(s)) for s in k2.simplices]
    return build_complex(sims, vertex_count=shift + k2.vertex_count)


# -- ordered tuples ------------------------------------------------------------

def valid_tuples(K: SimplicialComplex, arity: int) -> list[tuple[int, ...]]:
    """All ordered tuples (repeats allowed) whose support spans a simplex.

    Deterministic lexicographic order.  Tuples with repeated indices are
    included whenever the support is a simplex.
    """
    if arity not in (1, 2, 3, 4):
        raise ValueError("arity must be 1, 2, 3 or 4")
    out = []
    for t in itertools.product(range(K.vertex_count), repeat=arity):
        if K.is_simplex(set(t)):
            out.append(t)
    return out


def normalized_tuples(K: SimplicialComplex, arity: int) -> list[tuple[int, ...]]:
    """The valid tuples with no adjacent repeat, in the order of `valid_tuples`.

    Each simplex contributes the sequences over its own vertices with no
    adjacent repeat that use all of them, so the cost follows the tuples and
    not vertex_count ** arity.  Built once per complex and held on it; each
    call returns a fresh list.
    """
    if arity not in (1, 2, 3, 4):
        raise ValueError("arity must be 1, 2, 3 or 4")
    held = K._cochains
    key = ("tuples", arity)
    if key not in held:
        patterns: dict[int, list[tuple[int, ...]]] = {}  # simplex size -> index sequences
        out = []
        for s in K.simplices:
            size = len(s)
            if size <= arity:
                if size not in patterns:
                    seqs = [(v,) for v in range(size)]
                    for _ in range(arity - 1):
                        seqs = [q + (v,) for q in seqs for v in range(size) if v != q[-1]]
                    patterns[size] = [q for q in seqs if len(set(q)) == size]
                vs = sorted(s)
                out += [tuple([vs[i] for i in q]) for q in patterns[size]]
        out.sort()
        held[key] = tuple(out)
    return list(held[key])


def degenerate_tuples(K: SimplicialComplex, arity: int) -> list[tuple[int, ...]]:
    """The valid tuples with an adjacent repeat, for arity 2 and 3.

    At arity 2 these are the (v, v).  At arity 3 they are the (v, v, v), and
    the (i, i, j) and (i, j, j) for each normalized pair (i, j): a triple
    with an adjacent repeat has one vertex or two, and two must span an
    edge.  With `normalized_tuples` they split `valid_tuples`.  Built once
    per complex and held on it; each call returns a fresh list.
    """
    if arity not in (2, 3):
        raise ValueError("arity must be 2 or 3")
    held = K._cochains
    key = ("degenerate", arity)
    if key not in held:
        out = sorted((v,) * arity for s in K.simplices if len(s) == 1 for v in s)
        if arity == 3:
            for i, j in normalized_tuples(K, 2):
                out += [(i, i, j), (i, j, j)]
        held[key] = tuple(out)
    return list(held[key])


def _coboundary(rows: Sequence[tuple[int, ...]], cols: Sequence[tuple[int, ...]],
                k: int) -> SparseMatrix:
    """The coboundary from cochains on the (k+1)-tuples `cols` to those on
    the (k+2)-tuples `rows`: (dc)(t) = sum_m (-1)^m c(t drop m), with c zero on
    every face that is not a column, as sparse rows."""
    col = {t: i for i, t in enumerate(cols)}
    # combinations(t, k + 1) drops t[k + 1], ..., t[0] in turn, and t drop m
    # has sign (-1)^m.  The faces of a tuple with no adjacent repeat are
    # distinct, so no entry adds up or cancels.
    signs = [(-1) ** m for m in reversed(range(k + 2))]
    return SparseMatrix(tuple(
        tuple(sorted((i, sign) for face, sign in zip(itertools.combinations(t, k + 1), signs)
                     if (i := col.get(face)) is not None))
        for t in rows), len(col))


def differential(K: SimplicialComplex, k: int) -> SparseMatrix:
    """The normalized Cech differential C^k -> C^(k+1), for k = 0, 1, 2.

    Rows are indexed by normalized (k+2)-tuples, columns by normalized
    (k+1)-tuples; (dc)(t) = sum_m (-1)^m c(t drop m), with c extended by
    zero on degenerate tuples.  Built once per complex straight from the
    faces, as sparse rows, and held on it; the value is immutable.
    """
    if k not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    held = K._cochains
    key = ("d", k)
    if key not in held:
        # a face is a valid tuple, so it is a column unless degenerate
        held[key] = _coboundary(normalized_tuples(K, k + 2), normalized_tuples(K, k + 1), k)
    return held[key]


def oriented_differential(K: SimplicialComplex, k: int) -> SparseMatrix:
    """The oriented simplicial coboundary C^k -> C^(k+1), for k = 0, 1, 2.

    Rows are indexed by the (k+1)-simplices, columns by the k-simplices, each
    as its increasing vertex tuple in lexicographic order; (dc)(s) =
    sum_m (-1)^m c(s drop m).  Built once per complex straight from the
    faces, as sparse rows, and held on it; the value is immutable.
    """
    if k not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    held = K._cochains
    key = ("oriented", k)
    if key not in held:
        # every face of a simplex is a simplex, so a column
        simplices = K.simplices_sorted()
        held[key] = _coboundary([s for s in simplices if len(s) == k + 2],
                                [s for s in simplices if len(s) == k + 1], k)
    return held[key]


def abelian_cohomology_oracle(K: SimplicialComplex, n: int, k: int) -> int:
    """|H^k(K; Z/n)| via integer Smith normal form of the oriented complex.

    The oriented cochain complex gives the cohomology of the normalized
    ordered one that the nonabelian machinery reads.  The ordered and the
    oriented chain complexes are chain-equivalent (Munkres, Elements of
    Algebraic Topology, 1984, Thm 13.6), and the ordered one is in turn
    chain-equivalent to its normalized quotient by the tuples with an
    adjacent repeat (the degenerate simplices of the ordered complex as a
    simplicial set).  The composite sends a simplex to its increasing tuple;
    its dual restricts a normalized cochain to the increasing tuples.  All
    three are complexes of free Z-modules, so Hom into Z/n keeps the
    equivalences, and the cohomology groups agree.

    For a complex of free Z-modules, reducing the Smith form mod n gives
    |ker| = n^(c_k - r_k) * prod gcd(d_i, n) and |im| = n^(r_{k-1}) /
    prod gcd(d_j, n), whence the quotient cardinality.
    """
    if k not in (0, 1, 2):
        raise SemanticError("degree must be 0, 1 or 2")
    if n < 2:
        raise SemanticError("modulus must be at least 2")
    d_k = oriented_differential(K, k)
    c_k = d_k.cols
    r_k, div_k = rank_and_divisors(d_k)
    r_prev, div_prev = rank_and_divisors(oriented_differential(K, k - 1)) if k else (0, [])
    from math import gcd
    size = n ** (c_k - r_k - r_prev)
    for d in div_k:
        size *= gcd(d, n)
    for d in div_prev:
        size *= gcd(d, n)
    return size
