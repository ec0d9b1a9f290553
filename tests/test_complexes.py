import itertools
import math

import pytest

from cechmod import (
    abelian_cohomology_oracle,
    build_complex,
    circle,
    disjoint_union,
    full_simplex,
    point_complex,
    rp2_6,
    simplex_boundary,
    torus_7,
    valid_tuples,
)
from cechmod.complexes import differential
from cechmod.errors import EmptyInput, IndexOutOfRange
from conftest import dense


def is_degenerate(t):
    """True when some adjacent pair of indices coincides."""
    return any(t[m] == t[m + 1] for m in range(len(t) - 1))


def test_boundary3_counts():
    K = simplex_boundary(3)
    counts = K.simplex_counts()
    assert counts == {0: 4, 1: 6, 2: 4}
    assert not K.is_simplex({0, 1, 2, 3})


def test_full_simplex_counts():
    K = full_simplex(2)
    assert K.simplex_counts() == {0: 3, 1: 3, 2: 1}


def test_rp2_counts_and_euler():
    K = rp2_6()
    assert K.simplex_counts() == {0: 6, 1: 15, 2: 10}
    assert K.euler_characteristic() == 1


def test_torus_counts_and_euler():
    K = torus_7()
    assert K.simplex_counts() == {0: 7, 1: 21, 2: 14}
    assert K.euler_characteristic() == 0


def test_closure():
    K = rp2_6()
    for s in K.simplices:
        for k in range(1, len(s)):
            for sub in itertools.combinations(sorted(s), k):
                assert K.is_simplex(sub)


def test_every_vertex_used():
    with pytest.raises(ValueError):
        build_complex([[0, 2]])
    with pytest.raises(EmptyInput):
        build_complex([])
    with pytest.raises(IndexOutOfRange):
        build_complex([[0, 5]], vertex_count=3)


def test_valid_tuples_circle():
    K = circle()
    ts = valid_tuples(K, 2)
    assert len(ts) == 9  # 6 ordered distinct pairs + 3 diagonal
    assert ts == sorted(ts)
    assert len([t for t in valid_tuples(K, 3) if len(set(t)) == 3]) == 0


def test_valid_tuples_edge_all_triples():
    K = full_simplex(1)
    assert len(valid_tuples(K, 3)) == 8


def test_valid_tuples_monotone():
    small, big = circle(), full_simplex(2)
    assert set(valid_tuples(small, 3)) <= set(valid_tuples(big, 3))


def test_degenerate_detection():
    assert is_degenerate((0, 0, 1))
    assert is_degenerate((0, 1, 1))
    assert not is_degenerate((0, 1, 0))


def test_differential_squares_to_zero():
    for K in (circle(), simplex_boundary(3), rp2_6()):
        d1, d2 = dense(*differential(K, 1)), dense(*differential(K, 2))
        for row in d2:
            for jcol in range(len(d1[0]) if d1 else 0):
                acc = sum(row[i] * d1[i][jcol] for i in range(len(d1)))
                assert acc == 0


ORACLE_CASES = [
    (simplex_boundary, (3,), 2, 2, 2),
    (simplex_boundary, (3,), 3, 2, 3),
    (full_simplex, (2,), 5, 1, 1),
    (full_simplex, (2,), 4, 2, 1),
    (rp2_6, (), 2, 2, 2),
    (rp2_6, (), 3, 2, 1),
    (rp2_6, (), 2, 1, 2),
    (torus_7, (), 2, 2, 2),
    (torus_7, (), 3, 2, 3),
    (torus_7, (), 2, 1, 4),
    (circle, (), 2, 1, 2),
    (circle, (), 6, 1, 6),
]


@pytest.mark.parametrize("builder,args,n,k,expected", ORACLE_CASES)
def test_oracle_known_values(builder, args, n, k, expected):
    assert abelian_cohomology_oracle(builder(*args), n, k) == expected


def test_oracle_h0_counts_components():
    K = disjoint_union(circle(), point_complex())
    assert abelian_cohomology_oracle(K, 3, 0) == 9
    assert abelian_cohomology_oracle(circle(), 5, 0) == 5


def test_oracle_euler_characteristic_consistency():
    # chi from simplex counts equals the alternating sum of dims over Z/p
    for K in (rp2_6(), torus_7(), simplex_boundary(3)):
        for p in (2, 3):
            dims = [round(math.log(abelian_cohomology_oracle(K, p, k), p))
                    for k in (0, 1, 2)]
            assert K.euler_characteristic() == dims[0] - dims[1] + dims[2]


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        abelian_cohomology_oracle(circle(), 2, 3)
    with pytest.raises(ValueError):
        abelian_cohomology_oracle(circle(), 1, 1)


def test_disjoint_union_shifts():
    K = disjoint_union(circle(), circle())
    assert K.vertex_count == 6
    assert K.is_simplex({3, 4}) and not K.is_simplex({2, 3})


@pytest.mark.parametrize("name", ["point", "full1", "full2", "full3", "circle",
                                  "boundary3", "torus7", "rp26", "point+circle",
                                  "full1+boundary3"])
def test_normalized_tuples_match_filtered_valid_tuples(name):
    # per-simplex enumeration gives the filtered scan of all n^a tuples,
    # element for element and in order
    from cechmod.catalog import named_complex
    from cechmod.complexes import normalized_tuples
    parts = [named_complex(p) for p in name.split("+")]
    K = parts[0] if len(parts) == 1 else disjoint_union(*parts)
    for arity in (1, 2, 3, 4):
        assert normalized_tuples(K, arity) == \
            [t for t in valid_tuples(K, arity) if not is_degenerate(t)]
    with pytest.raises(ValueError):
        normalized_tuples(K, 5)


# -- the held cochain complex --------------------------------------------------------

def _reference_coboundary_matrix(K, k):
    """The dense differential as it was built before the complex held its
    differentials: one dense row per normalized tuple."""
    from cechmod.complexes import normalized_tuples
    domain = normalized_tuples(K, k + 1)
    col = {t: i for i, t in enumerate(domain)}
    rows = []
    for t in normalized_tuples(K, k + 2):
        row = [0] * len(domain)
        for m in range(len(t)):
            i = col.get(t[:m] + t[m + 1:])
            if i is not None:
                row[i] += (-1) ** m
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", ["point", "full1", "full2", "full3", "circle",
                                  "boundary3", "torus7", "rp26", "point+circle",
                                  "full1+boundary3"])
def test_differentials_match_dense_reference(name):
    # d_k is built from the faces as sparse rows; its dense view is the dense
    # matrix entry for entry, and its rows list their nonzeros by column
    from cechmod.catalog import named_complex
    from cechmod.complexes import normalized_tuples
    parts = [named_complex(p) for p in name.split("+")]
    K = parts[0] if len(parts) == 1 else disjoint_union(*parts)
    for k in (0, 1, 2):
        want = _reference_coboundary_matrix(K, k)
        d = differential(K, k)
        assert d.cols == len(normalized_tuples(K, k + 1))
        assert len(d.rows) == len(normalized_tuples(K, k + 2))
        assert dense(*d) == want
        assert all([c for c, _ in row] == sorted(c for c, _ in row) and all(v for _, v in row)
                   for row in d.rows)
    for k in (-1, 3):
        with pytest.raises(ValueError):
            differential(K, k)


def test_held_cochains_are_built_lazily_and_cannot_be_changed():
    from cechmod.complexes import normalized_tuples
    K = torus_7()
    assert K._cochains == {}  # nothing is built with the complex
    tuples = normalized_tuples(K, 3)
    d = differential(K, 1)
    assert differential(K, 1) is d  # built once, then held
    tuples.append((9, 9, 9))
    tuples[0] = (0, 0, 0)
    assert normalized_tuples(K, 3) == normalized_tuples(torus_7(), 3) != tuples
    assert d == differential(torus_7(), 1)
    with pytest.raises(TypeError):
        d.rows[0] = ()
    with pytest.raises(TypeError):
        d.rows[0][0] = (0, 1)
    # equality and hashing ignore what the complex holds
    assert K == torus_7() and hash(K) == hash(torus_7())


# -- the oriented cochain complex ------------------------------------------------------

CATALOG = ["point", "full1", "full2", "full3", "circle", "boundary3", "torus7", "rp26"]


def _random_complexes(seed, count):
    """Seeded random complexes: random facets on 4-8 vertices, each vertex
    in one, and the disjoint unions of consecutive ones."""
    import random
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(4, 8)
        facets = [rng.sample(range(nv), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        covered = set().union(*facets)
        facets += [[v] for v in range(nv) if v not in covered]
        out.append(build_complex(facets))
    return out + [disjoint_union(a, b) for a, b in zip(out, out[1:])]


def _normalized_oracle(K, n, k):
    """|H^k(K; Z/n)| as the oracle computed it before it read the oriented
    complex: Smith forms of the normalized ordered differentials."""
    from cechmod.complexes import normalized_tuples
    from cechmod.snf import rank_and_divisors
    c_k = len(normalized_tuples(K, k + 1))
    r_k, div_k = rank_and_divisors(differential(K, k))
    r_prev, div_prev = rank_and_divisors(differential(K, k - 1)) if k else (0, [])
    size = n ** (c_k - r_k - r_prev)
    for d in div_k + div_prev:
        size *= math.gcd(d, n)
    return size


@pytest.mark.parametrize("name", CATALOG)
def test_oracle_matches_normalized_complex_on_catalog(name):
    from cechmod.catalog import named_complex
    K = named_complex(name)
    for n in range(2, 9):
        for k in (0, 1, 2):
            assert abelian_cohomology_oracle(K, n, k) == _normalized_oracle(K, n, k), (n, k)


@pytest.mark.parametrize("seed", range(4))
def test_oracle_matches_normalized_complex_on_random_complexes(seed):
    for K in _random_complexes(seed, 5):
        for n in (2, 3, 4, 6):
            for k in (0, 1, 2):
                assert abelian_cohomology_oracle(K, n, k) == _normalized_oracle(K, n, k)


@pytest.mark.parametrize("name", CATALOG + ["point+circle", "full1+boundary3"])
def test_oriented_differentials_form_a_complex(name):
    # d_k maps the k-simplices to the (k+1)-simplices, and d_{k+1} d_k = 0
    from cechmod.catalog import named_complex
    from cechmod.complexes import oriented_differential
    parts = [named_complex(p) for p in name.split("+")]
    K = parts[0] if len(parts) == 1 else disjoint_union(*parts)
    counts = K.simplex_counts()
    for k in (0, 1, 2):
        d = oriented_differential(K, k)
        assert (len(d.rows), d.cols) == (counts.get(k + 1, 0), counts.get(k, 0))
        assert all(len(row) == k + 2 and [c for c, _ in row] == sorted(c for c, _ in row)
                   for row in d.rows)
    for k in (0, 1):
        lower = dense(*oriented_differential(K, k))
        for row in dense(*oriented_differential(K, k + 1)):
            for j in range(counts.get(k, 0)):
                assert sum(row[i] * lower[i][j] for i in range(len(lower))) == 0
    for k in (-1, 3):
        with pytest.raises(ValueError):
            oriented_differential(K, k)


def test_oriented_differentials_are_held_and_ignored_by_equality():
    from cechmod.complexes import oriented_differential
    K = torus_7()
    d = oriented_differential(K, 1)
    assert oriented_differential(K, 1) is d
    # row (0, 1, 3) over the edges (0, 1), (0, 2), (0, 3), ..., (1, 3), ...: +01 -03 +13
    assert dense(*d)[0] == [1, 0, -1, 0, 0, 0, 0, 1] + [0] * 13
    with pytest.raises(TypeError):
        d.rows[0] = ()
    assert K == torus_7() and hash(K) == hash(torus_7())


# -- the degenerate tuples ----------------------------------------------------------

def _assert_tuples_split(K):
    from cechmod.complexes import degenerate_tuples, normalized_tuples
    for arity in (2, 3):
        free, flat = normalized_tuples(K, arity), degenerate_tuples(K, arity)
        assert not set(free) & set(flat)
        assert all(is_degenerate(t) for t in flat)
        assert sorted(free + flat) == valid_tuples(K, arity)


@pytest.mark.parametrize("name", CATALOG + ["point+circle", "full1+boundary3"])
def test_normalized_and_degenerate_tuples_split_valid_tuples(name):
    from cechmod.catalog import named_complex
    from cechmod.complexes import degenerate_tuples
    parts = [named_complex(p) for p in name.split("+")]
    K = parts[0] if len(parts) == 1 else disjoint_union(*parts)
    _assert_tuples_split(K)
    assert degenerate_tuples(K, 3) is not degenerate_tuples(K, 3)  # a fresh list each call
    for arity in (1, 4):
        with pytest.raises(ValueError):
            degenerate_tuples(K, arity)


@pytest.mark.parametrize("seed", range(4))
def test_normalized_and_degenerate_tuples_split_on_random_complexes(seed):
    for K in _random_complexes(seed, 5):
        _assert_tuples_split(K)
