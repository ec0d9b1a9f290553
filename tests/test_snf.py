import itertools
import math
import random

import pytest

from cechmod.snf import (
    SparseMatrix,
    image_size_mod,
    kernel_size_mod,
    smith_normal_form,
    solve_mod,
)
from conftest import dense


def _sparse_form(A):
    return SparseMatrix(tuple(tuple((c, v) for c, v in enumerate(row) if v) for row in A),
                        len(A[0]) if A else 0)


def _dense_factors(S):
    """smith_normal_form(S) with U and V as dense rows, as it returned them
    for a dense input before both transforms came back sparse."""
    d, U, V = smith_normal_form(S)
    return d, dense(U, len(S.rows)), dense(V, S.cols)


def _random_system(rng):
    rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
    n = rng.choice([2, 3, 4, 6, 8, 9, 12])
    A = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
    return A, rows, cols, n


def test_solve_mod_against_exhaustive_search():
    rng = random.Random(99)
    for _ in range(150):
        A, rows, cols, n = _random_system(rng)
        b = [rng.randrange(-4, 5) for _ in range(rows)]
        got = solve_mod(_sparse_form(A), b, n)
        brute = any(
            all(sum(A[i][j] * x[j] for j in range(cols)) % n == b[i] % n
                for i in range(rows))
            for x in itertools.product(range(n), repeat=cols))
        assert (got is not None) == brute


def test_kernel_and_image_sizes_against_exhaustive_search():
    rng = random.Random(7)
    for _ in range(100):
        A, rows, cols, n = _random_system(rng)
        kernel = sum(
            1 for x in itertools.product(range(n), repeat=cols)
            if all(sum(A[i][j] * x[j] for j in range(cols)) % n == 0
                   for i in range(rows)))
        image = len({
            tuple(sum(A[i][j] * x[j] for j in range(cols)) % n for i in range(rows))
            for x in itertools.product(range(n), repeat=cols)})
        assert kernel_size_mod(_sparse_form(A), n) == kernel
        assert image_size_mod(_sparse_form(A), n) == image


def test_smith_form_transforms_and_divisibility():
    rng = random.Random(13)
    for _ in range(100):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        d, U, V = _dense_factors(_sparse_form(A))
        for i in range(len(d) - 1):
            assert d[i] > 0 and d[i + 1] % d[i] == 0
        m = [[sum(U[i][k] * A[k][j] for k in range(rows)) for j in range(cols)]
             for i in range(rows)]
        m = [[sum(m[i][k] * V[k][j] for k in range(cols)) for j in range(cols)]
             for i in range(rows)]
        for i in range(rows):
            for j in range(cols):
                assert m[i][j] == (d[i] if i == j and i < len(d) else 0)


def test_known_smith_forms():
    assert smith_normal_form(_sparse_form([[2, 0], [0, 3]]))[0] == [1, 6]
    assert smith_normal_form(_sparse_form([[2, 4], [6, 8]]))[0] == [2, 4]
    assert smith_normal_form(_sparse_form([[0, 0], [0, 0]]))[0] == []


def _det(M):
    """Determinant of a square integer matrix by fraction-free elimination."""
    M = [row[:] for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if M[r][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def test_smith_form_transforms_are_unimodular():
    # the matrices of test_smith_form_transforms_and_divisibility: U and V
    # are invertible over Z, not merely over Q
    rng = random.Random(13)
    for _ in range(100):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        _, U, V = _dense_factors(_sparse_form(A))
        assert _det(U) in (1, -1) and _det(V) in (1, -1)
    assert _det([[2, 1], [1, 1]]) == 1 and _det([[0, 1], [1, 0]]) == -1
    assert _det([[1, 2], [2, 4]]) == 0


# sha256 of the repr of (divisors, U, V) of the Smith form of
# differential(K, k), with U and V as dense rows: the divisors and both
# transforms of every catalog coboundary matrix the abelian routes factor;
# the pivot order decides U and V, and the abelian representatives and
# lifts read them
SMITH_PINS = {
    ("circle", 0): "4571dc7ac6d30e77e29eab957838769fb7c897c6eaa64a6a57bddfa81bd848b9",
    ("circle", 1): "6fe6e488adcd6d5bd807df67733dc77c10c5e48d48c10590cae24151a7073836",
    ("circle", 2): "c3d8c5a6596d37cfae8d13ae3e3c92609379682e27dd017e3a7cc3ca0064250c",
    ("boundary3", 0): "52521b073569c89b5ff24b1266363f8f030e65cce7eae6e706102ce10485e0a7",
    ("boundary3", 1): "d59663af6d050b3bcab0d7fbeed355c4ba8054bca29391c6ae07db5309cd2c50",
    ("boundary3", 2): "d8056e644f4de3701d191e09d60072d1ae90c93c644cef8917b0b523038512b1",
    ("full2", 0): "4571dc7ac6d30e77e29eab957838769fb7c897c6eaa64a6a57bddfa81bd848b9",
    ("full2", 1): "f5ba2ce8cba6a62bfbf344f67d84e4189cfa30ade6b5f083e596d5e5c8e09891",
    ("full2", 2): "754a560a76a74709447be55f9a2eceaf9519ea262f4694ee923b6b069ee58b0b",
    ("rp26", 0): "caa093a62e44e7516851e7e81de584e11dbd1f63d4921c011a535ca8bdb16329",
    ("rp26", 1): "19ae07378ccc8b15d0d044090358875fe5fa8f19348633418cd7befd9c78c0b5",
    ("rp26", 2): "0689d78368b533f77b6ec3855972bf05d91e2715f7136eeff814b41d1b47371e",
    ("torus7", 0): "555c21f745075085347f1d1685491e70dfe10629015d1ab93678b95e73eec6e6",
    ("torus7", 1): "8d37b7a75b43aeb8988acf77a7ff94c53aeb96467195bf866af361d3f8e7691c",
    ("torus7", 2): "202c75e04d819d3b844831757c255b66e28a424576d00ddf9c4bf4355c5e2256",
}


@pytest.mark.parametrize("kname,k", sorted(SMITH_PINS))
def test_catalog_smith_forms_are_pinned(kname, k):
    import hashlib
    from cechmod.catalog import named_complex
    from cechmod.complexes import differential
    factors = _dense_factors(differential(named_complex(kname), k))
    assert hashlib.sha256(repr(factors).encode()).hexdigest() == SMITH_PINS[(kname, k)]


# sha256 of the `classify --strategy abelian` reports; their REP lines come
# from the kernel generators that V of the Smith form of d3 yields
ABELIAN_PINS = {
    ("rp26", 2): "e924ebc462c1b70537f8e88fea61dbe07e8c58ac1392332423c234a049a05104",
    ("rp26", 3): "808dd9b3b02bacec2526f19a22beba6c5bcfc9a88af36047122ec9a9a1c563f7",
    ("rp26", 4): "768df9b7c08da3b9aec4e16e3268a7b7d1f6d393d43ca21c91993e26af277782",
    ("torus7", 2): "5b697fad3c396ea07edd514bcfbe660aa6cb8524555387f04e5173405c12d21d",
    ("torus7", 3): "495308d5498e75cc98790616de2359b36c847c683329f28bc46a18e4dc72c782",
    ("torus7", 4): "c9c9108d7fbbecb03cf3b8c7f0132b903f9e1455a3063f69f442334421e25fba",
}


@pytest.mark.parametrize("kname,n", sorted(ABELIAN_PINS))
def test_abelian_reports_are_pinned(kname, n):
    import hashlib
    from cechmod.cli import run
    code, report = run(["classify", "--complex", kname, "--cm", f"z{n}_to_point",
                        "--strategy", "abelian"])
    assert code == 0 and "REP 0 trivial" in report
    assert hashlib.sha256(report.encode()).hexdigest() == ABELIAN_PINS[(kname, n)]


def test_lift_through_solve_mod_is_pinned(tmp_path):
    # a Z/2 coboundary on torus7 lifted to Z/4: the cyclic kernel sends the
    # lift through solve_mod, whose solution x = V y is reported verbatim
    import hashlib
    from cechmod.catalog import named_complex
    from cechmod.cli import run
    from cechmod.complexes import valid_tuples
    lam = [1, 0, 0, 1, 0, 0, 0]
    path = tmp_path / "g.coc"
    path.write_text("".join(f"g {i} {j} 1\n" for i, j in valid_tuples(named_complex("torus7"), 2)
                            if (lam[i] + lam[j]) % 2))
    code, report = run(["lift", "--complex", "torus7", "--cm", "z4_over_z2",
                        "--cocycle", str(path)])
    assert code == 0 and "LIFT: exists" in report and "LIFT h 0 1 3" in report
    assert hashlib.sha256(report.encode()).hexdigest() == \
        "b6c9681f025ddaaaef0a864382073a4c46e051f4ad6c3fa486e8af080655b70e"


# -- the pivot rule against the full scan ------------------------------------------

def _reference_smith_normal_form(matrix, want_transforms=False):
    """smith_normal_form as it stood before the pivot scan stopped at a unit:
    the whole remaining block is scanned for every pivot."""
    A = [row[:] for row in matrix]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)] if want_transforms else None
    V = [[int(i == j) for j in range(cols)] for i in range(cols)] if want_transforms else None

    def row_op(i, j, q):  # row_i -= q * row_j
        Ai, Aj = A[i], A[j]
        for c in range(cols):
            Ai[c] -= q * Aj[c]
        if U is not None:
            Ui, Uj = U[i], U[j]
            for c in range(rows):
                Ui[c] -= q * Uj[c]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            A[r][i] -= q * A[r][j]
        if V is not None:
            for r in range(cols):
                V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        if V is not None:
            for r in range(cols):
                V[r][i], V[r][j] = V[r][j], V[r][i]

    def negate_row(i):
        for c in range(cols):
            A[i][c] = -A[i][c]
        if U is not None:
            for c in range(rows):
                U[i][c] = -U[i][c]

    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry in the remaining block as pivot
        pivot = None
        best = None
        for r in range(t, rows):
            for c in range(t, cols):
                v = abs(A[r][c])
                if v and (best is None or v < best):
                    best, pivot = v, (r, c)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            done = True
            for r in range(t + 1, rows):
                if A[r][t]:
                    q = A[r][t] // A[t][t]
                    row_op(r, t, q)
                    if A[r][t]:
                        swap_rows(t, r)
                        done = False
            for c in range(t + 1, cols):
                if A[t][c]:
                    q = A[t][c] // A[t][t]
                    col_op(c, t, q)
                    if A[t][c]:
                        swap_cols(t, c)
                        done = False
            if done:
                break
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a:
                # fold entry (i+1, i+1) into row i and rediagonalize the 2x2 block
                col_op(i, i + 1, -1)  # col_i += col_{i+1}
                while True:
                    if A[i + 1][i]:
                        q = A[i + 1][i] // A[i][i]
                        row_op(i + 1, i, q)
                        if A[i + 1][i]:
                            swap_rows(i, i + 1)
                            continue
                    if A[i][i + 1]:
                        q = A[i][i + 1] // A[i][i]
                        col_op(i + 1, i, q)
                        if A[i][i + 1]:
                            swap_cols(i, i + 1)
                            continue
                    break
                if A[i][i] < 0:
                    negate_row(i)
                if A[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True

    divisors = [A[i][i] for i in range(t) if A[i][i] != 0]
    return divisors, U, V


def _reference_pivot_valuations(matrix, p, e):
    """pivot_valuations_mod_prime_power with a full pivot scan and a column
    pass over every row."""
    q = p ** e
    A = [[v % q for v in row] for row in matrix]
    rows, cols = len(A), len(A[0]) if matrix else 0

    def val(x: int) -> int:
        if x == 0:
            return e
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    pivots = []
    t = 0
    while t < min(rows, cols):
        best = None
        pos = None
        for r in range(t, rows):
            for c in range(t, cols):
                if A[r][c]:
                    v = val(A[r][c])
                    if best is None or v < best:
                        best, pos = v, (r, c)
        if pos is None:
            break
        r0, c0 = pos
        A[t], A[r0] = A[r0], A[t]
        for r in range(rows):
            A[r][t], A[r][c0] = A[r][c0], A[r][t]
        a = A[t][t]
        unit = a // (p ** best)
        inv_unit = pow(unit, -1, q)
        A[t] = [(x * inv_unit) % q for x in A[t]]  # pivot is now p^best
        piv = p ** best
        for r in range(rows):
            if r != t and A[r][t]:
                f = A[r][t] // piv  # exact: val(A[r][t]) >= best
                A[r] = [(A[r][c] - f * A[t][c]) % q for c in range(cols)]
        for c in range(t + 1, cols):
            if A[t][c]:
                f = A[t][c] // piv
                for r in range(rows):
                    A[r][c] = (A[r][c] - f * A[r][t]) % q
        pivots.append(best)
        t += 1
    return pivots



def test_unit_pivots_match_full_scan():
    # entries in -9..9 put many non-unit minima ahead of a unit; the pivot,
    # the transforms and the valuations must be those of the full scan
    from cechmod.snf import pivot_valuations_mod_prime_power, rank_and_divisors
    rng = random.Random(21)
    for _ in range(150):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        A = [[rng.choice([0, 0, 1, -1, 2, -2, 3, 4, 6, -9]) for _ in range(cols)]
             for _ in range(rows)]
        S = _sparse_form(A)
        want = _reference_smith_normal_form(A, True)
        assert _dense_factors(S) == want
        assert rank_and_divisors(S) == (len(want[0]), want[0])
        for p, e in ((2, 1), (2, 3), (3, 2), (5, 1)):
            assert pivot_valuations_mod_prime_power(S, p, e) == \
                _reference_pivot_valuations(A, p, e)


# -- the sparse routines against the dense ones they replaced ---------------------

def _dense_smith_normal_form(matrix, want_transforms=False, fixups=None):
    """smith_normal_form as it stood on dense rows, with the pivot scan that
    stops at a unit; `fixups` collects the index of every divisibility
    fix-up."""
    A = [row[:] for row in matrix]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)] if want_transforms else None
    V = [[int(i == j) for j in range(cols)] for i in range(cols)] if want_transforms else None

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        if U is not None:
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j, skipping the zero entries of col_j
        for row in A:
            if row[j]:
                row[i] -= q * row[j]
        if V is not None:
            for row in V:
                if row[j]:
                    row[i] -= q * row[j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        if U is not None:
            U[i] = [-a for a in U[i]]

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for r in range(t, rows):
            row = A[r]
            for c in range(t, cols):
                v = row[c]
                if v:
                    v = abs(v)
                    if best is None or v < best:
                        best, pivot = v, (r, c)
                        if v == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for r in range(t + 1, rows):
                if A[r][t]:
                    q = A[r][t] // A[t][t]
                    if q:
                        row_op(r, t, q)
                    if A[r][t]:
                        swap_rows(t, r)
                        done = False
            for c in range(t + 1, cols):
                if A[t][c]:
                    q = A[t][c] // A[t][t]
                    if q:
                        col_op(c, t, q)
                    if A[t][c]:
                        swap_cols(t, c)
                        done = False
            if done:
                break
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a:
                if fixups is not None:
                    fixups.append(i)
                col_op(i, i + 1, -1)
                while True:
                    if A[i + 1][i]:
                        q = A[i + 1][i] // A[i][i]
                        row_op(i + 1, i, q)
                        if A[i + 1][i]:
                            swap_rows(i, i + 1)
                            continue
                    if A[i][i + 1]:
                        q = A[i][i + 1] // A[i][i]
                        col_op(i + 1, i, q)
                        if A[i][i + 1]:
                            swap_cols(i, i + 1)
                            continue
                    break
                if A[i][i] < 0:
                    negate_row(i)
                if A[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True

    divisors = [A[i][i] for i in range(t) if A[i][i] != 0]
    return divisors, U, V


def _dense_solve_mod(matrix, rhs, n):
    """solve_mod as it stood, on the dense Smith form."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    d, U, V = _dense_smith_normal_form(matrix, want_transforms=True)
    c = [sum(u * b for u, b in zip(row, rhs)) % n for row in U]
    y = [0] * cols
    for i in range(rows):
        di = d[i] if i < len(d) else 0
        if di == 0:
            if c[i] % n:
                return None
            continue
        g = math.gcd(di, n)
        if c[i] % g:
            return None
        n2 = n // g
        y[i] = ((c[i] // g) * pow(di // g, -1, n2)) % n2
    return [sum(v * w for v, w in zip(row, y)) % n for row in V]


def _dense_kernel_generators(matrix, n):
    cols = len(matrix[0])
    d, _, V = _dense_smith_normal_form(matrix, want_transforms=True)
    gens = []
    for i in range(cols):
        di = d[i] if i < len(d) else 0
        scale = (n // math.gcd(di, n)) if di else 1
        vec = [(V[r][i] * scale) % n for r in range(cols)]
        if any(vec):
            gens.append(vec)
    return gens


def _dense_pivot_valuations(matrix, p, e):
    """pivot_valuations_mod_prime_power as it stood on dense rows."""
    q = p ** e
    A = [[v % q for v in row] for row in matrix]
    rows, cols = len(A), len(A[0]) if matrix else 0

    def val(x):
        if x == 0:
            return e
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    pivots = []
    t = 0
    while t < min(rows, cols):
        best = None
        pos = None
        for r in range(t, rows):
            row = A[r]
            for c in range(t, cols):
                if row[c]:
                    v = val(row[c])
                    if best is None or v < best:
                        best, pos = v, (r, c)
                        if v == 0:
                            break
            if best == 0:
                break
        if pos is None:
            break
        r0, c0 = pos
        A[t], A[r0] = A[r0], A[t]
        for r in range(rows):
            A[r][t], A[r][c0] = A[r][c0], A[r][t]
        inv_unit = pow(A[t][t] // (p ** best), -1, q)
        A[t] = [(x * inv_unit) % q for x in A[t]]
        piv = p ** best
        for r in range(rows):
            if r != t and A[r][t]:
                f = A[r][t] // piv
                A[r] = [(A[r][c] - f * A[t][c]) % q for c in range(cols)]
        live = [row for row in A if row[t]]
        for c in range(t + 1, cols):
            if A[t][c]:
                f = A[t][c] // piv
                for row in live:
                    row[c] = (row[c] - f * row[t]) % q
        pivots.append(best)
        t += 1
    return pivots


def _sparse_corpus(seed, count):
    """Seeded matrices up to 40 x 40 with a few nonzeros per row: +-1/+-2
    entries, zero rows and columns, rows of non-unit entries ahead of the
    first unit, and wide and tall shapes."""
    rng = random.Random(seed)
    out = [[[2, 0], [0, 3]], [[0, 0, 0]], [[0], [0]], [[6, 4], [4, 6]]]
    while len(out) < count:
        shape = rng.choice(["square", "wide", "tall"])
        small, large = rng.randrange(1, 16), rng.randrange(16, 41)
        rows, cols = {"square": (large, large), "wide": (small, large),
                      "tall": (large, small)}[shape]
        per_row = rng.choice([1, 2, 3])
        A = [[0] * cols for _ in range(rows)]
        for r in range(rows):
            for _ in range(rng.randrange(per_row + 1)):
                A[r][rng.randrange(cols)] = rng.choice([1, -1, 2, -2])
        for r in rng.sample(range(rows), rng.randrange(rows // 4 + 1)):
            A[r] = [0] * cols  # zero rows
        for c in rng.sample(range(cols), rng.randrange(cols // 4 + 1)):
            for row in A:
                row[c] = 0  # zero columns
        for r in range(rng.randrange(min(rows, 4))):
            # non-unit minima in the leading rows, a unit only further down
            A[r] = [rng.choice([2, -2, 4, 6]) if v else 0 for v in A[r]]
        out.append(A)
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_sparse_routines_match_dense_references(seed):
    from cechmod.snf import (check_smith_form, kernel_generators_mod,
                             pivot_valuations_mod_prime_power, rank_and_divisors)
    rng = random.Random(100 + seed)
    fixups = []
    for A in _sparse_corpus(seed, 60):
        rows, cols = len(A), len(A[0])
        S = _sparse_form(A)
        assert dense(*S) == A
        d, U, V = _dense_smith_normal_form(A, True, fixups)
        assert _dense_factors(S) == (d, U, V)
        assert rank_and_divisors(S) == (len(d), d)
        check_smith_form(S, smith_normal_form(S))
        for p, e in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
            assert pivot_valuations_mod_prime_power(S, p, e) == _dense_pivot_valuations(A, p, e)
        for n, factors in ((2, [(2, 1)]), (3, [(3, 1)]), (4, [(2, 2)]),
                           (6, [(2, 1), (3, 1)]), (12, [(2, 2), (3, 1)])):
            assert kernel_generators_mod(S, n) == _dense_kernel_generators(A, n)
            kernel = image = 1
            for p, e in factors:
                vals = _dense_pivot_valuations(A, p, e)
                kernel *= p ** (e * (cols - len(vals)) + sum(vals))
                image *= p ** sum(e - v for v in vals)
            assert (kernel_size_mod(S, n), image_size_mod(S, n)) == (kernel, image)
            x = [rng.randrange(n) for _ in range(cols)]
            feasible = [sum(a * b for a, b in zip(row, x)) for row in A]
            for b in (feasible, [rng.randrange(n) for _ in range(rows)]):
                assert solve_mod(S, b, n) == _dense_solve_mod(A, b, n)
    # the corpus reaches the divisibility fix-up, and not only in [[2, 0], [0, 3]]
    assert len(fixups) > 1


def test_check_smith_form_rejects_a_wrong_factorization():
    # each corruption changes entry (0, 0) of U * A * V or of diag(d)
    from cechmod.snf import check_smith_form
    for A in _sparse_corpus(0, 20):
        S = _sparse_form(A)
        d, U, V = smith_normal_form(S)
        check_smith_form(S, (d, U, V))
        if not d:
            continue
        doubled_u = [{c: 2 * v for c, v in U[0].items()}] + U[1:]
        doubled_v = [{c: 2 * v if c == 0 else v for c, v in row.items()} for row in V]
        for bad in (([d[0] + 1] + d[1:], U, V), (d, doubled_u, V), (d, U, doubled_v)):
            with pytest.raises(AssertionError):
                check_smith_form(S, bad)


# -- matrices with no rows or no columns ----------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4])
def test_empty_matrices_take_the_general_path(n):
    # the values the early returns for these shapes gave, bar one: the
    # kernel generators of a 0 x 3 matrix at n = 1 are none, as for every
    # other shape, where the early return listed three zero vectors
    from cechmod.snf import (check_smith_form, kernel_generators_mod,
                             pivot_valuations_mod_prime_power, rank_and_divisors)
    none, wide, tall = SparseMatrix((), 0), SparseMatrix((), 3), SparseMatrix(((), ()), 0)
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert smith_normal_form(none) == ([], [], [])
    assert smith_normal_form(wide) == ([], [], [{0: 1}, {1: 1}, {2: 1}])
    assert smith_normal_form(tall) == ([], [{0: 1}, {1: 1}], [])
    for S in (none, wide, tall):
        assert rank_and_divisors(S) == (0, [])
        check_smith_form(S, smith_normal_form(S))
        for p, e in ((2, 1), (2, 2), (3, 1)):
            assert pivot_valuations_mod_prime_power(S, p, e) == []
        assert image_size_mod(S, n) == 1
    assert [kernel_size_mod(S, n) for S in (none, wide, tall)] == [1, n ** 3, 1]
    assert kernel_generators_mod(none, n) == kernel_generators_mod(tall, n) == []
    assert kernel_generators_mod(wide, n) == (identity if n > 1 else [])
    assert solve_mod(none, [], n) == []
    assert solve_mod(wide, [], n) == [0, 0, 0]
    assert solve_mod(tall, [0, 0], n) == []
    assert solve_mod(tall, [1, 0], n) == ([] if n == 1 else None)
