import itertools
import random

from cechmod.snf import (
    image_size_mod,
    kernel_size_mod,
    smith_normal_form,
    solve_mod,
)


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
        got = solve_mod(A, b, n)
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
        assert kernel_size_mod(A, n) == kernel
        assert image_size_mod(A, n) == image


def test_smith_form_transforms_and_divisibility():
    rng = random.Random(13)
    for _ in range(100):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        d, U, V = smith_normal_form(A, want_transforms=True)
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
    assert smith_normal_form([[2, 0], [0, 3]])[0] == [1, 6]
    assert smith_normal_form([[2, 4], [6, 8]])[0] == [2, 4]
    assert smith_normal_form([[0, 0], [0, 0]])[0] == []


def test_solve_mod_with_one_factorization():
    # one Smith form of A serves every right-hand side, as in the abelian
    # classification, and gives the answers of a fresh factorization
    rng = random.Random(5)
    for _ in range(20):
        A, rows, cols, n = _random_system(rng)
        factors = smith_normal_form(A, want_transforms=True)
        for b in itertools.product(range(n), repeat=rows):
            assert solve_mod(A, list(b), n, factors) == solve_mod(A, list(b), n)
