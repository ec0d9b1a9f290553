"""Exact integer linear algebra: Smith normal form and modular system solving.

One integer algorithm serves all moduli: the Smith normal form is computed
over Z with explicit reduction mod n at the end.  A separate elimination
over Z/p^e (combined by CRT) backs the mod-n cohomology counts that are
checked against the Smith-form route, so the two never share arithmetic.
"""

from __future__ import annotations

from math import gcd


def smith_normal_form(matrix: list[list[int]], want_transforms: bool = False):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (divisors, U, V) with U*A*V = diag(divisors), divisors positive
    and each dividing the next.  U and V are None unless requested.
    """
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


def rank_and_divisors(matrix: list[list[int]]) -> tuple[int, list[int]]:
    d, _, _ = smith_normal_form(matrix)
    return len(d), d


def solve_mod(matrix: list[list[int]], rhs: list[int], n: int,
              factors: tuple | None = None) -> list[int] | None:
    """One solution x of  matrix @ x == rhs (mod n),  or None if infeasible.

    `factors` is `smith_normal_form(matrix, want_transforms=True)`, passed by
    a caller that solves many systems with one matrix; the solution is
    checked against `matrix` either way.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    d, U, V = factors or smith_normal_form(matrix, want_transforms=True)
    c = [sum(U[i][j] * rhs[j] for j in range(rows)) % n for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        di = d[i] if i < len(d) else 0
        if i >= cols:
            if di:
                raise AssertionError("diagonal outside column range")
        if di == 0:
            if i < len(c) and c[i] % n:
                return None
            continue
        g = gcd(di, n)
        if c[i] % g:
            return None
        # solve di * y == c[i] (mod n)
        n2 = n // g
        y[i] = ((c[i] // g) * pow(di // g, -1, n2)) % n2
    for i in range(min(rows, cols), rows):
        if c[i] % n:
            return None
    x = [sum(V[r][j] * y[j] for j in range(cols)) % n for r in range(cols)]
    # verify
    for i in range(rows):
        if sum(matrix[i][j] * x[j] for j in range(cols)) % n != (rhs[i] % n):
            raise AssertionError("modular solve produced a non-solution")
    return x


def kernel_generators_mod(matrix: list[list[int]], n: int) -> list[list[int]]:
    """Generators of {x : matrix @ x == 0 (mod n)} as vectors mod n."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        return [[int(i == j) % n for j in range(cols)] for i in range(cols)]
    d, _, V = smith_normal_form(matrix, want_transforms=True)
    gens = []
    for i in range(cols):
        di = d[i] if i < len(d) else 0
        scale = (n // gcd(di, n)) if di else 1
        vec = [(V[r][i] * scale) % n for r in range(cols)]
        if any(vec):
            gens.append(vec)
    return gens


# -- independent route: elimination over Z/p^e ---------------------------------

def _factor(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def pivot_valuations_mod_prime_power(matrix: list[list[int]], p: int, e: int) -> list[int]:
    """Diagonalize over Z/p^e; return the p-valuations of the nonzero pivots.

    Z/p^e is a chain ring: an entry of minimal valuation divides every other
    entry up to a unit, so Gaussian-style elimination terminates with a
    diagonal of the form p^{a_1}, ..., p^{a_r} (units times), a_i < e.
    """
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


def kernel_size_mod(matrix: list[list[int]], n: int) -> int:
    """|{x mod n : matrix @ x == 0 (mod n)}| by per-prime-power elimination."""
    cols = len(matrix[0]) if matrix else 0
    if cols == 0:
        return 1
    total = 1
    for p, e in _factor(n):
        vals = pivot_valuations_mod_prime_power(matrix, p, e)
        exp = e * (cols - len(vals)) + sum(vals)
        total *= p ** exp
    return total


def image_size_mod(matrix: list[list[int]], n: int) -> int:
    """|column span of matrix mod n| by per-prime-power elimination."""
    if not matrix or not matrix[0]:
        return 1
    total = 1
    for p, e in _factor(n):
        vals = pivot_valuations_mod_prime_power(matrix, p, e)
        total *= p ** sum(e - v for v in vals)
    return total
