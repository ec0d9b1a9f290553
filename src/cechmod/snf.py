"""Exact integer linear algebra: Smith normal form and modular system solving.

One integer algorithm serves all moduli: the Smith normal form is computed
over Z with explicit reduction mod n at the end.  A separate elimination
over Z/p^e (combined by CRT) backs the mod-n cohomology counts that are
checked against the Smith-form route, so the two never share arithmetic.
Both count routes factor the oriented differentials of a base, one cochain
per simplex; the Smith forms whose transforms read cochain values factor
the normalized ones.

Every routine takes one input form, a `SparseMatrix` of per-row (column,
entry) pairs and a column count, such as `complexes.differential` and
`complexes.oriented_differential` hold for each base.  The column count is
known for every shape, so a matrix with no rows or no columns takes the
general path.

Both routes hold a matrix as sparse rows and sparse columns (dicts of the
nonzero entries), so an operation costs the nonzeros it reads, and a swap
permutes positions, not storage.  U and V come back as sparse rows; a
caller that reads only V builds no U, and `kernel_generators_mod` reads
V's sparse columns as they are.

Pivot rule, both routes: the first entry in row-major order of the
remaining block among those of least absolute value (over Z) or least
p-valuation (over Z/p^e).  No entry beats a unit, so the scan stops after
the first row that holds one, and operations skip zero multipliers.  The
pivots, transforms and valuations are those of a dense full-scan
elimination that performs the same operations in the same order.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple


class SparseMatrix(NamedTuple):
    """An integer matrix by its nonzero entries: per row a tuple of
    (column, entry) pairs in column order, and the number of columns."""

    rows: tuple[tuple[tuple[int, int], ...], ...]
    cols: int


def _sparse(matrix: SparseMatrix, q: int | None = None):
    """The nonzero entries (reduced mod q when q is given) twice over: per row
    a dict from column to entry, and per column a dict from row to entry.
    Each row's dict holds its columns in increasing order."""
    if q is None:
        R = [dict(row) for row in matrix.rows]
    else:
        R = [{c: x for c, v in row if (x := v % q)} for row in matrix.rows]
    C = [{} for _ in range(matrix.cols)]
    for r, row in enumerate(R):
        for c, v in row.items():
            C[c][r] = v
    return R, C


def _swap(at: list[int], pos: list[int], a: int, b: int) -> None:
    """Exchange positions a and b of the permutation `at` and its inverse `pos`."""
    at[a], at[b] = at[b], at[a]
    pos[at[a]], pos[at[b]] = a, b


def smith_normal_form(matrix: SparseMatrix):
    """Diagonalize an integer matrix, given as a `SparseMatrix`, by
    unimodular row and column operations.

    Returns (divisors, U, V) with U*A*V = diag(divisors), divisors positive
    and each dividing the next, and U and V as sparse rows (dicts from
    column to nonzero entry).  A caller that reads fewer transforms, as
    `rank_and_divisors` and `kernel_generators_mod` do, calls `_smith`.
    """
    divisors, U, Vc = _smith(matrix, True, True)
    V = [{} for _ in Vc]
    for j, col in enumerate(Vc):
        for r, v in col.items():
            V[r][j] = v
    return divisors, U, V


def _smith(matrix: SparseMatrix, want_left: bool, want_right: bool):
    """The Smith form of `smith_normal_form`, with U as sparse rows and V as
    sparse columns (dicts from index to nonzero entry), each None unless
    wanted."""
    R, C = _sparse(matrix)
    rows, cols = len(R), len(C)
    rowat, rowpos = list(range(rows)), list(range(rows))  # position -> slot, slot -> position
    colat, colpos = list(range(cols)), list(range(cols))
    U = [{i: 1} for i in range(rows)] if want_left else None
    Vc = [{i: 1} for i in range(cols)] if want_right else None  # the columns of V

    def axpy(X, i, j, q, Y=None):  # X[i] -= q * X[j] for q != 0, mirrored into Y[k][i]
        x = X[i]
        for k, v in X[j].items():
            s = x.get(k, 0) - q * v
            if s:
                x[k] = s
            else:
                del x[k]
            if Y is not None:
                if s:
                    Y[k][i] = s
                else:
                    del Y[k][i]

    def row_op(i, j, q):  # slot row_i -= q * slot row_j
        if q:
            axpy(R, i, j, q, C)
            if want_left:
                axpy(U, i, j, q)

    def col_op(i, j, q):  # slot col_i -= q * slot col_j
        if q:
            axpy(C, i, j, q, R)
            if want_right:
                axpy(Vc, i, j, q)

    def negate_row(i):
        for c in R[i]:
            R[i][c] = C[c][i] = -R[i][c]
        if want_left:
            U[i] = {c: -v for c, v in U[i].items()}

    def at(i, j):  # the entry at position (i, j)
        return R[rowat[i]].get(colat[j], 0)

    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry in the remaining block as pivot, the first
        # in row-major order; no entry beats a unit, so the scan stops after
        # the first row that holds one.  Rows from position t on hold no
        # column before position t.
        pivot = None  # the least (|entry|, row position, column position)
        for r in range(t, rows):
            for c, v in R[rowat[r]].items():
                key = (abs(v), r, colpos[c])
                if pivot is None or key < pivot:
                    pivot = key
            if pivot and pivot[0] == 1:
                break
        if pivot is None:
            break
        _swap(rowat, rowpos, t, pivot[1])
        _swap(colat, colpos, t, pivot[2])
        while True:
            # clear column t; an operation on one row or column leaves the
            # entries of the others that the pass has still to visit
            done = True
            ct = colat[t]
            for r in sorted(rowpos[s] for s in C[ct] if rowpos[s] > t):
                s = rowat[r]
                row_op(s, rowat[t], R[s][ct] // at(t, t))
                if ct in R[s]:
                    _swap(rowat, rowpos, t, r)
                    done = False
            st = rowat[t]
            for c in sorted(colpos[k] for k in R[st] if colpos[k] > t):
                k = colat[c]
                col_op(k, colat[t], R[st][k] // at(t, t))
                if k in R[st]:
                    _swap(colat, colpos, t, c)
                    done = False
            if done:
                break
        if at(t, t) < 0:
            negate_row(rowat[t])
        t += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if at(i + 1, i + 1) % at(i, i):
                # fold entry (i+1, i+1) into row i and rediagonalize the 2x2 block
                col_op(colat[i], colat[i + 1], -1)  # col_i += col_{i+1}
                while True:
                    if at(i + 1, i):
                        row_op(rowat[i + 1], rowat[i], at(i + 1, i) // at(i, i))
                        if at(i + 1, i):
                            _swap(rowat, rowpos, i, i + 1)
                            continue
                    if at(i, i + 1):
                        col_op(colat[i + 1], colat[i], at(i, i + 1) // at(i, i))
                        if at(i, i + 1):
                            _swap(colat, colpos, i, i + 1)
                            continue
                    break
                if at(i, i) < 0:
                    negate_row(rowat[i])
                if at(i + 1, i + 1) < 0:
                    negate_row(rowat[i + 1])
                changed = True

    divisors = [d for i in range(t) if (d := at(i, i))]
    if want_left:
        U = [U[s] for s in rowat]
    if want_right:
        Vc = [Vc[s] for s in colat]
    return divisors, U, Vc


def check_smith_form(matrix: SparseMatrix, factors) -> None:
    """Raise AssertionError unless U * matrix * V == diag(divisors), for a
    `SparseMatrix` and the `factors` = (divisors, U, V) of
    `smith_normal_form(matrix)`.  The products run on sparse rows, U *
    matrix first: its rows are those of diag(divisors) * V^-1, which are
    sparse."""
    d, U, V = factors
    R = _sparse(matrix)[0]
    for i, urow in enumerate(U):
        ua: dict[int, int] = {}  # row i of U * matrix
        for r, u in urow.items():
            for c, a in R[r].items():
                ua[c] = ua.get(c, 0) + u * a
        uav: dict[int, int] = {}  # row i of U * matrix * V
        for c, x in ua.items():
            if x:
                for j, v in V[c].items():
                    uav[j] = uav.get(j, 0) + x * v
        if {j: v for j, v in uav.items() if v} != ({i: d[i]} if i < len(d) else {}):
            raise AssertionError("U * A * V is not the Smith form of A")


def rank_and_divisors(matrix: SparseMatrix) -> tuple[int, list[int]]:
    d, _, _ = _smith(matrix, False, False)
    return len(d), d


def solve_mod(matrix: SparseMatrix, rhs: list[int], n: int) -> list[int] | None:
    """One solution x of  matrix @ x == rhs (mod n),  or None if infeasible,
    for a `SparseMatrix`.

    Reads the Smith form U * matrix * V = diag(d): solves d_i * y_i ==
    (U rhs)_i (mod n) row by row and returns x = V y, checked against
    `matrix`.
    """
    d, U, V = smith_normal_form(matrix)
    y = [0] * matrix.cols
    for i, row in enumerate(U):
        # solve d_i * y_i == (U rhs)_i (mod n), with d_i = 0 past the divisors
        ci = sum(map(mul, row.values(), map(rhs.__getitem__, row)))
        di = d[i] if i < len(d) else 0
        g = gcd(di, n)
        if ci % g:
            return None
        if di:
            y[i] = ((ci // g) * pow(di // g, -1, n // g)) % (n // g)
    x = [sum(v * y[j] for j, v in row.items()) % n for row in V]
    # verify
    for row, r in zip(matrix.rows, rhs):
        if sum(v * x[c] for c, v in row) % n != r % n:
            raise AssertionError("modular solve produced a non-solution")
    return x


def kernel_generators_mod(matrix: SparseMatrix, n: int) -> list[list[int]]:
    """Generators of {x : matrix @ x == 0 (mod n)} as vectors mod n: the
    columns of V, column i scaled by n / gcd(d_i, n), that are nonzero mod n."""
    d, _, Vc = _smith(matrix, False, True)
    gens = []
    for i, col in enumerate(Vc):
        di = d[i] if i < len(d) else 0
        scale = (n // gcd(di, n)) if di else 1
        vec = [0] * matrix.cols
        for r, v in col.items():
            vec[r] = (v * scale) % n
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


def pivot_valuations_mod_prime_power(matrix: SparseMatrix, p: int, e: int) -> list[int]:
    """Diagonalize over Z/p^e; return the p-valuations of the nonzero pivots.

    Z/p^e is a chain ring: an entry of minimal valuation divides every other
    entry up to a unit, so Gaussian-style elimination terminates with a
    diagonal of the form p^{a_1}, ..., p^{a_r} (units times), a_i < e.
    """
    q = p ** e
    R, C = _sparse(matrix, q)
    rows, cols = len(R), len(C)
    rowat = list(range(rows))  # position -> slot
    colat, colpos = list(range(cols)), list(range(cols))

    val = [0] * q  # the p-valuation of each nonzero residue
    for x in range(p, q, p):
        val[x] = val[x // p] + 1

    pivots = []
    t = 0
    while t < min(rows, cols):
        # least valuation, the first in row-major order; a unit (valuation 0)
        # cannot be beaten, so the scan stops after the first row that holds one
        pivot = None  # the least (valuation, row position, column position)
        for r in range(t, rows):
            for c, x in R[rowat[r]].items():
                key = (val[x], r, colpos[c])
                if pivot is None or key < pivot:
                    pivot = key
            if pivot and pivot[0] == 0:
                break
        if pivot is None:
            break
        best, r0, c0 = pivot
        rowat[t], rowat[r0] = rowat[r0], rowat[t]
        _swap(colat, colpos, t, c0)
        st, ct = rowat[t], colat[t]
        piv = p ** best
        inv_unit = pow(R[st][ct] // piv, -1, q)
        top = {c: (x * inv_unit) % q for c, x in R[st].items()}  # pivot is now p^best
        for r, a in list(C[ct].items()):
            if r != st:
                row = R[r]
                f = a // piv  # exact: val(a) >= best
                for c, x in top.items():
                    y = (row.get(c, 0) - f * x) % q
                    if y:
                        row[c] = C[c][r] = y
                    elif c in row:
                        del row[c], C[c][r]
        # column t now holds the pivot alone, so the column pass clears the
        # rest of row t (each entry a multiple of the pivot) and nothing else
        for c in R[st]:
            del C[c][st]
        pivots.append(best)
        t += 1
    return pivots


def kernel_size_mod(matrix: SparseMatrix, n: int) -> int:
    """|{x mod n : matrix @ x == 0 (mod n)}| by per-prime-power elimination."""
    total = 1
    for p, e in _factor(n):
        vals = pivot_valuations_mod_prime_power(matrix, p, e)
        total *= p ** (e * (matrix.cols - len(vals)) + sum(vals))
    return total


def image_size_mod(matrix: SparseMatrix, n: int) -> int:
    """|column span of matrix mod n| by per-prime-power elimination."""
    total = 1
    for p, e in _factor(n):
        vals = pivot_valuations_mod_prime_power(matrix, p, e)
        total *= p ** sum(e - v for v in vals)
    return total
