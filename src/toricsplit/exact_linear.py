"""Exact linear algebra over the integers and rationals.

Everything is elementary row reduction kept deterministic so callers can
rely on canonical output: ``hnf`` returns the reduced row Hermite normal
form and ``solve_integral`` the particular solution whose free coordinates
vanish in HNF coordinates.  No floating point anywhere.  A matrix is a
sequence of rows and every result a tuple of int tuples; ``IntMatrix`` is
only the checked input of ``hnf``, ``SolvePlan`` and ``solve_integral``.

``SolvePlan`` is the one back-substitution: it keeps what an integral
solve needs of the matrix alone (the HNF of its transpose as sparse pivot
and residual terms, the rank rows of U and the integral kernel), so a
caller with many right-hand sides for one matrix pays for one ``hnf``;
``solve_integral`` is a loop over columns on top of it.

Ranks, kernels and inverses come from one fraction-free elimination in
row order, ``_row_echelon``: each row is reduced against the independent
rows before it, by ``s*row - f*e`` at the pivot of each earlier echelon
row e, and divided by the gcd of its entries.  Its pivots give
``int_rank`` and rank every row prefix on every column prefix.
``_int_rref`` clears its echelon rows upwards, last first, sorts them by
pivot and makes each pivot positive, so that pivot row t divided by its
pivot is exactly row t of the rational reduced row echelon form.
``int_kernel`` reads a primitive vector per free column off it, both
inverses read one reduced ``[A | I]``, and ``int_row_relations`` is
``int_kernel`` of the transpose.  Rational input is first cleared row by
row, by the lcm of each row's denominators, which changes neither the row
space nor the reduced form; ``rat_kernel`` divides each ``int_kernel``
vector by its entry at its free column, and ``rat_invert`` scales the
cleared inverse's columns back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

Rat = int | Fraction
# the entry types of a Rat, by exact type: a bool is written back as True or False
RAT_TYPES = (int, Fraction)
# a matrix as its row tuples
Rows = tuple[tuple[int, ...], ...]
# the nonzero entries of a vector as (index, coeff) pairs, in index order
SparseTerms = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class IntMatrix:
    """Validated integer input of ``hnf``, ``SolvePlan`` and ``solve_integral``, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimension")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for x in row:
                if type(x) is not int:
                    raise TypeError(f"non-integer entry {x!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        entries = tuple(tuple(row) for row in rows)
        ncols = len(entries[0]) if entries else 0
        return cls(len(entries), ncols, entries)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and g = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf(a: IntMatrix) -> tuple[Rows, Rows]:
    """Row Hermite normal form of ``a``.

    Returns (H, U) as row tuples, H m x n and U m x m for ``a`` m x n, with
    U unimodular, U @ a == H, H in row-echelon form with positive pivots
    and every entry above a pivot reduced into [0, pivot).
    The reduced form is the unique canonical representative of the row
    lattice, so equal-lattice inputs produce identical H.
    """
    m, n = a.rows, a.cols
    # each row operation acts on [a | I] at once: its left block ends as H, its right as U
    h = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a.entries)]
    pivot_row = 0
    for col in range(n):
        if pivot_row == m:
            break
        nz = [i for i in range(pivot_row, m) if h[i][col] != 0]
        if not nz:
            continue
        h[pivot_row], h[nz[0]] = h[nz[0]], h[pivot_row]
        for i in range(pivot_row + 1, m):
            if h[i][col] == 0:
                continue
            if h[i][col] % h[pivot_row][col] == 0:
                q = h[i][col] // h[pivot_row][col]
                h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
                continue
            g, s, t = _xgcd(h[pivot_row][col], h[i][col])
            pc, ic = h[pivot_row][col] // g, h[i][col] // g
            h[pivot_row], h[i] = (
                [s * x + t * y for x, y in zip(h[pivot_row], h[i])],
                [-ic * x + pc * y for x, y in zip(h[pivot_row], h[i])],
            )
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
        p = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // p
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
        pivot_row += 1
    return tuple(tuple(row[:n]) for row in h), tuple(tuple(row[n:]) for row in h)


class SolvePlan:
    """Everything in an integral solve of a @ x = c that depends on ``a`` alone.

    Built from one ``hnf`` of the transpose, U @ a^T == H: a @ x = c with
    x = U^T y reads H^T y = c, which is triangular on H's pivot columns.
    ``solve`` back-substitutes one right-hand column through the sparse
    pivot terms, checks the equations at the other columns, and maps y to
    x through the rank rows of U (Cohen, GTM 138, section 2.4).  The rows
    of U past the rank are an integral basis of the kernel.
    """

    def __init__(self, a: IntMatrix) -> None:
        h, u = hnf(IntMatrix.from_rows(tuple(zip(*a.entries)) or ((),) * a.cols))
        # H is in echelon form: its nonzero rows come first
        pivots = [next(j for j, v in enumerate(row) if v) for row in h if any(row)]
        rank = len(pivots)
        self.rows = a.rows
        self.kernel = list(u[rank:])
        h_cols = list(zip(*h[:rank])) if rank else [()] * a.rows
        u_cols = list(zip(*u[:rank])) if rank else [()] * a.cols
        # y[t] = (c[p] - sum(coeff * y[s] for s, coeff in terms)) / pivot
        self._pivot_terms = tuple(
            (p, h_cols[p][t], nonzero_terms(h_cols[p][:t])) for t, p in enumerate(pivots)
        )
        # every equation off the pivot columns must hold as it stands
        on_pivot = set(pivots)
        self._residual_terms = tuple(
            (i, nonzero_terms(col)) for i, col in enumerate(h_cols) if i not in on_pivot
        )
        # x[j] = sum(coeff * y[t] for t, coeff in terms)
        self._unknown_terms = tuple(nonzero_terms(col) for col in u_cols)

    def solve(self, c: Sequence[int]) -> tuple[int, ...] | None:
        """The canonical integral x with a @ x == c, or None when there is none."""
        if len(c) != self.rows:
            raise ValueError(f"dimension mismatch: {self.rows} equations, {len(c)} right-hand rows")
        y: list[int] = []
        for p, pivot, terms in self._pivot_terms:
            s = c[p] - sum(coeff * y[t] for t, coeff in terms)
            if s % pivot:
                return None
            y.append(s // pivot)
        for i, terms in self._residual_terms:
            if sum(coeff * y[t] for t, coeff in terms) != c[i]:
                return None
        return tuple(sum(coeff * y[t] for t, coeff in terms) for terms in self._unknown_terms)


def nonzero_terms(vec: Sequence[int]) -> SparseTerms:
    return tuple((i, v) for i, v in enumerate(vec) if v)


def solve_integral(a: IntMatrix, b: IntMatrix) -> tuple[Rows, list[tuple[int, ...]]] | None:
    """Solve a @ X == b over the integers.

    ``b`` may have several columns; each is solved against the same kernel.
    Returns (X, kernel_basis), X as a.cols rows of b.cols entries, where the
    basis spans {v : a @ v = 0} over the integers, or None when no integral
    solution exists.  The particular solution is canonical: its free
    coordinates vanish in the coordinates induced by hnf of the transpose.
    """
    if a.rows != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows} equations, {b.rows} right-hand rows")
    plan = SolvePlan(a)
    x_cols = [plan.solve(c) for c in tuple(zip(*b.entries)) or ((),) * b.cols]
    if None in x_cols:
        return None
    return tuple(zip(*x_cols)) or ((),) * a.cols, plan.kernel


def _reduce(v: list[int], echelon: Sequence[tuple[int, list[int]]]) -> list[int]:
    """v cleared fraction-free at each (pivot, row) of ``echelon`` in turn.

    At pivot p of row e, v becomes e[p]*v - v[p]*e divided by the gcd of its
    entries.  Each row of ``echelon`` must be zero at the pivots before its
    own, so a later step never refills a cleared pivot.
    """
    for p, e in echelon:
        f = v[p]
        if f:
            s = e[p]
            v = [s * x - f * y for x, y in zip(v, e)]
            g = gcd(*v)
            if g > 1:
                v = [x // g for x in v]
    return v


def _row_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[tuple[int, list[int]]], list[int | None]]:
    """The one fraction-free elimination, in row order: (echelon, pivots).

    Each row is reduced against the independent rows before it.  Its pivot
    is the first nonzero column of its reduced row, None when it reduces to
    zero; the rows that do not are ``echelon``, as (pivot, reduced row) in
    row order.  The pivots are distinct and the first a reduced rows span
    rows 0..a-1, so their rank on the columns < b is the number of their
    pivots below b.
    """
    echelon: list[tuple[int, list[int]]] = []
    pivots: list[int | None] = []
    for row in rows:
        v = _reduce(list(row), echelon)
        p = next((c for c, x in enumerate(v) if x), None)
        if p is not None:
            echelon.append((p, v))
        pivots.append(p)
    return echelon, pivots


def _int_rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan: ``_row_echelon`` cleared upwards.

    Returns (E, pivots), one row of E per pivot.  Each echelon row, the last
    first, is cleared at the pivots of the rows after it, which are cleared
    already; the rows are then sorted by pivot and each pivot made positive.
    Every other entry of a pivot column is zero, and E[t] / E[t][pivots[t]]
    is row t of the rational reduced row echelon form.  A row is divided by
    its gcd whenever it changes, so primitive input rows stay primitive.
    """
    echelon, _ = _row_echelon(rows)
    for t in reversed(range(len(echelon))):
        p, v = echelon[t]
        echelon[t] = p, _reduce(v, echelon[t + 1 :])
    echelon.sort()  # by pivot: the pivots are distinct
    return [v if v[p] > 0 else [-x for x in v] for p, v in echelon], [p for p, _ in echelon]


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    return len(_row_echelon(rows)[0])


def int_kernel(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Integral basis of the right null space, one primitive vector per free column.

    The vector of free column f has a positive entry at f, its last nonzero
    entry; divided by it, it is the rational reduced form's kernel vector.
    """
    if not rows:
        return []
    m, pivots = _int_rref(rows)
    nc = len(rows[0])
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        # the rational entry at pivot column p is -m[t][f] / m[t][p]
        scale = lcm(*(m[t][p] // gcd(m[t][f], m[t][p]) for t, p in enumerate(pivots)))
        vec = [0] * nc
        vec[f] = scale
        for t, p in enumerate(pivots):
            vec[p] = -m[t][f] * scale // m[t][p]
        basis.append(tuple(vec))
    return basis


def int_row_relations(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Integral basis of the left null space {y : y @ rows == 0}: ``int_kernel`` of the transpose.

    The transpose's free column i is a row that depends on the rows before
    it, so its vector is the relation ending at row i, primitive and
    positive there, and the relations ending at rows <= i span those among
    rows 0..i.
    """
    return int_kernel(list(zip(*rows)) or [[0] * len(rows)])


def _reduced_inverse(rows: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Reduced [A | I] of a square integer A, row t = m[t][t] > 0 times [I | A^-1]'s row t; None if A is singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    m, pivots = _int_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    return m if pivots == list(range(n)) else None


def unimodular_inverse(rows: Sequence[Sequence[int]]) -> Rows:
    """Integral inverse of a square integer matrix, read off the reduced [A | I].

    Raises ValueError when no integral inverse exists, that is unless the
    determinant is +-1: then some pivot of the reduced, row-primitive
    [A | I] is not 1, or lies in the right half.
    """
    m = _reduced_inverse(rows)
    if m is None or any(m[t][t] != 1 for t in range(len(m))):
        raise ValueError("matrix is not unimodular: no integral inverse")
    return tuple(tuple(row[len(m):]) for row in m)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    a = [list(row) for row in rows]
    for row in a:
        if len(row) != n:
            raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def clear_denominators(rows: Sequence[Sequence[Rat]]) -> list[list[int]]:
    """Each row times the lcm of its entries' denominators: integer rows, same row space.

    Every rational reader clears its input here, so an entry other than an int or a Fraction fails here.
    """
    cleared = []
    for row in rows:
        for x in row:
            if type(x) not in RAT_TYPES:
                raise ValueError(f"entry {x!r} is not an int or a Fraction")
        scale = lcm(*(x.denominator for x in row))
        cleared.append([x.numerator * (scale // x.denominator) for x in row])
    return cleared


def rat_rank(rows: Sequence[Sequence[Rat]]) -> int:
    return int_rank(clear_denominators(rows))


def rat_kernel(rows: Sequence[Sequence[Rat]]) -> list[list[Fraction]]:
    """Basis of the right null space over the rationals: each ``int_kernel`` vector over its last nonzero."""
    basis = []
    for vec in int_kernel(clear_denominators(rows)):
        scale = next(x for x in reversed(vec) if x)
        basis.append([Fraction(x, scale) for x in vec])
    return basis


def rat_invert(rows: Sequence[Sequence[Rat]]) -> list[list[Fraction]]:
    """Inverse over the rationals: (D A)^-1 D, with D diagonal, d_j the lcm of row j's denominators."""
    m = _reduced_inverse(clear_denominators(rows))
    if m is None:
        raise ValueError("singular matrix")
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[Fraction(x * d, row[t]) for x, d in zip(row[len(m):], scales)] for t, row in enumerate(m)]


def rat_matmul(a: Sequence[Sequence[Rat]], b: Sequence[Sequence[Rat]]) -> list[list[Rat]]:
    """Exact product; integer factors give integer entries."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]
