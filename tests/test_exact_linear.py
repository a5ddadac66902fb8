import random
from fractions import Fraction
from math import lcm

import pytest

from toricsplit.exact_linear import (
    IntMatrix,
    _int_rref,
    _row_echelon,
    clear_denominators,
    hnf,
    int_det,
    int_kernel,
    int_rank,
    rat_invert,
    rat_kernel,
    rat_matmul,
    rat_rank,
    solve_integral,
    unimodular_inverse,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b):
    # the product as row tuples, for comparison with hnf's and solve_integral's results
    return tuple(map(tuple, rat_matmul(a, b)))


def _fraction_rref(rows):
    # reference Gauss-Jordan over Fraction, independent of the package's elimination
    m = [[Fraction(x) for x in row] for row in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _oracle_kernel(rows):
    if not rows:
        return []
    m, pivots = _fraction_rref(rows)
    nc = len(rows[0])
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(nc)]
        for t, p in enumerate(pivots):
            v[p] = -m[t][f]
        basis.append(v)
    return basis


def _oracle_invert(rows):
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    m, pivots = _fraction_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in m]


def is_reduced_echelon(h):
    last_pivot = -1
    seen_zero_row = False
    for i, row in enumerate(h):
        p = next((j for j, x in enumerate(row) if x != 0), None)
        if p is None:
            seen_zero_row = True
            continue
        assert not seen_zero_row
        assert p > last_pivot
        assert row[p] > 0
        for above in range(i):
            assert 0 <= h[above][p] < row[p]
        last_pivot = p
    return True


def test_intmatrix_rejects_ragged_and_nonint():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.0, 2], [3, 4]])


def test_intmatrix_rejects_bool():
    # bool is an int subclass; like every other integer validator, the class turns it away
    with pytest.raises(TypeError, match=r"^non-integer entry True$"):
        IntMatrix.from_rows([[True, 2]])
    with pytest.raises(TypeError, match=r"^non-integer entry False$"):
        IntMatrix(1, 2, ((3, False),))


def test_hnf_identity():
    h, u = hnf(mat(identity(2)))
    assert h == identity(2)
    assert u == identity(2)


def test_hnf_zero():
    z = mat([[0, 0], [0, 0]])
    h, u = hnf(z)
    assert h == z.entries
    assert u == identity(2)


def test_hnf_keeps_the_shape_of_an_empty_matrix():
    # H has m rows of n entries and U is m x m even with no column to reduce
    assert hnf(IntMatrix(0, 3, ())) == ((), ())
    assert hnf(IntMatrix(2, 0, ((), ()))) == (((), ()), identity(2))


def test_hnf_returns_row_tuples():
    for h_or_u in hnf(mat([[2, 4], [1, 3], [0, 5]])):
        assert type(h_or_u) is tuple and all(type(row) is tuple for row in h_or_u)
        assert all(type(x) is int for row in h_or_u for x in row)


def test_hnf_known_lattice():
    a = mat([[2, 4], [1, 3]])
    h, u = hnf(a)
    assert matmul(u, a.entries) == h
    assert abs(int_det(u)) == 1
    assert h == ((1, 1), (0, 2))
    # the unreduced echelon form [[1,3],[0,2]] spans the same row lattice
    h2, _ = hnf(mat([[1, 3], [0, 2]]))
    assert h2 == h


def test_hnf_random_property():
    rng = random.Random(20240814)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        h, u = hnf(a)
        assert matmul(u, a.entries) == h
        assert abs(int_det(u)) == 1
        assert is_reduced_echelon(h)


def test_solve_all_ones_column():
    a = mat([[1, 1, 1]] * 3)
    b = mat([[3], [3], [3]])
    result = solve_integral(a, b)
    assert result is not None
    x, kernel = result
    assert x == ((3,), (0,), (0,))
    assert len(kernel) == 2
    for k in kernel:
        assert sum(k) == 0
        assert matmul(a.entries, [[v] for v in k]) == ((0,), (0,), (0,))


def test_solve_identity():
    b = mat([[5, -1], [2, 7], [0, 3]])
    result = solve_integral(mat(identity(3)), b)
    assert result is not None
    x, kernel = result
    assert x == b.entries
    assert kernel == []


def test_solve_parity_obstruction():
    assert solve_integral(mat([[2]]), mat([[1]])) is None


def test_solve_wide_with_coupled_pivot():
    # naive back substitution with zero free variables would miss this one
    a = mat([[2, 1]])
    result = solve_integral(a, mat([[1]]))
    assert result is not None
    x, kernel = result
    assert matmul(a.entries, x) == ((1,),)
    assert len(kernel) == 1


def test_solve_keeps_the_shape_of_an_empty_side():
    # X has a.cols rows of b.cols entries even when one side has no column or no row
    assert solve_integral(mat([[1, 2]]), IntMatrix(1, 0, ((),))) == (((), ()), [(-2, 1)])
    assert solve_integral(IntMatrix(0, 2, ()), IntMatrix(0, 1, ())) == (((0,), (0,)), [(1, 0), (0, 1)])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_integral(mat([[1, 2]]), mat([[1], [2]]))


def test_solve_random_roundtrip():
    rng = random.Random(99)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = mat([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        x0 = [[rng.randint(-6, 6)] for _ in range(n)]
        b = mat(matmul(a.entries, x0))
        result = solve_integral(a, b)
        assert result is not None
        x, kernel = result
        assert matmul(a.entries, x) == b.entries
        assert len(kernel) == n - rat_rank(a.entries)
        # the two solutions differ by a kernel vector: adding it keeps the rank
        diff = [x[i][0] - x0[i][0] for i in range(n)]
        assert rat_rank(kernel + [diff]) == len(kernel)


def test_int_det_cases():
    assert int_det([[2, 4], [1, 3]]) == 2
    assert int_det([[1, 0], [0, 1]]) == 1
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([]) == 1
    with pytest.raises(ValueError):
        int_det([[1, 2, 3], [4, 5, 6]])


def test_rat_rank_and_kernel():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rat_rank(rows) == 2
    basis = rat_kernel(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def _kernel_cases(rng):
    yield []
    yield [[]]
    yield [[0, 0, 0], [0, 0, 0]]
    for case in range(1200):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if case % 4 == 0:
            # rank-deficient: a product through an inner dimension below min(m, n)
            k = rng.randint(0, min(m, n) - 1)
            left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k else [0] * n for row in left]
        else:
            # sparse like Q^T, with some all-zero rows
            rows = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
            if case % 4 == 1:
                rows[rng.randrange(m)] = [0] * n
        yield rows


def _pivot_columns(rows):
    # column c is a pivot exactly when it raises the rank of the columns before it
    cols = list(zip(*rows)) if rows else []
    ranks = [len(_fraction_rref(list(zip(*cols[:c])) if c else [])[1]) for c in range(len(cols) + 1)]
    return [c for c in range(len(cols)) if ranks[c + 1] > ranks[c]]


def _lcm_scaled(vec):
    scale = lcm(*(c.denominator for c in vec))
    return tuple(int(c * scale) for c in vec)


def test_int_kernel_matches_scaled_rat_kernel():
    rng = random.Random(4)
    shapes = set()
    for rows in _kernel_cases(rng):
        basis = int_kernel(rows)
        assert basis == [_lcm_scaled(vec) for vec in _oracle_kernel(rows)], rows
        n = len(rows[0]) if rows else 0
        pivots = _pivot_columns(rows)
        free = [c for c in range(n) if c not in pivots]
        # each vector ends at its own free column, with a positive entry there
        assert [max(i for i, c in enumerate(vec) if c) for vec in basis] == free
        assert all(vec[f] > 0 for vec, f in zip(basis, free))
        shapes.add((len(rows) > n, len(rows) < n, len(pivots) == min(len(rows), n)))
    # tall, wide and square, each both full-rank and rank-deficient
    assert len(shapes) == 6


def test_rat_invert_and_matmul():
    a = [[1, 2], [3, 5]]
    inv = rat_invert(a)
    prod = rat_matmul(a, inv)
    assert prod == [[1, 0], [0, 1]]
    # integer factors keep integer entries (no Fraction coercion)
    assert all(type(x) is int for row in rat_matmul(a, [[2, -1], [0, 3]]) for x in row)
    with pytest.raises(ValueError):
        rat_invert([[1, 2], [2, 4]])


def _rational_cases(rng):
    yield []
    yield [[]]
    yield [[0, 0], [0, 0]]
    yield [[Fraction(1, 2), 1], [1, 2]]  # singular, one entry non-integral
    for case in range(600):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        if case % 3 == 0:
            n = m  # square, so half the inverses below are attempted
        if case % 5 == 0:
            # rank-deficient: a product through an inner dimension below min(m, n)
            k = rng.randint(1, min(m, n)) - 1
            left = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(k)] for _ in range(m)]
            right = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)] for _ in range(k)]
            rows = [
                [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)] if k else [0] * n
                for row in left
            ]
        else:
            rows = [
                [rng.choice((0, 1, -1, rng.randint(-6, 6), Fraction(rng.randint(-9, 9), rng.randint(2, 5))))
                 for _ in range(n)]
                for _ in range(m)
            ]
        if case % 4 == 1:
            rows[rng.randrange(m)] = [0] * n
        if case % 7 == 2 and m > 1:
            # a rational multiple of another row
            i, j = rng.sample(range(m), 2)
            rows[i] = [Fraction(rng.randint(1, 4), rng.randint(2, 5)) * x for x in rows[j]]
        yield rows


def _outcome(fn, rows):
    try:
        return fn(rows)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_rational_input_matches_fraction_oracle():
    rng = random.Random(11)
    seen = set()
    for rows in _rational_cases(rng):
        m, pivots = _fraction_rref(rows)
        assert rat_rank(rows) == len(pivots), rows
        kernel = rat_kernel(rows)
        assert kernel == _oracle_kernel(rows), rows
        assert all(type(x) is Fraction for vec in kernel for x in vec)
        inverse = _outcome(rat_invert, rows)
        assert inverse == _outcome(_oracle_invert, rows), rows
        if not isinstance(inverse, str):
            assert all(type(x) is Fraction for row in inverse for x in row)
        n = len(rows[0]) if rows else 0
        seen.add((
            any(isinstance(x, Fraction) and x.denominator > 1 for row in rows for x in row),
            len(rows) == n,
            len(pivots) == min(len(rows), n),
            isinstance(inverse, str) and "singular matrix" in inverse,
        ))
    assert (True, True, True, False) in seen  # invertible with non-integral entries
    assert (True, True, False, True) in seen  # singular square with non-integral entries
    assert (True, False, True, False) in seen and (True, False, False, False) in seen  # non-square


def _random_unimodular(rng, n):
    # a product of elementary matrices: row swaps, sign flips and row additions
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        move = rng.randrange(3)
        if move == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif move == 1:
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def test_unimodular_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = _random_unimodular(rng, n)
        assert abs(int_det(a)) == 1
        inv = unimodular_inverse(a)
        assert all(isinstance(x, int) for row in inv for x in row)
        assert inv == tuple(tuple(int(x) for x in row) for row in _oracle_invert(a))
        assert matmul(a, inv) == identity(n)
        assert matmul(inv, a) == identity(n)


def test_unimodular_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse([[2, 1], [0, 1]])
    with pytest.raises(ValueError, match="not unimodular"):
        unimodular_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="non-square"):
        unimodular_inverse([[1, 0, 0], [0, 1, 0]])


# ------------------------------------------- references: the earlier bodies


def _old_rat_kernel(rows):
    if not rows:
        return []
    m, pivots = _int_rref(clear_denominators(rows))
    nc = len(rows[0])
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for t, p in enumerate(pivots):
            v[p] = Fraction(-m[t][f], m[t][p])
        basis.append(v)
    return basis


def _old_rat_invert(rows):
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    m, pivots = _int_rref(clear_denominators(aug))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [[Fraction(x, m[t][t]) for x in m[t][n:]] for t in range(n)]


def _old_unimodular_inverse(rows):
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    m, pivots = _int_rref(aug)
    if pivots != list(range(n)) or any(m[t][t] != 1 for t in range(n)):
        raise ValueError("matrix is not unimodular: no integral inverse")
    return tuple(tuple(row[n:]) for row in m)


def _reader_cases(rng, rational):
    # square, non-square, singular and rank-deficient, 0x0 and empty rows, r <= 6
    def entry():
        if rational and rng.random() < 0.4:
            return Fraction(rng.randint(-9, 9), rng.randint(2, 5))
        return rng.choice((0, 0, 1, -1, rng.randint(-6, 6)))

    yield []
    yield [[]]
    yield [[0, 0], [0, 0]]
    for case in range(500):
        m = rng.randint(1, 6)
        n = m if case % 2 else rng.randint(1, 6)
        if case % 5 == 0:
            # rank-deficient: a product through an inner dimension below min(m, n)
            k = rng.randint(0, min(m, n) - 1)
            left = [[entry() for _ in range(k)] for _ in range(m)]
            right = [[entry() for _ in range(n)] for _ in range(k)]
            rows = rat_matmul(left, right) if k else [[0] * n for _ in range(m)]
        elif case % 5 == 1 and m == n:
            rows = _random_unimodular(rng, n)
        else:
            rows = [[entry() for _ in range(n)] for _ in range(m)]
        if case % 7 == 3:
            rows[rng.randrange(m)] = [0] * n
        if case % 7 == 4 and m > 1:
            i, j = rng.sample(range(m), 2)
            rows[i] = list(rows[j])
        yield rows


def test_readers_match_their_earlier_bodies():
    seen = set()
    for rational in (False, True):
        for rows in _reader_cases(random.Random(2026 + rational), rational):
            assert rat_kernel(rows) == _old_rat_kernel(rows), rows
            inverse = _outcome(rat_invert, rows)
            assert inverse == _outcome(_old_rat_invert, rows), rows
            if not rational:
                assert _outcome(unimodular_inverse, rows) == _outcome(_old_unimodular_inverse, rows), rows
            fractional = any(isinstance(x, Fraction) and x.denominator > 1 for row in rows for x in row)
            seen.add((fractional, inverse if isinstance(inverse, str) else "inverse"))
    outcomes = ("inverse", "ValueError: singular matrix", "ValueError: inverse of a non-square matrix")
    assert {(fractional, o) for fractional in (False, True) for o in outcomes} <= seen
    assert _outcome(unimodular_inverse, [[2, 1], [0, 1]]) == "ValueError: matrix is not unimodular: no integral inverse"


def _prefix_pair_cases():
    rng = random.Random(20261019)
    for case in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-5, 5))) for _ in range(n)] for _ in range(m)]
        if case % 3 == 0:
            rows[rng.randrange(m)] = [0] * n
        if case % 3 == 1 and m > 1:
            i, j = rng.sample(range(m), 2)
            rows[i] = [rng.choice((-2, -1, 1, 3)) * x for x in rows[j]]
        yield rows


def test_row_order_pass_ranks_every_prefix_pair():
    cases = 0
    for rows in _prefix_pair_cases():
        m, n = len(rows), len(rows[0])
        echelon, pivots = _row_echelon(rows)
        found = [p for p in pivots if p is not None]
        assert len(set(found)) == len(found)
        assert sorted(found) == _int_rref(rows)[1]
        for a in range(1, m + 1):
            assert sorted(p for p in pivots[:a] if p is not None) == _fraction_rref(rows[:a])[1]
            for b in range(1, n + 1):
                table = sum(p is not None and p < b for p in pivots[:a])
                assert table == int_rank([row[:b] for row in rows[:a]]), (rows, a, b)
        # the echelon rows are the independent rows, reduced, in row order: each starts at its pivot
        assert [p for p, _ in echelon] == found
        for p, v in echelon:
            assert next(j for j, x in enumerate(v) if x) == p
        cases += any(p is None for p in pivots)
    assert cases > 100


def test_readers_match_the_reference_eliminations(assert_readers_match_references):
    for rows in _prefix_pair_cases():
        assert_readers_match_references(rows)
    for n in range(1, 6):
        rng = random.Random(n)
        for _ in range(20):
            assert_readers_match_references(_random_unimodular(rng, n))
    for rows in ([], [[]], [[], []], [[0, 0], [0, 0]], [[2, 4]], [[2, 1], [0, 1]]):
        assert_readers_match_references(rows)
