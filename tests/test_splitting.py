"""Splitting degrees on invariant curves: oracle, bootstrap, and wall restriction."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import pytest

from toricsplit import exact_linear, splitting
from toricsplit.bundle_data import KaneyamaBundleData, cp2_rank2, tangent_bundle
from toricsplit.exact_linear import clear_denominators, dot, int_kernel, int_rank, rat_matmul, rat_rank
from toricsplit.fan import projective_space, walls
from toricsplit.intersection import augmented_matrix
from toricsplit.splitting import (
    _DETERMINANT_RANK_CAP,
    RestrictionBlock,
    SplittingSystem,
    _clear_rows,
    _h_separable,
    _h_truncated,
    _separate_exponents,
    bootstrap,
    format_system,
    h0_oracle,
    restrict,
    splitting_system,
    transition_from_block,
    twist_system,
)
from toricsplit.surface_graph import enumerate_blowups, graph_to_fan, hirzebruch


def mono(rows):
    return tuple(tuple((Fraction(c), e) for c, e in row) for row in rows)


# ---------------------------------------------------------------- h0 oracle


def test_oracle_diagonal():
    t = mono([[(1, 2), (0, 0)], [(0, 0), (1, -1)]])
    assert h0_oracle(t) == (2, -1)


def test_oracle_single_entry():
    assert h0_oracle(mono([[(5, 3)]])) == (3,)
    assert h0_oracle(mono([[(-2, -7)]])) == (-7,)


def test_oracle_unipotent_mix():
    # z on the diagonal above 1/z, one constant off-diagonal entry
    t = mono([[(1, 1), (1, 0)], [(0, 0), (1, -1)]])
    assert h0_oracle(t) == (1, -1)


def test_oracle_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        h0_oracle(mono([[(1, 0), (1, 0)], [(1, 0), (1, 0)]]))
    with pytest.raises(ValueError, match="singular"):
        h0_oracle(mono([[(0, 0)]]))


def test_oracle_rejects_non_monomial_determinant():
    t = mono([[(1, 2), (1, 0)], [(1, 0), (1, -1)]])
    with pytest.raises(ValueError, match="not a monomial"):
        h0_oracle(t)


def test_oracle_rejects_non_integer_exponents():
    for exponent in (1.5, Fraction(3, 2), "2"):
        with pytest.raises(ValueError, match="^transition exponents must be integers$"):
            h0_oracle([[(1, exponent)]])
        with pytest.raises(ValueError, match="^transition exponents must be integers$"):
            h0_oracle([[(1, 0), (0, 0)], [(0, 0), (1, exponent)]])


def test_oracle_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        h0_oracle(mono([[(1, 0), (1, 0)]]))


def test_oracle_non_separable_unimodular():
    # polynomial, unimodular, exponents do not split as u_i + t_j
    t = mono([[(1, 0), (1, 5), (1, 1)], [(0, 0), (1, 0), (1, 5)], [(0, 0), (0, 0), (1, 0)]])
    assert _separate_exponents(t) is None
    assert h0_oracle(t) == (0, 0, 0)


def test_oracle_non_separable_shifted():
    # diag(z**2, z**-1, 1) times the unimodular matrix above
    t = mono([[(1, 2), (1, 7), (1, 3)], [(0, 0), (1, -1), (1, 4)], [(0, 0), (0, 0), (1, 0)]])
    assert _separate_exponents(t) is None
    assert h0_oracle(t) == (2, 0, -1)


def test_oracle_depth_cap():
    n = 2000
    t = mono(
        [
            [(1, -n), (1, 3), (1, 1)],
            [(0, 0), (1, -n), (1, 3)],
            [(0, 0), (0, 0), (1, 2 * n)],
        ]
    )
    assert _separate_exponents(t) is None
    with pytest.raises(RuntimeError, match="pole depth"):
        h0_oracle(t)


def test_oracle_determinant_rank_cap():
    n = _DETERMINANT_RANK_CAP
    assert h0_oracle(mono([[(1, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)])) == (0,) * n
    n += 1
    with pytest.raises(RuntimeError, match="determinant rank cap"):
        h0_oracle(mono([[(1, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]))


def test_truncated_matches_separable_path():
    rng = random.Random(97)
    for case in range(36):
        # the first 12 pastings are integral, the rest have denominators 2..5
        r = rng.randint(1, 2) if case < 12 else rng.randint(1, 3)
        w1 = sorted((rng.randint(-2, 2) for _ in range(r)), reverse=True)
        w2 = sorted(rng.randint(-2, 2) for _ in range(r))
        a = _random_invertible(rng, r) if case < 12 else _random_rational_invertible(rng, r)
        t = _clear_rows(transition_from_block(w1, w2, a))
        assert all(type(c) is int for row in t for c, _ in row)
        split = _separate_exponents(t)
        assert split is not None
        det_exp = sum(w1) - sum(w2)
        exps = [e for row in t for c, e in row if c != 0]
        lo, hi = min(exps), max(exps)
        h = _h_separable(t, split, range(lo, hi + 3))
        assert list(h) == list(range(lo, hi + 3))
        for k in {lo, (lo + hi) // 2, hi, hi + 2}:
            assert h[k] == _h_truncated(t, k, det_exp, lo)


def _old_h_separable(t, split, k):
    # the reference: h(k) for one twist, every level's active submatrix ranked afresh
    u, tj = split
    r = len(t)
    m_lo = min(min(tj), k - max(u)) - 1
    total = 0
    for m in range(m_lo, max(tj) + 1):
        cols = [j for j in range(r) if m <= tj[j]]
        rows = [i for i in range(r) if u[i] < k - m]
        total += len(cols) - int_rank([[t[i][j][0] for j in cols] for i in rows])
    return total


def _sparse_invertible(rng, r):
    # about half the entries zero, the rest small integers or fractions
    while True:
        a = [
            [rng.choice((0, 0, 0, rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
             for _ in range(r)]
            for _ in range(r)
        ]
        if rat_rank(a) == r:
            return a


def test_separable_table_matches_per_twist_ranks():
    # tied weights tie u and t, so active rows and columns change by several at a level
    rng = random.Random(20261020)
    ties = 0
    for _ in range(150):
        r = rng.randint(2, 5)
        w1 = sorted(_weights_with_repeat(rng, r), reverse=True)
        w2 = sorted(_weights_with_repeat(rng, r))
        t = _clear_rows(transition_from_block(w1, w2, _sparse_invertible(rng, r)))
        split = _separate_exponents(t)
        exps = [e for row in t for c, e in row if c != 0]
        twists = range(min(exps), max(exps) + 3)
        assert _h_separable(t, split, twists) == {k: _old_h_separable(t, split, k) for k in twists}
        ties += len(set(split[0])) < r and len(set(split[1])) < r
    assert ties > 120


def _old_h0_oracle(transition):
    # the reference: the oracle before it read separable determinants off its elimination,
    # every determinant expanded over all r! permutations
    r = len(transition)
    if any(len(row) != r for row in transition):
        raise ValueError("transition matrix must be square")
    if r == 0:
        return ()
    if r > _DETERMINANT_RANK_CAP:
        raise RuntimeError(f"transition rank {r} exceeds the determinant rank cap {_DETERMINANT_RANK_CAP}")
    t = _clear_rows(transition)
    det_terms = {}
    for perm in permutations(range(r)):
        coeff = 1
        exp = 0
        for i in range(r):
            c, e = t[i][perm[i]]
            coeff *= c
            exp += e
        if coeff:
            inversions = sum(perm[i] > perm[j] for i in range(r) for j in range(i + 1, r))
            det_terms[exp] = det_terms.get(exp, 0) + (-1) ** inversions * coeff
    det_terms = {e: c for e, c in det_terms.items() if c != 0}
    if not det_terms:
        raise ValueError("singular transition matrix")
    if len(det_terms) > 1:
        raise ValueError("transition determinant is not a monomial; not invertible over Laurent polynomials")
    (det_exp,) = det_terms
    exps = [e for row in t for c, e in row if c != 0]
    lo, hi = min(exps), max(exps)
    split = _separate_exponents(t)
    twists = range(lo, hi + 3)
    if split:
        h = {k: _old_h_separable(t, split, k) for k in twists}
    else:
        h = {k: _h_truncated(t, k, det_exp, lo) for k in twists}
    degrees = []
    for d in range(hi, lo - 1, -1):
        mult = h[d] - 2 * h[d + 1] + h[d + 2]
        if mult < 0:
            raise RuntimeError(f"negative multiplicity of degree {d}")
        degrees.extend([d] * mult)
    if len(degrees) != r:
        raise RuntimeError(f"{len(degrees)} degrees found for a rank-{r} transition")
    if sum(degrees) != det_exp:
        raise RuntimeError("degrees do not sum to the determinant exponent")
    return tuple(degrees)


def _oracle_outcome(oracle, transition):
    try:
        return oracle(transition)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _separable_singular(rng, r):
    # exponents u_i + t_j on a coefficient matrix with a repeated row, a zero row, a zero column
    # or a row that is the sum of two others
    u = [rng.randint(-3, 3) for _ in range(r)]
    tj = [rng.randint(-3, 3) for _ in range(r)]
    c = [[rng.choice((0, rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 3)))) for _ in range(r)]
         for _ in range(r)]
    kind = rng.choice(("zero row", "zero column", "repeated row", "dependent row")[: min(r + 1, 4)])
    i, j, l = rng.sample(range(r), 3) if r > 2 else (0, r - 1, 0)
    if kind == "repeated row":
        c[i] = list(c[j])
    elif kind == "zero row":
        c[i] = [0] * r
    elif kind == "zero column":
        for row in c:
            row[j] = 0
    else:
        c[i] = [x + y for x, y in zip(c[j], c[l])]
    return tuple(tuple((Fraction(c[a][b]), u[a] + tj[b]) for b in range(r)) for a in range(r))


def _non_separable(rng, r, invertible):
    # invertible: diag(z**a) times a unitriangular matrix of monomials; otherwise random monomials
    if invertible:
        shift = [rng.randint(-2, 2) for _ in range(r)]
        return tuple(
            tuple(
                (Fraction(1 if a == b else rng.choice((0, 1, -2, Fraction(1, 2)))) if a <= b else Fraction(0),
                 shift[a] + (0 if a == b else rng.randint(-1, 3)))
                for b in range(r)
            )
            for a in range(r)
        )
    return tuple(
        tuple((Fraction(rng.choice((0, 1, -1, 2, Fraction(3, 2)))), rng.randint(-2, 2)) for _ in range(r))
        for _ in range(r)
    )


def test_oracle_matches_the_full_expansion_reference():
    # every verdict and message of the permutation-expanding oracle, on block transitions
    # of integer, rational and sparse pastings with tied weights, on singular separable
    # matrices and on non-separable ones, invertible or not
    rng = random.Random(20261023)
    kinds = []
    for case in range(660):
        r = case % 6 + 1
        kind = ("integer", "rational", "sparse", "singular", "non-separable", "non-monomial")[case // 6 % 6]
        if kind in ("non-separable", "non-monomial"):
            r = min(r, 4)
            t = _non_separable(rng, r, kind == "non-separable")
        elif kind == "singular":
            t = _separable_singular(rng, r)
        else:
            w1 = sorted(_weights_with_repeat(rng, r) if r > 1 else [rng.randint(-4, 4)], reverse=True)
            w2 = sorted(_weights_with_repeat(rng, r) if r > 1 else [rng.randint(-4, 4)])
            draw = {"integer": _random_invertible, "rational": _random_rational_invertible, "sparse": _sparse_invertible}
            t = transition_from_block(w1, w2, draw[kind](rng, r))
        want = _oracle_outcome(_old_h0_oracle, t)
        assert _oracle_outcome(h0_oracle, t) == want, (kind, t)
        separable = _separate_exponents(_clear_rows(t)) is not None
        kinds.append((kind, separable, want if isinstance(want[0], type) else "degrees"))
    counts = Counter(kinds)
    singular = (ValueError, "singular transition matrix")
    non_monomial = (ValueError, "transition determinant is not a monomial; not invertible over Laurent polynomials")
    assert counts[("singular", True, singular)] == sum(kind == "singular" for kind, _, _ in kinds) == 108
    assert counts[("non-separable", False, "degrees")] > 40
    assert counts[("non-monomial", False, non_monomial)] > 60
    assert sum(n for (_, separable, out), n in counts.items() if separable and out == "degrees") > 400


def test_separable_transitions_expand_no_permutation(monkeypatch):
    # the determinant of a separable transition is read off its pivots, singular or not;
    # only a non-separable one is expanded
    expansions = []
    monkeypatch.setattr(splitting, "permutations", lambda n: expansions.append(n) or permutations(n))
    rng = random.Random(20261024)
    for case in range(120):
        r = case % 6 + 1
        w1 = sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True)
        w2 = sorted(rng.randint(-4, 4) for _ in range(r))
        h0_oracle(transition_from_block(w1, w2, _random_rational_invertible(rng, r) if r > 1 else [[3]]))
    with pytest.raises(ValueError, match="^singular transition matrix$"):
        h0_oracle(mono([[(1, 0), (1, 0)], [(1, 0), (1, 0)]]))
    assert expansions == []
    assert h0_oracle(mono([[(1, 2), (1, 7), (1, 3)], [(0, 0), (1, -1), (1, 4)], [(0, 0), (0, 0), (1, 0)]])) == (2, 0, -1)
    with pytest.raises(ValueError, match="not a monomial"):
        h0_oracle(mono([[(1, 2), (1, 0)], [(1, 0), (1, -1)]]))
    with pytest.raises(RuntimeError, match="pole depth"):
        h0_oracle(mono([[(1, -2000), (1, 3), (1, 1)], [(0, 0), (1, -2000), (1, 3)], [(0, 0), (0, 0), (1, 4000)]]))
    assert expansions == [range(3), range(2), range(3)]


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_lower_triangular_balances():
    assert bootstrap((1, 0), (0, 1), [[1, 0], [1, 1]]) == (0, 0)


def test_bootstrap_upper_triangular_splits_apart():
    assert bootstrap((1, 0), (0, 1), [[1, 1], [0, 1]]) == (1, -1)


def test_bootstrap_identity_pairing():
    assert bootstrap((3, 1), (0, 2), [[1, 0], [0, 1]]) == (3, -1)


def test_bootstrap_repeated_chart1_weight():
    assert bootstrap((1, 1), (0, 2), [[1, 2], [3, 4]]) == (1, -1)


def test_bootstrap_rank_one():
    assert bootstrap((4,), (1,), [[Fraction(2, 3)]]) == (3,)


def test_rank_zero_block_has_no_degrees():
    assert bootstrap([], [], []) == ()
    assert h0_oracle([]) == ()
    assert h0_oracle(transition_from_block([], [], [])) == ()


def test_bootstrap_rejects_singular_pasting():
    with pytest.raises(ValueError, match="singular pasting"):
        bootstrap((1, 0), (0, 1), [[1, 1], [1, 1]])


def test_bootstrap_rejects_unsorted_weights():
    with pytest.raises(ValueError, match="chart-1"):
        bootstrap((0, 1), (0, 1), [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="chart-2"):
        bootstrap((1, 0), (1, 0), [[1, 0], [0, 1]])


def test_bootstrap_rejects_non_integer_weights():
    for weight in (1.5, Fraction(3, 2), "2"):
        with pytest.raises(ValueError, match="^chart weights must be integers$"):
            bootstrap([weight], [0], [[1]])
        with pytest.raises(ValueError, match="^chart weights must be integers$"):
            bootstrap([0], [weight], [[1]])


def test_bootstrap_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        bootstrap((1, 0), (0,), [[1, 0], [0, 1]])


def _random_invertible(rng, r):
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
        if rat_rank(a) == r:
            return a


def _random_rational_invertible(rng, r):
    # integers mixed with fractions of denominator 2..5, at least one non-integral
    while True:
        a = [
            [rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-9, 9), rng.randint(2, 5)))) for _ in range(r)]
            for _ in range(r)
        ]
        if rat_rank(a) == r and any(isinstance(x, Fraction) and x.denominator > 1 for row in a for x in row):
            return a


def test_bootstrap_agrees_with_oracle():
    # the two routes share no code beyond exact_linear's rank/kernel/inverse
    rng = random.Random(20260814)
    for case in range(800):
        # the first 500 pastings are integral, the rest have denominators 2..5
        r = rng.randint(1, 3)
        w1 = sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True)
        w2 = sorted(rng.randint(-4, 4) for _ in range(r))
        a = _random_invertible(rng, r) if case < 500 else _random_rational_invertible(rng, r)
        degrees = bootstrap(w1, w2, a)
        assert sum(degrees) == sum(w1) - sum(w2)
        assert degrees == h0_oracle(transition_from_block(w1, w2, a))


def _weights_with_repeat(rng, r):
    # r - 1 draws plus a copy of one of them, so some weight repeats
    drawn = [rng.randint(-3, 3) for _ in range(r - 1)]
    return drawn + [rng.choice(drawn)]


def test_deep_bootstrap_agrees_with_oracle_and_ignores_row_scales():
    # rank 4-6 blocks deflate three to five times; bootstrap clears each
    # pasting row of denominators and rescales rows as it deflates, which
    # is sound only if a nonzero rational row scale changes no degree
    rng = random.Random(20261018)
    for _ in range(120):
        r = rng.randint(4, 6)
        w1 = sorted(_weights_with_repeat(rng, r), reverse=True)
        w2 = sorted(_weights_with_repeat(rng, r))
        a = _random_rational_invertible(rng, r)
        degrees = bootstrap(w1, w2, a)
        assert degrees == h0_oracle(transition_from_block(w1, w2, a))
        for row in range(r):
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
            scaled = [[x * scale for x in a[i]] if i == row else a[i] for i in range(r)]
            assert bootstrap(w1, w2, scaled) == degrees


def test_structured_bootstrap_agrees_with_oracle(frame_change):
    # the other oracle tests draw dense pastings; products of a few scalings
    # (by fractions too), shears and swaps are sparse and near a permutation,
    # and three weight values per chart tie blocks in both charts
    rng = random.Random(20261019)
    ties = 0
    for case in range(420):
        r = case % 6 + 1
        w1 = sorted((rng.randint(0, 2) for _ in range(r)), reverse=True)
        w2 = sorted(rng.randint(0, 2) for _ in range(r))
        a = rat_matmul(frame_change(rng, r)[0], frame_change(rng, r)[0])
        degrees = bootstrap(w1, w2, a)
        assert degrees == h0_oracle(transition_from_block(w1, w2, a)), (w1, w2, a)
        ties += len(set(w1)) < r and len(set(w2)) < r
    assert ties > 200


def _old_top_stratum(w1, w2, a):
    # the reference: per stratum, two ranks and a kernel of the deep rows cut to its columns
    col_starts, row_starts = (
        [k for k in range(len(w)) if k == 0 or w[k] != w[k - 1]] + [len(w)] for w in (w1, w2)
    )
    strata = sorted(
        (w2[row_starts[j]] - w1[col_starts[i]], i, j)
        for i in range(len(col_starts) - 1)
        for j in range(len(row_starts) - 1)
    )
    for minus_degree, i, j in strata:
        lo, hi, deep = col_starts[i], col_starts[i + 1], row_starts[j + 1]
        deep_rows = [row[:hi] for row in a[deep:]]
        if int_rank(deep_rows) - int_rank([row[:lo] for row in deep_rows]) == hi - lo:
            continue
        basis = int_kernel(deep_rows) if deep_rows else [tuple(int(m == lo) for m in range(hi))]
        local = next(vec for vec in basis if any(vec[lo:]))
        return -minus_degree, (*local, *[0] * (len(w1) - len(local))), range(row_starts[j], deep)
    raise AssertionError("no stratum")


def test_top_stratum_matches_per_stratum_ranks(frame_change):
    # witness for witness through whole deflations; ties join rows and columns into
    # blocks, and sparse pastings leave many strata empty
    rng = random.Random(20261021)
    steps = 0
    for case in range(240):
        r = case % 5 + 2
        w1 = sorted(_weights_with_repeat(rng, r), reverse=True)
        w2 = sorted(_weights_with_repeat(rng, r))
        pasting = frame_change(rng, r)[0] if case % 2 else _sparse_invertible(rng, r)
        a = clear_denominators(pasting)
        while len(w1) > 1:
            found = splitting._top_stratum(w1, w2, a)
            assert found == _old_top_stratum(w1, w2, a)
            splitting._deflate(a, w1, w2, *found[1:])
            steps += 1
    assert steps == sum(case % 5 + 1 for case in range(240))


def test_each_row_block_is_eliminated_once(monkeypatch):
    # at most one kernel per row block, and none for a block whose strata are never
    # tried, and no rank in the stratum scan; one row-order elimination per separable
    # transition in the oracle, and nothing else
    kernels, ranks, eliminations = [], [], []
    monkeypatch.setattr(splitting, "int_kernel", lambda rows, real=int_kernel: kernels.append(rows) or real(rows))
    monkeypatch.setattr(splitting, "int_rank", lambda rows, real=int_rank: ranks.append(rows) or real(rows))
    for module in (exact_linear, splitting):
        real = module._row_echelon
        monkeypatch.setattr(module, "_row_echelon", lambda rows, real=real: eliminations.append(rows) or real(rows))
    rng = random.Random(20261022)
    for case in range(60):
        r = case % 4 + 2
        w1 = sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True)
        w2 = sorted(rng.randint(-4, 4) for _ in range(r))
        pasting = _random_invertible(rng, r)
        a, v1, v2 = clear_denominators(pasting), list(w1), list(w2)
        while len(v1) > 1:
            kernels.clear()
            ranks.clear()
            found = splitting._top_stratum(v1, v2, a)
            assert len(kernels) <= len(set(v2)) and ranks == []
            splitting._deflate(a, v1, v2, *found[1:])
        transition = transition_from_block(w1, w2, pasting)
        eliminations.clear()
        h0_oracle(transition)
        assert len(eliminations) == 1
    # two row blocks, and the first stratum tried, (0, 0) of degree 1, wins
    kernels.clear()
    assert splitting._top_stratum([1, 0], [0, 1], [[1, 0], [0, 1]]) == (1, (1, 0), range(0, 1))
    assert len(kernels) == 1


def test_check_witness_hits_its_row_block(monkeypatch):
    assert bootstrap((0, 0), (0, 1), [[1, 0], [0, 1]]) == (0, -1)
    # the last unit vector is no kernel vector of row 1, and it misses row block 0
    monkeypatch.setattr(splitting, "int_kernel", lambda rows: [(0,) * (len(rows[0]) - 1) + (1,)])
    with pytest.raises(RuntimeError, match="^a nonempty stratum has no witness vector$"):
        bootstrap((0, 0), (0, 1), [[1, 0], [0, 1]])
    # with no kernel vector every stratum looks empty
    monkeypatch.setattr(splitting, "int_kernel", lambda rows: [])
    with pytest.raises(RuntimeError, match="^no stratum found for an invertible pasting$"):
        bootstrap((1, 0), (0, 1), [[1, 1], [0, 1]])


# ------------------------------------------------------------- restriction


def test_restrict_tangent_cp2_wall_degrees():
    fan = projective_space(2)
    data = tangent_bundle(fan)
    wall = walls(fan)[0]
    blocks = restrict(data, wall)
    degs = sorted(
        (b.chart1_weights[0] - b.chart2_weights[0] for b in blocks), reverse=True
    )
    assert degs == [2, 1]
    assert sum(sum(b.chart1_weights) - sum(b.chart2_weights) for b in blocks) == 3


def test_restrict_v_chart_invariance():
    fan = projective_space(2)
    data = tangent_bundle(fan)
    for wall in walls(fan):
        tau_ray = fan.rays[wall.tau[0]]
        base = fan.rays[wall.extra1]
        seen = set()
        for mult in (-2, 0, 1, 3):
            v = tuple(b + mult * t for b, t in zip(base, tau_ray))
            blocks = restrict(data, wall, v)
            seen.add(
                tuple(
                    sorted(
                        (b.chart1_weights[0] - b.chart2_weights[0] for b in blocks),
                        reverse=True,
                    )
                )
            )
        assert seen == {(2, 1)}


def test_restrict_rejects_bad_v_chart():
    fan = projective_space(2)
    data = tangent_bundle(fan)
    wall = walls(fan)[0]
    with pytest.raises(ValueError, match="pair to 1"):
        restrict(data, wall, fan.rays[wall.tau[0]])
    # the pairing alone would ignore a third coordinate, and int() would truncate 0.5
    for v_chart in ((0, 1, 7), (0.5, 1)):
        with pytest.raises(ValueError, match=r"^v_chart .* is not 2 integers$"):
            restrict(data, wall, v_chart)
    # one coordinate would pair against the conormal's first entry alone
    conormals = {w: fan.duals[w.sigma1][fan.max_cones[w.sigma1].index(w.extra1)] for w in walls(fan)}
    first_entry_one = next(w for w, conormal in conormals.items() if conormal[0] == 1)
    with pytest.raises(ValueError, match=r"^v_chart \(1,\) is not 2 integers$"):
        restrict(data, first_entry_one, (1,))


def test_restrict_rejects_net_violation():
    fan = projective_space(2)
    one = ((1,),)
    data = KaneyamaBundleData(fan, 1, (((1, 0),), ((0, 1),), ((0, 0),)), (one,) * 3, (one,) * 3)
    with pytest.raises(ValueError, match="net condition"):
        restrict(data, walls(fan)[0])


def test_restrict_rejects_support_violation():
    fan = projective_space(2)
    good = tangent_bundle(fan)
    ones = ((1, 1), (1, 1))
    data = replace(good, to_base=(ones,) * 3, from_base=(ones,) * 3)
    with pytest.raises(ValueError, match="support fails"):
        restrict(data, walls(fan)[0])


def _reference_restrict(data, wall, v_chart=None):
    """``restrict`` as it was before its single-pass rewrite: per-key index lists and sorts."""
    fan = data.fan
    c1, c2 = wall.sigma1, wall.sigma2
    if v_chart is None:
        v = fan.rays[wall.extra1]
    else:
        v = tuple(int(x) for x in v_chart)
        conormal = fan.duals[c1][fan.max_cones[c1].index(wall.extra1)]
        if dot(conormal, v) != 1:
            raise ValueError(f"v_chart {v} does not pair to 1 against the wall conormal")

    w1 = data.weight_systems[c1]
    w2 = data.weight_systems[c2]
    p = data.pasting(c2, c1)
    tau_rays = [fan.rays[t] for t in wall.tau]
    key1 = [tuple(dot(chi, vt) for vt in tau_rays) for chi in w1]
    key2 = [tuple(dot(chi, vt) for vt in tau_rays) for chi in w2]
    if sorted(key1) != sorted(key2):
        raise ValueError(f"net condition fails at wall tau {wall.tau} between cones {c1} and {c2}")

    for i2, k2 in enumerate(key2):
        for i1, k1 in enumerate(key1):
            if k1 != k2 and p[i2][i1] != 0 and any(b - a < 0 for a, b in zip(k1, k2)):
                raise ValueError(
                    f"support fails for pasting ({c2},{c1}) entry ({i2},{i1}) at wall tau {wall.tau}"
                )

    blocks = []
    for key in sorted(set(key1)):
        idx1 = [i for i, k in enumerate(key1) if k == key]
        idx2 = [i for i, k in enumerate(key2) if k == key]
        t1 = [dot(w1[i], v) for i in idx1]
        t2 = [dot(w2[i], v) for i in idx2]
        order1 = sorted(range(len(idx1)), key=lambda m: -t1[m])
        order2 = sorted(range(len(idx2)), key=lambda m: t2[m])
        block_pasting = tuple(tuple(p[idx2[m2]][idx1[m1]] for m1 in order1) for m2 in order2)
        blocks.append(
            RestrictionBlock(
                tuple(t1[m] for m in order1),
                tuple(t2[m] for m in order2),
                block_pasting,
            )
        )
    return tuple(blocks)


def _restrict_outcome(restrict_fn, data, wall, v_chart=None):
    try:
        return restrict_fn(data, wall, v_chart)
    except ValueError as exc:
        return str(exc)


def _assert_restrict_matches_reference(data, shift=False):
    """Equal restrictions wall by wall, at the default ``v_chart`` and, with ``shift``, moved along tau;
    ``data.restrictions`` holds the default one of each wall, in wall order."""
    fan = data.fan
    assert len(data.restrictions) == len(fan.walls)
    for wall, blocks in zip(fan.walls, data.restrictions):
        assert blocks == restrict(data, wall), wall
        base = fan.rays[wall.extra1]
        v_charts = [None]
        if shift:
            v_charts += [
                tuple(b + m * x for b, x in zip(base, fan.rays[t])) for t in wall.tau for m in (-2, 1, 3)
            ]
        for v_chart in v_charts:
            assert restrict(data, wall, v_chart) == _reference_restrict(data, wall, v_chart), (wall, v_chart)


def test_restrict_matches_reference_on_tangent_bundles():
    fans = [projective_space(n) for n in range(1, 6)]
    fans += [graph_to_fan(g) for k in range(5) for g in enumerate_blowups(k)]
    assert walls(fans[0])[0].tau == ()
    for fan in fans:
        _assert_restrict_matches_reference(tangent_bundle(fan))


def test_restrict_matches_reference_on_cp2_rank2():
    for a, b, c in product(range(1, 5), repeat=3):
        _assert_restrict_matches_reference(cp2_rank2(a, b, c), shift=True)


def test_restrict_matches_reference_on_line_sums(line_bundle_sum):
    # summands whose divisors agree on tau share a block with distinct or tied chart weights
    fans = [projective_space(2), projective_space(3)]
    fans += [graph_to_fan(g) for k in range(3) for g in enumerate_blowups(k)]
    rng = random.Random(20261020)
    spread = tied = 0
    for case in range(120):
        fan = fans[case % len(fans)]
        divisors = [[rng.randint(-1, 1) for _ in fan.rays] for _ in range(rng.randint(2, 4))]
        data = line_bundle_sum(fan, divisors)
        _assert_restrict_matches_reference(data, shift=True)
        for block in (b for blocks in data.restrictions for b in blocks if len(b.chart1_weights) > 1):
            spread += len(set(block.chart1_weights)) > 1
            tied += len(set(block.chart1_weights)) < len(block.chart1_weights)
    assert spread > 50 and tied > 50, (spread, tied)


def test_restrict_matches_reference_on_perturbed_bundles(perturbed_bundles):
    failures = 0
    for case, data in enumerate(perturbed_bundles):
        for wall in walls(data.fan):
            want = _restrict_outcome(_reference_restrict, data, wall)
            assert _restrict_outcome(restrict, data, wall) == want, (case, wall)
            failures += isinstance(want, str)
    assert failures > 1000, failures


# --------------------------------------------------------- whole-fan systems


def test_tangent_projective_spaces():
    for n in range(2, 6):
        fan = projective_space(n)
        system = splitting_system(tangent_bundle(fan))
        expected = tuple([2] + [1] * (n - 1))
        assert all(row == expected for row in system.degrees)
        assert len(system.degrees) == len(walls(fan))


def test_tangent_hirzebruch():
    for a in range(4):
        fan = graph_to_fan(hirzebruch(a))
        system = splitting_system(tangent_bundle(fan))
        rows = {tau[0]: row for tau, row in zip(system.taus, system.degrees)}
        assert rows[0] == (2, 0)
        assert rows[1] == tuple(sorted((2, a), reverse=True))
        assert rows[2] == (2, 0)
        assert rows[3] == tuple(sorted((2, -a), reverse=True))


def test_tangent_matches_graph_weights():
    for graph in sorted(enumerate_blowups(4), key=lambda g: g.weights)[:5]:
        fan = graph_to_fan(graph)
        system = splitting_system(tangent_bundle(fan))
        for tau, row in zip(system.taus, system.degrees):
            expected = tuple(sorted((2, graph.weights[tau[0]]), reverse=True))
            assert row == expected


def test_tangent_route_matches_its_closed_form(small_fans):
    # the wall of tau with v_e1 + v_e2 + sum a_t v_t = 0 carries a curve C with
    # T_X|C = O(2) + sum_t O(a_t) (Fulton 1993, ch. 5): the Kaneyama route, tangent data
    # through restriction and bootstrap, must give those degrees on P^1..P^5 and on
    # every surface with at most nine blowups
    assert len(small_fans) == 6506
    for fan in small_fans:
        closed_form = tuple(tuple(sorted((2, *w.relation), reverse=True)) for w in fan.walls)
        assert splitting_system(tangent_bundle(fan)).degrees == closed_form, fan


def test_cp2_rank2_wall_formula():
    for a, b, c in [(1, 1, 1), (1, 2, 3), (2, 2, 5), (3, 1, 2)]:
        system = splitting_system(cp2_rank2(a, b, c))
        got = sorted(system.degrees)
        want = sorted(
            tuple(sorted(pair, reverse=True))
            for pair in [(b + c, a), (a + c, b), (a + b, c)]
        )
        assert got == want


def test_cp2_rank2_equal_weights_uniform():
    system = splitting_system(cp2_rank2(2, 2, 2))
    assert all(row == (4, 2) for row in system.degrees)


def test_splitting_system_multidimensional_block():
    fan = projective_space(2)
    zero = ((0, 0), (0, 0))
    ident = ((1, 0), (0, 1))
    data = KaneyamaBundleData(fan, 2, (zero, zero, zero), (ident,) * 3, (ident,) * 3)
    system = splitting_system(data)
    assert all(row == (0, 0) for row in system.degrees)


def test_system_requires_sorted_rows():
    with pytest.raises(ValueError, match="non-increasing"):
        SplittingSystem(((0,),), ((1, 2),))


def test_twist_shifts_by_restriction_degrees():
    fan = projective_space(2)
    aim = augmented_matrix(fan)
    system = splitting_system(tangent_bundle(fan))
    twisted = twist_system(system, aim, (1, 0, 0))
    assert all(row == (3, 2) for row in twisted.degrees)
    back = twist_system(twisted, aim, (-1, 0, 0))
    assert back == system
    shuffled = SplittingSystem(system.taus[::-1], system.degrees)
    with pytest.raises(ValueError, match="do not match the intersection matrix"):
        twist_system(shuffled, aim, (1, 0, 0))


def test_format_system_golden():
    fan = projective_space(2)
    system = splitting_system(tangent_bundle(fan))
    assert format_system(system) == "tau(1): 2 1\ntau(2): 2 1\ntau(3): 2 1\n"
