"""Splitting degrees on invariant curves: oracle, bootstrap, and wall restriction."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from toricsplit.bundle_data import KaneyamaBundleData, cp2_rank2, tangent_bundle
from toricsplit.exact_linear import rat_rank
from toricsplit.fan import projective_space, walls
from toricsplit.intersection import augmented_matrix
from toricsplit.splitting import (
    _DETERMINANT_RANK_CAP,
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
        for k in {lo, (lo + hi) // 2, hi, hi + 2}:
            assert _h_separable(t, split, k) == _h_truncated(t, k, det_exp)


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


# ------------------------------------------------------------- restriction


def test_restrict_tangent_cp2_wall_degrees():
    fan = projective_space(2)
    data = tangent_bundle(fan)
    wall = walls(fan)[0]
    res = restrict(data, wall)
    assert res.v_chart == fan.rays[wall.extra1]
    degs = sorted(
        (b.chart1_weights[0] - b.chart2_weights[0] for b in res.blocks), reverse=True
    )
    assert degs == [2, 1]
    assert res.weight_difference_total() == 3


def test_restrict_v_chart_invariance():
    fan = projective_space(2)
    data = tangent_bundle(fan)
    for wall in walls(fan):
        tau_ray = fan.rays[wall.tau[0]]
        base = fan.rays[wall.extra1]
        seen = set()
        for mult in (-2, 0, 1, 3):
            v = tuple(b + mult * t for b, t in zip(base, tau_ray))
            res = restrict(data, wall, v)
            seen.add(
                tuple(
                    sorted(
                        (b.chart1_weights[0] - b.chart2_weights[0] for b in res.blocks),
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
