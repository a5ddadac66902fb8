"""Splitting degrees on invariant curves: oracle, bootstrap, and wall restriction."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from toricsplit.bundle_data import KaneyamaBundleData, assemble_bundle, cp2_rank2, tangent_bundle
from toricsplit.exact_linear import dot, rat_rank
from toricsplit.fan import projective_space, walls
from toricsplit.intersection import augmented_matrix
from toricsplit.splitting import (
    _DETERMINANT_RANK_CAP,
    RestrictionBlock,
    SplittingSystem,
    WallRestriction,
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
                key,
                tuple(t1[m] for m in order1),
                tuple(t2[m] for m in order2),
                block_pasting,
            )
        )
    return WallRestriction(wall, v, tuple(blocks))


def _restrict_outcome(restrict_fn, data, wall, v_chart=None):
    try:
        return restrict_fn(data, wall, v_chart)
    except ValueError as exc:
        return str(exc)


def _assert_restrict_matches_reference(data, shift=False):
    """Equal restrictions wall by wall, at the default ``v_chart`` and, with ``shift``, moved along tau."""
    fan = data.fan
    for wall in walls(fan):
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


def _line_sum(fan, divisors):
    """The sum of O(D) over ray-coefficient vectors D: on cone c the weight of O(D)
    pairs to -D_i with each ray i of c, and every pasting is the identity."""
    weights = [
        [tuple(-sum(d[i] * e[x] for i, e in zip(cone, duals)) for x in range(fan.dim)) for d in divisors]
        for cone, duals in zip(fan.max_cones, fan.duals)
    ]
    ident = [[int(i == j) for j in range(len(divisors))] for i in range(len(divisors))]
    star = range(1, len(fan.max_cones))
    return assemble_bundle(fan, weights, {**{(0, c): ident for c in star}, **{(c, 0): ident for c in star}})


def test_restrict_matches_reference_on_line_sums():
    # summands whose divisors agree on tau share a block with distinct or tied chart weights
    fans = [projective_space(2), projective_space(3)]
    fans += [graph_to_fan(g) for k in range(3) for g in enumerate_blowups(k)]
    rng = random.Random(20261020)
    spread = tied = 0
    for case in range(120):
        fan = fans[case % len(fans)]
        divisors = [[rng.randint(-1, 1) for _ in fan.rays] for _ in range(rng.randint(2, 4))]
        data = _line_sum(fan, divisors)
        _assert_restrict_matches_reference(data, shift=True)
        for block in (b for r in data.restrictions for b in r.blocks if len(b.chart1_weights) > 1):
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
