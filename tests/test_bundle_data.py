"""Bundle data validation, example constructions, and the text formats."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from toricsplit.bundle_data import (
    cp2_rank2,
    euler_monomial_spec,
    euler_splitting_system,
    format_bundle,
    format_euler,
    load_bundle,
    make_euler_spec,
    parse_bundle,
    parse_euler,
    tangent_bundle,
    validate,
)
from toricsplit.exact_linear import dot, rat_matmul
from toricsplit.fan import projective_space, walls
from toricsplit.intersection import augmented_matrix
from toricsplit.splitting import splitting_system
from toricsplit.surface_graph import enumerate_blowups, graph_to_fan, hirzebruch


def test_tangent_data_is_valid():
    fans = [projective_space(2), projective_space(3), graph_to_fan(hirzebruch(2))]
    fans += [graph_to_fan(g) for g in sorted(enumerate_blowups(3), key=lambda g: g.weights)[:3]]
    for fan in fans:
        assert validate(tangent_bundle(fan)) == []


def test_assemble_sorts_weight_systems():
    data = tangent_bundle(projective_space(3))
    for ws in data.weight_systems:
        assert list(ws) == sorted(ws)


def test_validate_reports_net_violation():
    good = tangent_bundle(projective_space(2))
    systems = list(good.weight_systems)
    systems[0] = ((0, 1), (2, 0))  # stretch one weight of the first chart
    bad = replace(good, weight_systems=tuple(systems))
    problems = validate(bad)
    assert any("net condition" in p and "wall" in p for p in problems)


def test_validate_reports_each_bad_wall():
    # both walls of cone 0 fail the net condition: one message each, in wall order
    good = tangent_bundle(projective_space(2))
    systems = list(good.weight_systems)
    systems[0] = ((0, 2), (2, 0))
    bad = replace(good, weight_systems=tuple(systems))
    assert validate(bad) == [
        "net condition fails at wall tau (0,) between cones 0 and 1",
        "net condition fails at wall tau (1,) between cones 0 and 2",
    ]


def _with_star(data, c, to_base=None, from_base=None):
    """``data`` with cone c's pastings into and out of cone 0 replaced."""
    to = list(data.to_base)
    back = list(data.from_base)
    if to_base is not None:
        to[c] = to_base
    if from_base is not None:
        back[c] = from_base
    return replace(data, to_base=tuple(to), from_base=tuple(back))


def test_validate_reports_cocycle_violation():
    good = tangent_bundle(projective_space(2))
    doubled = tuple(tuple(2 * x for x in row) for row in good.from_base[1])
    problems = validate(_with_star(good, 1, from_base=doubled))
    assert problems == ["cocycle fails for cones (1,0,1): pasting (1,1) is not the identity"]


def test_validate_reports_support_violation():
    good = tangent_bundle(projective_space(2))
    skew = ((1, 1), (1, 0))  # invertible, but couples weights the wall forbids
    bad = _with_star(good, 1, to_base=((0, 1), (1, -1)), from_base=skew)
    problems = validate(bad)
    assert problems and all(p.startswith("support fails") for p in problems)


def test_validate_reports_non_identity_diagonal():
    good = tangent_bundle(projective_space(2))
    swap = ((0, 1), (1, 0))
    assert any("not the identity" in p for p in validate(_with_star(good, 0, from_base=swap)))


def test_validate_reports_singular_pasting():
    good = tangent_bundle(projective_space(2))
    zero = ((0, 0), (0, 0))
    assert validate(_with_star(good, 2, to_base=zero)) == ["pasting (2,0) or (0,2) is singular"]


def _reference_wall_fails(data, wall):
    """The net check and the two-direction support check that ``validate`` once ran itself."""
    tau_rays = [data.fan.rays[t] for t in wall.tau]
    c1, c2 = wall.sigma1, wall.sigma2
    key1 = sorted(tuple(dot(chi, v) for v in tau_rays) for chi in data.weight_systems[c1])
    key2 = sorted(tuple(dot(chi, v) for v in tau_rays) for chi in data.weight_systems[c2])
    if key1 != key2:
        return True
    for ca, cb in ((c2, c1), (c1, c2)):
        p = data.pasting(ca, cb)
        for i, chi_a in enumerate(data.weight_systems[ca]):
            for j, chi_b in enumerate(data.weight_systems[cb]):
                if p[i][j] == 0:
                    continue
                if any(dot(chi_a, v) - dot(chi_b, v) < 0 for v in tau_rays):
                    return True
    return False


def _frame_change(rng, r):
    """A random invertible r x r matrix and its inverse: a product of scalings, shears and swaps."""
    g = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    g_inv = [row[:] for row in g]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("scale", "shear", "swap"))
        i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
        if kind == "scale":
            t = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            step = [[t if (a == b == i) else Fraction(int(a == b)) for b in range(r)] for a in range(r)]
            back = [[1 / t if (a == b == i) else Fraction(int(a == b)) for b in range(r)] for a in range(r)]
        elif kind == "shear" and i != j:
            t = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
            step = [[Fraction(int(a == b)) + (t if (a, b) == (i, j) else 0) for b in range(r)] for a in range(r)]
            back = [[Fraction(int(a == b)) - (t if (a, b) == (i, j) else 0) for b in range(r)] for a in range(r)]
        else:
            swap = {i: j, j: i}
            step = back = [[Fraction(int(swap.get(a, a) == b)) for b in range(r)] for a in range(r)]
        g = rat_matmul(g, step)
        g_inv = rat_matmul(back, g_inv)
    return g, g_inv


def _perturbed(rng, data):
    """``data`` with random frame changes at star cones and, sometimes, altered weights.

    A frame change of cone c multiplies (0, c) by G on the right and (c, 0)
    by G^-1 on the left, so the per-cone identity check still passes.  A
    relabelling of a cone's weights with the matching permutation, and a
    twist of every weight by one character, keep the bundle valid.
    """
    weights = [list(ws) for ws in data.weight_systems]
    to, back = list(data.to_base), list(data.from_base)
    r, n_cones, dim = data.rank, len(weights), data.fan.dim
    for _ in range(rng.randint(1, 2)):
        c = rng.randrange(1, n_cones)
        if rng.random() < 0.3 and r > 1:
            order = rng.sample(range(r), r)  # new weight k is old weight order[k]
            g = [[Fraction(int(order[k] == i)) for k in range(r)] for i in range(r)]
            g_inv = [list(col) for col in zip(*g)]
            weights[c] = [weights[c][order[k]] for k in range(r)]
        else:
            g, g_inv = _frame_change(rng, r)
        to[c] = tuple(map(tuple, rat_matmul(to[c], g)))
        back[c] = tuple(map(tuple, rat_matmul(g_inv, back[c])))
    roll = rng.random()
    if roll < 0.15:
        twist = [rng.randint(-2, 2) for _ in range(dim)]
        weights = [[tuple(x + t for x, t in zip(chi, twist)) for chi in ws] for ws in weights]
    elif roll < 0.3:
        c, k, axis = rng.randrange(n_cones), rng.randrange(r), rng.randrange(dim)
        chi = list(weights[c][k])
        chi[axis] += rng.choice((-1, 1))
        weights[c][k] = tuple(chi)
    return replace(
        data,
        weight_systems=tuple(tuple(ws) for ws in weights),
        to_base=tuple(to),
        from_base=tuple(back),
    )


def test_validate_matches_two_direction_wall_reference():
    # restrict checks support in one direction only; on every perturbed
    # bundle it must fail exactly the walls the two-direction loop fails
    fans = [projective_space(2), projective_space(3)]
    fans += [graph_to_fan(g) for k in range(3) for g in enumerate_blowups(k)]
    bases = [tangent_bundle(fan) for fan in fans]
    bases += [cp2_rank2(a, b, c) for a, b, c in [(1, 1, 1), (1, 2, 3), (2, 2, 1), (3, 1, 2)]]
    rng = random.Random(20261018)
    valid = 0
    failing_walls = 0
    for case in range(2400):
        data = _perturbed(rng, bases[case % len(bases)])
        expected = [wall for wall in walls(data.fan) if _reference_wall_fails(data, wall)]
        problems = validate(data)
        assert len(problems) == len(expected), (case, problems)
        for wall, problem in zip(expected, problems):
            assert f"at wall tau {wall.tau}" in problem, (case, problem)
            assert problem.startswith(("net condition fails", "support fails")), problem
        valid += not problems
        failing_walls += len(expected)
    assert 400 < valid < 2000, valid
    assert failing_walls > 1000, failing_walls


def _altered_pasting(data, label, entries):
    """``format_bundle(data)`` with the pasting line ``label`` given new entries."""
    lines = format_bundle(data).splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(label + ":"))
    lines[index] = f"{label}: {entries}"
    return "\n".join(lines) + "\n"


def test_parse_bundle_rejects_cocycle_break():
    fan = projective_space(2)
    data = tangent_bundle(fan)
    # pasting 3 2 (cones 2 <- 1, 0-based) no longer factors through cone 0
    text = _altered_pasting(data, "pasting 3 2", "2 0 0 1")
    with pytest.raises(ValueError, match=r"^cocycle fails for cones \(2,0,1\)$"):
        parse_bundle(text, fan)
    # pasting 1 2 (cones 0 <- 1) enters every derived pasting out of cone 1
    text = _altered_pasting(data, "pasting 1 2", "1 0 0 1")
    with pytest.raises(ValueError, match=r"^cocycle fails for cones \(2,0,1\)$"):
        parse_bundle(text, fan)


def test_parse_bundle_rejects_singular_pasting():
    fan = projective_space(1)
    text = _altered_pasting(tangent_bundle(fan), "pasting 2 1", "0")
    with pytest.raises(ValueError, match=r"^pasting \(1,0\) or \(0,1\) is singular$"):
        parse_bundle(text, fan)


def test_tangent_pastings_pair_weights_with_rays():
    # independent of the star storage: pasting (c2, c1) entry (i, j) pairs
    # weight i of cone c2 with the ray of cone c1 dual to weight j of c1
    fans = [projective_space(n) for n in range(1, 6)]
    fans += [graph_to_fan(g) for k in range(5) for g in enumerate_blowups(k)]
    for fan in fans:
        data = tangent_bundle(fan)
        n_cones = len(fan.max_cones)
        for c1 in range(n_cones):
            rays1 = fan.cone_rays(c1)
            dual_rays = [
                next(v for v in rays1 if sum(a * b for a, b in zip(chi, v)) == 1)
                for chi in data.weight_systems[c1]
            ]
            for c2 in range(n_cones):
                if c2 == c1:
                    continue
                expected = [
                    [sum(a * b for a, b in zip(chi, v)) for v in dual_rays]
                    for chi in data.weight_systems[c2]
                ]
                assert data.pasting(c2, c1) == expected, (fan.rays, c2, c1)


def test_cp2_rank2_stored_weights():
    data = cp2_rank2(1, 2, 3)
    assert data.weight_systems == (
        ((0, 2), (1, 0)),
        ((0, -3), (1, -1)),
        ((-3, 0), (-2, 2)),
    )


def test_cp2_rank2_is_valid():
    for a, b, c in [(1, 1, 1), (1, 2, 3), (4, 2, 3), (2, 2, 1)]:
        assert validate(cp2_rank2(a, b, c)) == []


def test_cp2_rank2_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        cp2_rank2(0, 1, 1)


# ------------------------------------------------------------ euler quotients


def test_euler_projective_space_equal_multiplicities():
    for n in (2, 3):
        for m in (1, 2):
            fan = projective_space(n)
            spec = euler_monomial_spec(fan, [m] * (n + 1))
            system = euler_splitting_system(spec, augmented_matrix(fan))
            expected = tuple([2 * m] + [m] * (n - 1))
            assert all(row == expected for row in system.degrees)


def test_euler_cp2_mixed_multiplicities():
    fan = projective_space(2)
    spec = euler_monomial_spec(fan, [1, 2, 3])
    system = euler_splitting_system(spec, augmented_matrix(fan))
    assert system.degrees == ((5, 1), (4, 2), (3, 3))


def test_euler_hirzebruch_case_a():
    fan = graph_to_fan(hirzebruch(0))
    spec = euler_monomial_spec(fan, [1, 2, 1, 2])
    system = euler_splitting_system(spec, augmented_matrix(fan))
    assert system.degrees == ((2, 2, 0), (1, 1, 0), (2, 2, 0), (1, 1, 0))


def test_euler_tangent_comparison():
    # multiplicity one on projective space is the tangent bundle quotient
    fan = projective_space(3)
    spec = euler_monomial_spec(fan, [1, 1, 1, 1])
    system = euler_splitting_system(spec, augmented_matrix(fan))
    assert system == splitting_system(tangent_bundle(fan))


def test_euler_out_of_scope_restriction():
    fan = projective_space(2)
    spec = make_euler_spec(fan, [(1, 1, 0), (0, 0, 1)], [(1, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="not in scope"):
        euler_splitting_system(spec, augmented_matrix(fan))


def test_euler_spec_checks_section_class():
    fan = projective_space(2)
    make_euler_spec(fan, [(1, 0, 0), (0, 1, 0)], [(0, 0, 1), (0, 1, 0)])
    with pytest.raises(ValueError, match="not a section"):
        make_euler_spec(fan, [(1, 0, 0), (0, 1, 0)], [(0, 0, 2), (0, 1, 0)])


def test_euler_spec_rejects_bad_shapes():
    fan = projective_space(2)
    with pytest.raises(ValueError, match="at least two"):
        make_euler_spec(fan, [(1, 0, 0)], [(1, 0, 0)])
    with pytest.raises(ValueError, match="ray coefficients"):
        make_euler_spec(fan, [(1, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="nonnegative"):
        make_euler_spec(fan, [(1, 0, 0), (0, 1, 0)], [(-1, 1, 1), (0, 1, 0)])
    with pytest.raises(ValueError, match="multiplicity per ray"):
        euler_monomial_spec(fan, [1, 1])


# ------------------------------------------------------------- text formats


def test_bundle_roundtrip():
    fan = projective_space(2)
    for data in (tangent_bundle(fan), cp2_rank2(2, 1, 3)):
        assert parse_bundle(format_bundle(data), fan) == data


def test_euler_roundtrip():
    fan = projective_space(2)
    spec = euler_monomial_spec(fan, [1, 2, 3])
    assert parse_euler(format_euler(spec), fan) == spec


def test_load_bundle_dispatch():
    fan = projective_space(2)
    data = tangent_bundle(fan)
    assert load_bundle(format_bundle(data), fan) == data
    spec = euler_monomial_spec(fan, [1, 1, 1])
    assert load_bundle(format_euler(spec), fan) == spec
    with pytest.raises(ValueError, match="header"):
        load_bundle("summand 1 0 0 : 1 0 0\n", fan)
    with pytest.raises(ValueError, match="empty"):
        load_bundle("# nothing here\n", fan)


def test_parse_bundle_accepts_rationals_and_comments():
    fan = projective_space(2)
    data = cp2_rank2(1, 1, 1)
    text = format_bundle(data)
    text = text.replace("pasting 1 2: 1 0 -1 1", "pasting 1 2: 2/2 0/1 -1 1  # same matrix")
    assert "2/2" in text
    parsed = parse_bundle(text, fan)
    assert parsed == data
    # a token with '/' parses as a Fraction, any other as an int
    entry_types = {type(x) for m in parsed.to_base for row in m for x in row}
    assert entry_types == {int, Fraction}
    tangent = parse_bundle(format_bundle(tangent_bundle(fan)), fan)
    assert {type(x) for m in tangent.to_base + tangent.from_base for row in m for x in row} == {int}


def test_parse_bundle_errors_carry_line_numbers():
    fan = projective_space(2)
    good = format_bundle(tangent_bundle(fan))
    cases = [
        ("rank 2", "rank 0", "rank must be positive"),
        ("weights 1:", "weights 9:", "out of range"),
        ("pasting 2 1:", "pasting 2 2:", "invalid cone pair"),
    ]
    for old, new, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_bundle(good.replace(old, new, 1), fan)
    with pytest.raises(ValueError, match="line 1"):
        parse_bundle("weights 1: (1 0);(0 1)\n", fan)
    with pytest.raises(ValueError, match="missing weights"):
        parse_bundle("rank 2\n", fan)


def test_parse_bundle_requires_all_pastings():
    fan = projective_space(2)
    lines = format_bundle(tangent_bundle(fan)).splitlines()
    pruned = "\n".join(line for line in lines if not line.startswith("pasting 3 2"))
    with pytest.raises(ValueError, match="missing pastings"):
        parse_bundle(pruned, fan)


def test_parse_bundle_validates_conditions():
    fan = projective_space(2)
    data = tangent_bundle(fan)
    systems = list(data.weight_systems)
    systems[0] = ((0, 1), (2, 0))
    bad = replace(data, weight_systems=tuple(systems))
    with pytest.raises(ValueError, match="net condition"):
        parse_bundle(format_bundle(bad), fan)
    skewed = _with_star(data, 1, to_base=((0, 1), (1, -1)), from_base=((1, 1), (1, 0)))
    with pytest.raises(ValueError, match="support fails"):
        parse_bundle(format_bundle(skewed), fan)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("rank 1", "rank {}", "line 1: rank takes one integer"),
        ("weights 1: (1)", "weights {}: (1)", "line 2: weights needs one cone index"),
        ("weights 1: (1)", "weights 1: ({})", "line 2: non-integer weight coordinate"),
        ("pasting 1 2:", "pasting {} 2:", "line 4: pasting needs two cone indices"),
    ],
    ids=["rank", "cone-index", "weight", "pasting-index"],
)
def test_parse_bundle_reads_ascii_integers_only(int_lookalike, old, new, message):
    fan = projective_space(1)
    good = format_bundle(tangent_bundle(fan))
    assert parse_bundle(good.replace(old, new.format("1"), 1), fan) == parse_bundle(good, fan)
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_bundle(good.replace(old, new.format(int_lookalike), 1), fan)


def test_parse_euler_reads_ascii_integers_only(int_lookalike):
    fan = projective_space(2)
    text = "euler\nsummand {0} 0 0 : {0} 0 0\nsummand 0 1 0 : 0 1 0\nsummand 0 0 1 : 0 0 1\n"
    assert parse_euler(text.format("10"), fan).summand_divisors[0] == (10, 0, 0)
    with pytest.raises(ValueError, match="^line 2: non-integer summand entry$"):
        parse_euler(text.format(int_lookalike), fan)


def test_parse_euler_errors():
    fan = projective_space(2)
    with pytest.raises(ValueError, match="expected 'euler'"):
        parse_euler("rank 2\n", fan)
    with pytest.raises(ValueError, match="line 2"):
        parse_euler("euler\nsummand 1 0 0 1 0 0\n", fan)
    with pytest.raises(ValueError, match="non-integer"):
        parse_euler("euler\nsummand 1 0 x : 1 0 0\n", fan)
    with pytest.raises(ValueError, match="line 2: unknown keyword 'summand1'"):
        parse_euler("euler\nsummand1 0 0 : 1 0 0\n", fan)
