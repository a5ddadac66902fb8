"""Bundle data validation, example constructions, and the text formats."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from toricsplit import bundle_data
from toricsplit.bundle_data import (
    assemble_bundle,
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
from toricsplit.exact_linear import dot
from toricsplit.fan import ENTRY_LENGTH_CAP, projective_space, walls
from toricsplit.intersection import apply_q, augmented_matrix
from toricsplit.splitting import SplittingSystem, splitting_system
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


def test_assemble_rejects_bad_pastings():
    data = cp2_rank2(1, 1, 1)
    pastings = {(c2, c1): data.pasting(c2, c1) for c2 in range(3) for c1 in range(3) if c1 != c2}
    assert assemble_bundle(data.fan, data.weight_systems, pastings) == data
    cases = [
        ({k: v for k, v in pastings.items() if k != (0, 2)}, "pasting (0,2) is missing"),
        ({k: v for k, v in pastings.items() if k != (1, 0)}, "pasting (1,0) is missing"),
        ({**pastings, (2, 1): [pastings[2, 1][0], pastings[2, 1][1][:1]]}, "pasting (2,1) is not 2x2"),
        # every pasting with an extra column and row: these used to be truncated silently
        ({k: [[*row, 0] for row in v] + [[0, 0, 1]] for k, v in pastings.items()}, "pasting (0,1) is not 2x2"),
        ({**pastings, (3, 0): pastings[1, 0]}, "pasting (3,0) names a cone out of range"),
    ]
    for pasting_map, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            assemble_bundle(data.fan, data.weight_systems, pasting_map)


def test_rank_zero_data_is_valid_and_splits_to_empty_rows():
    fan = projective_space(2)
    data = assemble_bundle(fan, [[], [], []], {(a, b): [] for a in range(3) for b in range(3) if a != b})
    assert data.rank == 0
    assert validate(data) == []
    assert splitting_system(data).degrees == ((), (), ())


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


def test_validate_matches_two_direction_wall_reference(perturbed_bundles):
    # restrict checks support in one direction only; on every perturbed
    # bundle it must fail exactly the walls the two-direction loop fails
    valid = 0
    failing_walls = 0
    for case, data in enumerate(perturbed_bundles):
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


def _unsorted_text(data):
    """The bundle file of ``data`` with each cone's weights listed in reverse lexicographic order
    and every pasting's rows and columns reversed to match."""
    lines = [f"rank {data.rank}"]
    for ci, ws in enumerate(data.weight_systems):
        lines.append(f"weights {ci + 1}: " + ";".join("(" + " ".join(map(str, chi)) + ")" for chi in ws[::-1]))
    n = len(data.fan.max_cones)
    for c2, c1 in product(range(n), repeat=2):
        if c1 != c2:
            flat = " ".join(str(x) for row in data.pasting(c2, c1)[::-1] for x in row[::-1])
            lines.append(f"pasting {c2 + 1} {c1 + 1}: {flat}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "make", [lambda: cp2_rank2(1, 2, 3), lambda: tangent_bundle(projective_space(2))], ids=["cp2_rank2", "tangent"]
)
def test_parse_bundle_checks_the_cocycle_on_unsorted_weights(make):
    # the weight sort permutes each cone's rows and columns alike; with weights out of
    # order it is no identity, and the cocycle must still hold exactly when it did
    data = make()
    fan = data.fan
    text = _unsorted_text(data)
    assert all(list(ws[::-1]) != sorted(ws) for ws in data.weight_systems)
    assert parse_bundle(text, fan) == parse_bundle(format_bundle(data), fan) == data
    # pasting 2 3 (cones 1 <- 2, 0-based) altered in its last entry, which is (0, 0) once sorted
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("pasting 2 3:"))
    head, entries = lines[index].rsplit(" ", 1)
    lines[index] = f"{head} {Fraction(entries) + 1}"
    with pytest.raises(ValueError, match=r"^cocycle fails for cones \(1,0,2\)$"):
        parse_bundle("\n".join(lines) + "\n", fan)


def test_pasting_body_check_matches_the_per_entry_check():
    # the per-entry check the whole-body pattern replaces, with its denominator as it was written
    entry = re.compile(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?")
    alphabet = "0123456789/+- \t\x1c\xa0x"
    rng = random.Random(7)
    accepted = 0
    for _ in range(30000):
        body = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        expected = all(entry.fullmatch(tok) for tok in body.split())
        assert (bundle_data._PASTING_BODY.fullmatch(body) is not None) == expected, repr(body)
        accepted += expected
    assert 1000 < accepted < 29000, accepted


def test_pasting_body_check_is_linear():
    # every denominator digit has one reading, so this ends; with two readings the match
    # would try the 40 entries 2**40 ways and the test would never finish
    fan = projective_space(1)
    text = _altered_pasting(tangent_bundle(fan), "pasting 1 2", " ".join(["1/11"] * 40) + " x")
    with pytest.raises(ValueError, match="^line 4: non-rational pasting entry$"):
        parse_bundle(text, fan)
    # the entry length cap is on each entry, not on the body: 20 spaces take this one past it
    entry = "-" + "0" * 4290 + "1"
    text = _altered_pasting(tangent_bundle(fan), "pasting 1 2", " " * 20 + entry)
    assert len(entry) <= ENTRY_LENGTH_CAP < len(text.splitlines()[3].partition(":")[2])
    assert parse_bundle(text, fan) == tangent_bundle(fan)


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


def _reference_kinds(spec, wall):
    """How each section restricts to the curve of ``wall``, as ``euler_splitting_system`` once named it."""
    tau = set(wall.tau)
    kinds = []
    for alpha in spec.section_exponents:
        support = {t for t, e in enumerate(alpha) if e > 0}
        if support & tau:
            kinds.append("zero")
        elif not support & {wall.extra1, wall.extra2}:
            kinds.append("constant")
        elif wall.extra2 not in support:
            kinds.append("power1")
        elif wall.extra1 not in support:
            kinds.append("power2")
        else:
            kinds.append("mixed")
    return kinds


def _reference_euler_system(spec, aim):
    """``euler_splitting_system`` as it was before its single-pass rewrite: string kinds, supports per wall."""
    if aim.fan != spec.fan:
        raise ValueError("intersection matrix belongs to a different fan")
    taus = []
    rows = []
    summand_degrees = [apply_q(aim, d) for d in spec.summand_divisors]
    for wi, wall in enumerate(aim.row_walls):
        degs = [by_wall[wi] for by_wall in summand_degrees]
        kinds = _reference_kinds(spec, wall)
        if "constant" in kinds:
            drop = kinds.index("constant")
            if degs[drop] != 0:
                raise RuntimeError("a summand with a constant section has nonzero wall degree")
            remaining = [m for i, m in enumerate(degs) if i != drop]
        else:
            first = [i for i, k in enumerate(kinds) if k == "power1"]
            second = [i for i, k in enumerate(kinds) if k == "power2"]
            if len(first) == 1 and len(second) == 1 and "mixed" not in kinds:
                i, j2 = first[0], second[0]
                remaining = [degs[i] + degs[j2]] + [
                    m for t, m in enumerate(degs) if t not in (i, j2)
                ]
            else:
                raise ValueError("η restriction not in scope")
        taus.append(wall.tau)
        rows.append(tuple(sorted(remaining, reverse=True)))
    return SplittingSystem(tuple(taus), tuple(rows))


def _euler_outcome(system_of, spec, aim):
    try:
        return system_of(spec, aim)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _branch(kinds):
    """Which rule of the scope decides a wall with these section kinds."""
    if "constant" in kinds:
        return "constant"
    if "mixed" in kinds:
        return "mixed"
    if kinds.count("power1") == kinds.count("power2") == 1:
        return "merge"
    return "powers of one coordinate" if max(kinds.count("power1"), kinds.count("power2")) > 1 else "too few"


def test_euler_system_matches_reference_on_projective_spaces():
    for n in (2, 3, 4):
        fan = projective_space(n)
        aim = augmented_matrix(fan)
        for mults in product(range(3), repeat=n + 1):
            spec = euler_monomial_spec(fan, mults)
            want = _euler_outcome(_reference_euler_system, spec, aim)
            assert _euler_outcome(euler_splitting_system, spec, aim) == want, (n, mults)


def test_euler_system_matches_reference_on_surfaces():
    # d = alpha + div(chi^m) makes z^alpha a section of O(d) whatever alpha is
    fans = [graph_to_fan(g) for k in range(4) for g in enumerate_blowups(k)]
    rng = random.Random(20261019)
    branches = set()
    for case in range(600):
        fan = fans[case % len(fans)]
        aim = augmented_matrix(fan)
        exponents = [
            [rng.choice((0, 0, 0, 1, 2)) for _ in fan.rays] for _ in range(rng.randint(2, 4))
        ]
        divisors = []
        for alpha in exponents:
            m = [rng.randint(-2, 2) for _ in range(fan.dim)]
            divisors.append([a + dot(m, ray) for a, ray in zip(alpha, fan.rays)])
        spec = make_euler_spec(fan, divisors, exponents)
        want = _euler_outcome(_reference_euler_system, spec, aim)
        assert _euler_outcome(euler_splitting_system, spec, aim) == want, (case, spec)
        for wall in aim.row_walls:  # the walls the rewrite reaches: up to the first out of scope
            branch = _branch(_reference_kinds(spec, wall))
            branches.add(branch)
            if branch not in ("constant", "merge"):
                break
    assert {"constant", "merge", "mixed", "powers of one coordinate", "too few"} <= branches, branches


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
