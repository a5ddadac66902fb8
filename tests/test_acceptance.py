"""End-to-end acceptance gates over the reference results the tool must hit.

Each test_criterion_N function is an all-or-nothing gate; conftest.py turns
the six outcomes into a one-line-per-criterion summary after the run.
"""

import argparse
import hashlib
import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import permutations, product

from toricsplit.bundle_data import (
    cp2_rank2,
    euler_monomial_spec,
    euler_splitting_system,
    tangent_bundle,
)
from toricsplit.cli import cmd_table41, main, table41_rows
from toricsplit.exact_linear import rat_rank
from toricsplit.fan import projective_space, walls
from toricsplit.intersection import apply_q, augmented_matrix
from toricsplit.solver import canonical_class_rep, find_splitting_types
from toricsplit.splitting import (
    SplittingSystem,
    bootstrap,
    h0_oracle,
    restrict,
    splitting_system,
    transition_from_block,
    twist_system,
)
from toricsplit.surface_graph import (
    WeightedCircularGraph,
    enumerate_blowups,
    graph_to_fan,
    hirzebruch,
)

# The eight surfaces (blowup count, circular weights) whose tangent bundle
# admits a splitting type, with the type columns in the basis of the first
# s-2 divisors of the weight list.
EXPECTED_SURFACES = [
    (
        3,
        (-1, -1, -1, -1, -1, -1),
        ((2, 4, 4, 2), (-1, -2, -2, -1)),
    ),
    (
        5,
        (-1, -2, -1, -2, -1, -2, -1, -2),
        ((2, 4, 8, 6, 6, 2), (-2, -3, -6, -4, -4, -1)),
    ),
    (
        6,
        (-1, -2, -2, -1, -2, -2, -1, -2, -2),
        ((2, 4, 8, 14, 8, 4, 2), (-2, -3, -6, -11, -6, -3, -2)),
    ),
    (
        7,
        (-1, -2, -2, -1, -3, -1, -2, -2, -1, -3),
        ((2, 4, 8, 14, 8, 12, 6, 2), (-3, -4, -7, -12, -6, -9, -4, -1)),
    ),
    (
        9,
        (-1, -2, -2, -2, -1, -4, -1, -2, -2, -2, -1, -4),
        ((2, 4, 8, 14, 22, 10, 20, 12, 6, 2), (-4, -5, -8, -13, -20, -8, -16, -9, -4, -1)),
    ),
    (
        9,
        (-1, -2, -2, -3, -1, -2, -2, -3, -1, -2, -2, -3),
        ((2, 4, 8, 14, 36, 24, 14, 6, 6, 2), (-3, -4, -7, -12, -32, -21, -12, -5, -6, -2)),
    ),
    (
        9,
        (-1, -2, -3, -1, -2, -3, -1, -2, -3, -1, -2, -3),
        ((2, 4, 8, 22, 16, 12, 22, 12, 4, 2), (-3, -4, -7, -20, -14, -10, -19, -10, -3, -2)),
    ),
    (
        9,
        (-1, -3, -1, -3, -1, -3, -1, -3, -1, -3, -1, -3),
        ((2, 4, 12, 10, 20, 12, 18, 8, 8, 2), (-3, -4, -12, -9, -18, -10, -15, -6, -6, -1)),
    ),
]

# sha256 of the stdout of `toricsplit table41` and `toricsplit table41 --format tsv`
TABLE41_SHA256 = {
    "text": "108fa139064df34ada07356ee20b97963096d6e1eda7803c98b12ac24162af7f",
    "tsv": "c1966bd0d3f65ef803c5641e264579ce47f9039c9bcd2a697c7fa492c25247d9",
}

# sha256 of the stdout of `toricsplit surfaces --k 9` and `toricsplit surfaces --k 9 --format tsv`
SURFACES9_SHA256 = {
    "text": "7e935b9fb10b88880ed3d6948228bd9bebc237cdee8db744a825544ab519fe97",
    "tsv": "f7b82bd266e675945f41d4a6e593b2dceb1bb6b7399398b9c7acbd33a27bab74",
}


def _dihedral_relabelings(s):
    for t in range(s):
        yield lambda i, t=t: (i + t) % s
    for t in range(s):
        yield lambda i, t=t: (t - i) % s


def _matches_expected(weights, splitting_type, expected_weights, expected_columns):
    """Match a found row against a reference one up to the graph's symmetry.

    A relabeling counts only if it carries the weight list onto the reference
    weight list; the found classes are pushed through it, re-reduced on the
    reference fan, and compared column-multiset against the reference.
    """
    s = len(expected_weights)
    if len(weights) != s:
        return False
    target_fan = graph_to_fan(WeightedCircularGraph(expected_weights))
    expected = sorted(expected_columns)
    for sigma in _dihedral_relabelings(s):
        if any(weights[sigma(i)] != expected_weights[i] for i in range(s)):
            continue
        moved = sorted(
            canonical_class_rep(tuple(col[sigma(i)] for i in range(s)), target_fan)[: s - 2]
            for col in splitting_type.canonical
        )
        if moved == expected:
            return True
    return False


def test_criterion_1_tangent_splitting_surface_table():
    started = time.monotonic()
    rows = table41_rows(False)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    assert len(rows) == 8

    unmatched = list(range(len(rows)))
    for expected_k, expected_weights, expected_columns in EXPECTED_SURFACES:
        hits = [
            idx
            for idx in unmatched
            if rows[idx][0] == expected_k
            and _matches_expected(rows[idx][1], rows[idx][2], expected_weights, expected_columns)
        ]
        assert len(hits) == 1, (expected_k, expected_weights, hits)
        unmatched.remove(hits[0])
    assert unmatched == []

    outputs = {}
    for fmt in ("text", "tsv"):
        buffer = io.StringIO()
        cmd_table41(argparse.Namespace(format=fmt, strict_signs=False), buffer)
        outputs[fmt] = buffer.getvalue()
    lines = outputs["text"].splitlines()
    assert len(lines) == 8
    for (k, weights, _), line in zip(rows, lines):
        head = f"k={k} w=(" + ",".join(str(w) for w in weights) + ") type=("
        assert line.startswith(head), line
    digests = {fmt: hashlib.sha256(text.encode()).hexdigest() for fmt, text in outputs.items()}
    assert digests == TABLE41_SHA256, digests


def test_surfaces_k9_output_is_pinned():
    digests = {}
    for fmt in ("text", "tsv"):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main(["surfaces", "--k", "9", "--format", fmt]) == 0
        digests[fmt] = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
    assert digests == SURFACES9_SHA256, digests


def test_criterion_2_plane_rank_two_twisted_families():
    fan = projective_space(2)
    aim = augmented_matrix(fan)
    for a, b, c in product(range(1, 5), repeat=3):
        base = splitting_system(cp2_rank2(a, b, c))
        for n in (-2, 0, 3):
            system = twist_system(base, aim, (n, 0, 0))
            types = find_splitting_types(aim, system)
            if a == b == c:
                assert len(types) == 1, (a, b, c, n)
                expected = sorted([(2 * a + n, 0, 0), (a + n, 0, 0)])
                assert sorted(types[0].canonical) == expected, (a, b, c, n)
            else:
                assert types == [], (a, b, c, n)


def test_criterion_3_projective_space_tangent():
    for n in range(2, 6):
        fan = projective_space(n)
        aim = augmented_matrix(fan)
        system = splitting_system(tangent_bundle(fan))
        expected_row = (2,) + (1,) * (n - 1)
        assert all(row == expected_row for row in system.degrees), n
        types = find_splitting_types(aim, system)
        assert len(types) == 1, n
        zeros = (0,) * n
        expected = sorted([(2,) + zeros] + [(1,) + zeros] * (n - 1))
        assert sorted(types[0].canonical) == expected, n


def test_criterion_4_rational_ruled_tangent():
    for a in range(5):
        fan = graph_to_fan(hirzebruch(a))
        aim = augmented_matrix(fan)
        system = splitting_system(tangent_bundle(fan))
        types = find_splitting_types(aim, system)
        if a > 0:
            assert types == [], a
            continue
        keys = {tuple(sorted(t.canonical)) for t in types}
        assert ((0, 0, 0, 0), (2, 2, 0, 0)) in keys, keys
        strict_keys = {
            tuple(sorted(t.canonical))
            for t in find_splitting_types(aim, system, strict=True)
        }
        assert strict_keys == {((0, 0, 0, 0), (2, 2, 0, 0))}


def test_criterion_5_euler_quotient_classification(brute_force_keys):
    # quotients of monomial section sums over projective spaces
    for n in (2, 3, 4):
        fan = projective_space(n)
        aim = augmented_matrix(fan)
        zeros = (0,) * n
        for m in product(range(1, 4), repeat=n + 1):
            spec = euler_monomial_spec(fan, m)
            system = euler_splitting_system(spec, aim)
            types = find_splitting_types(aim, system)
            if len(set(m)) == 1:
                assert len(types) == 1, (n, m)
                expected = sorted([(2 * m[0],) + zeros] + [(m[0],) + zeros] * (n - 1))
                assert sorted(types[0].canonical) == expected, (n, m)
            else:
                assert types == [], (n, m)

    # rank-3 quotients over the ruled surfaces.  On F_0 the D1 and D3 walls
    # meet the D2 and D4 summands, and the D2 and D4 walls meet D1 and D3, so
    # the splitting numbers are q = {m2, m4, 0} and p = {m1, m3, 0} in wall
    # order (q, p, q, p).  A class x1*D1 + x2*D2 restricts to (x2, x1, x2, x1),
    # so the types are the pairings of p with q; the strict rule also needs
    # each class to be all-positive or all-zero, so 0 must pair with 0.  On
    # F_1 and F_2 no type exists under either rule, and it is the sign rule
    # that excludes them, not the degrees alone: on F_1 with m = (2, 3, 1, 1)
    # the classes (-1,3,0,0), (1,0,0,0), (2,1,0,0) solve the degree system
    # exactly, but the first one is mixed (degrees 3, 2, 3, -1).
    for a in range(3):
        fan = graph_to_fan(hirzebruch(a))
        aim = augmented_matrix(fan)
        for m in product(range(1, 4), repeat=4):
            spec = euler_monomial_spec(fan, m)
            system = euler_splitting_system(spec, aim)
            if a == 0:
                p = tuple(sorted((m[0], m[2], 0), reverse=True))
                q = tuple(sorted((m[1], m[3], 0), reverse=True))
                rows = (q, p, q, p)
                assert system.degrees == rows, (a, m, system.degrees, rows)
            for strict in (False, True):
                found = {
                    tuple(sorted(t.canonical))
                    for t in find_splitting_types(aim, system, strict=strict)
                }
                expected = _f0_euler_types(m, strict) if a == 0 else set()
                context = (a, m, strict, found, expected)
                for reference in expected:
                    _check_reference_type(aim, reference, rows, context)
                assert found == expected, context
                assert found == brute_force_keys(aim, system, strict), context
                if a == 0 and strict and (m[0] == m[2] or m[1] == m[3]):
                    assert len(found) == 1, context
                if a == 0 and strict and m[0] == m[2] and m[1] == m[3]:
                    unique = ((0, 0, 0, 0), (m[0], m[1], 0, 0), (m[0], m[1], 0, 0))
                    assert found == {unique}, context


def _f0_euler_types(m, strict):
    """Sorted canonical types of the F_0 monomial quotient with multiplicities m.

    Canonical classes have their D1 and D2 coefficients first; class i
    takes D1 coefficient p_i and D2 coefficient q_sigma(i).
    """
    p = (m[0], m[2], 0)
    q = (m[1], m[3], 0)
    types = set()
    for sigma in permutations(range(3)):
        pairs = [(p[i], q[sigma[i]]) for i in range(3)]
        if strict and any((x == 0) != (y == 0) for x, y in pairs):
            continue
        types.add(tuple(sorted((x, y, 0, 0) for x, y in pairs)))
    return types


def _check_reference_type(aim, reference, rows, context):
    """Fail on a reference type whose classes miss the expected wall rows."""
    degrees = [apply_q(aim, cls) for cls in reference]
    for wall, row in enumerate(rows):
        restricted = tuple(sorted((d[wall] for d in degrees), reverse=True))
        assert restricted == row, (
            f"reference type {reference} restricts to {restricted} on wall {wall}, "
            f"not {row}",
            context,
        )


def _random_invertible(rng, r):
    while True:
        block = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
        if rat_rank(block) == r:
            return block


def _wall_degrees(data, wall, v_chart):
    degs = []
    for block in restrict(data, wall, v_chart):
        if len(block.chart1_weights) == 1:
            degs.append(block.chart1_weights[0] - block.chart2_weights[0])
        else:
            degs.extend(bootstrap(block.chart1_weights, block.chart2_weights, block.pasting))
    return tuple(sorted(degs, reverse=True))


def test_criterion_6_property_suite(brute_force_keys):
    # (i) circular weights of an s-ray surface sum to 12 - 3s
    for k in range(10):
        for graph in enumerate_blowups(k):
            assert sum(graph.weights) == 12 - 3 * len(graph.weights)

    # (ii) wall degree totals equal the restricted first Chern numbers
    bundles = [
        tangent_bundle(projective_space(2)),
        tangent_bundle(projective_space(3)),
        tangent_bundle(graph_to_fan(hirzebruch(0))),
        tangent_bundle(graph_to_fan(hirzebruch(2))),
        cp2_rank2(1, 1, 1),
        cp2_rank2(1, 2, 3),
        cp2_rank2(3, 3, 3),
    ]
    for k in (2, 3):
        for graph in sorted(enumerate_blowups(k), key=lambda g: g.weights)[:2]:
            bundles.append(tangent_bundle(graph_to_fan(graph)))
    for data in bundles:
        system = splitting_system(data)
        for wall, row in zip(walls(data.fan), system.degrees):
            assert sum(row) == sum(sum(b.chart1_weights) - sum(b.chart2_weights) for b in restrict(data, wall))
    euler_cases = [
        (projective_space(2), (2, 2, 2)),
        (projective_space(3), (1, 2, 3, 1)),
        (graph_to_fan(hirzebruch(0)), (1, 2, 1, 2)),
    ]
    for fan, m in euler_cases:
        aim = augmented_matrix(fan)
        spec = euler_monomial_spec(fan, m)
        system = euler_splitting_system(spec, aim)
        total = [sum(col) for col in zip(*spec.summand_divisors)]
        for row, shift in zip(system.degrees, apply_q(aim, total)):
            assert sum(row) == shift

    # (iii) stratum-scan degrees equal section-count degrees on random blocks
    rng = random.Random(5021)
    for _ in range(500):
        r = rng.randint(1, 3)
        w1 = sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True)
        w2 = sorted(rng.randint(-4, 4) for _ in range(r))
        block = _random_invertible(rng, r)
        degrees = bootstrap(w1, w2, block)
        assert sum(degrees) == sum(w1) - sum(w2)
        assert degrees == h0_oracle(transition_from_block(w1, w2, block))

    # (iv) the chart vector choice never changes wall degrees
    for data in (
        tangent_bundle(projective_space(3)),
        tangent_bundle(graph_to_fan(hirzebruch(2))),
        cp2_rank2(2, 3, 1),
    ):
        fan = data.fan
        for wall in walls(fan):
            base = fan.rays[wall.extra1]
            shift = fan.rays[wall.tau[0]]
            choices = [
                base,
                tuple(x + y for x, y in zip(base, shift)),
                tuple(x - 2 * y for x, y in zip(base, shift)),
            ]
            seen = {_wall_degrees(data, wall, v) for v in choices}
            assert len(seen) == 1, (wall.tau, seen)

    # (v) every reported type satisfies its degree system exactly
    cases = []
    for fan in (
        projective_space(2),
        projective_space(4),
        graph_to_fan(hirzebruch(0)),
        graph_to_fan(WeightedCircularGraph((-1,) * 6)),
    ):
        cases.append((augmented_matrix(fan), splitting_system(tangent_bundle(fan))))
    cp2_aim = augmented_matrix(projective_space(2))
    rank2 = splitting_system(cp2_rank2(2, 2, 2))
    cases.append((cp2_aim, rank2))
    cases.append((cp2_aim, twist_system(rank2, cp2_aim, (1, 0, 0))))
    cp3 = projective_space(3)
    cp3_aim = augmented_matrix(cp3)
    cases.append((cp3_aim, euler_splitting_system(euler_monomial_spec(cp3, (2, 2, 2, 2)), cp3_aim)))
    checked = 0
    for aim, system in cases:
        for strict in (False, True):
            for t in find_splitting_types(aim, system, strict=strict):
                for col_idx, col in enumerate(t.columns):
                    assert apply_q(aim, col) == tuple(row[col_idx] for row in t.rows)
                for row, expected_row in zip(t.rows, system.degrees):
                    assert tuple(sorted(row, reverse=True)) == expected_row
                checked += 1
    assert checked >= 8

    # (vi) pruned search equals exhaustive search on small rank-2 systems
    rng = random.Random(90125)
    fans = [
        projective_space(2),
        graph_to_fan(hirzebruch(0)),
        graph_to_fan(hirzebruch(1)),
        graph_to_fan(hirzebruch(2)),
        graph_to_fan(sorted(enumerate_blowups(2), key=lambda g: g.weights)[0]),
        graph_to_fan(WeightedCircularGraph((-1,) * 6)),
    ]
    for fan in fans:
        aim = augmented_matrix(fan)
        taus = tuple(w.tau for w in aim.row_walls)
        systems = [splitting_system(tangent_bundle(fan))]
        for _ in range(8):
            degrees = tuple(
                tuple(sorted((rng.randint(-3, 3), rng.randint(-3, 3)), reverse=True))
                for _ in taus
            )
            systems.append(SplittingSystem(taus, degrees))
        for system in systems:
            for strict in (False, True):
                got = {
                    tuple(sorted(t.canonical))
                    for t in find_splitting_types(aim, system, strict=strict)
                }
                assert got == brute_force_keys(aim, system, strict)
