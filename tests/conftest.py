"""Shared fixtures; collects acceptance results and prints one pass/fail line per criterion."""

import importlib.util
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd, lcm
from pathlib import Path

import pytest

from toricsplit import exact_linear
from toricsplit.bundle_data import assemble_bundle, cp2_rank2, tangent_bundle
from toricsplit.exact_linear import IntMatrix, rat_matmul, solve_integral
from toricsplit.fan import projective_space
from toricsplit.solver import canonical_class_rep
from toricsplit.surface_graph import enumerate_blowups, graph_to_fan

_CRITERION_RESULTS: dict[int, bool] = {}


@pytest.fixture(
    params=["\u0661", "\uff11", "1_0", "1" * 4301],
    ids=["arabic-indic-1", "fullwidth-1", "underscore", "over-length-cap"],
)
def int_lookalike(request):
    """A token int() reads as an integer that the text formats and --graph refuse:
    they read ASCII decimal digits only, at most 4300 of them."""
    return request.param


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


@pytest.fixture(scope="session")
def frame_change():
    """``_frame_change(rng, r)``: a random product of scalings, shears and swaps, and its inverse."""
    return _frame_change


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


@pytest.fixture(scope="session")
def perturbed_bundles():
    """2400 seeded perturbations of tangent bundles and ``cp2_rank2`` bundles; 1712 of them fail some wall."""
    fans = [projective_space(2), projective_space(3)]
    fans += [graph_to_fan(g) for k in range(3) for g in enumerate_blowups(k)]
    bases = [tangent_bundle(fan) for fan in fans]
    bases += [cp2_rank2(a, b, c) for a, b, c in [(1, 1, 1), (1, 2, 3), (2, 2, 1), (3, 1, 2)]]
    rng = random.Random(20261018)
    return tuple(_perturbed(rng, bases[case % len(bases)]) for case in range(2400))


@pytest.fixture(scope="session")
def small_fans():
    """The 6506 fans of P^1..P^5 and of every surface with at most nine blowups, each k's graphs in
    weight order."""
    fans = [projective_space(n) for n in range(1, 6)]
    fans += [graph_to_fan(g) for k in range(10) for g in sorted(enumerate_blowups(k), key=lambda g: g.weights)]
    return tuple(fans)


def _line_bundle_sum(fan, divisors):
    """The sum of the line bundles O(D) over ray-coefficient vectors D (Kaneyama 1975): cone c's
    weight of O(D) is sum(D[i] * e_i) over c's rays i and their dual basis e, and every pasting
    is the identity."""
    weights = [
        [tuple(sum(d[i] * e[x] for i, e in zip(cone, duals)) for x in range(fan.dim)) for d in divisors]
        for cone, duals in zip(fan.max_cones, fan.duals)
    ]
    ident = [[int(i == j) for j in range(len(divisors))] for i in range(len(divisors))]
    star = range(1, len(fan.max_cones))
    return assemble_bundle(fan, weights, {**{(0, c): ident for c in star}, **{(c, 0): ident for c in star}})


@pytest.fixture(scope="session")
def line_bundle_sum():
    """``line_bundle_sum(fan, divisors)``: Kaneyama data of a sum of line bundles O(D)."""
    return _line_bundle_sum


@pytest.fixture(scope="session")
def line_sum_search_items():
    """``items(seed)``: the benchmark's line_sum_search inputs for a seed, built once per seed
    without its harness; ``bench/workloads.py`` is read without writing bytecode beside it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
    workload = workloads.LineSumSearch()

    @lru_cache(maxsize=None)
    def items(seed):
        return workload.setup(random.Random(seed), None)[: workload.size]

    return items


def _sign_admissible(column, strict):
    if strict:
        return (
            all(v > 0 for v in column)
            or all(v == 0 for v in column)
            or all(v < 0 for v in column)
        )
    return all(v >= 0 for v in column) or all(v < 0 for v in column)


def _brute_force_keys(aim, system, strict):
    keys = set()
    for choice in product(*[sorted(set(permutations(row))) for row in system.degrees]):
        if not all(_sign_admissible(column, strict) for column in zip(*choice)):
            continue
        solved = solve_integral(aim.q, IntMatrix.from_rows(choice))
        if solved is None:
            continue
        x, _ = solved
        keys.add(tuple(sorted(canonical_class_rep(column, aim.fan) for column in zip(*x))))
    return keys


@pytest.fixture(scope="session")
def brute_force_keys():
    """The splitting types of a system by brute force, as sorted canonical class tuples:
    every ordering of every wall tuple, sign-filtered, solved with ``solve_integral``."""
    return _brute_force_keys


def _reference_rref(rows):
    """The column-order fraction-free Gauss-Jordan elimination the row-order pass replaced."""
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot_row = m[r]
        p = pivot_row[c]
        if p < 0:
            pivot_row = m[r] = [-y for y in pivot_row]
            p = -p
        for i in range(nr):
            f = m[i][c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(m[i], pivot_row)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def _reference_row_relations(rows):
    """The left null space by the row-order pass that carried each row's combination of the rows."""
    n = len(rows)
    echelon = []  # (pivot, reduced row, combination)
    relations = []
    for i, row in enumerate(rows):
        v = list(row)
        comb = [0] * n
        comb[i] = 1
        for p, reduced, used in echelon:
            f = v[p]
            if f:
                s = reduced[p]
                v = [s * x - f * y for x, y in zip(v, reduced)]
                comb = [s * x - f * y for x, y in zip(comb, used)]
                g = gcd(*v, *comb)
                if g > 1:
                    v = [x // g for x in v]
                    comb = [x // g for x in comb]
        p = next((c for c, x in enumerate(v) if x), None)
        if p is not None:
            echelon.append((p, v, comb))
        else:
            g = gcd(*comb) if comb[i] > 0 else -gcd(*comb)
            relations.append(tuple(x // g for x in comb))
    return relations


def _reference_kernel(rows):
    if not rows:
        return []
    m, pivots = _reference_rref(rows)
    nc = len(rows[0])
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        scale = lcm(*(m[t][p] // gcd(m[t][f], m[t][p]) for t, p in enumerate(pivots)))
        vec = [0] * nc
        vec[f] = scale
        for t, p in enumerate(pivots):
            vec[p] = -m[t][f] * scale // m[t][p]
        basis.append(tuple(vec))
    return basis


def _reference_reduced_inverse(rows):
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    m, pivots = _reference_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    return m if pivots == list(range(n)) else None


def _reference_unimodular_inverse(rows):
    m = _reference_reduced_inverse(rows)
    if m is None or any(m[t][t] != 1 for t in range(len(m))):
        raise ValueError("matrix is not unimodular: no integral inverse")
    return tuple(tuple(row[len(m):]) for row in m)


def _reference_rat_invert(rows):
    m = _reference_reduced_inverse(rows)
    if m is None:
        raise ValueError("singular matrix")
    return [[Fraction(x, row[t]) for x in row[len(m):]] for t, row in enumerate(m)]


def _readers(rows, rank, kernel, unimodular_inverse, rat_invert, row_relations):
    """What five readers make of an integer matrix: each answer, or its ValueError's text."""
    answers = []
    for reader in (rank, kernel, unimodular_inverse, rat_invert, row_relations):
        try:
            answers.append(reader(rows))
        except ValueError as exc:
            answers.append(f"ValueError: {exc}")
    return answers


@pytest.fixture(scope="session")
def assert_readers_match_references():
    """Asserts that ``int_rank``, ``int_kernel``, ``unimodular_inverse``, ``rat_invert`` and
    ``int_row_relations`` of an integer matrix give what the two eliminations the row-order
    pass replaced give: a column-order Gauss-Jordan and a row pass carrying combinations."""

    def check(rows):
        package = _readers(
            rows,
            exact_linear.int_rank,
            exact_linear.int_kernel,
            exact_linear.unimodular_inverse,
            exact_linear.rat_invert,
            exact_linear.int_row_relations,
        )
        reference = _readers(
            rows,
            lambda rows: len(_reference_rref(rows)[1]),
            _reference_kernel,
            _reference_unimodular_inverse,
            _reference_rat_invert,
            _reference_row_relations,
        )
        assert package == reference, rows

    return check


def pytest_runtest_logreport(report):
    match = re.search(r"::test_criterion_(\d+)", report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.failed:
        _CRITERION_RESULTS[number] = False
    elif report.when == "call" and report.passed:
        _CRITERION_RESULTS.setdefault(number, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_CRITERION_RESULTS):
        verdict = "PASS" if _CRITERION_RESULTS[number] else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict}")
