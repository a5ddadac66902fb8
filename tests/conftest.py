"""Shared fixtures; collects acceptance results and prints one pass/fail line per criterion."""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from toricsplit.bundle_data import cp2_rank2, tangent_bundle
from toricsplit.exact_linear import rat_matmul
from toricsplit.fan import projective_space
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
