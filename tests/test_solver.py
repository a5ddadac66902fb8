"""Splitting-type search: frozen answers, brute-force agreement, canonicalization."""

import ast
import gc
import os
import random
import subprocess
import sys
import textwrap
import weakref
from dataclasses import replace
from itertools import chain, combinations, permutations, product
from math import gcd
from pathlib import Path

import pytest

from toricsplit import exact_linear, intersection, solver
from toricsplit.cli import table41_rows
from toricsplit.bundle_data import cp2_rank2, tangent_bundle
from toricsplit.exact_linear import IntMatrix, SolvePlan, hnf, rat_matmul, rat_rank, solve_integral, unimodular_inverse
from toricsplit.fan import make_fan, projective_space, walls
from toricsplit.intersection import AugmentedIntersectionMatrix, SignClass, augmented_matrix
from toricsplit.solver import SplittingType, canonical_class_rep, find_splitting_types
from toricsplit.splitting import SplittingSystem, splitting_system, twist_system
from toricsplit.surface_graph import (
    WeightedCircularGraph,
    enumerate_blowups,
    graph_to_fan,
    hirzebruch,
)


def tangent_case(fan):
    return augmented_matrix(fan), splitting_system(tangent_bundle(fan))


def canonical_keys(types):
    return {tuple(sorted(t.canonical)) for t in types}


def identity(n):
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


# ------------------------------------------------------------ frozen answers


def test_cp2_tangent_unique_type():
    aim, system = tangent_case(projective_space(2))
    types = find_splitting_types(aim, system)
    assert len(types) == 1
    assert types[0].canonical == ((2, 0, 0), (1, 0, 0))
    assert types[0].sign_classes == (SignClass.POSITIVE, SignClass.POSITIVE)
    assert all(row == (2, 1) for row in types[0].rows)


def test_projective_spaces_tangent_unique():
    for n in (3, 4, 5):
        aim, system = tangent_case(projective_space(n))
        types = find_splitting_types(aim, system)
        assert len(types) == 1
        expected = tuple(
            tuple(d if k == 0 else 0 for k in range(n + 1)) for d in [2] + [1] * (n - 1)
        )
        assert types[0].canonical == expected


def test_cp2_rank2_equal_weights():
    fan = projective_space(2)
    aim = augmented_matrix(fan)
    for a in (1, 2, 3):
        types = find_splitting_types(aim, splitting_system(cp2_rank2(a, a, a)))
        assert canonical_keys(types) == {((a, 0, 0), (2 * a, 0, 0))}


def test_cp2_rank2_unequal_weights_empty():
    fan = projective_space(2)
    aim = augmented_matrix(fan)
    for a, b, c in [(2, 1, 1), (1, 2, 3), (3, 3, 1)]:
        assert find_splitting_types(aim, splitting_system(cp2_rank2(a, b, c))) == []


def test_three_point_blowup_type():
    fan = graph_to_fan(WeightedCircularGraph((-1,) * 6))
    aim, system = tangent_case(fan)
    assert all(row == (2, -1) for row in system.degrees)
    types = find_splitting_types(aim, system)
    assert len(types) == 1
    assert set(types[0].canonical) == {
        (2, 4, 4, 2, 0, 0),
        (-1, -2, -2, -1, 0, 0),
    }
    assert {s for s in types[0].sign_classes} == {SignClass.POSITIVE, SignClass.NEGATIVE}


def test_f0_default_vs_strict():
    aim, system = tangent_case(graph_to_fan(hirzebruch(0)))
    default = find_splitting_types(aim, system)
    assert canonical_keys(default) == {
        ((0, 0, 0, 0), (2, 2, 0, 0)),
        ((0, 2, 0, 0), (2, 0, 0, 0)),
    }
    strict = find_splitting_types(aim, system, strict=True)
    assert canonical_keys(strict) == {((0, 0, 0, 0), (2, 2, 0, 0))}
    assert any(SignClass.ZERO in t.sign_classes for t in strict)


def test_positive_hirzebruch_has_no_type():
    for a in (1, 2, 3):
        aim, system = tangent_case(graph_to_fan(hirzebruch(a)))
        assert find_splitting_types(aim, system) == []


def test_wall_mismatch_rejected():
    aim, system = tangent_case(projective_space(2))
    shifted = SplittingSystem(tuple(reversed(system.taus)), system.degrees)
    with pytest.raises(ValueError, match="walls"):
        find_splitting_types(aim, shifted)


def test_ordering_rank_cap_stops_before_any_permutation(monkeypatch):
    def no_permutations(row):
        raise AssertionError(f"permutations of {row} built")

    monkeypatch.setattr(solver, "permutations", no_permutations)
    aim = augmented_matrix(projective_space(1))
    system = SplittingSystem(tuple(w.tau for w in aim.row_walls), (tuple(range(8, -1, -1)),))
    with pytest.raises(RuntimeError, match="^bundle rank 9 exceeds the ordering rank cap 8$"):
        find_splitting_types(aim, system)


def test_orderings_are_built_once_per_distinct_row_reached(monkeypatch):
    built = []

    def spy(row):
        built.append(row)
        return permutations(row)

    monkeypatch.setattr(solver, "permutations", spy)
    aim = augmented_matrix(projective_space(2))
    taus = tuple(w.tau for w in aim.row_walls)
    # every wall of P^2's tangent system has the row (2, 1)
    assert len(find_splitting_types(aim, splitting_system(tangent_bundle(aim.fan)))) == 1
    assert built == [(2, 1)]
    # no ordering of (2, -1) repeats the classes (2, 0) fixed, so the scan never reaches (3, 3)
    built.clear()
    assert find_splitting_types(aim, SplittingSystem(taus, ((2, 0), (2, -1), (3, 3)))) == []
    assert built == [(2, 0), (2, -1)]


def test_kernel_guard_trips_on_foreign_matrix():
    fan = projective_space(2)
    aim, system = tangent_case(fan)
    bogus = AugmentedIntersectionMatrix(fan, aim.row_walls, identity(3))
    with pytest.raises(RuntimeError, match="principal-divisor lattice"):
        find_splitting_types(bogus, system)


def test_check_plan_kernel_lies_in_ker_q(monkeypatch):
    real = exact_linear.hnf

    def bad_kernel(a):
        # U's rows past the rank are the plan's kernel: shift the last one off ker Q
        h, u = real(a)
        return h, u[:-1] + ((u[-1][0] + 1,) + u[-1][1:],)

    monkeypatch.setattr(exact_linear, "hnf", bad_kernel)
    aim, system = tangent_case(projective_space(2))
    with pytest.raises(RuntimeError, match=r"^invariant broken: the plan's kernel vector \(.*\) has Q @ k != 0$"):
        find_splitting_types(aim, system)


def test_check_candidate_solution_satisfies_rows(monkeypatch):
    real = exact_linear.SolvePlan.solve

    def off_by_one(plan, c):
        x = real(plan, c)
        if x is None or not any(c):
            return x
        return (x[0] + 1,) + x[1:]

    monkeypatch.setattr(exact_linear.SolvePlan, "solve", off_by_one)
    # F_0's tangent search has two leaves: the first one already checks its columns
    for fan in (projective_space(2), graph_to_fan(hirzebruch(0))):
        aim, system = tangent_case(fan)
        with pytest.raises(RuntimeError, match="^invariant broken: integral solve of candidate 1 misses Q @ x = rows$"):
            find_splitting_types(aim, system)


def test_sign_checks_run_on_memo_served_columns(monkeypatch):
    # a leaf whose second column has no solution leaves its first column in the
    # memo unchecked; a later leaf served that column from the memo must raise
    aim = augmented_matrix(projective_space(2))
    signed = []
    for sign, strict, message in [
        (SignClass.MIXED, False, "^invariant broken: candidate 2 solves to a class of mixed sign$"),
        (SignClass.NEF, True, "^invariant broken: candidate 2 solves to a nef class under the strict rule$"),
    ]:
        monkeypatch.setattr(solver, "sign_of_degrees", lambda y, sign=sign: signed.append(y) or sign)
        signed.clear()
        memo = {}
        # P^2's degree columns are constant: (1, 0, 0) has no solution
        assert solver._solve_candidate(aim, ((1, 1), (1, 0), (1, 0)), 1, strict, memo) is None
        assert set(memo) == {(1, 1, 1), (1, 0, 0)} and memo[(1, 0, 0)] is None
        with pytest.raises(RuntimeError, match=message):
            solver._solve_candidate(aim, ((1, 1), (1, 1), (1, 1)), 2, strict, memo)
        assert signed == [(1, 1, 1)]


def test_check_no_mixed_sign(monkeypatch):
    monkeypatch.setattr(solver, "sign_of_degrees", lambda y: SignClass.MIXED)
    aim, system = tangent_case(projective_space(2))
    with pytest.raises(RuntimeError, match="mixed sign"):
        find_splitting_types(aim, system)


def test_check_no_nef_class_under_strict_rule(monkeypatch):
    # with the default classes the strict search admits F_0's type of two nef columns
    aim, system = tangent_case(graph_to_fan(hirzebruch(0)))
    nef = next(t for t in find_splitting_types(aim, system) if SignClass.ZERO not in t.sign_classes)
    assert nef.sign_classes == (SignClass.NEF, SignClass.NEF)
    assert sorted(nef.canonical) == [(0, 2, 0, 0), (2, 0, 0, 0)]
    monkeypatch.setattr(solver, "_strict_class", solver._default_class)
    message = f"^invariant broken: candidate {nef.perm_id} solves to a nef class under the strict rule$"
    with pytest.raises(RuntimeError, match=message):
        find_splitting_types(aim, system, strict=True)


def test_check_no_repeated_type(monkeypatch):
    # F_0's tangent system has two types; reduced to zero classes they would coincide
    aim, system = tangent_case(graph_to_fan(hirzebruch(0)))
    assert len(find_splitting_types(aim, system)) == 2
    monkeypatch.setattr(solver, "canonical_class_rep", lambda x, fan: (0,) * len(x))
    with pytest.raises(RuntimeError, match="^invariant broken: candidate 2 repeats an earlier type$"):
        find_splitting_types(aim, system)


def test_leaf_applies_q_once_per_column(monkeypatch):
    # each distinct degree column of a search is solved and checked against Q
    # once; its Q @ x == rows check is also what classifies its sign
    solves, products = [], []
    real_solve, real_apply_q = exact_linear.SolvePlan.solve, intersection.apply_q

    def solve_spy(plan, c):
        solves.append(c)
        return real_solve(plan, c)

    def apply_q_spy(aim, x):
        products.append(x)
        return real_apply_q(aim, x)

    aim = augmented_matrix(graph_to_fan(sorted(enumerate_blowups(4), key=lambda g: g.weights)[-1]))
    aim.solve_plan  # its own homogeneous solve is not a column's
    monkeypatch.setattr(exact_linear.SolvePlan, "solve", solve_spy)
    monkeypatch.setattr(intersection, "apply_q", apply_q_spy)
    monkeypatch.setattr(solver, "apply_q", apply_q_spy)
    systems = [splitting_system(tangent_bundle(aim.fan)), *_line_sum_systems(aim, random.Random(3), 12)]
    repeats = 0
    for system in systems:
        for strict in (False, True):
            solves.clear()
            products.clear()
            stats = {}
            types = find_splitting_types(aim, system, strict=strict, stats=stats)
            assert stats["failed_solves"] == 0
            columns = [col for t in types for col in zip(*t.rows)]
            assert sorted(solves) == sorted(set(columns))
            assert len(products) == len(solves)
            repeats += len(columns) - len(solves)
    assert repeats > 40


def test_rank_zero_system_has_one_empty_type():
    # every wall tuple empty: one leaf, whose type has no classes
    aim = augmented_matrix(projective_space(2))
    system = SplittingSystem(tuple(w.tau for w in aim.row_walls), ((),) * 3)
    for strict in (False, True):
        stats = {}
        types = find_splitting_types(aim, system, strict=strict, stats=stats)
        assert types == [SplittingType(1, ((),) * 3, (), (), ())]
        assert stats == {"leaves": 1, "failed_solves": 0, "sign_cuts": 0, "lex_cuts": 0, "kernel_cuts": 0}


def test_check_reduced_support_is_zero(monkeypatch):
    fan = projective_space(2)
    support, terms = fan.reduction
    assert all(terms[s] == ((s, 1),) for s in support)
    monkeypatch.setitem(fan.__dict__, "reduction", (support, tuple(() for _ in terms)))
    x = tuple(int(k == support[0]) for k in range(len(fan.rays)))
    # checked on every call, not once per fan
    for _ in range(2):
        with pytest.raises(RuntimeError, match="nonzero on the support"):
            canonical_class_rep(x, fan)


def test_exactness_checks_survive_optimize_flag():
    script = textwrap.dedent(
        """
        from toricsplit import solver, splitting
        from toricsplit.bundle_data import tangent_bundle
        from toricsplit.exact_linear import IntMatrix, unimodular_inverse
        from toricsplit.fan import projective_space
        from toricsplit.intersection import AugmentedIntersectionMatrix, SignClass, augmented_matrix
        from toricsplit.splitting import splitting_system
        from toricsplit.surface_graph import graph_to_fan, hirzebruch

        assert False, "asserts must be stripped"
        try:
            unimodular_inverse([[2, 1], [0, 1]])
        except ValueError:
            print("ValueError")
        sign_of_degrees = solver.sign_of_degrees
        solver.sign_of_degrees = lambda y: SignClass.MIXED
        fan = projective_space(2)
        try:
            solver.find_splitting_types(augmented_matrix(fan), splitting_system(tangent_bundle(fan)))
        except RuntimeError:
            print("RuntimeError")
        # F_1's tangent search reaches no leaf, so only the lattice guard can see a foreign Q
        fan = graph_to_fan(hirzebruch(1))
        bogus = AugmentedIntersectionMatrix(
            fan, augmented_matrix(fan).row_walls, IntMatrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
        )
        try:
            solver.find_splitting_types(bogus, splitting_system(tangent_bundle(fan)))
        except RuntimeError:
            print("RuntimeError" if "solve_plan" not in vars(bogus) else "plan built")
        splitting._h_separable = lambda t, split, twists: dict.fromkeys(twists, 0)  # no sections at any twist
        try:
            splitting.h0_oracle([[(1, 2), (0, 0)], [(0, 0), (1, -1)]])
        except RuntimeError:
            print("RuntimeError")
        splitting.int_kernel = lambda rows: []  # every stratum looks empty
        try:
            splitting.bootstrap((1, 0), (0, 1), [[1, 1], [0, 1]])
        except RuntimeError as exc:
            print("RuntimeError" if "no stratum found" in str(exc) else exc)
        # the last unit vector is no kernel vector of row 1, and it misses row block 0
        splitting.int_kernel = lambda rows: [(0,) * (len(rows[0]) - 1) + (1,)]
        try:
            splitting.bootstrap((0, 0), (0, 1), [[1, 0], [0, 1]])
        except RuntimeError as exc:
            print("RuntimeError" if "no witness vector" in str(exc) else exc)
        solver.sign_of_degrees = sign_of_degrees
        fan = graph_to_fan(hirzebruch(0))
        strict_class = solver._strict_class
        solver._strict_class = solver._default_class  # the strict search admits F_0's two nef columns
        try:
            solver.find_splitting_types(augmented_matrix(fan), splitting_system(tangent_bundle(fan)), strict=True)
        except RuntimeError as exc:
            print("RuntimeError" if "nef class under the strict rule" in str(exc) else exc)
        solver._strict_class = strict_class
        solver.canonical_class_rep = lambda x, fan: (0,) * len(x)  # F_0's two types look alike
        try:
            solver.find_splitting_types(augmented_matrix(fan), splitting_system(tangent_bundle(fan)))
        except RuntimeError as exc:
            print("RuntimeError" if "repeats an earlier type" in str(exc) else exc)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ValueError"] + ["RuntimeError"] * 7


def test_package_has_no_assert():
    # exactness checks must be explicit raises: asserts vanish under -O and
    # AssertionError escapes the CLI's error handler as a traceback
    package = Path(__file__).resolve().parents[1] / "src" / "toricsplit"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# --------------------------------------------------------------- properties


def test_left_kernel_is_built_once_per_matrix(monkeypatch):
    calls = []
    real = intersection.int_row_relations

    def spy(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(intersection, "int_row_relations", spy)
    aim, system = tangent_case(graph_to_fan(hirzebruch(1)))
    find_splitting_types(aim, system)
    find_splitting_types(aim, system, strict=True)
    assert len(calls) == 1
    # integral relations y with y @ Q = 0, one per wall beyond the rank of Q
    assert len(aim.left_kernel) == 2
    for vec in aim.left_kernel:
        assert all(isinstance(c, int) for c in vec)
        assert rat_matmul([vec], aim.q.entries) == [[0] * aim.q.cols]


def test_results_are_deterministic():
    aim, system = tangent_case(graph_to_fan(hirzebruch(0)))
    first = find_splitting_types(aim, system)
    second = find_splitting_types(aim, system)
    assert first == second
    assert [t.perm_id for t in first] == [t.perm_id for t in second]


def test_soundness_on_enumerated_surfaces():
    for graph in sorted(enumerate_blowups(3), key=lambda g: g.weights):
        fan = graph_to_fan(graph)
        aim, system = tangent_case(fan)
        for t in find_splitting_types(aim, system):
            assert rat_matmul(aim.q.entries, list(zip(*t.columns))) == list(map(list, t.rows))
            for col in t.columns:
                image = [row[0] for row in rat_matmul(aim.q.entries, [[v] for v in col])]
                assert all(e >= 0 for e in image) or all(e < 0 for e in image)


def test_twist_shifts_every_column():
    fan = projective_space(2)
    aim, system = tangent_case(fan)
    base = find_splitting_types(aim, system)
    x0 = (1, 0, 0)
    twisted = find_splitting_types(aim, twist_system(system, aim, x0))
    assert len(twisted) == len(base) == 1
    shifted = tuple(
        canonical_class_rep(tuple(v + d for v, d in zip(col, x0)), fan)
        for col in base[0].columns
    )
    assert sorted(twisted[0].canonical) == sorted(shifted)


def test_principal_shift_invariance():
    fan = projective_space(2)
    principal = (1, 0, -1)
    assert canonical_class_rep(principal, fan) == (0, 0, 0)
    assert canonical_class_rep((0, 0, 3), fan) == (3, 0, 0)
    rng = random.Random(11)
    for _ in range(25):
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        moved = tuple(a + 2 * b for a, b in zip(x, principal))
        assert canonical_class_rep(x, fan) == canonical_class_rep(moved, fan)


def test_reduction_support_falls_back_lexicographically():
    # last two rays are opposite, so the reducer picks the first unimodular pair
    fan = make_fan(
        2,
        [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [(0, 2), (1, 2), (1, 3), (0, 3)],
    )
    for x in [(1, 2, 3, 4), (0, 0, 1, 0)]:
        reduced = canonical_class_rep(x, fan)
        assert reduced[0] == 0 and reduced[2] == 0


def _reference_class_rep(x, fan):
    """The earlier two-step reduction: the support's coordinates through the
    inverse of its rays, then every ray's pairing with them."""
    j, n = len(fan.rays), fan.dim
    for support in chain([tuple(range(j - n, j))], combinations(range(j), n)):
        try:
            inv = unimodular_inverse([fan.rays[k] for k in support])
            break
        except ValueError:
            continue
    coeffs = [sum(inv[t][m] * x[support[m]] for m in range(n)) for t in range(n)]
    return tuple(x[k] - sum(fan.rays[k][t] * coeffs[t] for t in range(n)) for k in range(j))


def test_class_rep_matches_two_step_reference():
    rng = random.Random(61)
    # the last fan's last two rays are opposite, so its support is not the last rays
    fans = _lattice_fans() + [make_fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (1, 2), (1, 3), (0, 3)])]
    for fan in fans:
        for _ in range(40):
            x = tuple(rng.randint(-6, 6) for _ in fan.rays)
            assert canonical_class_rep(x, fan) == _reference_class_rep(x, fan), (fan, x)
    assert fans[-1].reduction[0] == (0, 2)


def test_class_vector_length_checked():
    with pytest.raises(ValueError, match="entries"):
        canonical_class_rep((1, 2), projective_space(2))


# ------------------------------------------------------------- solve plan


def _reference_solve_integral(a, b):
    """Oracle for ``SolvePlan``: a fresh HNF of a^T per call, dense back-substitution."""
    n_unknowns = a.cols
    hp, up = hnf(IntMatrix.from_rows(list(zip(*a.entries))))
    pivots = []
    for row in hp:
        p = next((j for j, v in enumerate(row) if v != 0), None)
        if p is None:
            break
        pivots.append(p)
    rank = len(pivots)
    kernel = [up[t] for t in range(rank, n_unknowns)]
    x_cols = []
    for c_idx in range(b.cols):
        c = [row[c_idx] for row in b.entries]
        y = [0] * n_unknowns
        for t, p in enumerate(pivots):
            s = c[p] - sum(hp[u_i][p] * y[u_i] for u_i in range(t))
            piv = hp[t][p]
            if s % piv:
                return None
            y[t] = s // piv
        for i in range(a.rows):
            if sum(hp[t][i] * y[t] for t in range(rank)) != c[i]:
                return None
        x_cols.append([sum(up[t][j] * y[t] for t in range(rank)) for j in range(n_unknowns)])
    return tuple(zip(*x_cols)) or ((),) * n_unknowns, kernel


def _plan_fans():
    fans = [projective_space(2), projective_space(3)]
    fans += [graph_to_fan(hirzebruch(a)) for a in range(4)]
    for k in (2, 4):
        graphs = sorted(enumerate_blowups(k), key=lambda g: g.weights)
        fans += [graph_to_fan(graphs[0]), graph_to_fan(graphs[-1])]
    return fans + [graph_to_fan(WeightedCircularGraph((-1,) * 6))]


def test_plan_matches_reference_solve():
    # The image of Q is saturated on these fans, so every integral column
    # that Q solves rationally it also solves integrally; 2Q supplies the
    # columns that are rationally consistent but not integral.
    rng = random.Random(2024)
    kinds = {"integral": 0, "inconsistent": 0, "not integral": 0}
    for fan in _plan_fans():
        q = augmented_matrix(fan).q
        for a in (q, IntMatrix.from_rows([[2 * v for v in row] for row in q.entries])):
            plan = SolvePlan(a)
            assert plan.kernel == _reference_solve_integral(a, IntMatrix(a.rows, 0, ((),) * a.rows))[1]
            targets = []
            for _ in range(12):
                d = [rng.randint(-4, 4) for _ in range(q.cols)]
                targets.append(tuple(sum(v * x for v, x in zip(row, d)) for row in q.entries))
                targets.append(tuple(rng.randint(-4, 4) for _ in range(q.rows)))
            for c in targets:
                want = _reference_solve_integral(a, IntMatrix.from_rows([[v] for v in c]))
                got = plan.solve(c)
                if want is None:
                    assert got is None
                    consistent = rat_rank(a.entries) == rat_rank([row + (v,) for row, v in zip(a.entries, c)])
                    kinds["not integral" if consistent else "inconsistent"] += 1
                else:
                    assert got == tuple(row[0] for row in want[0])
                    kinds["integral"] += 1
            b = IntMatrix.from_rows(list(zip(*targets[::2])))
            assert solve_integral(a, b) == _reference_solve_integral(a, b)
    assert min(kinds.values()) > 20, kinds


def test_plan_rejects_wrong_column_length():
    plan = augmented_matrix(projective_space(2)).solve_plan
    with pytest.raises(ValueError, match="3 equations, 2 right-hand rows"):
        plan.solve((1, 1))


def _line_sum_systems(aim, rng, count):
    """Degree systems Q.D of sums of two or three nef or anti-ample line bundles."""
    fan = aim.fan
    taus = tuple(w.tau for w in aim.row_walls)
    for _ in range(count):
        images = []
        for _ in range(rng.randint(2, 3)):
            anti = rng.random() < 0.3
            if fan.dim == 2:
                # d(v) = sum_k c_k |det(v_k, v)| is nef, and ample when every c_k >= 1
                coeffs = [rng.randint(int(anti), 1 + int(anti)) for _ in fan.rays]
                d = [
                    sum(c * abs(u[0] * v[1] - u[1] * v[0]) for c, u in zip(coeffs, fan.rays))
                    for v in fan.rays
                ]
            else:
                d = [rng.randint(int(anti), 3)] + [0] * (len(fan.rays) - 1)
            images.append(intersection.apply_q(aim, [-x for x in d] if anti else d))
        yield SplittingSystem(taus, tuple(tuple(sorted(col, reverse=True)) for col in zip(*images)))


def test_hnf_count_is_fixed_per_matrix(monkeypatch):
    calls = []

    def spy(a):
        calls.append(a)
        return hnf(a)

    monkeypatch.setattr(exact_linear, "hnf", spy)
    assert not hasattr(intersection, "hnf") and not hasattr(intersection, "_lattice_form")
    graphs = sorted(enumerate_blowups(3), key=lambda g: g.weights)
    # a surface without a tangent splitting type whose search reaches no leaf computes no HNF
    aim = augmented_matrix(graph_to_fan(graphs[0]))
    stats = {}
    assert find_splitting_types(aim, splitting_system(tangent_bundle(aim.fan)), stats=stats) == []
    assert stats["leaves"] == 0
    assert calls == [] and "solve_plan" not in vars(aim)
    # once leaves arrive, one HNF of Q^T builds the plan that every later leaf reuses
    aim = augmented_matrix(graph_to_fan(graphs[-1]))
    stats = {}
    find_splitting_types(aim, splitting_system(tangent_bundle(aim.fan)), stats=stats)
    assert len(calls) == 1
    for system in _line_sum_systems(aim, random.Random(5), 8):
        for strict in (False, True):
            find_splitting_types(aim, system, strict=strict, stats=stats)
    assert len(calls) == 1
    assert stats["leaves"] > 20


def _reference_lattice_form(vectors):
    if not vectors:
        return ()
    h, _ = hnf(IntMatrix.from_rows([list(v) for v in vectors]))
    return tuple(row for row in h if any(row))


def _reference_lattice_ok(aim):
    """The HNF comparison of Q's integral kernel with the principal-divisor lattice."""
    plan = SolvePlan(aim.q)
    return _reference_lattice_form(plan.kernel) == _reference_lattice_form(
        intersection.principal_columns(aim.fan)
    )


def _eager_lattice_ok(aim):
    try:
        aim.kernel_triggers
    except RuntimeError as exc:
        assert "principal-divisor lattice" in str(exc)
        return False
    return True


def _foreign_matrices(q):
    """Matrices of Q's shape: the identity, one entry off by 1, two columns swapped, a row
    doubled, and Q's first rows zeroed, which keeps the principal columns in the kernel but
    widens it."""
    rows = [list(row) for row in q.entries]
    yield "identity", [[int(i == j) for j in range(q.cols)] for i in range(q.rows)]
    for i in range(q.rows + 1):
        yield "zeroed", [[0] * q.cols] * i + rows[i:]
    for i, j in product(range(q.rows), range(q.cols)):
        for delta in (1, -1):
            changed = [list(row) for row in rows]
            changed[i][j] += delta
            yield "entry", changed
    for j, k in combinations(range(q.cols), 2):
        order = list(range(q.cols))
        order[j], order[k] = k, j
        yield "swap", [[row[c] for c in order] for row in rows]
    for i in range(q.rows):
        yield "doubled", [[2 * v for v in row] if t == i else row for t, row in enumerate(rows)]


def _lattice_fans():
    """P^1..P^4, F_0..F_3 and every blowup with at most three blowups."""
    fans = [projective_space(n) for n in range(1, 5)]
    fans += [graph_to_fan(hirzebruch(a)) for a in range(4)]
    for k in range(1, 4):
        fans += [graph_to_fan(g) for g in sorted(enumerate_blowups(k), key=lambda g: g.weights)]
    return fans


def test_lattice_check_matches_hnf_reference():
    verdicts = {}
    for fan in _lattice_fans():
        aim = augmented_matrix(fan)
        assert _eager_lattice_ok(aim) and _reference_lattice_ok(aim)
        for kind, rows in _foreign_matrices(aim.q):
            foreign = AugmentedIntersectionMatrix(fan, aim.row_walls, IntMatrix.from_rows(rows))
            verdict = _eager_lattice_ok(foreign)
            assert verdict == _reference_lattice_ok(foreign), (fan, kind, rows)
            verdicts.setdefault(kind, set()).add(verdict)
    # a changed entry breaks Q @ p = 0 for some principal p, since no ray is zero; swapping
    # two columns keeps the lattice only when a lattice automorphism swaps the two rays
    assert verdicts == {
        "identity": {False},
        "zeroed": {False, True},
        "entry": {False},
        "swap": {False, True},
        "doubled": {True},
    }


def test_wall_order_relations_span_the_rref_kernel(assert_readers_match_references):
    # for each wall i, the relations ending at walls <= i span the left kernel of Q's first
    # i + 1 rows, one relation per dependent wall.  The reference is that prefix's row HNF
    # (H, U): U's rows at H's zero rows span the left kernel, and a rank is the number of
    # nonzero HNF rows, so it shares no elimination with the code.  Every exact reader of Q
    # also agrees with the eliminations the row-order pass replaced.
    def hnf_rank(rows):
        return sum(map(any, hnf(IntMatrix.from_rows(rows))[0]))

    checked = 0
    for fan in _lattice_fans():
        aim = augmented_matrix(fan)
        matrices = [aim.q.entries] + [rows for _, rows in _foreign_matrices(aim.q)]
        for rows in matrices:
            assert_readers_match_references(rows)
            q = IntMatrix.from_rows(rows)
            relations = AugmentedIntersectionMatrix(fan, aim.row_walls, q).left_kernel
            ends = [max(w for w, c in enumerate(y) if c) for y in relations]
            for y, end in zip(relations, ends):
                assert rat_matmul([y], q.entries) == [[0] * q.cols]
                assert y[end] > 0 and gcd(*y) == 1
            for i in range(q.rows):
                h, u = hnf(IntMatrix.from_rows(rows[: i + 1]))
                kernel = [u_row for h_row, u_row in zip(h, u) if not any(h_row)]
                mine = [y[: i + 1] for y, end in zip(relations, ends) if end <= i]
                # H has rank H nonzero rows, so i + 1 - rank H relations end at walls <= i
                assert len(mine) == len(kernel), (rows, i)
                if mine:
                    assert hnf_rank(mine) == hnf_rank(kernel) == hnf_rank(mine + kernel) == len(mine)
            checked += 1
    assert checked > 1000


def _relation_ends(aim):
    return {max(w for w, c in enumerate(y) if c) for y in aim.left_kernel}


def test_fresh_row_certificate_matches_the_elimination(line_sum_search_items):
    # the walls the lattice check marks are those where the wall-order elimination's
    # relations end; on every fan-built Q the fresh rows decide with no elimination
    fans = _lattice_fans() + [projective_space(5)]
    fans += list({id(fan): fan for _, fan, *_ in line_sum_search_items(1)}.values())
    assert len(fans) == len(_lattice_fans()) + 1 + 17
    decided = {}
    for fan in fans:
        aim = augmented_matrix(fan)
        marked = aim.relation_walls
        assert "left_kernel" not in vars(aim)
        assert marked == _relation_ends(aim)
        assert len(marked) == aim.q.rows - aim.q.cols + fan.dim
    for fan in _lattice_fans():
        aim = augmented_matrix(fan)
        for kind, rows in _foreign_matrices(aim.q):
            foreign = AugmentedIntersectionMatrix(fan, aim.row_walls, IntMatrix.from_rows(rows))
            try:
                foreign.relation_walls
                verdict = True
            except RuntimeError as exc:
                assert "principal-divisor lattice" in str(exc)
                verdict = False
            route = "elimination" if "left_kernel" in vars(foreign) else "certificate"
            if verdict:
                assert foreign.relation_walls == _relation_ends(foreign), (fan, kind, rows)
            decided.setdefault((route, verdict), set()).add(kind)
    # zeroing Q's first rows leaves too few fresh rows; the elimination then finds ker Q too wide
    assert decided == {
        ("certificate", True): {"zeroed", "swap", "doubled"},
        ("certificate", False): {"identity", "entry", "swap"},
        ("elimination", False): {"zeroed"},
    }


def test_lattice_check_reads_cone_0s_dual_basis_not_the_reduction():
    # F_1's tangent search passes the lattice check and reaches no leaf, so it
    # never builds the fan's reduction
    fan = graph_to_fan(hirzebruch(1))
    stats = {}
    assert find_splitting_types(*tangent_case(fan), stats=stats) == []
    assert stats["leaves"] == 0 and "reduction" not in vars(fan)
    # cone 0's stored dual basis is the lattice-basis proof, so a wrong one is caught
    damaged = replace(fan, duals=fan.duals[1:2] + fan.duals[1:])
    with pytest.raises(RuntimeError, match="^invariant broken: cone 0's dual basis does not invert its rays$"):
        augmented_matrix(damaged).relation_walls
    assert "reduction" not in vars(damaged)


def test_triggers_are_checked_against_the_relation_walls(monkeypatch):
    aim, system = tangent_case(graph_to_fan(hirzebruch(1)))
    aim.relation_walls
    # a relation ending one wall early is not what the fresh rows proved
    monkeypatch.setattr(intersection, "int_row_relations", lambda rows: [(1, -1, 0, 0)] * 2)
    with pytest.raises(RuntimeError, match="do not end at its relation walls"):
        find_splitting_types(aim, system)


def test_triggers_hold_one_relation_per_relation_wall(monkeypatch):
    fan = graph_to_fan(hirzebruch(1))
    aim, system = tangent_case(fan)
    relations = intersection.int_row_relations(aim.q.entries)
    assert [t is not None for t in aim.kernel_triggers] == [
        i in aim.relation_walls for i in range(len(aim.row_walls))
    ]
    # each check is one call on the one relation that the wall just assigned ends
    checked = []
    real = solver._relation_holds

    def spy(terms, assigned, r):
        checked.append((terms, len(assigned), real(terms, assigned, r)))
        return checked[-1][-1]

    monkeypatch.setattr(solver, "_relation_holds", spy)
    stats = {}
    find_splitting_types(aim, system, stats=stats)
    assert checked and all(terms is aim.kernel_triggers[depth - 1] for terms, depth, _ in checked)
    assert stats["kernel_cuts"] == sum(not holds for _, _, holds in checked)
    # a second relation ending at a relation wall is not what the fresh rows proved
    monkeypatch.setattr(intersection, "int_row_relations", lambda rows: relations + relations[-1:])
    with pytest.raises(RuntimeError, match="two of Q's relations end at one relation wall"):
        find_splitting_types(augmented_matrix(fan), system)


def test_search_before_the_first_relation_wall_eliminates_nothing(monkeypatch):
    calls = []
    real = intersection.int_row_relations

    def spy(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(intersection, "int_row_relations", spy)
    graph = next(g for g in enumerate_blowups(2) if g.weights == (-1, -1, -1, 0, 0))
    aim, system = tangent_case(graph_to_fan(graph))
    for strict in (False, True):
        stats = {}
        assert find_splitting_types(aim, system, strict=strict, stats=stats) == []
        assert stats["kernel_cuts"] == 0
    assert aim.relation_walls == {3, 4}
    assert calls == [] and "left_kernel" not in vars(aim) and "kernel_triggers" not in vars(aim)


def test_too_few_fresh_rows_still_fail_under_optimize_flag():
    script = textwrap.dedent(
        """
        from toricsplit import solver
        from toricsplit.bundle_data import tangent_bundle
        from toricsplit.exact_linear import IntMatrix
        from toricsplit.intersection import AugmentedIntersectionMatrix, augmented_matrix
        from toricsplit.splitting import splitting_system
        from toricsplit.surface_graph import graph_to_fan, hirzebruch

        assert False, "asserts must be stripped"
        # Q's first three rows zeroed: the principal columns still lie in ker Q, one row is fresh
        fan = graph_to_fan(hirzebruch(1))
        aim = augmented_matrix(fan)
        rows = [[0] * aim.q.cols] * 3 + [list(aim.q.entries[3])]
        bogus = AugmentedIntersectionMatrix(fan, aim.row_walls, IntMatrix.from_rows(rows))
        try:
            solver.find_splitting_types(bogus, splitting_system(tangent_bundle(fan)))
        except RuntimeError as exc:
            print("RuntimeError" if "ker Q has rank 3, not 2" in str(exc) else exc)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["RuntimeError"]


def test_solve_plan_is_collected_with_its_matrix():
    aim, system = tangent_case(graph_to_fan(hirzebruch(1)))
    find_splitting_types(aim, system)
    plan = weakref.ref(aim.solve_plan)
    del aim
    gc.collect()
    assert plan() is None


# ------------------------------------------------------------- search stats


def test_stats_reconcile_with_types():
    rng = random.Random(77)
    for fan in _plan_fans()[:6]:
        aim = augmented_matrix(fan)
        systems = [splitting_system(tangent_bundle(fan)), *_line_sum_systems(aim, rng, 4)]
        for system in systems:
            for strict in (False, True):
                stats = {}
                types = find_splitting_types(aim, system, strict=strict, stats=stats)
                assert set(stats) == {"leaves", "failed_solves", "sign_cuts", "lex_cuts", "kernel_cuts"}
                # a leaf's columns are sorted, so no two leaves give the same type
                assert len(types) == stats["leaves"] - stats["failed_solves"]
                assert all(t.perm_id <= stats["leaves"] for t in types)
                again = dict(stats)
                find_splitting_types(aim, system, strict=strict, stats=again)
                assert again == {key: 2 * n for key, n in stats.items()}
    # 2Q has Q's kernel and left kernel, so its plan is accepted, but odd
    # degrees then have no integral solution
    fan = projective_space(2)
    aim = augmented_matrix(fan)
    doubled = AugmentedIntersectionMatrix(
        fan, aim.row_walls, IntMatrix.from_rows([[2 * v for v in row] for row in aim.q.entries])
    )
    stats = {}
    assert find_splitting_types(doubled, splitting_system(tangent_bundle(fan)), stats=stats) == []
    assert stats["leaves"] == stats["failed_solves"] == 1


def _line_sum_search_stats(items):
    stats = {}
    for _, _, aim, system, strict, _ in items:
        find_splitting_types(aim, system, strict=strict, stats=stats)
    return stats


def test_stats_count_line_sum_search_leaves(line_sum_search_items):
    assert _line_sum_search_stats(line_sum_search_items(1)) == {
        "leaves": 6585,
        "failed_solves": 0,
        "sign_cuts": 231947,
        "lex_cuts": 28954,
        "kernel_cuts": 40056,
    }


def test_stats_count_line_sum_search_leaves_seed_2(line_sum_search_items):
    assert _line_sum_search_stats(line_sum_search_items(2)) == {
        "leaves": 6587,
        "failed_solves": 0,
        "sign_cuts": 237365,
        "lex_cuts": 29531,
        "kernel_cuts": 42690,
    }


def test_types_restrict_back_through_kaneyama_data(line_bundle_sum, line_sum_search_items):
    # the paper's bridge run in reverse, never touching Q, the solve or the search: the
    # sum of the line bundles of a type's columns has the type's rows as splitting numbers
    cases = [
        (graph_to_fan(next(g for g in enumerate_blowups(k) if g.weights == weights)), t)
        for k, weights, t in table41_rows(False)
    ]
    for seed in (1, 2):
        for _, fan, aim, system, strict, _ in line_sum_search_items(seed)[:600]:
            cases += [(fan, t) for t in find_splitting_types(aim, system, strict=strict)]
    assert len(cases) == 8 + 827 + 796
    for fan, t in cases:
        want = tuple(tuple(sorted(row, reverse=True)) for row in t.rows)
        assert splitting_system(line_bundle_sum(fan, t.columns)).degrees == want, (fan, t)


def _surface_rays(weights):
    """The rays of a weighted circular graph from v_(i-1) + v_(i+1) + w_i * v_i = 0, without a fan."""
    rays = [(1, 0), (0, 1)]
    for w in weights[1:-1]:
        (a, b), (c, d) = rays[-2:]
        rays.append((-a - w * c, -b - w * d))
    return rays


@pytest.mark.parametrize("strict", [False, True])
def test_table41_matches_its_closed_form(strict):
    # a surface's tangent system has a splitting type exactly when every weight is negative
    # and the rays sum to zero; its degree columns are then (2, ..., 2) and the weights
    want = []
    surfaces = 0
    for k in range(1, 10):
        for g in sorted(enumerate_blowups(k), key=lambda g: g.weights):
            surfaces += 1
            rays = _surface_rays(g.weights)
            if all(w < 0 for w in g.weights) and tuple(map(sum, zip(*rays))) == (0, 0):
                want.append((k, g.weights, ((2,) * len(g.weights), g.weights)))
    assert surfaces == 6500 and len(want) == 8
    assert [(k, w, tuple(zip(*t.rows))) for k, w, t in table41_rows(strict)] == want


# ------------------------------------------------- packed sign modes reference

# the earlier sign rule, kept as the reference: the classes a column can still
# aim for, one bit each, packed 4 bits per column (column l at bits 4l..4l+3):
# nonneg 0b0001, neg 0b0010, pos 0b0100, zero 0b1000
_REFERENCE_DEFAULT_MODES = 0b0011
_REFERENCE_STRICT_MODES = 0b1110


def _reference_packed(modes):
    return sum(m << 4 * l for l, m in enumerate(modes))


def _reference_entry_modes(entry):
    if entry > 0:
        return 0b0101
    return 0b1001 if entry == 0 else 0b0010


def test_sign_classes_match_packed_mode_reference():
    # walk every reachable (column state, ordering) pair of seeded systems with
    # the packed reference and the class rule side by side
    rng = random.Random(20261019)
    verdicts = {True: 0, False: 0}
    for strict in (False, True):
        sign_class = solver._strict_class if strict else solver._default_class
        start = _REFERENCE_STRICT_MODES if strict else _REFERENCE_DEFAULT_MODES
        for case in range(60):
            r = case % 5 + 1
            rows = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(3)]
            low_bits = _reference_packed([1] * r)
            states = {(_reference_packed([start] * r), None)}
            for row in rows:
                reached = set()
                for packed, col_classes in states:
                    for ordering in set(permutations(row)):
                        modes = packed & _reference_packed(map(_reference_entry_modes, ordering))
                        feasible = (modes | modes >> 1 | modes >> 2 | modes >> 3) & low_bits == low_bits
                        classes = tuple(map(sign_class, ordering))
                        assert feasible == (col_classes is None or classes == col_classes), (strict, rows, ordering)
                        verdicts[feasible] += 1
                        if feasible:
                            reached.add((modes, classes))
                states = reached
    assert min(verdicts.values()) > 1000


# ------------------------------------------------------- brute-force oracle


def test_pruned_search_matches_brute_force(brute_force_keys):
    rng = random.Random(4821)
    fans = [
        projective_space(2),
        graph_to_fan(hirzebruch(0)),
        graph_to_fan(hirzebruch(2)),
        graph_to_fan(sorted(enumerate_blowups(2), key=lambda g: g.weights)[0]),
        graph_to_fan(WeightedCircularGraph((-1,) * 6)),
    ]
    for fan in fans:
        aim = augmented_matrix(fan)
        taus = tuple(w.tau for w in aim.row_walls)
        systems = [splitting_system(tangent_bundle(fan))]
        for _ in range(6):
            degrees = tuple(
                tuple(sorted((rng.randint(-3, 3), rng.randint(-3, 3)), reverse=True))
                for _ in taus
            )
            systems.append(SplittingSystem(taus, degrees))
        for system in systems:
            for strict in (False, True):
                got = canonical_keys(find_splitting_types(aim, system, strict=strict))
                assert got == brute_force_keys(aim, system, strict)
