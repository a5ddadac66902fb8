import random
from dataclasses import fields

import pytest

from toricsplit.bundle_data import tangent_bundle
from toricsplit.cli import table41_rows
from toricsplit.fan import make_fan, projective_space, walls
from toricsplit.intersection import (
    AugmentedIntersectionMatrix,
    SignClass,
    apply_q,
    augmented_matrix,
    principal_columns,
    sign_of_class,
)
from toricsplit.solver import canonical_class_rep, find_splitting_types
from toricsplit.splitting import splitting_system
from toricsplit.surface_graph import WeightedCircularGraph, enumerate_blowups, graph_to_fan, hirzebruch


def test_q_cp2_all_ones():
    aim = augmented_matrix(projective_space(2))
    assert aim.q.entries == ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def test_q_hirzebruch():
    a = 3
    aim = augmented_matrix(graph_to_fan(hirzebruch(a)))
    assert aim.q.entries == (
        (0, 1, 0, 1),
        (1, a, 1, 0),
        (0, 1, 0, 1),
        (1, 0, 1, -a),
    )


def test_q_surface_is_circulant_tridiagonal():
    g = WeightedCircularGraph((-1, -1, -1, -1, -1, -1))
    fan = graph_to_fan(g)
    aim = augmented_matrix(fan)
    s = g.s
    for i in range(s):
        for j in range(s):
            expected = g.weights[i] if i == j else 1 if (i - j) % s in (1, s - 1) else 0
            assert aim.q.entries[i][j] == expected
        assert sum(aim.q.entries[i]) == g.weights[i] + 2


def test_row_walls_are_read_off_the_fan(small_fans):
    # the matrix holds only its fan and Q, and each row's wall is the fan's wall, in fan.walls order
    assert [f.name for f in fields(AugmentedIntersectionMatrix)] == ["fan", "q"]
    for fan in small_fans:
        aim = augmented_matrix(fan)
        assert aim.row_walls is aim.fan.walls
        assert aim.q.rows == len(fan.walls)


def test_sign_of_class():
    aim = augmented_matrix(projective_space(2))
    assert sign_of_class(aim, (1, 0, 0)) is SignClass.POSITIVE
    assert apply_q(aim, (1, 0, 0)) == (1, 1, 1)
    assert sign_of_class(aim, (0, 0, 0)) is SignClass.ZERO
    assert sign_of_class(aim, (-1, 0, 0)) is SignClass.NEGATIVE

    f1 = augmented_matrix(graph_to_fan(hirzebruch(1)))
    assert sign_of_class(f1, (0, 0, 0, 1)) is SignClass.MIXED
    assert sign_of_class(f1, (1, 0, 0, 0)) is SignClass.NEF


def test_sign_dimension_mismatch():
    aim = augmented_matrix(projective_space(2))
    with pytest.raises(ValueError):
        sign_of_class(aim, (1, 0))


def test_principal_columns_in_kernel():
    fans = [projective_space(2), projective_space(3), graph_to_fan(hirzebruch(2))]
    fans += [graph_to_fan(g) for g in sorted(enumerate_blowups(4), key=lambda g: g.weights)[:3]]
    for fan in fans:
        aim = augmented_matrix(fan)
        for col in principal_columns(fan):
            assert apply_q(aim, col) == (0,) * len(walls(fan))


def _reordered(fan, order):
    """``fan`` with ray i moved to position ``order[i]`` and its cones relabelled to match."""
    rays = [None] * len(order)
    for i, p in enumerate(order):
        rays[p] = fan.rays[i]
    return make_fan(fan.dim, rays, [tuple(order[i] for i in cone) for cone in fan.max_cones])


def _tangent_types(fan, strict):
    return find_splitting_types(augmented_matrix(fan), splitting_system(tangent_bundle(fan)), strict=strict)


def test_reordered_rays_keep_their_tangent_types():
    # the ray order decides the fresh rows of Q: the Table 4.1 fan of (-1,)*6 with its rays
    # reordered has 3 of the 4 it needs, so the lattice check reads Q's rank off the elimination
    graphs = [g for k in range(8) for g in sorted(enumerate_blowups(k), key=lambda g: g.weights)]
    graphs += [WeightedCircularGraph(w) for _, w, _ in table41_rows(False)]
    rng = random.Random(20261020)
    cases = [(graph_to_fan(WeightedCircularGraph((-1,) * 6)), [4, 2, 0, 5, 1, 3])]
    for g in graphs:
        fan = graph_to_fan(g)
        order = list(range(len(fan.rays)))
        rng.shuffle(order)
        cases.append((fan, order))
    eliminated = []
    types = 0
    for fan, order in cases:
        moved = _reordered(fan, order)
        aim = augmented_matrix(moved)
        aim.relation_walls
        eliminated.append("left_kernel" in vars(aim))
        for strict in (False, True):
            want = {tuple(sorted(t.canonical)) for t in _tangent_types(fan, strict)}
            got = _tangent_types(moved, strict)
            # each class mapped back to the original rays and reduced there
            back = {
                tuple(sorted(canonical_class_rep(tuple(column[p] for p in order), fan) for column in t.columns))
                for t in got
            }
            assert len(got) == len(want) and back == want, (fan, order, strict)
            types += len(got)
    assert len(cases) == 1 + 589 + 8 and eliminated[0] and types > 0, (sum(eliminated), types)
