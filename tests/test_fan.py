import gc
import random
import re
import weakref
from collections import Counter
from dataclasses import replace
from itertools import combinations, product
from math import gcd

import pytest

import toricsplit.bundle_data as bundle_data
import toricsplit.exact_linear as exact_linear
import toricsplit.fan as fan_module
import toricsplit.splitting as splitting
import toricsplit.surface_graph as surface_graph
from toricsplit.bundle_data import format_bundle, parse_bundle, tangent_bundle
from toricsplit.exact_linear import dot, unimodular_inverse
from toricsplit.fan import (
    Fan,
    Wall,
    dual_basis,
    format_fan,
    make_fan,
    parse_fan,
    projective_space,
    walls,
)
from toricsplit.intersection import augmented_matrix
from toricsplit.solver import canonical_class_rep, find_splitting_types
from toricsplit.surface_graph import WeightedCircularGraph, enumerate_blowups, graph_to_fan, hirzebruch

CP2_RAYS = [(1, 0), (0, 1), (-1, -1)]
CP2_CONES = [(0, 1), (1, 2), (2, 0)]


def _reference_walls(fan):
    """The walls by a second pass over the facets: the facet map, then v_e2 in sigma1's dual basis,
    sigma1 being the facet's lower cone; its extra1 coordinate is -1 unless both cones lie on one side."""
    by_facet = {}
    for ci, cone in enumerate(fan.max_cones):
        for tau in combinations(cone, fan.dim - 1):
            by_facet.setdefault(tau, []).append(ci)
    out = []
    for tau in sorted(by_facet):
        c1, c2 = by_facet[tau]
        cone1 = fan.max_cones[c1]
        e1, e2 = sum(cone1) - sum(tau), sum(fan.max_cones[c2]) - sum(tau)
        coords = [-dot(e, fan.rays[e2]) for e in fan.duals[c1]]
        k = cone1.index(e1)
        if coords[k] != 1:
            raise ValueError(f"overlapping cones: wall relation for tau {tau}: rays {e1}, {e2} lie on one side")
        out.append(Wall(tau, c1, c2, e1, e2, tuple(coords[:k] + coords[k + 1 :])))
    return tuple(out)


def direct_fan(dim, rays, cones):
    """A Fan built without make_fan's checks, its dual bases inverted and its walls read here."""
    duals = tuple(unimodular_inverse(list(zip(*(rays[i] for i in cone)))) for cone in cones)
    bare = Fan(dim, rays, cones, duals, ())
    return replace(bare, walls=_reference_walls(bare))


def product_fan(f, g):
    """The fan of the product of two toric varieties: rays (v, 0) and (0, w), cones the products."""
    rays = [ray + (0,) * g.dim for ray in f.rays] + [(0,) * f.dim + ray for ray in g.rays]
    j = len(f.rays)
    cones = [a + tuple(j + i for i in b) for a in f.max_cones for b in g.max_cones]
    return make_fan(f.dim + g.dim, rays, cones)


def star_subdivision(fan, face):
    """The fan subdivided at the sum of ``face``'s rays, appended as the last ray: the blowup
    along the face's orbit closure (Fulton 1993).  Each maximal cone holding the face gives
    way to one cone per face ray, that ray swapped for the new one."""
    new = len(fan.rays)
    ray = tuple(map(sum, zip(*(fan.rays[t] for t in face))))
    cones = []
    for cone in fan.max_cones:
        if set(face) <= set(cone):
            cones += [tuple(sorted(set(cone) - {t} | {new})) for t in face]
        else:
            cones.append(cone)
    return make_fan(fan.dim, [*fan.rays, ray], cones)


def fa_fan(a):
    return make_fan(2, [(1, 0), (0, 1), (-1, -a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])


def foreign_ray_accepts(n, rays, cones):
    """Reference: make_fan's verdict when it counted facets itself and tested overlap
    by every foreign ray against every cone (it accepted an empty cone list)."""
    rays = [tuple(ray) for ray in rays]
    cones = [tuple(sorted(cone)) for cone in cones]
    if any(len(ray) != n or gcd(*ray) != 1 for ray in rays) or len(set(rays)) != len(rays):
        return False
    if any(len(set(c)) != n or len(c) != n or c[0] < 0 or c[-1] >= len(rays) for c in cones):
        return False
    try:
        inverses = [unimodular_inverse(list(zip(*(rays[i] for i in c)))) for c in cones]
    except ValueError:
        return False
    if len(set(cones)) != len(cones) or {i for c in cones for i in c} != set(range(len(rays))):
        return False
    if any(count != 2 for count in Counter(f for c in cones for f in combinations(c, n - 1)).values()):
        return False
    return not any(
        j not in cone and all(dot(row, ray) >= 0 for row in inverse)
        for cone, inverse in zip(cones, inverses)
        for j, ray in enumerate(rays)
    )


def make_fan_accepts(n, rays, cones):
    try:
        make_fan(n, rays, cones)
    except ValueError:
        return False
    return True


def test_make_fan_cp2():
    fan = make_fan(2, CP2_RAYS, CP2_CONES)
    assert fan.dim == 2
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert fan.max_cones == ((0, 1), (1, 2), (0, 2))


def test_make_fan_hirzebruch():
    for a in range(4):
        fan = fa_fan(a)
        assert len(walls(fan)) == 4


def test_make_fan_rejects_bad_data():
    with pytest.raises(ValueError, match="non-primitive"):
        make_fan(2, [(2, 0), (0, 1), (-1, -1)], CP2_CONES)
    with pytest.raises(ValueError, match="non-unimodular"):
        make_fan(2, [(1, 0), (1, 2)], [(0, 1)])
    with pytest.raises(ValueError, match=r"non-unimodular cone \(0, 1\)"):
        make_fan(2, [(1, 0), (-1, 0)], [(0, 1)])
    # one cone missing: its facets are no longer shared by two cones
    with pytest.raises(ValueError, match="exactly 2"):
        make_fan(2, CP2_RAYS, [(0, 1), (1, 2)])
    # every facet appears twice, yet (1,1) lies inside the first quadrant cone
    with pytest.raises(ValueError, match="overlapping"):
        make_fan(
            2,
            [(1, 0), (0, 1), (1, 1), (0, -1)],
            [(0, 1), (1, 2), (2, 3), (0, 3)],
        )
    # every facet appears twice and cone 0's interior lies in no other cone, yet the
    # cones fold back at ray (-1,-1): both of its cones lie on one side of it
    with pytest.raises(ValueError, match=r"overlapping cones: wall relation for tau \(2,\)"):
        make_fan(2, [(1, 0), (0, 1), (-1, -1), (-2, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
    # no cones: nothing to validate, and no cone 0 to take an interior point from
    with pytest.raises(ValueError, match="at least one maximal cone"):
        make_fan(2, [], [])
    # cones (0,1) and (1,2) are smooth; the flip across ray 0 finds (-1,-2) with
    # coordinate -2 at ray 1, so the cone in input order (2, 0) has determinant 2
    with pytest.raises(ValueError, match=r"^non-unimodular cone \(2, 0\)$"):
        make_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])
    # two disjoint copies of the plane's fan: every facet lies in two cones, but no
    # walk across walls from cone 0 reaches the second copy
    with pytest.raises(ValueError, match=r"^overlapping cones: cone \(3, 4\) is not reached"):
        make_fan(
            2,
            CP2_RAYS + [(-1, 0), (0, -1), (1, 1)],
            CP2_CONES + [(3, 4), (4, 5), (5, 3)],
        )


def test_overlap_check_matches_foreign_ray_reference_on_weight_sequences(monkeypatch):
    # every circular weight sequence with s = 3..7 and weights in [-3, 2] ([-2, 1] at s = 7);
    # most fail graph_to_fan's closing test, the rest reach make_fan
    reached = []
    monkeypatch.setattr(surface_graph, "make_fan", lambda *args: reached.append(args) or make_fan(*args))
    accepted = 0
    for s in range(3, 8):
        for weights in product(range(-3, 3) if s < 7 else range(-2, 2), repeat=s):
            count = len(reached)
            try:
                graph_to_fan(WeightedCircularGraph(weights))
                ok = True
            except ValueError:
                ok = False
            if len(reached) > count:
                assert ok == foreign_ray_accepts(*reached[-1]), weights
            accepted += ok
    assert (len(reached), accepted) == (183, 117)
    # rays that wind twice around the origin: every facet lies in two cones on opposite
    # sides, so only the interior point of cone 0 finds the overlap
    with pytest.raises(ValueError, match="inconsistent weight sequence") as excinfo:
        graph_to_fan(WeightedCircularGraph((-1, 0, 2, 2, 1, 2)))
    assert "meets the interior of cone (0, 1)" in str(excinfo.value.__cause__)
    assert not foreign_ray_accepts(*reached[-1])


def test_overlap_check_matches_foreign_ray_reference_on_perturbed_projective_spaces():
    for n in range(1, 6):
        fan = projective_space(n)
        rays, cones = list(fan.rays), list(fan.max_cones)
        cases = [(rays, cones)]
        cases += [(rays, cones[:c] + cones[c + 1 :]) for c in range(len(cones))]
        cases += [(rays[:j] + [tuple(-x for x in rays[j])] + rays[j + 1 :], cones) for j in range(len(rays))]
        for w in walls(fan):
            # move each extra ray of a wall inside the cone across it, as the sum of that cone's rays
            for moved, host in ((w.extra2, w.sigma1), (w.extra1, w.sigma2)):
                inside = tuple(map(sum, zip(*fan.cone_rays(host))))
                cases.append((rays[:moved] + [inside] + rays[moved + 1 :], cones))
        verdicts = [make_fan_accepts(n, *case) for case in cases]
        assert verdicts == [foreign_ray_accepts(n, *case) for case in cases], n
        # every perturbation breaks the fan, so the agreement is not vacuous
        assert verdicts == [True] + [False] * (len(cases) - 1), n


def test_walls_are_built_once_per_fan(monkeypatch):
    # make_fan's walk lists the facets once and keeps the walls on the Fan; every later
    # reader reads that field, the very objects the walk built
    calls = []
    facet_cones = fan_module._facet_cones
    monkeypatch.setattr(fan_module, "_facet_cones", lambda *args: calls.append(args) or facet_cones(*args))
    fans = [graph_to_fan(hirzebruch(2)), projective_space(3), make_fan(2, CP2_RAYS, CP2_CONES)]
    assert len(calls) == len(fans)
    for fan in fans:
        assert augmented_matrix(fan).row_walls is fan.walls
        data = tangent_bundle(fan)
        assert len(data.restrictions) == len(fan.walls)
        assert all(r == splitting.restrict(data, w) for r, w in zip(data.restrictions, fan.walls))
        assert walls(fan) is fan.walls
    assert len(calls) == len(fans)


def test_walls_match_the_reference_on_every_small_fan(small_fans):
    assert len(small_fans) == 6506
    for fan in small_fans:
        assert fan.walls == _reference_walls(fan), fan


def test_product_fans(line_bundle_sum):
    # products of projective spaces and Hirzebruch surfaces: make_fan accepts them, their
    # walls are the reference's, the tangent route gives the closed form
    # T_X|C = O(2) + sum_t O(a_t), and every tangent type restricts back; the walk first
    # meets 6 walls of P^2 x P^2 and 8 of F_2 x F_1 from their higher cone
    p1, p2, p3 = (projective_space(n) for n in (1, 2, 3))
    f1, f2 = graph_to_fan(hirzebruch(1)), graph_to_fan(hirzebruch(2))
    p1_cubed = product_fan(product_fan(p1, p1), p1)
    p1_fourth = product_fan(p1_cubed, p1)
    fans = [p1_cubed, p1_fourth, product_fan(p2, p1), product_fan(p1, p2)]
    fans += [product_fan(p2, p2), product_fan(p3, p1), product_fan(f1, p1), product_fan(f2, f1)]
    round_trips = 0
    for fan in fans:
        assert fan.walls == _reference_walls(fan), fan
        system = splitting.splitting_system(tangent_bundle(fan))
        assert system.degrees == tuple(tuple(sorted((2, *w.relation), reverse=True)) for w in fan.walls), fan
        for strict in (False, True):
            types = find_splitting_types(augmented_matrix(fan), system, strict=strict)
            for t in types:
                want = tuple(tuple(sorted(row, reverse=True)) for row in t.rows)
                assert splitting.splitting_system(line_bundle_sum(fan, t.columns)).degrees == want, (fan, t)
            round_trips += len(types)
            if fan in (p1_cubed, p1_fourth) and not strict:
                # (P^1)^m: factor i holds rays 2i and 2i + 1, and T = sum_i pr_i^* O(2)
                product_type = [[2 * (j == 2 * i) for j in range(len(fan.rays))] for i in range(fan.dim)]
                key = sorted(canonical_class_rep(x, fan) for x in product_type)
                assert key in [sorted(t.canonical) for t in types], fan
    assert round_trips == 40


def test_star_subdivisions_of_p3_and_p4():
    # 40 seeded fans, 1-4 blowups of P^3 or P^4 along orbit closures of dimension >= 2 faces:
    # make_fan accepts them, and walls, reduction, the tangent closed form and both text
    # formats agree with their references; 31 fans' last rays span no cone, so their
    # reduction takes the inversion branch
    rng = random.Random(20261022)
    fans = []
    for n in (3, 4):
        for _ in range(20):
            fan = projective_space(n)
            for _ in range(rng.randint(1, 4)):
                cone = rng.choice(fan.max_cones)
                fan = star_subdivision(fan, sorted(rng.sample(cone, rng.randint(2, n))))
            fans.append(fan)
    inverted = 0
    for fan in fans:
        assert fan.walls == _reference_walls(fan), fan
        assert fan.reduction == _reference_reduction(fan), fan
        data = tangent_bundle(fan)
        system = splitting.splitting_system(data)
        assert system.degrees == tuple(tuple(sorted((2, *w.relation), reverse=True)) for w in fan.walls), fan
        assert parse_fan(format_fan(fan)) == fan
        assert parse_bundle(format_bundle(data), fan) == data
        inverted += tuple(range(len(fan.rays) - fan.dim, len(fan.rays))) not in fan.max_cones
    assert inverted == 31


def test_make_fan_inverts_each_cone_once(monkeypatch):
    # each cone's inverse is derived once: cone 0's by the one inversion per fan, every
    # other one by a flip across a wall; the dual bases are what every later consumer
    # reads, and none of them inverts again
    calls = {"unimodular_inverse": 0, "int_det": 0}

    def spy(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for module in (fan_module, bundle_data, splitting):
        monkeypatch.setattr(
            module, "unimodular_inverse", spy("unimodular_inverse", unimodular_inverse), raising=False
        )
    for module in (fan_module, exact_linear):
        monkeypatch.setattr(module, "int_det", spy("int_det", exact_linear.int_det), raising=False)
    cases = [
        (2, CP2_RAYS, CP2_CONES),
        (2, [(1, 0), (0, 1), (-1, -3), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], list(combinations(range(4), 3))),
    ]
    for n, rays, cones in cases:
        calls.update(unimodular_inverse=0, int_det=0)
        fan = make_fan(n, rays, cones)
        assert calls == {"unimodular_inverse": 1, "int_det": 0}
        calls.update(unimodular_inverse=0)
        walls.cache_clear()
        ws = walls(fan)
        data = tangent_bundle(fan)
        splitting.splitting_system(data)
        for wall in ws:
            splitting.restrict(data, wall, v_chart=fan.rays[wall.extra1])
        parse_bundle(format_bundle(data), fan)
        assert calls == {"unimodular_inverse": 0, "int_det": 0}


def _reference_reduction(fan):
    # the reference: the support's rays inverted afresh, whether or not they form a cone
    j, n = len(fan.rays), fan.dim
    for support in [tuple(range(j - n, j)), *combinations(range(j), n)]:
        try:
            columns = tuple(zip(*unimodular_inverse([fan.rays[k] for k in support])))
        except ValueError:
            continue
        return support, tuple(
            tuple((s, c) for s, col in zip(support, columns) if (c := dot(ray, col))) for ray in fan.rays
        )


def test_reduction_reads_the_stored_dual_basis(monkeypatch):
    # when the last rays form a maximal cone, as on every projective space and surface,
    # the reduction reads that cone's stored dual basis; otherwise it inverts
    calls = []
    monkeypatch.setattr(
        fan_module, "unimodular_inverse", lambda rows: calls.append(rows) or unimodular_inverse(rows)
    )
    fans = [projective_space(n) for n in range(1, 5)]
    fans += [graph_to_fan(g) for k in range(4) for g in enumerate_blowups(k)]
    for fan in fans:
        calls.clear()
        assert tuple(range(len(fan.rays) - fan.dim, len(fan.rays))) in fan.max_cones
        assert fan.reduction == _reference_reduction(fan) and calls == [], fan
    # F_1 whose last two rays are a lattice basis but span no cone
    f1 = make_fan(2, [(0, 1), (0, -1), (1, 0), (-1, 1)], [(0, 2), (0, 3), (1, 3), (1, 2)])
    calls.clear()
    assert f1.reduction == _reference_reduction(f1)
    assert f1.reduction[0] == (2, 3) and calls == [[(1, 0), (-1, 1)]]


def test_flipped_dual_bases_match_inverses(small_fans):
    # the wall flips reach the inverse of every cone's ray matrix, on every surface
    # with k <= 9 blowups and on projective spaces up to dimension 5
    assert len(small_fans) == 5 + 6501
    for fan in small_fans:
        for ci in range(len(fan.max_cones)):
            assert fan.duals[ci] == unimodular_inverse(list(zip(*fan.cone_rays(ci)))), (fan, ci)


def test_walls_cache_keeps_no_earlier_fan():
    f1, f2 = projective_space(2), projective_space(3)
    ref = weakref.ref(f1)
    walls(f1)
    walls(f2)
    del f1
    gc.collect()
    assert ref() is None


def test_walls_cp2():
    fan = make_fan(2, CP2_RAYS, CP2_CONES)
    ws = walls(fan)
    assert [w.tau for w in ws] == [(0,), (1,), (2,)]
    for w in ws:
        assert w.relation == (1,)
        v = [
            a + b + w.relation[0] * c
            for a, b, c in zip(fan.rays[w.extra1], fan.rays[w.extra2], fan.rays[w.tau[0]])
        ]
        assert v == [0, 0]


def test_walls_hirzebruch_coefficients():
    a = 3
    fan = fa_fan(a)
    coeff = {w.tau[0]: w.relation[0] for w in walls(fan)}
    # circular order of rays 0..3 carries self-intersections 0, a, 0, -a
    assert coeff == {0: 0, 1: a, 2: 0, 3: -a}


def test_walls_cp3():
    fan = projective_space(3)
    ws = walls(fan)
    assert len(ws) == 6
    assert all(w.relation == (1, 1) for w in ws)


def test_wall_relation_property_cp4():
    fans = [projective_space(n) for n in range(1, 6)]
    fans += [graph_to_fan(g) for k in range(5) for g in enumerate_blowups(k)]
    for fan in fans:
        for w in walls(fan):
            assert len(w.relation) == len(w.tau) == fan.dim - 1
            total = [a + b for a, b in zip(fan.rays[w.extra1], fan.rays[w.extra2])]
            for coeff, t in zip(w.relation, w.tau):
                total = [x + coeff * y for x, y in zip(total, fan.rays[t])]
            assert not any(total), (fan, w)


def test_make_fan_rejects_cones_on_one_side_of_a_wall():
    # (1,1) lies inside the cone {(1,0),(0,1)}: make_fan names the wall whose two cones
    # are not on opposite sides
    with pytest.raises(ValueError, match=r"wall relation for tau \(0,\)"):
        make_fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (0, 2)))


def test_make_fan_checks_sides_after_the_walk():
    # the cones in this order make the walk meet the one-sided wall of ray 2 from its
    # higher cone (2, 3); the message still names the lower cone's extra ray first
    message = "overlapping cones: wall relation for tau (2,): rays 3, 1 lie on one side"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_fan(2, [(1, 0), (0, 1), (-1, -1), (-2, -1)], [(0, 1), (3, 0), (2, 3), (1, 2)])
    # rays 1 and 3 lie on one side of ray 2, and cone (3, 4) has determinant 3; the walk
    # meets the wall of ray 2 before it flips into (3, 4), yet the flip's error comes first
    with pytest.raises(ValueError, match=r"^non-unimodular cone \(3, 4\)$"):
        make_fan(2, [(1, 0), (0, 1), (-1, -1), (-2, -1), (1, -1)], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def test_dual_basis():
    fan = make_fan(2, CP2_RAYS, CP2_CONES)
    assert dual_basis(fan, 0) == ((1, 0), (0, 1))
    # cone {1,2} holds rays (0,1) and (-1,-1)
    assert dual_basis(fan, 1) == ((-1, 1), (-1, 0))
    for ci in range(3):
        basis = dual_basis(fan, ci)
        rays = fan.cone_rays(ci)
        pairing = [[sum(a * b for a, b in zip(e, v)) for v in rays] for e in basis]
        assert pairing == [[1, 0], [0, 1]]


def test_dual_basis_dim1():
    fan = make_fan(1, [(1,), (-1,)], [(0,), (1,)])
    assert dual_basis(fan, 0) == ((1,),)
    assert len(walls(fan)) == 1


def test_parse_and_format_roundtrip():
    text = """# sample
dim 2
ray 1 0
ray 0 1   # second ray
ray -1 -1
cone 1 2
cone 2 3
cone 3 1
"""
    fan = parse_fan(text)
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))
    assert parse_fan(format_fan(fan)) == fan


def test_parse_rejects_malformed():
    with pytest.raises(ValueError, match="line 1"):
        parse_fan("ray 1 0\n")
    with pytest.raises(ValueError, match="unknown keyword"):
        parse_fan("dim 2\nvertex 1 0\n")
    with pytest.raises(ValueError, match="non-integer"):
        parse_fan("dim 2\nray 1 x\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_fan("dim 2\nray 1 0\nray 0 1\nray -1 -1\ncone 1 4\n")
    with pytest.raises(ValueError, match="precede"):
        parse_fan("dim 2\nray 1 0\nray 0 1\nray -1 -1\ncone 1 2\nray 0 -1\n")
    with pytest.raises(ValueError, match="needs 2"):
        parse_fan("dim 2\nray 1 0 0\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("dim {}\nray 1\nray -1\ncone 1\ncone 2\n", 1),
        ("dim 1\nray {}\nray -1\ncone 1\ncone 2\n", 2),
        ("dim 1\nray 1\nray -1\ncone {}\ncone 2\n", 4),
    ],
    ids=["dim", "ray", "cone"],
)
def test_parse_fan_reads_ascii_integers_only(int_lookalike, text, lineno):
    assert parse_fan(text.format("1")) == projective_space(1)
    with pytest.raises(ValueError, match=f"^line {lineno}: non-integer token"):
        parse_fan(text.format(int_lookalike))


def test_projective_space_cp2_matches_literal():
    literal = direct_fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))
    assert projective_space(2) == literal
    # the dual bases are derived data: equality and hashing read dim, rays and cones
    bare = replace(literal, duals=())
    assert bare == literal and hash(bare) == hash(literal)
