import gc
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
    dual_basis,
    format_fan,
    make_fan,
    parse_fan,
    projective_space,
    walls,
)
from toricsplit.intersection import augmented_matrix
from toricsplit.surface_graph import WeightedCircularGraph, enumerate_blowups, graph_to_fan, hirzebruch

CP2_RAYS = [(1, 0), (0, 1), (-1, -1)]
CP2_CONES = [(0, 1), (1, 2), (2, 0)]


def direct_fan(dim, rays, cones):
    """A Fan built without make_fan's checks, its dual bases inverted here."""
    duals = tuple(unimodular_inverse(list(zip(*(rays[i] for i in cone)))) for cone in cones)
    return Fan(dim, rays, cones, duals)


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


def test_walls_are_built_once_per_fan():
    # make_fan builds the walls while it validates; every later consumer reads the cache
    walls.cache_clear()
    fan = graph_to_fan(hirzebruch(2))
    assert walls.cache_info().misses == 1
    augmented_matrix(fan)
    splitting.splitting_system(tangent_bundle(fan))
    info = walls.cache_info()
    assert info.misses == 1 and info.hits >= 2


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


def test_flipped_dual_bases_match_inverses():
    # the wall flips reach the inverse of every cone's ray matrix, on every surface
    # with k <= 9 blowups and on projective spaces up to dimension 5
    fans = [projective_space(n) for n in range(1, 6)]
    fans += [graph_to_fan(g) for k in range(10) for g in enumerate_blowups(k)]
    assert len(fans) == 5 + 6501
    for fan in fans:
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


def test_walls_rejects_cones_on_one_side_of_a_wall():
    # (1,1) lies inside the cone {(1,0),(0,1)}: make_fan refuses this data,
    # and walls names the wall whose two cones are not on opposite sides
    fan = direct_fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError, match=r"wall relation for tau \(0,\)"):
        walls(fan)


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
