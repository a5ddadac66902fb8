import gc
import weakref
from dataclasses import replace
from itertools import combinations

import pytest

import toricsplit.bundle_data as bundle_data
import toricsplit.exact_linear as exact_linear
import toricsplit.fan as fan_module
import toricsplit.splitting as splitting
from toricsplit.bundle_data import format_bundle, parse_bundle, tangent_bundle
from toricsplit.exact_linear import unimodular_inverse
from toricsplit.fan import (
    Fan,
    dual_basis,
    format_fan,
    make_fan,
    parse_fan,
    projective_space,
    walls,
)
from toricsplit.surface_graph import enumerate_blowups, graph_to_fan

CP2_RAYS = [(1, 0), (0, 1), (-1, -1)]
CP2_CONES = [(0, 1), (1, 2), (2, 0)]


def direct_fan(dim, rays, cones):
    """A Fan built without make_fan's checks, its dual bases inverted here."""
    duals = tuple(unimodular_inverse(list(zip(*(rays[i] for i in cone)))) for cone in cones)
    return Fan(dim, rays, cones, duals)


def fa_fan(a):
    return make_fan(2, [(1, 0), (0, 1), (-1, -a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])


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


def test_make_fan_inverts_each_cone_once(monkeypatch):
    # the inverse is the smoothness test, is reused by the overlap check, and
    # is the dual basis every later consumer reads: none of them inverts again
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
        assert calls == {"unimodular_inverse": len(cones), "int_det": 0}
        calls.update(unimodular_inverse=0)
        walls.cache_clear()
        ws = walls(fan)
        data = tangent_bundle(fan)
        splitting.splitting_system(data)
        for wall in ws:
            splitting.restrict(data, wall, v_chart=fan.rays[wall.extra1])
        parse_bundle(format_bundle(data), fan)
        assert calls == {"unimodular_inverse": 0, "int_det": 0}


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


def test_projective_space_cp2_matches_literal():
    literal = direct_fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))
    assert projective_space(2) == literal
    # the dual bases are derived data: equality and hashing read dim, rays and cones
    bare = replace(literal, duals=())
    assert bare == literal and hash(bare) == hash(literal)
