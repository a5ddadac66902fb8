"""Every bad input below fails with its own named, one-line error, matched exactly."""

import re
from dataclasses import replace

import pytest

from fractions import Fraction

from toricsplit.bundle_data import (
    assemble_bundle,
    cp2_rank2,
    euler_monomial_spec,
    euler_splitting_system,
    format_bundle,
    make_euler_spec,
    parse_bundle,
    parse_euler,
    tangent_bundle,
    validate,
)
from toricsplit.exact_linear import IntMatrix
from toricsplit.fan import format_fan, make_fan, parse_fan, projective_space
from toricsplit.intersection import apply_q, augmented_matrix, sign_of_class
from toricsplit.solver import canonical_class_rep, find_splitting_types
from toricsplit.splitting import (
    _TRUNCATION_CAP,
    SplittingSystem,
    bootstrap,
    h0_oracle,
    restrict,
    splitting_system,
    transition_from_block,
    twist_system,
)
from toricsplit.surface_graph import WeightedCircularGraph, blowup, cp2, enumerate_blowups, hirzebruch

P1 = projective_space(1)
P2 = projective_space(2)
P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
P2_FAN = format_fan(P2)  # dim 2, three rays, cones 1 2 / 1 3 / 2 3
P1_BUNDLE = format_bundle(tangent_bundle(P1))  # rank 1, weights 1: (1), weights 2: (-1), two pastings


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def _p2_tangent_pastings():
    data = tangent_bundle(P2)
    return data, {**{(0, c): data.to_base[c] for c in (1, 2)}, **{(c, 0): data.from_base[c] for c in (1, 2)}}


def _p2_tangent_with_weight(chi):
    # P2's tangent data with cone 0's first weight replaced by ``chi``
    data, pastings = _p2_tangent_pastings()
    weights = [list(ws) for ws in data.weight_systems]
    weights[0][0] = chi
    return assemble_bundle(P2, weights, pastings)


def _p2_tangent_weights_ranked(cone):
    # P2's tangent weight systems with one weight dropped from ``cone``'s
    weights = [list(ws) for ws in tangent_bundle(P2).weight_systems]
    del weights[cone][-1]
    return weights


def _p2_tangent_with_pasting(entry):
    # P2's tangent data with every entry x of pasting (0,1) replaced by ``entry(x)``
    data, pastings = _p2_tangent_pastings()
    pastings[(0, 1)] = [[entry(x) for x in row] for row in pastings[(0, 1)]]
    return assemble_bundle(P2, data.weight_systems, pastings)


P2_TAUS = tuple(w.tau for w in augmented_matrix(P2).row_walls)
WIDE = _TRUNCATION_CAP + 1  # an exponent window just over the oracle's cap


def _search(row, first=None):
    # the search on P2 with ``row`` on every wall, or ``first`` on the first wall
    rows = ((first or row),) + (row,) * (len(P2_TAUS) - 1)
    return find_splitting_types(augmented_matrix(P2), SplittingSystem(P2_TAUS, rows))


CASES = {
    # make_fan and projective_space
    "fan-dim-0": (lambda: make_fan(0, [], []), "fan dimension must be at least 1"),
    "fan-ray-length": (
        lambda: make_fan(2, [(1, 0), (0, 1, 0), (-1, -1)], [(0, 1), (0, 2), (1, 2)]),
        "ray (0, 1, 0) does not have 2 coordinates",
    ),
    "fan-repeated-ray": (
        lambda: make_fan(2, P2_RAYS, [(0, 0), (0, 2), (1, 2)]),
        "maximal cone (0, 0) must consist of 2 distinct rays",
    ),
    "fan-ray-index": (
        lambda: make_fan(2, P2_RAYS, [(0, 1), (0, 3), (1, 2)]),
        "cone (0, 3) references a ray that does not exist",
    ),
    "fan-duplicate-cones": (
        lambda: make_fan(2, P2_RAYS, [(0, 1), (1, 0), (0, 2), (1, 2)]),
        "duplicate maximal cones",
    ),
    "fan-ray-non-integer": (
        lambda: make_fan(2, [(1.9, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)]),
        "ray (1.9, 0) has a non-integer coordinate",
    ),
    "fan-cone-non-integer": (
        lambda: make_fan(2, P2_RAYS, [(0.7, 1), (0, 2), (1, 2)]),
        "cone (0.7, 1) has a non-integer ray index",
    ),
    "fan-dim-float": (lambda: make_fan(2.0, P2_RAYS, [(0, 1), (0, 2), (1, 2)]), "fan dimension 2.0 is not an integer"),
    "projective-space-0": (lambda: projective_space(0), "projective space needs dimension at least 1"),
    "projective-space-float": (lambda: projective_space(2.0), "projective space dimension 2.0 is not an integer"),
    # surface_graph
    "blowup-position-float": (lambda: blowup(cp2(), 1.5), "blowup position 1.5 is not an integer"),
    "blowup-count-float": (lambda: enumerate_blowups(1.5), "blowup count 1.5 is not an integer"),
    "graph-list-weights": (lambda: WeightedCircularGraph([1, 1, 1]), "graph weights [1, 1, 1] are not a tuple"),
    "hirzebruch-str": (lambda: hirzebruch("2"), "hirzebruch parameter '2' is not an integer"),
    "hirzebruch-float": (lambda: hirzebruch(1.5), "hirzebruch parameter 1.5 is not an integer"),
    "graph-two-vertices": (
        lambda: WeightedCircularGraph((0, 0)),
        "a weighted circular graph needs at least 3 vertices",
    ),
    "blowup-count-negative": (lambda: enumerate_blowups(-1), "blowup count must be nonnegative"),
    # assemble_bundle and make_euler_spec
    "bundle-weight-fraction": (
        lambda: _p2_tangent_with_weight((Fraction(3, 2), 0)),
        "weight (Fraction(3, 2), 0) is not 2 integers",
    ),
    "bundle-weight-long": (lambda: _p2_tangent_with_weight((1, 0, 5)), "weight (1, 0, 5) is not 2 integers"),
    "bundle-weight-short": (lambda: _p2_tangent_with_weight((1,)), "weight (1,) is not 2 integers"),
    "bundle-pasting-float": (
        lambda: _p2_tangent_with_pasting(float),
        "pasting (0,1) entry -1.0 is not an int or a Fraction",
    ),
    "bundle-pasting-half": (
        lambda: _p2_tangent_with_pasting(lambda x: 0.5),
        "pasting (0,1) entry 0.5 is not an int or a Fraction",
    ),
    "bundle-pasting-str": (
        lambda: _p2_tangent_with_pasting(str),
        "pasting (0,1) entry '-1' is not an int or a Fraction",
    ),
    "bundle-weight-system-count": (
        lambda: assemble_bundle(P2, tangent_bundle(P2).weight_systems[:2], _p2_tangent_pastings()[1]),
        "one weight system per maximal cone required",
    ),
    # parse_bundle refuses "pasting i i", so only a library caller can give (0, 0)
    "bundle-pasting-0-0": (
        lambda: assemble_bundle(
            P2, tangent_bundle(P2).weight_systems, {**_p2_tangent_pastings()[1], (0, 0): ((5, 0), (0, 5))}
        ),
        "cocycle fails for cones (0,0,0)",
    ),
    # assemble_bundle and validate accept rank 0, but parse_bundle would refuse its text
    "format-bundle-rank-0": (
        lambda: format_bundle(
            assemble_bundle(P2, [[], [], []], {(a, b): [] for a in range(3) for b in range(3) if a != b})
        ),
        "rank-0 bundle data has no text form: parse_bundle needs a positive rank",
    ),
    "cp2-rank2-str": (lambda: cp2_rank2("a", 1, 1), "cp2_rank2 parameter 'a' is not an integer"),
    "bundle-weight-system-rank": (
        lambda: assemble_bundle(P2, _p2_tangent_weights_ranked(1), _p2_tangent_pastings()[1]),
        "all weight systems must have the same rank",
    ),
    "euler-exponent-length": (
        lambda: make_euler_spec(P2, [(1, 0, 0), (0, 1, 0)], [(1, 0), (0, 1, 0)]),
        "exponent vector (1, 0) needs 3 entries",
    ),
    "euler-multiplicity-str": (
        lambda: euler_monomial_spec(P2, ("a", 1, 1)),
        "multiplicities ('a', 1, 1) have a non-integer entry",
    ),
    "euler-multiplicity-negative": (
        lambda: euler_monomial_spec(P2, [1, -1, 1]),
        "multiplicities must be nonnegative",
    ),
    "euler-foreign-matrix": (
        lambda: euler_splitting_system(euler_monomial_spec(P2, [1, 1, 1]), augmented_matrix(projective_space(3))),
        "intersection matrix belongs to a different fan",
    ),
    "euler-exponent-non-integer": (
        lambda: make_euler_spec(P2, [(1, 0, 0), (0, 1, 0)], [(1.5, 0, 0), (0, 1, 0)]),
        "exponent vector (1.5, 0, 0) has a non-integer entry",
    ),
    "euler-divisor-non-integer": (
        lambda: make_euler_spec(P2, [(1, 0, 0), (0, Fraction(1), 0)], [(1, 0, 0), (0, 1, 0)]),
        "divisor (0, Fraction(1, 1), 0) has a non-integer coefficient",
    ),
    # parse_fan
    "fan-duplicate-dim": (lambda: parse_fan(_edit(P2_FAN, "ray", "dim 2\nray")), "line 2: duplicate dim line"),
    "fan-dim-not-first": (lambda: parse_fan("ray 1 0\n" + P2_FAN), "line 1: ray before dim"),
    "fan-dim-value": (lambda: parse_fan(_edit(P2_FAN, "dim 2", "dim 0")), "line 1: dim takes one positive integer"),
    "fan-dim-arity": (lambda: parse_fan(_edit(P2_FAN, "dim 2", "dim 2 2")), "line 1: dim takes one positive integer"),
    "fan-cone-before-dim": (lambda: parse_fan("cone 1 2\n" + P2_FAN), "line 1: cone before dim"),
    "fan-cone-arity": (lambda: parse_fan(_edit(P2_FAN, "cone 1 2", "cone 1 2 3")), "line 5: cone needs 2 ray indices"),
    "fan-missing-dim": (lambda: parse_fan("# no content\n"), "missing dim line"),
    "fan-missing-cones": (lambda: parse_fan("dim 2\nray 1 0\n"), "missing cone lines"),
    # parse_bundle
    "bundle-duplicate-rank": (
        lambda: parse_bundle(_edit(P1_BUNDLE, "weights 1", "rank 1\nweights 1"), P1),
        "line 2: duplicate rank line",
    ),
    "bundle-duplicate-weights": (
        lambda: parse_bundle(_edit(P1_BUNDLE, "weights 2: (-1)", "weights 1: (1)"), P1),
        "line 3: duplicate weights for cone 1",
    ),
    "bundle-unparenthesized": (
        lambda: parse_bundle(_edit(P1_BUNDLE, "(1)", "1"), P1),
        "line 2: weights must be parenthesized",
    ),
    "bundle-weight-length": (
        lambda: parse_bundle(_edit(P1_BUNDLE, "(1)", "(1 0)"), P1),
        "line 2: weight needs 1 coordinates",
    ),
    "bundle-weight-count": (
        lambda: parse_bundle(_edit(P1_BUNDLE, "(1)", "(1);(1)"), P1),
        "line 2: expected 1 weights",
    ),
    "bundle-pasting-before-rank": (
        lambda: parse_bundle("pasting 1 2: 1\n" + P1_BUNDLE, P1),
        "line 1: pasting before rank",
    ),
    "bundle-duplicate-pasting": (
        lambda: parse_bundle(_edit(P1_BUNDLE, "pasting 2 1", "pasting 1 2"), P1),
        "line 5: duplicate pasting 1 2",
    ),
    "bundle-entry-count": (
        lambda: parse_bundle(_edit(P1_BUNDLE, "pasting 1 2: -1", "pasting 1 2: -1 0"), P1),
        "line 4: expected 1 entries",
    ),
    "bundle-missing-rank": (lambda: parse_bundle("# no content\n", P1), "missing rank line"),
    # parse_euler
    "euler-missing-header": (lambda: parse_euler("# no content\n", P2), "missing 'euler' header"),
    # the search and its input
    "search-mixed-lengths": (lambda: _search((1,), first=(1, 0)), "wall tuples have mixed lengths"),
    "system-float-degrees": (lambda: _search((2.0, 1.0)), "degree row (2.0, 1.0) is not a tuple of integers"),
    "system-fraction-degrees": (
        lambda: _search((Fraction(3, 2), 0)),
        "degree row (Fraction(3, 2), 0) is not a tuple of integers",
    ),
    "system-list-row": (lambda: _search([2, 1]), "degree row [2, 1] is not a tuple of integers"),
    "search-strict-str": (
        lambda: find_splitting_types(augmented_matrix(P2), splitting_system(tangent_bundle(P2)), strict="no"),
        "strict 'no' is not a bool",
    ),
    "search-strict-none": (
        lambda: find_splitting_types(augmented_matrix(P2), splitting_system(tangent_bundle(P2)), strict=None),
        "strict None is not a bool",
    ),
    "search-stats-list": (
        lambda: find_splitting_types(augmented_matrix(P2), splitting_system(tangent_bundle(P2)), stats=[]),
        "stats [] is not a dict",
    ),
    "twist-non-integer-class": (
        lambda: twist_system(splitting_system(tangent_bundle(P2)), augmented_matrix(P2), (0.5, 0, 0)),
        "class (0.5, 0, 0) has a non-integer coordinate",
    ),
    "sign-of-non-integer-class": (
        lambda: sign_of_class(augmented_matrix(P2), [1.5, 0, 0]),
        "class (1.5, 0, 0) has a non-integer coordinate",
    ),
    "reduce-non-integer-class": (
        lambda: canonical_class_rep([0.5, 0, 0], P2),
        "class (0.5, 0, 0) has a non-integer coordinate",
    ),
    # the rational readers of splitting, through exact_linear.clear_denominators
    "bootstrap-float-pasting": (
        lambda: bootstrap([1, 0], [0, 0], [[1.5, 0], [0, 1]]),
        "entry 1.5 is not an int or a Fraction",
    ),
    "h0-oracle-float-coefficient": (lambda: h0_oracle([[(1.5, 0)]]), "entry 1.5 is not an int or a Fraction"),
    "h0-oracle-separable-window": (
        lambda: h0_oracle([[(1, 0), (0, 0)], [(0, 0), (1, WIDE)]]),
        f"transition exponent window {WIDE} exceeds the hard cap {_TRUNCATION_CAP}",
    ),
    # unipotent, so its pole depth is 0; exponents u_i + t_j fit every entry but (1, 2)
    "h0-oracle-non-separable-window": (
        lambda: h0_oracle([[(1, 0), (1, WIDE), (1, 0)], [(0, 0), (1, 0), (1, 0)], [(0, 0), (0, 0), (1, 0)]]),
        f"transition exponent window {WIDE} exceeds the hard cap {_TRUNCATION_CAP}",
    ),
    "transition-float-pasting": (
        lambda: transition_from_block([1], [0], [[0.5]]),
        "entry 0.5 is not an int or a Fraction",
    ),
    "transition-short-weights": (
        lambda: transition_from_block((1,), (0, 1), [[1, 0], [0, 1]]),
        "block shape mismatch",
    ),
    # the weight 5 fits no row of the pasting
    "transition-long-weights": (
        lambda: transition_from_block((1, 0, 5), (0, 1), [[1, 0], [0, 1]]),
        "block shape mismatch",
    ),
    "system-list-taus": (lambda: SplittingSystem(list(P2_TAUS), ((2, 1),) * 3), "taus are not a tuple of tuples"),
    "system-list-tau": (
        lambda: SplittingSystem(tuple(map(list, P2_TAUS)), ((2, 1),) * 3),
        "taus are not a tuple of tuples",
    ),
    "system-list-degrees": (lambda: SplittingSystem(P2_TAUS, [(2, 1)] * 3), "degrees are not a tuple"),
    "system-tuple-per-wall": (
        lambda: SplittingSystem(((0,), (1,)), ((1, 0),)),
        "one degree tuple per wall required",
    ),
    # IntMatrix, the checked input of hnf, SolvePlan and solve_integral
    "intmatrix-negative-dimension": (lambda: IntMatrix(-1, 0, ()), "negative dimension"),
    "intmatrix-row-count": (lambda: IntMatrix(2, 1, ((1,),)), "row count does not match entries"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_its_named_error(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


BOOL_CASES = {
    # a bool is an int to isinstance, but it is written back as True or False
    "make_fan-dim": (lambda: make_fan(True, [(1,), (-1,)], [(0,), (1,)]), "fan dimension True is not an integer"),
    "projective_space": (lambda: projective_space(True), "projective space dimension True is not an integer"),
    "make_fan-ray": (
        lambda: make_fan(1, [(True,), (-1,)], [(0,), (1,)]),
        "ray (True,) has a non-integer coordinate",
    ),
    "make_fan-cone": (
        lambda: make_fan(2, P2_RAYS, [(False, True), (0, 2), (1, 2)]),
        "cone (False, True) has a non-integer ray index",
    ),
    "assemble_bundle": (lambda: _p2_tangent_with_weight((True, 0)), "weight (True, 0) is not 2 integers"),
    "assemble_bundle-pasting": (
        lambda: _p2_tangent_with_pasting(lambda x: True),
        "pasting (0,1) entry True is not an int or a Fraction",
    ),
    "make_euler_spec-divisor": (
        lambda: make_euler_spec(P2, [(1, 0, 0), (0, True, 0)], [(1, 0, 0), (0, 1, 0)]),
        "divisor (0, True, 0) has a non-integer coefficient",
    ),
    "make_euler_spec-exponent": (
        lambda: make_euler_spec(P2, [(1, 0, 0), (0, 1, 0)], [(True, 0, 0), (0, 1, 0)]),
        "exponent vector (True, 0, 0) has a non-integer entry",
    ),
    "euler_monomial_spec": (
        lambda: euler_monomial_spec(P2, (True, 1, 1)),
        "multiplicities (True, 1, 1) have a non-integer entry",
    ),
    "SplittingSystem": (
        lambda: SplittingSystem(((0,),), ((True, False),)),
        "degree row (True, False) is not a tuple of integers",
    ),
    "bootstrap": (lambda: bootstrap((True, 0), (0, 1), [[1, 0], [0, 1]]), "chart weights must be integers"),
    "bootstrap-pasting": (
        lambda: bootstrap((1, 0), (0, 1), [[True, 0], [0, 1]]),
        "entry True is not an int or a Fraction",
    ),
    "twist_system": (
        lambda: twist_system(splitting_system(tangent_bundle(P2)), augmented_matrix(P2), (True, 0, 0)),
        "class (True, 0, 0) has a non-integer coordinate",
    ),
    "apply_q": (lambda: apply_q(augmented_matrix(P2), (0, False, 0)), "class (0, False, 0) has a non-integer coordinate"),
    "canonical_class_rep": (
        lambda: canonical_class_rep((1, 0, True), P2),
        "class (1, 0, True) has a non-integer coordinate",
    ),
    "restrict-v_chart": (
        lambda: restrict(tangent_bundle(P2), augmented_matrix(P2).row_walls[0], v_chart=(False, True)),
        "v_chart (False, True) is not 2 integers",
    ),
    "h0_oracle": (lambda: h0_oracle([[(1, True)]]), "transition exponents must be integers"),
    "WeightedCircularGraph": (lambda: WeightedCircularGraph((True, 1, 1)), "non-integer weight True"),
    "blowup": (lambda: blowup(cp2(), True), "blowup position True is not an integer"),
    "hirzebruch": (lambda: hirzebruch(True), "hirzebruch parameter True is not an integer"),
    "cp2_rank2": (lambda: cp2_rank2(True, 1, 1), "cp2_rank2 parameter True is not an integer"),
    # after k = 1 is cached, True must not be read as 1
    "enumerate_blowups": (
        lambda: enumerate_blowups(1) and enumerate_blowups(True),
        "blowup count True is not an integer",
    ),
}


@pytest.mark.parametrize("case", list(BOOL_CASES))
def test_bool_is_not_an_integer(case):
    call, message = BOOL_CASES[case]
    with pytest.raises((ValueError, TypeError), match=f"^{re.escape(message)}$"):
        call()


def _weight_length(data):
    systems = list(data.weight_systems)
    systems[1] = (systems[1][0], systems[1][1] + (0,))
    return replace(data, weight_systems=tuple(systems))


def _short_cone_0(data):
    return replace(data, weight_systems=(data.weight_systems[0][:1], *data.weight_systems[1:]))


def _pasting_shape(data):
    from_base = list(data.from_base)
    from_base[1] = ((1,),)
    return replace(data, from_base=tuple(from_base))


def _weight_entry(entry):
    # cone 1's first stored weight with every coordinate x replaced by ``entry(x)``
    def damage(data):
        systems = list(data.weight_systems)
        systems[1] = (tuple(map(entry, systems[1][0])), systems[1][1])
        return replace(data, weight_systems=tuple(systems))

    return damage


def _pasting_entry(field, entry):
    # cone 1's stored pasting ``field`` with every entry x replaced by ``entry(x)``
    def damage(data):
        stored = list(getattr(data, field))
        stored[1] = tuple(tuple(map(entry, row)) for row in stored[1])
        return replace(data, **{field: tuple(stored)})

    return damage


VALIDATE_CASES = {
    "count": (lambda d: replace(d, to_base=d.to_base[:-1]), "weight system or pasting count does not match the fan"),
    # cone 0's one weight would set the rank; unequal lengths are named alone
    "weight-count": (_short_cone_0, "all weight systems must have the same rank"),
    "weight-shape": (_weight_length, "weight (1, -1, 0) is not 2 integers"),
    "pasting-shape": (_pasting_shape, "pasting (1,0) is not 2x2"),
    "frame-shape": (
        lambda d: replace(d, to_base=(((1,),), *d.to_base[1:]), from_base=(((1,),), *d.from_base[1:])),
        "pasting (0,0) is not 2x2",
    ),
    "weight-float": (_weight_entry(float), "weight (0.0, -1.0) is not 2 integers"),
    "weight-bool": (_weight_entry(bool), "weight (False, True) is not 2 integers"),
    "weight-fraction": (_weight_entry(Fraction), "weight (Fraction(0, 1), Fraction(-1, 1)) is not 2 integers"),
    "pasting-float": (_pasting_entry("from_base", float), "pasting (1,0) entry -1.0 is not an int or a Fraction"),
    "pasting-bool": (_pasting_entry("to_base", bool), "pasting (0,1) entry True is not an int or a Fraction"),
    "pasting-str": (_pasting_entry("to_base", str), "pasting (0,1) entry '-1' is not an int or a Fraction"),
}


@pytest.mark.parametrize("case", list(VALIDATE_CASES))
def test_validate_names_each_shape_fault(case):
    damage, message = VALIDATE_CASES[case]
    data = tangent_bundle(P2)
    assert validate(data) == []
    assert validate(damage(data)) == [message]
