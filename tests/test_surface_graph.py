import random

import pytest

from toricsplit.fan import walls
from toricsplit.surface_graph import (
    WeightedCircularGraph,
    blowup,
    canonical_form,
    cp2,
    enumerate_blowups,
    graph_to_fan,
    hirzebruch,
)


def wcg(*weights):
    return WeightedCircularGraph(tuple(weights))


def circular_weights(fan):
    """Read the weight sequence back off a surface fan by walking adjacent rays."""
    coeff = {w.tau[0]: w.relation[0] for w in walls(fan)}
    adj = {}
    for cone in fan.max_cones:
        i, j = cone
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    order = [0, adj[0][0]]
    while len(order) < len(fan.rays):
        nxt = [j for j in adj[order[-1]] if j != order[-2]]
        order.append(nxt[0])
    return tuple(coeff[j] for j in order)


def test_cp2():
    g = cp2()
    assert g.weights == (1, 1, 1)
    assert sum(g.weights) == 12 - 3 * g.s


def test_hirzebruch():
    assert hirzebruch(0).weights == (0, 0, 0, 0)
    assert hirzebruch(2).weights == (0, 2, 0, -2)
    assert sum(hirzebruch(5).weights) == 12 - 3 * 4
    with pytest.raises(ValueError):
        hirzebruch(-1)


def test_blowup_positions():
    assert blowup(wcg(1, 1, 1), 1).weights == (0, -1, 0, 1)
    assert blowup(wcg(0, 0, 0, 0), 1).weights == (-1, -1, -1, 0, 0)
    # wrap-around position touches both ends
    assert blowup(wcg(1, 2, 3), 3).weights == (0, 2, 2, -1)
    with pytest.raises(ValueError):
        blowup(wcg(1, 1, 1), 4)


def test_blowup_sum_drop():
    g = wcg(0, 2, 0, -2)
    for i in range(1, 5):
        assert sum(blowup(g, i).weights) == sum(g.weights) - 3


def test_cp2_blown_once_is_f1():
    assert canonical_form(blowup(cp2(), 1)) == canonical_form(hirzebruch(1))


def test_three_corner_blowups_give_del_pezzo_six():
    g = blowup(cp2(), 1)
    g = blowup(g, 3)
    g = blowup(g, 5)
    assert g.weights == (-1, -1, -1, -1, -1, -1)


def test_canonical_form():
    assert canonical_form(wcg(0, 1, 0, -1)) == canonical_form(wcg(0, -1, 0, 1))
    assert canonical_form(wcg(1, 1, 1)).weights == (1, 1, 1)
    assert canonical_form(canonical_form(wcg(3, -1, 2))) == canonical_form(wcg(3, -1, 2))
    w = (-1, -2, -1, -2, -1, -2, -1, -2)
    for r in (1, 2):
        assert canonical_form(wcg(*w[r:], *w[:r])) == canonical_form(wcg(*w))


def test_enumerate_blowups_small():
    assert enumerate_blowups(0) == frozenset({wcg(1, 1, 1)})
    assert len(enumerate_blowups(1)) == 1
    assert canonical_form(wcg(-1, -1, -1, -1, -1, -1)) in enumerate_blowups(3)
    assert canonical_form(wcg(-1, -2, -1, -2, -1, -2, -1, -2)) in enumerate_blowups(5)


def test_enumerate_blowups_order_independent_start():
    forms = {canonical_form(blowup(cp2(), i)) for i in (1, 2, 3)}
    assert len(forms) == 1


def test_enumerate_blowups_invariants():
    for k in range(6):
        for g in enumerate_blowups(k):
            assert g.s == 3 + k
            assert sum(g.weights) == 12 - 3 * g.s
            assert canonical_form(g) == g
            graph_to_fan(g)


BLOWUP_COUNTS = (1, 1, 2, 6, 13, 41, 122, 403, 1333, 4579)  # surfaces with k = 0..9 blowups


def reference_canonical(w):
    """The lexicographic minimum over all 2s rotations and reflections of w."""
    return min(seq[r:] + seq[:r] for seq in (w, w[::-1]) for r in range(len(w)))


def test_enumerate_blowups_counts():
    assert tuple(len(enumerate_blowups(k)) for k in range(10)) == BLOWUP_COUNTS
    assert sum(BLOWUP_COUNTS[1:]) == 6500


def test_enumerate_blowups_matches_the_reference_closure():
    # level k is every reference form of a blowup of level k - 1, each once, as a graph
    for k in range(1, 10):
        want = {
            reference_canonical(blowup(g, i).weights)
            for g in enumerate_blowups(k - 1)
            for i in range(1, g.s + 1)
        }
        assert {g.weights for g in enumerate_blowups(k)} == want, k


def test_canonical_form_matches_the_reference_on_every_image_of_a_surface():
    rng = random.Random(1)
    for k in range(10):
        for g in enumerate_blowups(k):
            w = g.weights
            assert reference_canonical(w) == w
            r = rng.randrange(g.s)
            for image in (w[r:] + w[:r], (w[r:] + w[:r])[::-1]):
                assert canonical_form(WeightedCircularGraph(image)) == g, image


def _tied_weight_tuples(rng):
    """Tuples that often repeat their least weight: small random ones, palindromes and constant runs."""
    yield (-1,) * 6
    yield (0, 0, 0)
    yield (-1, -2, -1, -2, -1, -2, -1, -2)
    for _ in range(400):
        s = rng.randint(3, 12)
        yield tuple(rng.randint(-2, 1) for _ in range(s))
        half = [rng.randint(-3, 0) for _ in range(rng.randint(2, 6))]
        yield tuple(half + half[::-1])
        yield tuple(half + half[-2::-1])
        runs = [(rng.randint(-2, 1),) * rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        yield sum(runs, ()) * rng.randint(1, 3)


def test_canonical_form_matches_the_reference_on_tied_least_weights():
    rng = random.Random(2)
    tried = 0
    for w in _tied_weight_tuples(rng):
        if len(w) < 3:
            continue
        assert canonical_form(WeightedCircularGraph(w)).weights == reference_canonical(w), w
        tried += w.count(min(w)) > 1
    assert tried > 1000


def test_graph_to_fan_cp2():
    fan = graph_to_fan(cp2())
    assert fan.rays == ((1, 0), (0, 1), (-1, -1))


def test_graph_to_fan_hirzebruch():
    for a in range(4):
        fan = graph_to_fan(hirzebruch(a))
        assert fan.rays == ((1, 0), (0, 1), (-1, -a), (0, -1))


def test_graph_to_fan_closure_failure():
    with pytest.raises(ValueError, match="inconsistent weight sequence"):
        graph_to_fan(wcg(1, 1, 1, 1))
    with pytest.raises(ValueError, match="inconsistent weight sequence"):
        graph_to_fan(wcg(0, 0, 0))


def test_blowup_matches_star_subdivision():
    from toricsplit.fan import make_fan

    for g in [cp2(), hirzebruch(2), wcg(0, -1, 0, 1)]:
        fan = graph_to_fan(g)
        order = [0, 1]
        while len(order) < g.s:
            nxt = [c for c in fan.max_cones if order[-1] in c and order[-2] not in c]
            (cone,) = nxt
            order.append(cone[0] if cone[1] == order[-1] else cone[1])
        for pos in range(1, g.s + 1):
            i, j = order[pos - 1], order[pos % g.s]
            new_ray = tuple(a + b for a, b in zip(fan.rays[i], fan.rays[j]))
            new_idx = len(fan.rays)
            cones = [c for c in fan.max_cones if set(c) != {i, j}]
            cones += [(i, new_idx), (new_idx, j)]
            subdivided = make_fan(2, list(fan.rays) + [new_ray], cones)
            assert canonical_form(
                WeightedCircularGraph(circular_weights(subdivided))
            ) == canonical_form(blowup(g, pos))
