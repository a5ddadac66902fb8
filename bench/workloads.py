"""The four seeded workloads of the toricsplit benchmark.

Each workload builds its inputs from a ``random.Random`` in ``setup``, and
then the child process times ``run`` on one item at a time.  ``check`` and
``canonical`` run outside the timed region: ``check`` returns ``None`` for a
correct result or a one-line reason, ``canonical`` a deterministic text line
whose sha256 lets two commits be compared byte for byte.

Every call into the package goes through a module attribute (``ts.x``,
``cli.main``) at call time, so the traced run sees the rebound wrappers.
The checks use only the benchmark's own integer arithmetic.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from itertools import combinations, permutations

import toricsplit as ts
from toricsplit import cli

# Table 4.1: (blowups, circular weights) of the eight surfaces with 1..9
# blowups whose tangent bundle admits a splitting type.
TABLE41 = (
    (3, (-1, -1, -1, -1, -1, -1)),
    (5, (-1, -2, -1, -2, -1, -2, -1, -2)),
    (6, (-1, -2, -2, -1, -2, -2, -1, -2, -2)),
    (7, (-1, -2, -2, -1, -3, -1, -2, -2, -1, -3)),
    (9, (-1, -2, -2, -2, -1, -4, -1, -2, -2, -2, -1, -4)),
    (9, (-1, -2, -2, -3, -1, -2, -2, -3, -1, -2, -2, -3)),
    (9, (-1, -2, -3, -1, -2, -3, -1, -2, -3, -1, -2, -3)),
    (9, (-1, -3, -1, -3, -1, -3, -1, -3, -1, -3, -1, -3)),
)


def dihedral_min(weights):
    """Lexicographic minimum over rotations and reflections of a circular list."""
    w = tuple(weights)
    return min(seq[r:] + seq[:r] for seq in (w, w[::-1]) for r in range(len(seq)))


TABLE41_CANONICAL = frozenset(dihedral_min(w) for _, w in TABLE41)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _q_times(q_rows, column):
    return tuple(_dot(row, column) for row in q_rows)


def _types_satisfy_rows(q_rows, degree_rows, types):
    """Reason a type breaks Q x = its rows or permutes the wrong tuples, else None."""
    for t in types:
        for l, col in enumerate(t.columns):
            if _q_times(q_rows, col) != tuple(row[l] for row in t.rows):
                return f"type {t.perm_id}: Q x != rows for class {l + 1}"
        for row, expected in zip(t.rows, degree_rows):
            if tuple(sorted(row, reverse=True)) != expected:
                return f"type {t.perm_id}: row {row} is not a permutation of {expected}"
    return None


def _canonical_types(types):
    return sorted(tuple(sorted(t.canonical)) for t in types)


def _interleave(strata, rng):
    """Shuffle each stratum, then merge so that every prefix keeps the strata's proportions."""
    pools = []
    for items in strata:
        items = list(items)
        rng.shuffle(items)
        pools.append(items)
    total = sum(len(p) for p in pools)
    taken = [0] * len(pools)
    out = []
    for i in range(total):
        # the stratum furthest behind its share of the first i+1 items
        best = max(
            (j for j in range(len(pools)) if taken[j] < len(pools[j])),
            key=lambda j: ((i + 1) * len(pools[j]) / total - taken[j], -j),
        )
        out.append(pools[best][taken[best]])
        taken[best] += 1
    return out


def _int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _int_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(n)
    )


class Workload:
    """Shared defaults; ``size`` is the stated size, the prefix every run completes."""

    size: int
    cyclic: bool  # whether the item list repeats, so the run can last --seconds

    def stdout_bytes(self, out) -> int:
        return 0


class SurfaceScan(Workload):
    """Loop body of the table41 scan on a k-stratified sample of the 6500 surfaces."""

    name = "surface_scan"
    # The run is exactly this many surfaces: the package caches every fan it sees, so a
    # time-bounded run would compare different heap sizes, and GC pauses, across commits.
    size = 1300
    cyclic = False

    def setup(self, rng, workdir):
        # strata: blowup count and number of nonnegative weights; the latter sets how
        # many walls let the search try both orders, so it drives the per-item cost
        strata: dict[tuple[int, int], list] = {}
        for k in range(1, 10):
            for g in sorted(ts.enumerate_blowups(k), key=lambda g: g.weights):
                if g.weights not in TABLE41_CANONICAL:
                    key = (k, sum(a >= 0 for a in g.weights))
                    strata.setdefault(key, []).append((k, g))
        stream = _interleave([strata[key] for key in sorted(strata)], rng)
        table = [
            (k, g)
            for k in range(1, 10)
            for g in sorted(ts.enumerate_blowups(k), key=lambda g: g.weights)
            if g.weights in TABLE41_CANONICAL
        ]
        if len(table) != len(TABLE41):
            raise RuntimeError(f"found {len(table)} of the {len(TABLE41)} Table 4.1 surfaces")
        # spread the eight admitting surfaces over the stated-size prefix
        for j, entry in reversed(list(enumerate(table))):
            stream.insert((2 * j + 1) * self.size // (2 * len(table)), entry)
        return stream

    def run(self, item):
        _, graph = item
        fan = ts.graph_to_fan(graph)
        aim = ts.augmented_matrix(fan)
        system = ts.splitting_system(ts.tangent_bundle(fan))
        return aim, system, ts.find_splitting_types(aim, system)

    def check(self, item, out):
        _, graph = item
        aim, system, types = out
        w = graph.weights
        if system.taus != tuple((i,) for i in range(len(w))):
            return f"unexpected walls {system.taus}"
        for i, row in enumerate(system.degrees):
            if row != tuple(sorted((2, w[i]), reverse=True)):
                return f"wall {i + 1}: degrees {row}, closed form (2, {w[i]})"
        bad = _types_satisfy_rows(aim.q.entries, system.degrees, types)
        if bad:
            return bad
        if bool(types) != (w in TABLE41_CANONICAL):
            return f"{len(types)} types for {w}; Table 4.1 says {w in TABLE41_CANONICAL}"
        return None

    def canonical(self, item, out):
        k, graph = item
        _, system, types = out
        return f"{k} {graph.weights} {system.degrees} {_canonical_types(types)}"


class LineSumSearch(Workload):
    """find_splitting_types on degree systems Q.D of direct sums of line bundles."""

    name = "line_sum_search"
    size = 4896  # 24 systems for each (fan, rank, sign rule) slot
    cyclic = True
    strict_share = 4  # one item in four uses the strict sign rule
    search_cap = 1000  # redraw systems whose sign-consistent ordering count exceeds this

    def setup(self, rng, workdir):
        # a fixed fan set: which fans appear would otherwise dominate the spread between seeds
        fans = [ts.projective_space(2), ts.projective_space(3)]
        fans += [ts.graph_to_fan(ts.hirzebruch(a)) for a in range(4)]
        for k in range(1, 7):
            # the first and the last canonical graph with k blowups (k = 1 has only one)
            graphs = sorted(ts.enumerate_blowups(k), key=lambda g: g.weights)
            fans += [ts.graph_to_fan(g) for g in graphs[:1] + graphs[1:][-1:]]
        aims = [ts.augmented_matrix(fan) for fan in fans]
        configs = [
            (f, r, strict)
            for f in range(len(fans))
            for r in (2, 3, 4)
            for strict in [False] * (self.strict_share - 1) + [True]
        ]
        items = []
        while len(items) < self.size:
            batch = list(configs)
            rng.shuffle(batch)
            for f, r, strict in batch[: self.size - len(items)]:
                items.append(self._draw(rng, f, fans[f], aims[f], r, strict))
        return items

    def _draw(self, rng, fan_id, fan, aim, r, strict):
        q_rows = aim.q.entries
        while True:
            modes = [
                rng.choice(("ample", "zero", "antiample")) if strict
                else rng.choice(("nef", "nef", "antiample"))
                for _ in range(r)
            ]
            divisors = [self._divisor(rng, fan, mode) for mode in modes]
            images = [_q_times(q_rows, d) for d in divisors]
            rows = tuple(tuple(sorted(col, reverse=True)) for col in zip(*images))
            if _ordering_count(rows) <= self.search_cap:
                system = ts.SplittingSystem(tuple(w.tau for w in aim.row_walls), rows)
                return fan_id, fan, aim, system, strict, tuple(divisors)

    @staticmethod
    def _divisor(rng, fan, mode):
        j = len(fan.rays)
        if mode == "zero":
            return (0,) * j
        if j == fan.dim + 1:
            # projective space: the class group is generated by one ray divisor
            d = {"nef": rng.randint(0, 4), "ample": rng.randint(1, 4), "antiample": -rng.randint(1, 4)}[mode]
            return (d,) + (0,) * (j - 1)
        # surface: d(v) = sum_k c_k |det(v_k, v)| is convex and symmetric, hence nef;
        # with every c_k >= 1 it bends at every ray, hence ample
        coeffs = [1 if rng.random() < 0.25 else 0 for _ in range(j)]
        if mode != "nef":
            coeffs = [c + 1 for c in coeffs]
        d = tuple(
            sum(c * abs(vk[0] * v[1] - vk[1] * v[0]) for c, vk in zip(coeffs, fan.rays))
            for v in fan.rays
        )
        return tuple(-x for x in d) if mode == "antiample" else d

    def run(self, item):
        _, _, aim, system, strict, _ = item
        return ts.find_splitting_types(aim, system, strict=strict)

    def check(self, item, out):
        _, fan, aim, system, strict, divisors = item
        bad = _types_satisfy_rows(aim.q.entries, system.degrees, out)
        if bad:
            return bad
        if not any(_same_classes(fan, t.columns, divisors) for t in out):
            return f"no type recovers the summands {divisors}"
        return None

    def canonical(self, item, out):
        fan_id, _, _, system, strict, _ = item
        return f"{fan_id} {int(strict)} {system.degrees} {_canonical_types(out)}"


def _ordering_count(rows):
    """Product over walls of the orderings that keep negative and nonnegative entries apart."""
    total = 1
    for row in rows:
        for group in ([x for x in row if x >= 0], [x for x in row if x < 0]):
            n = math.factorial(len(group))
            for value in set(group):
                n //= math.factorial(group.count(value))
            total *= n
    return total


def _is_principal(fan, diff):
    """Whether diff = (<m, v_rho>)_rho for an integer m, via the first cone's adjugate."""
    n = fan.dim
    basis = [fan.rays[i] for i in fan.max_cones[0]]  # rows v_i, det +-1
    det = _int_det([list(v) for v in basis])
    target = [diff[i] for i in fan.max_cones[0]]
    # Cramer's rule for B m = target; integral because B is unimodular
    m = []
    for t in range(n):
        replaced = [list(v[:t]) + [target[i]] + list(v[t + 1 :]) for i, v in enumerate(basis)]
        m.append(_int_det(replaced) * det)
    return all(_dot(m, v) == d for v, d in zip(fan.rays, diff))


def _same_classes(fan, columns, divisors):
    if len(columns) != len(divisors):
        return False
    return any(
        all(
            _is_principal(fan, tuple(c - d for c, d in zip(col, divisors[p])))
            for col, p in zip(columns, perm)
        )
        for perm in permutations(range(len(divisors)))
    )


class BlockDegrees(Workload):
    """bootstrap against h0_oracle on random isotypic blocks of rank 1..4."""

    name = "block_degrees"
    ranks = (1, 2, 2, 3, 3, 4, 4)  # keeps the median inside the rank-3 cluster
    size = len(ranks) * 120
    cyclic = True

    def setup(self, rng, workdir):
        items = []
        for i in range(self.size):
            r = self.ranks[i % len(self.ranks)]
            w1 = tuple(sorted((rng.randint(-4, 4) for _ in range(r)), reverse=True))
            w2 = tuple(sorted(rng.randint(-4, 4) for _ in range(r)))
            while True:
                pasting = tuple(tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(r))
                if _int_det([list(row) for row in pasting]):
                    break
            items.append((w1, w2, pasting))
        rng.shuffle(items)
        return items

    def run(self, item):
        w1, w2, pasting = item
        return (
            ts.bootstrap(w1, w2, pasting),
            ts.h0_oracle(ts.transition_from_block(w1, w2, pasting)),
        )

    def check(self, item, out):
        w1, w2, _ = item
        by_strata, by_sections = out
        if by_strata != by_sections:
            return f"bootstrap {by_strata} != h0_oracle {by_sections}"
        if sum(by_strata) != sum(w1) - sum(w2):
            return f"degrees {by_strata} do not sum to {sum(w1) - sum(w2)}"
        return None

    def canonical(self, item, out):
        return f"{item} {out[0]}"


class BundleFileSplit(Workload):
    """In-process ``toricsplit bundle-split`` on fan and bundle files written in setup."""

    name = "bundle_file_split"
    cyclic = True
    # one round of the schedule: kind, parameter
    schedule = (
        [("surface", k) for k in range(1, 10)]
        + [("projective", n) for n in range(2, 6)]
        + [("cp2_rank2", None)] * 4
        + [("euler", n) for n in (2, 3, 4) for _ in range(2)]
    )
    size = len(schedule) * 8

    def setup(self, rng, workdir):
        by_k = {k: sorted(ts.enumerate_blowups(k), key=lambda g: g.weights) for k in range(1, 10)}
        fan_paths = {}

        def fan_file(key, fan):
            if key not in fan_paths:
                path = os.path.join(workdir, f"fan{len(fan_paths)}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(ts.format_fan(fan))
                fan_paths[key] = path
            return fan_paths[key]

        items = []
        while len(items) < self.size:
            batch = list(self.schedule)
            rng.shuffle(batch)
            for kind, param in batch:
                if kind == "surface":
                    graph = rng.choice(by_k[param])
                    fan = ts.graph_to_fan(graph)
                    text = ts.format_bundle(ts.tangent_bundle(fan))
                    expect = _surface_expectation(graph.weights)
                    key = ("graph", graph.weights)
                elif kind == "projective":
                    fan = ts.projective_space(param)
                    text = ts.format_bundle(ts.tangent_bundle(fan))
                    expect = _projective_expectation(param, [2] + [1] * (param - 1)), 1
                    key = ("projective", param)
                elif kind == "cp2_rank2":
                    a, b, c = (rng.randint(1, 4) for _ in range(3))
                    fan = ts.projective_space(2)
                    text = ts.format_bundle(ts.cp2_rank2(a, b, c))
                    rows = {
                        "tau(1)": tuple(sorted((a, b + c), reverse=True)),
                        "tau(2)": tuple(sorted((b, a + c), reverse=True)),
                        "tau(3)": tuple(sorted((c, a + b), reverse=True)),
                    }
                    expect = rows, int(a == b == c)
                    key = ("projective", 2)
                else:
                    m = [rng.randint(1, 3) for _ in range(param + 1)]
                    fan = ts.projective_space(param)
                    text = ts.format_euler(ts.euler_monomial_spec(fan, m))
                    expect = _euler_expectation(param, m), int(len(set(m)) == 1)
                    key = ("projective", param)
                bundle_path = os.path.join(workdir, f"bundle{len(items)}.txt")
                with open(bundle_path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                fmt = rng.choice(("text", "tsv"))
                argv = ["bundle-split", "--fan", fan_file(key, fan), "--bundle", bundle_path, "--format", fmt]
                items.append((kind, argv, expect))
        return items[: self.size]

    def run(self, item):
        _, argv, _ = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(argv))
        return status, out.getvalue(), err.getvalue()

    def check(self, item, out):
        kind, argv, (rows, n_types) = item
        status, stdout, stderr = out
        if status != 0:
            return f"{kind}: exit status {status}: {stderr.strip()}"
        got_rows, got_types = _parse_report(stdout, argv[-1])
        if got_rows != rows:
            return f"{kind}: degree rows {got_rows}, closed form {rows}"
        if got_types != n_types:
            return f"{kind}: {got_types} types, expected {n_types}"
        return None

    def canonical(self, item, out):
        return out[1]

    def stdout_bytes(self, out):
        return len(out[1].encode())


def _label(tau):
    return "tau(" + ",".join(str(t + 1) for t in tau) + ")"


def _surface_expectation(weights):
    rows = {_label((i,)): tuple(sorted((2, a), reverse=True)) for i, a in enumerate(weights)}
    return rows, int(weights in TABLE41_CANONICAL)


def _projective_walls(n):
    return list(combinations(range(n + 1), n - 1))


def _projective_expectation(n, row):
    return {_label(tau): tuple(row) for tau in _projective_walls(n)}


def _euler_expectation(n, m):
    rows = {}
    for tau in _projective_walls(n):
        e1, e2 = (i for i in range(n + 1) if i not in tau)
        rows[_label(tau)] = tuple(sorted([m[e1] + m[e2]] + [m[t] for t in tau], reverse=True))
    return rows


def _parse_report(stdout, fmt):
    """Degree rows by wall label and the number of splitting types, from either format."""
    rows = {}
    n_types = 0
    lines = stdout.splitlines()
    if fmt == "text":
        in_numbers = False
        for line in lines:
            if line == "splitting numbers:":
                in_numbers = True
            elif line.endswith(":") and not line.startswith("tau("):
                in_numbers = False
            elif in_numbers:
                label, _, degrees = line.partition(": ")
                rows[label] = tuple(int(x) for x in degrees.split())
            if line.startswith("splitting types: "):
                n_types = int(line.split(": ")[1])
    else:
        type_ids = set()
        for line in lines:
            fields = line.split("\t")
            if fields[0] == "degrees":
                rows[fields[1]] = tuple(int(x) for x in fields[2].split(","))
            elif fields[0] == "type":
                type_ids.add(fields[1])
        n_types = len(type_ids)
    return rows, n_types


WORKLOADS = {w.name: w for w in (SurfaceScan(), LineSumSearch(), BlockDegrees(), BundleFileSplit())}
