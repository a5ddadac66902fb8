"""Equivariant bundle data over a fan: weight systems, pastings, Euler quotients.

A rank-r equivariant bundle is described by one multiset of r dual-lattice
weights per maximal cone plus invertible r x r rational pastings between
their frames, subject to three exact conditions (net, cocycle, support).
Only the pastings into and out of the first cone's frame are stored; every
other pasting is their product, so the cocycle condition is checked in
``assemble_bundle`` (given pastings factor through that frame) and by
``validate``'s per-cone identity check.  Net and support are checked wall by
wall in ``splitting.restrict`` alone, once per wall and bundle object: the
restrictions are kept as ``KaneyamaBundleData.restrictions``, which
``validate`` checks and ``splitting.splitting_system`` then reads.  Weights
are stored sorted lexicographically and only the stored pastings are
permuted to match, so serialization is deterministic.  The sort permutes
each cone's rows and columns alike, so given pastings factor through the
first frame exactly when the permuted ones do: the cocycle is checked on the
pastings as given.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .exact_linear import RAT_TYPES, Rat, dot, rat_matmul, rat_rank
from .fan import ENTRY_LENGTH_CAP, INTEGER_TOKEN, Fan, content_lines, parse_int
from .intersection import AugmentedIntersectionMatrix, apply_q
from .solver import canonical_class_rep
from .splitting import RestrictionBlock, SplittingSystem, restrict

PastingMatrix = tuple[tuple[Rat, ...], ...]

# the one pasting entry form ``format_bundle`` writes: p or p/q with q != 0; each digit
# has one reading, so a pasting body is matched whole in time linear in its length
_RATIONAL_ENTRY = INTEGER_TOKEN + r"(?:/0*[1-9][0-9]*)?"
_PASTING_BODY = re.compile(rf"\s*(?:{_RATIONAL_ENTRY}(?:\s+{_RATIONAL_ENTRY})*\s*)?")
# the head of a pasting line, before its ':', with its two cone indices
_PASTING_HEAD = re.compile(rf"pasting\s+({INTEGER_TOKEN})\s+({INTEGER_TOKEN})\s*")


@dataclass(frozen=True)
class KaneyamaBundleData:
    """``to_base[c]`` is the pasting (0, c) and ``from_base[c]`` the pasting
    (c, 0), from cone c's frame to cone 0's and back; both are the identity at c = 0."""

    fan: Fan
    rank: int
    weight_systems: tuple[tuple[tuple[int, ...], ...], ...]
    to_base: tuple[PastingMatrix, ...]
    from_base: tuple[PastingMatrix, ...]

    def pasting(self, c2: int, c1: int) -> list[list[Rat]]:
        """Pasting matrix from cone c1's frame to cone c2's; rows index c2 weights."""
        return rat_matmul(self.from_base[c2], self.to_base[c1])

    @cached_property
    def restrictions(self) -> tuple[tuple[RestrictionBlock, ...], ...]:
        """``restrict(self, wall)`` for every wall in wall order, built once per object;
        the first wall that fails net or support raises its ``ValueError``."""
        return tuple(restrict(self, wall) for wall in self.fan.walls)


def assemble_bundle(
    fan: Fan,
    weight_systems: Sequence[Sequence[Sequence[int]]],
    pasting_map: Mapping[tuple[int, int], Sequence[Sequence[Rat]]],
) -> KaneyamaBundleData:
    """Sort each weight system lexicographically and permute the stored pastings to match.

    Each weight must be ``fan.dim`` integers, and each pasting entry an
    ``int`` or a ``Fraction``.  Stores the pastings (0, c) and (c, 0), which
    must all be given, each rank x rank between cones of the fan, and only
    they are permuted; each other pair given must equal the product through
    cone 0, checked on the pastings as given.  Each fault is a named
    ``ValueError``.
    """
    n_cones = len(fan.max_cones)
    if len(weight_systems) != n_cones:
        raise ValueError("one weight system per maximal cone required")
    rank = len(weight_systems[0])
    sorted_systems = []
    perms = []
    for ws in weight_systems:
        if len(ws) != rank:
            raise ValueError("all weight systems must have the same rank")
        chis = [tuple(chi) for chi in ws]
        for chi in chis:
            if len(chi) != fan.dim or not all(type(x) is int for x in chi):
                raise ValueError(f"weight {chi} is not {fan.dim} integers")
        perm = sorted(range(rank), key=chis.__getitem__)
        perms.append(perm)
        sorted_systems.append(tuple([chis[i] for i in perm]))

    for (c2, c1), raw in pasting_map.items():
        if not (0 <= c2 < n_cones and 0 <= c1 < n_cones):
            raise ValueError(f"pasting ({c2},{c1}) names a cone out of range")
        if len(raw) != rank or any(len(row) != rank for row in raw):
            raise ValueError(f"pasting ({c2},{c1}) is not {rank}x{rank}")
        for row in raw:
            for x in row:
                if type(x) not in RAT_TYPES:
                    raise ValueError(f"pasting ({c2},{c1}) entry {x!r} is not an int or a Fraction")
    star = range(1, n_cones)
    missing = [pair for c in star for pair in ((0, c), (c, 0)) if pair not in pasting_map]
    if missing:
        raise ValueError("pasting ({},{}) is missing".format(*missing[0]))

    # the cocycle on the pastings as given: the sort permutes each cone's rows and
    # columns alike, so they factor through cone 0 exactly when the permuted ones do
    for (c2, c1), raw in pasting_map.items():
        if 0 not in (c2, c1) and rat_matmul(pasting_map[(c2, 0)], pasting_map[(0, c1)]) != list(map(list, raw)):
            raise ValueError(f"cocycle fails for cones ({c2},0,{c1})")

    def permuted(c2: int, c1: int) -> PastingMatrix:
        raw = pasting_map[(c2, c1)]
        return tuple([tuple([raw[i][j] for j in perms[c1]]) for i in perms[c2]])

    identity = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    return KaneyamaBundleData(
        fan,
        rank,
        tuple(sorted_systems),
        (identity, *[permuted(0, c) for c in star]),
        (identity, *[permuted(c, 0) for c in star]),
    )


def validate(data: KaneyamaBundleData) -> list[str]:
    """All violations of the net, cocycle, and support conditions (empty = valid).

    Checks shapes and stored entry types as ``assemble_bundle`` does and,
    for the cocycle condition, (c, 0) @ (0, c) = I per cone; net and support
    come from ``data.restrictions``, one ``restrict`` per wall, and only when
    that fails is each wall restricted on its own, to report one violation
    per bad wall.
    """
    fan = data.fan
    r = data.rank
    violations: list[str] = []
    n_cones = len(fan.max_cones)
    if not len(data.weight_systems) == len(data.to_base) == len(data.from_base) == n_cones:
        return ["weight system or pasting count does not match the fan"]
    for ci, ws in enumerate(data.weight_systems):
        if len(ws) != r or any(len(chi) != fan.dim for chi in ws):
            violations.append(f"weight system of cone {ci} has the wrong shape")
            continue
        for chi in ws:
            for x in chi:
                if type(x) is not int:
                    violations.append(f"weight {tuple(chi)} is not {fan.dim} integers")
                    break
    identity = [[int(i == j) for j in range(r)] for i in range(r)]
    # through cone 0 the cocycle condition is pasting (c, 0) @ (0, c) = identity
    for c in range(n_cones):
        pair = (data.from_base[c], data.to_base[c])
        if any(len(p) != r or any(len(row) != r for row in p) for p in pair):
            violations.append(f"pasting ({c},0) or (0,{c}) has the wrong shape")
            continue
        fault = _entry_fault(c, 0, pair[0]) or _entry_fault(0, c, pair[1])
        if fault:
            violations.append(fault)
        elif rat_matmul(*pair) != identity:
            if any(rat_rank(p) < r for p in pair):
                violations.append(f"pasting ({c},0) or (0,{c}) is singular")
            else:
                violations.append(f"cocycle fails for cones ({c},0,{c}): pasting ({c},{c}) is not the identity")
    if violations:
        return violations
    # restrict checks support of pasting (c2, c1) only: with the net condition
    # it is supported on the preorder of weight keys, matrices so supported
    # are closed under products, and by Cayley-Hamilton an inverse is a
    # polynomial in its matrix, so (c1, c2), the inverse by the identity
    # check above, is supported there too and passes the reverse check.
    try:
        data.restrictions  # kept on the object for splitting_system to read
    except ValueError:
        for wall in fan.walls:
            try:
                restrict(data, wall)
            except ValueError as exc:
                violations.append(str(exc))
    return violations


def _entry_fault(c2: int, c1: int, p: PastingMatrix) -> str | None:
    """The violation of pasting (c2, c1)'s first entry that is not an ``int`` or a ``Fraction``, if any."""
    for row in p:
        for x in row:
            if type(x) not in RAT_TYPES:
                return f"pasting ({c2},{c1}) entry {x!r} is not an int or a Fraction"
    return None


def tangent_bundle(fan: Fan) -> KaneyamaBundleData:
    """Tangent bundle data: each cone's weight system is its dual basis.

    The pasting from cone c1 to cone c2 pairs c2's dual basis against c1's
    rays, which is exactly the Jacobian of the monomial chart change.  Only
    the pastings into and out of cone 0 are built: (0, c) has as columns the
    coordinates of cone c's rays in cone 0's dual basis, taken once per ray.
    """
    coords0 = [[dot(u, ray) for u in fan.duals[0]] for ray in fan.rays]
    rays0 = fan.cone_rays(0)
    pasting_map = {}
    for c in range(1, len(fan.max_cones)):
        pasting_map[(0, c)] = list(zip(*[coords0[j] for j in fan.max_cones[c]]))
        pasting_map[(c, 0)] = [[dot(u, v) for v in rays0] for u in fan.duals[c]]
    return assemble_bundle(fan, fan.duals, pasting_map)


def cp2_rank2(a: int, b: int, c: int) -> KaneyamaBundleData:
    """Rank-2 bundle on the projective plane with one weight pair per chart.

    Charts in cone order {0,1}, {0,2}, {1,2} carry the weight systems
    {(a,0),(0,b)}, {(a,-a),(0,-c)}, {(-b,b),(-c,0)}.  The pastings are the
    unique (up to equivalence) constant matrices with the weight-matched
    entries nonzero that satisfy the cocycle and support conditions; the
    off-match entries die in every wall limit, so the splitting numbers only
    see the matching.
    """
    if a < 1 or b < 1 or c < 1:
        raise ValueError("weights a, b, c must be positive")
    from .fan import projective_space

    fan = projective_space(2)
    w_01 = [(a, 0), (0, b)]
    w_02 = [(a, -a), (0, -c)]
    w_12 = [(-b, b), (-c, 0)]
    weights = [w_01, w_02, w_12]
    pasting_map = {
        (2, 0): [[1, 1], [1, 0]],
        (1, 2): [[1, 0], [1, -1]],
        (1, 0): [[1, 1], [0, 1]],
        (0, 2): [[0, 1], [1, -1]],
        (2, 1): [[1, 0], [1, -1]],
        (0, 1): [[1, -1], [0, 1]],
    }
    return assemble_bundle(fan, weights, pasting_map)


@dataclass(frozen=True)
class EulerBundleSpec:
    """Quotient of a sum of line bundles by a trivial subbundle.

    The data is r+1 summand divisors (ray-coefficient vectors) together
    with the homogeneous-coordinate exponent vector of the monomial section
    of each summand; the quotient bundle has rank r.
    """

    fan: Fan
    summand_divisors: tuple[tuple[int, ...], ...]
    section_exponents: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.summand_divisors) - 1


def make_euler_spec(
    fan: Fan,
    divisors: Sequence[Sequence[int]],
    exponents: Sequence[Sequence[int]],
) -> EulerBundleSpec:
    j = len(fan.rays)
    if len(divisors) != len(exponents) or len(divisors) < 2:
        raise ValueError("need one exponent vector per summand divisor, at least two summands")
    for d in divisors:
        if len(d) != j:
            raise ValueError(f"divisor {tuple(d)} needs {j} ray coefficients")
        if not all(type(x) is int for x in d):
            raise ValueError(f"divisor {tuple(d)} has a non-integer coefficient")
    for alpha in exponents:
        if len(alpha) != j:
            raise ValueError(f"exponent vector {tuple(alpha)} needs {j} entries")
        if not all(type(e) is int for e in alpha):
            raise ValueError(f"exponent vector {tuple(alpha)} has a non-integer entry")
        if any(e < 0 for e in alpha):
            raise ValueError(f"exponent vector {tuple(alpha)} must be nonnegative")
    for d, alpha in zip(divisors, exponents):
        # the monomial is a section iff alpha - d is principal, i.e. reduces to zero
        if any(canonical_class_rep([e - x for e, x in zip(alpha, d)], fan)):
            raise ValueError(
                f"monomial {tuple(alpha)} is not a section of the summand {tuple(d)}"
            )
    return EulerBundleSpec(
        fan,
        tuple(tuple(d) for d in divisors),
        tuple(tuple(alpha) for alpha in exponents),
    )


def euler_monomial_spec(fan: Fan, multiplicities: Sequence[int]) -> EulerBundleSpec:
    """Summands m_i * D(v_i) with sections z_i ** m_i, one per ray."""
    j = len(fan.rays)
    if len(multiplicities) != j:
        raise ValueError(f"need one multiplicity per ray ({j})")
    if not all(type(m) is int for m in multiplicities):
        raise ValueError(f"multiplicities {tuple(multiplicities)} have a non-integer entry")
    if any(m < 0 for m in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    vectors = [tuple(m if t == i else 0 for t in range(j)) for i, m in enumerate(multiplicities)]
    return make_euler_spec(fan, vectors, vectors)


def euler_splitting_system(
    spec: EulerBundleSpec, aim: AugmentedIntersectionMatrix
) -> SplittingSystem:
    """Wall-by-wall degrees of the quotient bundle.

    A section vanishes on a wall when its monomial meets tau; otherwise it
    restricts to a constant or to a power of the wall coordinates it
    contains.  The first constant trivializes its summand: drop it.  Else,
    with exactly one power of each wall coordinate and nothing else nonzero,
    those two summands merge into one of the summed degree.  Anything else
    is out of scope.
    """
    if aim.fan != spec.fan:
        raise ValueError("intersection matrix belongs to a different fan")
    taus = []
    rows = []
    summand_degrees = [apply_q(aim, d) for d in spec.summand_divisors]
    supports = [{t for t, e in enumerate(alpha) if e > 0} for alpha in spec.section_exponents]
    for wi, wall in enumerate(aim.row_walls):
        degs = [by_wall[wi] for by_wall in summand_degrees]
        extras = {wall.extra1, wall.extra2}
        live = [(i, s & extras) for i, s in enumerate(supports) if s.isdisjoint(wall.tau)]
        constant = next((i for i, coords in live if not coords), None)
        if constant is not None:
            if degs[constant] != 0:
                raise RuntimeError("a summand with a constant section has nonzero wall degree")
            remaining = degs[:constant] + degs[constant + 1 :]
        # no set is empty here, so two whose symmetric difference is the pair are one power of each
        elif len(live) == 2 and live[0][1] ^ live[1][1] == extras:
            (i, _), (j, _) = live
            remaining = [degs[i] + degs[j]] + [m for t, m in enumerate(degs) if t not in (i, j)]
        else:
            raise ValueError("η restriction not in scope")
        taus.append(wall.tau)
        rows.append(tuple(sorted(remaining, reverse=True)))
    return SplittingSystem(tuple(taus), tuple(rows))


def format_bundle(data: KaneyamaBundleData) -> str:
    lines = [f"rank {data.rank}"]
    for ci, ws in enumerate(data.weight_systems):
        chunks = ";".join("(" + " ".join(str(x) for x in chi) + ")" for chi in ws)
        lines.append(f"weights {ci + 1}: {chunks}")
    n = len(data.fan.max_cones)
    for c2 in range(n):
        for c1 in range(n):
            if c1 == c2:
                continue
            flat = " ".join(str(x) for row in data.pasting(c2, c1) for x in row)
            lines.append(f"pasting {c2 + 1} {c1 + 1}: {flat}")
    return "\n".join(lines) + "\n"


def parse_bundle(text: str, fan: Fan) -> KaneyamaBundleData:
    """Parse the bundle text format against a fan; validates before returning.

    Grammar: "rank r", then one "weights i: (w ...);(w ...)" line per
    maximal cone (1-based), then one "pasting i j: <r*r rationals>" line per
    ordered pair of distinct maximal cones (from cone j's frame to cone i's,
    row-major); each must equal the product through cone 1's frame.  '#'
    comments and blank lines are ignored.
    """
    rank: int | None = None
    n_cones = len(fan.max_cones)
    weights: dict[int, list[tuple[int, ...]]] = {}
    pastings: dict[tuple[int, int], list[list[Rat]]] = {}
    for lineno, line in content_lines(text):
        keyword = line.split(None, 1)[0]
        head, _, body = line.partition(":")
        if keyword == "rank":
            if rank is not None:
                raise ValueError(f"line {lineno}: duplicate rank line")
            try:
                (value,) = line.split()[1:]
                rank = parse_int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: rank takes one integer") from None
            if rank < 1:
                raise ValueError(f"line {lineno}: rank must be positive")
        elif keyword == "weights":
            if rank is None:
                raise ValueError(f"line {lineno}: weights before rank")
            try:
                (index,) = head.split()[1:]
                ci = parse_int(index) - 1
            except ValueError:
                raise ValueError(f"line {lineno}: weights needs one cone index") from None
            if not 0 <= ci < n_cones:
                raise ValueError(f"line {lineno}: cone index out of range")
            if ci in weights:
                raise ValueError(f"line {lineno}: duplicate weights for cone {ci + 1}")
            chis = []
            for chunk in body.split(";"):
                chunk = chunk.strip()
                if not (chunk.startswith("(") and chunk.endswith(")")):
                    raise ValueError(f"line {lineno}: weights must be parenthesized")
                try:
                    chi = tuple(parse_int(tok) for tok in chunk[1:-1].split())
                except ValueError:
                    raise ValueError(f"line {lineno}: non-integer weight coordinate") from None
                if len(chi) != fan.dim:
                    raise ValueError(f"line {lineno}: weight needs {fan.dim} coordinates")
                chis.append(chi)
            if len(chis) != rank:
                raise ValueError(f"line {lineno}: expected {rank} weights")
            weights[ci] = chis
        elif keyword == "pasting":
            if rank is None:
                raise ValueError(f"line {lineno}: pasting before rank")
            indices = _PASTING_HEAD.fullmatch(head)
            if indices is None or max(map(len, indices.groups())) > ENTRY_LENGTH_CAP:
                raise ValueError(f"line {lineno}: pasting needs two cone indices")
            c2, c1 = int(indices[1]) - 1, int(indices[2]) - 1
            if not (0 <= c2 < n_cones and 0 <= c1 < n_cones) or c1 == c2:
                raise ValueError(f"line {lineno}: invalid cone pair")
            if (c2, c1) in pastings:
                raise ValueError(f"line {lineno}: duplicate pasting {c2 + 1} {c1 + 1}")
            entries = body.split()
            # an entry is never longer than the body, so a short body needs no per-entry look
            too_long = len(body) > ENTRY_LENGTH_CAP and max(map(len, entries), default=0) > ENTRY_LENGTH_CAP
            if too_long or not _PASTING_BODY.fullmatch(body):
                raise ValueError(f"line {lineno}: non-rational pasting entry")
            vals = [Fraction(tok) if "/" in tok else int(tok) for tok in entries]
            if len(vals) != rank * rank:
                raise ValueError(f"line {lineno}: expected {rank * rank} entries")
            pastings[(c2, c1)] = [vals[i * rank : (i + 1) * rank] for i in range(rank)]
        else:
            raise ValueError(f"line {lineno}: unknown keyword {keyword!r}")
    if rank is None:
        raise ValueError("missing rank line")
    missing_w = [ci + 1 for ci in range(n_cones) if ci not in weights]
    if missing_w:
        raise ValueError(f"missing weights for cones {missing_w}")
    missing_p = [
        (c2 + 1, c1 + 1)
        for c2 in range(n_cones)
        for c1 in range(n_cones)
        if c1 != c2 and (c2, c1) not in pastings
    ]
    if missing_p:
        raise ValueError(f"missing pastings for cone pairs {missing_p}")
    data = assemble_bundle(fan, [weights[ci] for ci in range(n_cones)], pastings)
    problems = validate(data)
    if problems:
        raise ValueError("; ".join(problems))
    return data


def format_euler(spec: EulerBundleSpec) -> str:
    lines = ["euler"]
    for d, alpha in zip(spec.summand_divisors, spec.section_exponents):
        lines.append(
            "summand " + " ".join(str(x) for x in d) + " : " + " ".join(str(e) for e in alpha)
        )
    return "\n".join(lines) + "\n"


def parse_euler(text: str, fan: Fan) -> EulerBundleSpec:
    """Parse the euler text format: line "euler", then "summand d1 .. dJ : e1 .. eJ" lines."""
    divisors: list[list[int]] = []
    exponents: list[list[int]] = []
    seen_header = False
    for lineno, line in content_lines(text):
        if not seen_header:
            if line != "euler":
                raise ValueError(f"line {lineno}: expected 'euler' header")
            seen_header = True
            continue
        keyword = line.split()[0]
        if keyword != "summand":
            raise ValueError(f"line {lineno}: unknown keyword {keyword!r}")
        body = line[len("summand") :]
        left, sep, right = body.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: summand needs 'divisor : exponents'")
        try:
            d = [parse_int(tok) for tok in left.split()]
            alpha = [parse_int(tok) for tok in right.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer summand entry") from None
        divisors.append(d)
        exponents.append(alpha)
    if not seen_header:
        raise ValueError("missing 'euler' header")
    return make_euler_spec(fan, divisors, exponents)


def load_bundle(text: str, fan: Fan) -> KaneyamaBundleData | EulerBundleSpec:
    """Dispatch on the first content line: 'rank' or 'euler'."""
    first = next(content_lines(text), None)
    if first is None:
        raise ValueError("empty bundle file")
    lineno, line = first
    keyword = line.split()[0]
    if keyword == "euler":
        return parse_euler(text, fan)
    if keyword == "rank":
        return parse_bundle(text, fan)
    raise ValueError(f"line {lineno}: unrecognized bundle file header {keyword!r}")
