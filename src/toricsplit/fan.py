"""Complete nonsingular fans: validation, walls, wall relations, dual bases, class reduction.

A fan is stored as an ordered ray list plus maximal cones given by ray
index sets, with each cone's dual basis.  ``make_fan`` inverts cone 0 only
and reaches every other dual basis by flipping across walls: if
sigma1 = tau + {e1} has dual basis e1*, t* (t in tau) and v_e2 has the
integral coordinates c in it, then sigma2 = tau + {e2} has the dual basis

    u_e2 = c[e1] * e1*,    u_t = t* - c[e1] * c[t] * e1*,

which pairs to the identity against sigma2's rays exactly when c[e1] = +-1,
so the flip is also sigma2's smoothness test (Fulton 1993, section 2.5;
Oda 1988).  The walk reads each facet once, from the first cone it reaches
the facet from: v_e2's coordinates in that cone's dual basis give the flip,
when the far cone is new, and the facet's wall, kept on the ``Fan``; its
relation is read off them as a_t = -c[t], with c[e1] = -1 (+1 puts both
cones on one side of tau).  ``make_fan`` then checks overlap by one interior
point of the first cone.  Ray and cone order is preserved from input so
every downstream report is reproducible bit for bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import gcd
from typing import Iterator

from .exact_linear import SparseTerms, dot, unimodular_inverse


@dataclass(frozen=True)
class Fan:
    """Validated complete nonsingular fan; ``duals[c]`` is cone c's dual basis and
    ``walls`` holds every wall in lexicographic order of tau."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    duals: tuple[tuple[tuple[int, ...], ...], ...] = field(compare=False, repr=False)
    walls: tuple[Wall, ...] = field(compare=False, repr=False)

    def cone_rays(self, cone_index: int) -> tuple[tuple[int, ...], ...]:
        return tuple(self.rays[j] for j in self.max_cones[cone_index])

    @cached_property
    def reduction(self) -> tuple[tuple[int, ...], tuple[SparseTerms, ...]]:
        """Ray subset whose class coordinates are reduced to zero, and each ray's terms on it.

        The subset is the last ``dim`` rays when they form a lattice basis,
        otherwise the lexicographically first subset that does.  Ray k's
        terms are the sparse (support ray, coefficient) pairs of
        ``rays[k] @ inverse``, the inverse being that of the matrix whose
        rows are the subset's rays: a class x reduces to
        x[k] - sum(c * x[s] for s, c in terms[k]).  The inverse's columns are
        the subset's dual basis: read from ``duals`` when the last rays form a
        maximal cone, whose rays are stored sorted like the subset, and
        inverted here otherwise.
        """
        j, n = len(self.rays), self.dim
        tail = tuple(range(j - n, j))
        if tail in self.max_cones:
            support, columns = tail, self.duals[self.max_cones.index(tail)]
        else:
            for support in chain([tail], combinations(range(j), n)):
                try:
                    columns = tuple(zip(*unimodular_inverse([self.rays[k] for k in support])))
                except ValueError:
                    continue
                break
            else:
                raise RuntimeError("invariant broken: no ray subset is a lattice basis")
        terms = tuple(
            tuple((s, c) for s, col in zip(support, columns) if (c := dot(ray, col))) for ray in self.rays
        )
        return support, terms


def canonical_class_rep(x, fan: Fan) -> tuple[int, ...]:
    """Reduce a ray-coefficient vector modulo the principal-divisor lattice.

    The coordinates of the fixed unimodular ray subset of ``fan.reduction``
    are driven to zero, in one pass over its per-ray terms.
    """
    if len(x) != len(fan.rays):
        raise ValueError(f"class vector needs {len(fan.rays)} entries")
    for v in x:
        if type(v) is not int:
            raise ValueError(f"class {tuple(x)} has a non-integer coordinate")
    support, terms = fan.reduction
    reduced = tuple(v - sum(c * x[s] for s, c in t) for v, t in zip(x, terms))
    if any(reduced[k] for k in support):
        raise RuntimeError(f"invariant broken: reduced class {reduced} is nonzero on the support {support}")
    return reduced


@dataclass(frozen=True)
class Wall:
    """Codimension-1 face shared by the maximal cones ``sigma1`` and ``sigma2``.

    ``extra1``/``extra2`` are the ray indices completing tau inside each
    cone, and ``relation`` holds the unique integers (a_1, ..., a_{n-1})
    with  v_extra1 + v_extra2 + sum a_k * v_tau[k] = 0.
    """

    tau: tuple[int, ...]
    sigma1: int
    sigma2: int
    extra1: int
    extra2: int
    relation: tuple[int, ...]


def make_fan(n: int, rays, max_cones) -> Fan:
    """Validate raw integer data into a Fan.

    Raises ValueError on: non-integer ray coordinates or ray indices (never
    truncated), non-primitive or duplicate rays, no cones, cones of
    the wrong size, a facet not shared by exactly two maximal cones,
    non-unimodular (non-smooth) cones, found by inverting cone 0 and by each
    wall flip, cones that no walk across walls reaches, a wall whose two cones
    lie on one side (checked after the walk, in the walls' tau order), or
    overlapping cones.  The walk builds every wall once, as ``Fan.walls``.
    """
    if type(n) is not int:
        raise ValueError(f"fan dimension {n!r} is not an integer")
    if n < 1:
        raise ValueError("fan dimension must be at least 1")
    ray_tuples = tuple(tuple(ray) for ray in rays)
    for ray in ray_tuples:
        if not all(type(x) is int for x in ray):
            raise ValueError(f"ray {ray} has a non-integer coordinate")
        if len(ray) != n:
            raise ValueError(f"ray {ray} does not have {n} coordinates")
        if gcd(*ray) != 1:
            raise ValueError(f"non-primitive ray {ray}")
    if len(set(ray_tuples)) != len(ray_tuples):
        raise ValueError("duplicate rays")

    given = []
    cone_tuples = []
    for cone in max_cones:
        if not all(type(i) is int for i in cone):
            raise ValueError(f"cone {tuple(cone)} has a non-integer ray index")
        idx = tuple(sorted(cone))
        if len(idx) != n or len(set(idx)) != n:
            raise ValueError(f"maximal cone {tuple(cone)} must consist of {n} distinct rays")
        if idx[0] < 0 or idx[-1] >= len(ray_tuples):
            raise ValueError(f"cone {tuple(cone)} references a ray that does not exist")
        given.append(tuple(cone))
        cone_tuples.append(idx)
    if not cone_tuples:
        raise ValueError("a fan needs at least one maximal cone")
    if len(set(cone_tuples)) != len(cone_tuples):
        raise ValueError("duplicate maximal cones")

    used = {i for cone in cone_tuples for i in cone}
    if used != set(range(len(ray_tuples))):
        raise ValueError("every ray must generate some maximal cone")

    duals: list = [None] * len(cone_tuples)
    try:
        duals[0] = unimodular_inverse(list(zip(*(ray_tuples[i] for i in cone_tuples[0]))))
    except ValueError:
        raise ValueError(f"non-unimodular cone {given[0]}") from None
    by_facet = _facet_cones(cone_tuples, n)
    met: dict = {}  # tau -> its wall and <u_e1, v_e2>, which is -1 unless both cones lie on one side
    reached = [0]
    for c1 in reached:  # grows as the walk crosses walls into new cones
        cone1, dual1 = cone_tuples[c1], duals[c1]
        for k, e1 in enumerate(cone1):
            tau = cone1[:k] + cone1[k + 1 :]
            if tau in met:
                continue
            c2 = sum(by_facet[tau]) - c1  # the other cone on that facet
            e2 = sum(cone_tuples[c2]) - sum(tau)  # each cone is tau + 1 ray
            c = [dot(u, ray_tuples[e2]) for u in dual1]  # v_e2 in sigma1's dual basis, by position
            s, c_tau = c[k], c[:k] + c[k + 1 :]
            if duals[c2] is None:  # flip the dual basis into it, as the module docstring says
                if s != 1 and s != -1:
                    raise ValueError(f"non-unimodular cone {given[c2]}")
                u_e1, dual_tau = dual1[k], dual1[:k] + dual1[k + 1 :]
                rows = [tuple(x - s * ct * y for x, y in zip(u, u_e1)) for ct, u in zip(c_tau, dual_tau)]
                rows.insert(cone_tuples[c2].index(e2), tuple(s * y for y in u_e1))  # tau's rows keep their order
                duals[c2] = tuple(rows)
                reached.append(c2)
            relation = tuple(-x for x in c_tau)  # the relation reads the same from either cone
            wall = Wall(tau, c1, c2, e1, e2, relation) if c1 < c2 else Wall(tau, c2, c1, e2, e1, relation)
            met[tau] = wall, s
    if len(reached) != len(cone_tuples):
        c = duals.index(None)
        raise ValueError(
            f"overlapping cones: cone {cone_tuples[c]} is not reached from cone {cone_tuples[0]} across walls"
        )
    in_order = [met[tau] for tau in sorted(met)]
    for wall, side in in_order:
        if side != -1:
            raise ValueError(
                f"overlapping cones: wall relation for tau {wall.tau}: "
                f"rays {wall.extra1}, {wall.extra2} lie on one side"
            )

    fan = Fan(n, ray_tuples, tuple(cone_tuples), tuple(duals), tuple(wall for wall, _ in in_order))
    # every facet lies in two cones on opposite sides, so the number of cones covering a
    # generic point does not change across a facet and is the same everywhere (Oda 1988;
    # Ewald, GTM 168; for n = 1 there are then just two opposite rays).  A point inside
    # cone 0 and in no other closed cone makes it 1.
    inside = [sum(coords) for coords in zip(*fan.cone_rays(0))]
    for idx, basis_inv in zip(cone_tuples[1:], duals[1:]):
        if all(dot(row, inside) >= 0 for row in basis_inv):
            raise ValueError(f"overlapping cones: cone {idx} meets the interior of cone {cone_tuples[0]}")
    return fan


def _facet_cones(max_cones, dim: int) -> dict[tuple[int, ...], list[int]]:
    """The maximal cones on each facet, keyed by its sorted ray indices; each
    facet must lie in exactly two of them."""
    by_facet: dict[tuple[int, ...], list[int]] = {}
    for ci, cone in enumerate(max_cones):
        for facet in combinations(cone, dim - 1):
            by_facet.setdefault(facet, []).append(ci)
    for facet, cones in by_facet.items():
        if len(cones) != 2:
            raise ValueError(f"facet {facet} belongs to {len(cones)} maximal cones; a complete fan needs exactly 2")
    return by_facet


@lru_cache(maxsize=1)  # nothing in the package calls walls; the cache is the benchmark tracer's seam
def walls(fan: Fan) -> tuple[Wall, ...]:
    """All walls of the fan, in lexicographic order of their tau index sets: ``fan.walls``."""
    return fan.walls


def dual_basis(fan: Fan, cone_index: int) -> tuple[tuple[int, ...], ...]:
    """Vectors e^1..e^n of the dual lattice with <e^i, v_j> = delta_ij.

    Indexed against the cone's stored (sorted) ray order; stored by ``make_fan``.
    """
    return fan.duals[cone_index]


def wall_label(tau: tuple[int, ...]) -> str:
    """Report label of a wall: its tau ray indices, 1-based."""
    return "tau(" + ",".join(str(t + 1) for t in tau) + ")"


def projective_space(n: int) -> Fan:
    """The standard fan of n-dimensional projective space."""
    if type(n) is not int:
        raise ValueError(f"projective space dimension {n!r} is not an integer")
    if n < 1:
        raise ValueError("projective space needs dimension at least 1")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = list(combinations(range(n + 1), n))
    return make_fan(n, rays, cones)


# integer tokens of the text formats and of --graph: ASCII digits only, since int() also
# reads "1_0" and non-ASCII digits; ENTRY_LENGTH_CAP, Python's default int() digit limit,
# bounds every token on every version
INTEGER_TOKEN = r"[+-]?[0-9]+"
ENTRY_LENGTH_CAP = 4300
_INTEGER = re.compile(INTEGER_TOKEN)


def parse_int(token: str) -> int:
    """The integer an ``INTEGER_TOKEN`` spells; ValueError for any other token."""
    if len(token) > ENTRY_LENGTH_CAP or not _INTEGER.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) of every line left after '#' comments and blanks."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_fan(text: str) -> Fan:
    """Parse the fan text format.

    Grammar: first content line "dim n", then "ray x1 ... xn" lines, then
    "cone i1 ... in" lines with 1-based ray indices.  '#' starts a comment;
    blank lines are ignored; anything else is rejected with a line number.
    """
    dim: int | None = None
    rays: list[list[int]] = []
    cones: list[list[int]] = []
    for lineno, line in content_lines(text):
        parts = line.split()
        keyword, args = parts[0], parts[1:]
        try:
            values = [parse_int(tok) for tok in args]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {line!r}") from None
        if keyword == "dim":
            if dim is not None:
                raise ValueError(f"line {lineno}: duplicate dim line")
            if len(values) != 1 or values[0] < 1:
                raise ValueError(f"line {lineno}: dim takes one positive integer")
            dim = values[0]
        elif keyword == "ray":
            if dim is None:
                raise ValueError(f"line {lineno}: ray before dim")
            if cones:
                raise ValueError(f"line {lineno}: ray lines must precede cone lines")
            if len(values) != dim:
                raise ValueError(f"line {lineno}: ray needs {dim} coordinates")
            rays.append(values)
        elif keyword == "cone":
            if dim is None:
                raise ValueError(f"line {lineno}: cone before dim")
            if len(values) != dim:
                raise ValueError(f"line {lineno}: cone needs {dim} ray indices")
            if any(v < 1 or v > len(rays) for v in values):
                raise ValueError(f"line {lineno}: cone index out of range")
            cones.append([v - 1 for v in values])
        else:
            raise ValueError(f"line {lineno}: unknown keyword {keyword!r}")
    if dim is None:
        raise ValueError("missing dim line")
    if not cones:
        raise ValueError("missing cone lines")
    return make_fan(dim, rays, cones)


def format_fan(fan: Fan) -> str:
    lines = [f"dim {fan.dim}"]
    lines += ["ray " + " ".join(str(x) for x in ray) for ray in fan.rays]
    lines += ["cone " + " ".join(str(i + 1) for i in cone) for cone in fan.max_cones]
    return "\n".join(lines) + "\n"
