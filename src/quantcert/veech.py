"""Configuration graphs of multicurve pairs and the two-multitwist data.

A pair of multicurves in minimal position is recorded as a bipartite
intersection pattern: m components on one side, k on the other, the
geometric intersection number of each pair of components that meet, and a
positive multiplicity per component.  The weighted matrix N = (d_i
i(gamma_i, gamma_j)) is nonnegative and irreducible when the graph is
connected, so it carries Perron data (mu, v) with Nv = mu v and v > 0.

mu scales the derivative matrices of the two multitwists,

    DT_c = [[1, mu], [0, 1]],    DT_d = [[1, 0], [-mu, 1]],

and tr(DT_c DT_d) = 2 - mu^2, so the trace of their product restates the
recessive / critical / dominant class below (Leininger, Geom. Topol. 8,
2004).  The flat surface is the union of one v_i-by-v_j rectangle per
intersection point; a JSON report takes their list as text, written
straight from the points (``flat_surface_json``).

A graph, a named family too, holds only those (i, j, count) triples; every
step but the eigensolve reads them once, in time linear in their number.
The graph is bipartite, so its adjacency A is one m-by-k block B, built by
``perron`` alone.  With D = (D_c, D_d) the diagonal of multiplicities, N = DA
is similar to D^(1/2) A D^(1/2) = [[0, X], [X^T, 0]] with
X = D_c^(1/2) B D_d^(1/2), so mu is the top singular value of X.  The
recessive / critical / dominant class (mu below, equal to or above 2) is
decided exactly, with no tolerance, for every multiplicity vector: mu < 2,
mu = 2 or mu > 2 as the integer matrix 2D - DAD (congruent to 2D^-1 - A)
is definite, singular semidefinite or indefinite.  A graph with more
intersection points than vertices is dominant by counting; on the rest,
trees and graphs with one cycle, an LDL^T factorization decides, with no
fill-in, in exact rationals held as reduced pairs of Python ints.
The two-multitwist group of a unit-multiplicity graph has finite index in
the stabilizer of the flat surface precisely in the first two classes.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from math import gcd

from .errors import (
    DisconnectedGraph,
    GraphParseError,
    InvalidGraph,
    InvariantViolation,
)
from .grammar import numeral, sections

RECESSIVE = "recessive"
CRITICAL = "critical"
DOMINANT = "dominant"

FINITE_INDEX_IN_VEECH = "finite_index_in_veech"
NOT_FINITE_INDEX = "not_finite_index"

DEFAULT_TOL = 1e-12

#: Most vertices (m + k) a parsed configuration graph may have; ``perron``
#: builds the m-by-k intersection block and runs one eigensolve of size min(m, k).
VERTEX_BUDGET = 2000
#: Most intersection points (one flat-surface rectangle each) a parsed graph
#: may have in total, which also caps each count, and the largest parsed
#: multiplicity; both are checked on Python ints, before a graph is built.
POINT_BUDGET = 20000
MULTIPLICITY_CAP = 10**6


@dataclass(frozen=True)
class ConfigurationGraph:
    """Bipartite multicurve intersection data with multiplicities.

    Each triple (i, j, count) of ``points`` says that component i of the
    first multicurve (0 <= i < m) meets component j of the second
    (0 <= j < k) in ``count`` points.  The constructor sums repeated pairs,
    drops zero counts and sorts the triples, so each pair appears once,
    row-major, with a positive count.  ``multiplicities`` lists the m + k
    twist multiplicities, first side first.  The graph must be connected.
    """

    m: int
    k: int
    points: tuple[tuple[int, int, int], ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        m, k = self.m, self.k
        if m < 1 or k < 1:
            raise InvalidGraph("need at least one component on each side")
        if len(self.multiplicities) != m + k:
            raise InvalidGraph(f"expected {m + k} multiplicities, got {len(self.multiplicities)}")
        if any(d < 1 for d in self.multiplicities):
            raise InvalidGraph("multiplicities must be positive")
        # sorted, a repeated pair follows its first occurrence and is summed into it
        points: list[tuple[int, int, int]] = []
        neighbours: list[list[int]] = [[] for _ in range(m + k)]
        last_i = last_j = -1
        for point in sorted(self.points):
            i, j, count = point
            if not (0 <= i < m and 0 <= j < k):
                raise InvalidGraph(f"point ({i}, {j}) is outside the {m}-by-{k} block")
            if count <= 0:
                if count:
                    raise InvalidGraph("intersection numbers must be nonnegative")
            elif i == last_i and j == last_j:
                points[-1] = (i, j, points[-1][2] + count)
            else:
                last_i, last_j = i, j
                points.append(point)
                neighbours[i].append(m + j)
                neighbours[m + j].append(i)
        object.__setattr__(self, "points", tuple(points))
        seen, stack = {0}, [0]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != m + k:
            raise DisconnectedGraph("configuration graph is not connected")

    @property
    def size(self) -> int:
        return self.m + self.k


@dataclass(frozen=True)
class PerronData:
    mu: float
    v: tuple[float, ...]
    residual: float


def perron(g: ConfigurationGraph) -> PerronData:
    """Dominant eigenpair (mu, v) of N = DA, with v > 0 of unit length.

    One symmetric eigensolve, on the smaller side: with X = D_c^(1/2) B
    D_d^(1/2), the top eigenpair (mu^2, u) of X X^T gives the other half
    X^T u / mu of the top eigenvector w of D^(1/2) A D^(1/2) (X^T X and
    X u / mu when k < m), and v = D^(1/2) w.  The pair is then checked
    against N itself, blockwise as (d_c B v_d, d_d B^T v_c):
    ||Nv - mu v|| <= DEFAULT_TOL * mu and v > 0, else InvariantViolation.
    """
    import numpy as np

    m = g.m
    block = np.zeros((m, g.k), dtype=np.int64)
    for i, j, count in g.points:
        block[i, j] = count
    d = np.asarray(g.multiplicities, dtype=float)
    root = np.sqrt(d)
    x = root[:m, None] * block * root[None, m:]
    if m > g.k:
        x = x.T
    eigenvalues, eigenvectors = np.linalg.eigh(x @ x.T)
    mu = float(np.sqrt(eigenvalues[-1]))
    halves = (eigenvectors[:, -1], x.T @ eigenvectors[:, -1] / mu)
    v = root * np.concatenate(halves[::-1] if m > g.k else halves)
    v /= np.linalg.norm(v)
    if v.sum() < 0:
        v = -v
    nv = np.concatenate((d[:m] * (block @ v[m:]), d[m:] * (v[:m] @ block)))
    residual = float(np.linalg.norm(nv - mu * v))
    if not residual <= DEFAULT_TOL * mu:
        raise InvariantViolation(
            f"Perron residual {residual:.3g} exceeds {DEFAULT_TOL:g} * mu = {mu:.12g}"
        )
    if not np.all(v > 0):
        raise InvariantViolation("Perron vector is not strictly positive")
    return PerronData(mu=mu, v=tuple(v.tolist()), residual=residual)


def multitwist_matrices(mu: float) -> tuple[tuple, tuple]:
    """Derivative matrices DT_c, DT_d (as row pairs) of the two multitwists at mu."""
    return ((1.0, mu), (0.0, 1.0)), ((1.0, 0.0), (-mu, 1.0))


# ---------------------------------------------------------------------------
# exact classification

def classify_graph(g: ConfigurationGraph) -> str:
    """Recessive / critical / dominant: mu below, equal to or above 2, exactly.

    With E intersection points on V = m + k vertices, rho(A) >= 2E/V (the
    all-ones Rayleigh quotient) and mu >= rho(A) (DA >= A), so E > V is
    dominant at once.  Otherwise the connected graph is a tree or has one
    cycle, and symmetric elimination in rationals on M = 2D - DAD, congruent
    to 2I - D^(1/2) A D^(1/2), never fills in: it takes from a lazy heap the
    row with fewest nonzeros, then lowest index.  Each entry is a reduced
    (numerator, denominator) pair of ints, denominator positive, reduced by
    one gcd per update.  All pivots positive: M is
    definite, mu < 2.  Only the last pivot zero: M is semidefinite of
    nullity one, mu = 2 (every proper principal submatrix of a connected
    critical graph is definite, so an earlier zero pivot rules that out).
    Any other non-positive pivot: mu > 2.
    """
    if sum(count for _, _, count in g.points) > g.size:
        return DOMINANT
    d, m = g.multiplicities, g.m
    # each entry is a reduced (numerator, denominator) pair, denominator > 0
    rows: list[dict] = [{} for _ in range(g.size)]
    for i, j, count in g.points:
        rows[i][m + j] = rows[m + j][i] = (-d[i] * d[m + j] * count, 1)
    for i, row in enumerate(rows):
        row[i] = (2 * d[i], 1)
    heap = sorted((len(row), i) for i, row in enumerate(rows))
    remaining = set(range(g.size))
    while remaining:
        length, pivot_row = heapq.heappop(heap)
        row = rows[pivot_row]
        if pivot_row not in remaining or length != len(row):
            continue  # stale: eliminated, or pushed again with a new length
        remaining.remove(pivot_row)
        pivot, pivot_den = row.pop(pivot_row, (0, 1))
        if pivot <= 0:
            return CRITICAL if pivot == 0 and not remaining else DOMINANT
        for i, (a, a_den) in row.items():
            # the factor a / pivot, unreduced, with a positive denominator
            f, f_den = a * pivot_den, a_den * pivot
            target = rows[i]
            before = len(target)
            del target[pivot_row]
            for j, (b, b_den) in row.items():
                t, t_den = target.get(j, (0, 1))
                # t - f * b, over the common denominator t_den * f_den * b_den
                fb_den = f_den * b_den
                value = t * fb_den - f * b * t_den
                if value:
                    den = t_den * fb_den
                    r = gcd(value, den)
                    target[j] = (value // r, den // r)
                else:
                    target.pop(j, None)
            if len(target) != before:
                heapq.heappush(heap, (len(target), i))
    return RECESSIVE


def lattice_certificate(g: ConfigurationGraph) -> dict:
    """The exact class, the finite-index status of the two-multitwist group
    and the mu <= 2 flag, as the report's ``graph_class``, ``lattice_status``
    and ``teichmuller_curve_by_mu``.

    Both follow from the exact class.  The finite-index status is reported
    for unit multiplicities only (None otherwise); the flag (a lattice
    stabilizer whenever mu <= 2) for every graph.
    """
    cls = classify_graph(g)
    status: str | None = None
    if all(d == 1 for d in g.multiplicities):
        status = FINITE_INDEX_IN_VEECH if cls != DOMINANT else NOT_FINITE_INDEX
    return {
        "graph_class": cls,
        "lattice_status": status,
        "teichmuller_curve_by_mu": cls != DOMINANT,
    }


def _units(g: ConfigurationGraph):
    """(i, j) once per unit of each count, over ``g.points`` in order."""
    return ((i, j) for i, j, count in g.points for _ in range(count))


def _area(g: ConfigurationGraph, v: tuple[float, ...]) -> float:
    """The total area, summed per unit in point-id order."""
    m = g.m
    area = sum(v[i] * v[m + j] for i, j in _units(g))
    if not area > 0:
        # v > 0 and a connected graph has a point
        raise InvariantViolation("flat surface has no area")
    return area


# One rectangle record as an item of the list, as
# json.dumps(..., sort_keys=True, indent=2) writes it at depth 0.
_RECTANGLE_JSON = (
    '\n  {\n    "c_component": %d,\n    "d_component": %d,\n    "height": %s,'
    '\n    "id": %d,\n    "width": %s\n  }'
)


def flat_surface_json(g: ConfigurationGraph, data: PerronData) -> tuple[str, float]:
    """One rectangle per intersection point, sized by the Perron vector of g,
    as JSON text, and their total area.

    Each rectangle is the record ``{id, c_component, d_component, width,
    height}``, and the text is exactly ``json.dumps(records, sort_keys=True,
    indent=2)``.  Point ids run over ``g.points`` in order, row-major, one per
    unit of each count.  How the rectangles glue along a component depends
    on the order in which it meets its points, which the intersection
    numbers do not record, so no gluing is reported.  The text is written
    straight from the points, each side length formatted once; v > 0 is
    finite, so every float is its ``repr``."""
    m = g.m
    sides = [float.__repr__(x) for x in data.v]
    items = [
        _RECTANGLE_JSON % (i, j, sides[m + j], n, sides[i])
        for n, (i, j) in enumerate(_units(g))
    ]
    return "[" + ",".join(items) + "\n]", _area(g, data.v)


# ---------------------------------------------------------------------------
# construction helpers and the input DSL

def _unit_graph(m: int, k: int, points: list) -> ConfigurationGraph:
    return ConfigurationGraph(m, k, points, (1,) * (m + k))


def _path_points(n: int) -> list[tuple[int, int, int]]:
    """The points of a path on vertices 0..n-1.  Vertex v is component v // 2
    of side v % 2, so edge (v, v + 1) is the point ((v + 1) // 2, v // 2), and
    a leaf added to the path is the last component of its side."""
    return [((v + 1) // 2, v // 2, 1) for v in range(n - 1)]


def path_family(n: int) -> ConfigurationGraph:
    """The A-family: a path on n vertices."""
    if n < 2:
        raise InvalidGraph("path family needs at least 2 vertices")
    return _unit_graph((n + 1) // 2, n // 2, _path_points(n))


def forked_path_family(n: int) -> ConfigurationGraph:
    """The D-family: a path on n - 1 vertices with a leaf on vertex 1."""
    if n < 4:
        raise InvalidGraph("forked path family needs at least 4 vertices")
    return _unit_graph(n // 2 + 1, (n - 1) // 2, _path_points(n - 1) + [(n // 2, 0, 1)])


def exceptional_family(n: int) -> ConfigurationGraph:
    """The E-family trees for n in {6, 7, 8}: arms (1, 2, n - 4), a path on
    n - 1 vertices with a leaf on vertex 2."""
    if n not in (6, 7, 8):
        raise InvalidGraph("exceptional family exists for 6, 7, 8 only")
    return _unit_graph(n // 2, (n + 1) // 2, _path_points(n - 1) + [(1, (n - 1) // 2, 1)])


def cycle_family(n: int) -> ConfigurationGraph:
    """A cycle on n vertices; n must be even to admit a bipartition."""
    if n < 3:
        raise InvalidGraph("cycle family needs at least 3 vertices")
    if n % 2:
        raise InvalidGraph("graph is not bipartite: two crossing multicurves must alternate")
    return _unit_graph(n // 2, n // 2, _path_points(n) + [(0, n // 2 - 1, 1)])


def star_family(leaves: int) -> ConfigurationGraph:
    """A star with the given number of leaves."""
    if leaves < 1:
        raise InvalidGraph("star family needs at least 1 leaf")
    return _unit_graph(1, leaves, [(0, j, 1) for j in range(leaves)])


def _check_budget(vertices: int, token: str) -> None:
    if vertices > VERTEX_BUDGET:
        raise GraphParseError(
            f"configuration graph has {vertices} vertices, over the vertex budget "
            f"VERTEX_BUDGET = {VERTEX_BUDGET}",
            token=token,
        )


_FAMILY_BUILDERS = {
    "A": path_family,
    "D": forked_path_family,
    "E": exceptional_family,
    "cycle": cycle_family,
    "star": star_family,
}


def parse_family(spec: str) -> ConfigurationGraph:
    """Parse a named family spec: A:n, D:n, E:6|7|8, cycle:n, star:n."""
    name, sep, arg = spec.partition(":")
    name = name.strip()
    if not sep or name not in _FAMILY_BUILDERS:
        raise GraphParseError(
            f"unknown family {spec!r}; expected A:n, D:n, E:6|7|8, cycle:n or star:n",
            token=spec,
        )
    try:
        n = numeral(arg)
    except ValueError:
        raise GraphParseError(
            f"invalid family size {arg.strip()!r} in {spec!r}", token=arg.strip()
        ) from None
    _check_budget(n + 1 if name == "star" else n, spec)
    return _FAMILY_BUILDERS[name](n)


#: commas and blanks, then an (i, j, count) triple with blanks around each
#: numeral, the first character of a bad token, or the end of the text
_INTER_TOKEN = re.compile(
    r"[\s,]*(?:(\(\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\))|([^\s,])|\Z)"
)


def parse_intersections(inter_text: str, mult_text: str = "") -> ConfigurationGraph:
    """Parse an explicit bipartite spec.

    ``inter_text`` lists (i, j, count) triples with 1-based component
    indices; the side sizes m and k are the largest indices on each side.
    A pair may be listed more than once (its counts add up) or with count 0.
    ``mult_text`` is a comma list of m + k multiplicities (default all 1).
    Blanks may stand around each numeral and between triples, so a file may
    list one triple per line, but never inside a numeral; error positions
    count the text as given.  At most ``POINT_BUDGET`` triples may be
    listed, and their counts may add up to at most ``POINT_BUDGET``.
    """
    entries = []  # 0-based
    points = 0
    for match in _INTER_TOKEN.finditer(inter_text):
        if match.lastindex is None:  # only commas and blanks were left
            break
        if match.lastindex == 5:
            pos = match.start(5)
            token = inter_text[pos : pos + 12]
            message = f"invalid intersection token at position {pos}: {token!r}"
            raise GraphParseError(message, token=token, position=pos)
        try:
            i, j, count = map(numeral, match.group(2, 3, 4))
        except ValueError:  # a numeral longer than int() converts
            token, pos = match.group(1), match.start(1)
            message = f"numeral too long in intersection token at position {pos}: {token[:12]!r}..."
            raise GraphParseError(message, token=token, position=pos) from None
        entries.append((i - 1, j - 1, count))
        points += count
        if points > POINT_BUDGET or len(entries) > POINT_BUDGET:
            token, pos = match.group(1), match.start(1)
            what = "intersection points" if points > POINT_BUDGET else "listed triples"
            message = f"more than POINT_BUDGET = {POINT_BUDGET} {what}, at {token!r}"
            raise GraphParseError(message, token=token, position=pos)
    if not entries:
        raise GraphParseError("no intersections given", token=inter_text)
    rows, columns, _ = zip(*entries)
    m, k = max(rows) + 1, max(columns) + 1
    _check_budget(m + k, inter_text)
    if min(rows) < 0 or min(columns) < 0:
        i, j = next((i + 1, j + 1) for i, j, _ in entries if i < 0 or j < 0)
        raise GraphParseError(
            f"component indices are 1-based, got ({i}, {j})", token=f"({i},{j})"
        )
    if mult_text.strip():
        try:
            mult = tuple(map(numeral, mult_text.split(",")))
        except ValueError:
            raise GraphParseError(
                f"invalid multiplicity list {mult_text!r}", token=mult_text
            ) from None
        if len(mult) != m + k:
            raise GraphParseError(
                f"expected {m + k} multiplicities, got {len(mult)}", token=mult_text
            )
        if max(mult) > MULTIPLICITY_CAP:
            raise GraphParseError(
                f"multiplicity {max(mult)} is over MULTIPLICITY_CAP = {MULTIPLICITY_CAP}",
                token=mult_text,
            )
    else:
        mult = (1,) * (m + k)
    return ConfigurationGraph(m, k, entries, mult)


def parse_config_spec(text: str) -> ConfigurationGraph:
    """Parse either a named family or a ``c=..; d=..; inter=..; mult=..`` spec.

    Sections and numerals follow ``grammar``.  A declared side size c or d
    must equal the largest index on its side.
    """
    if "=" not in text:
        return parse_family(text)
    found = sections(text, ("c", "d", "inter", "mult"))
    fields = {key: value.strip() for key, (value, _, _) in found.items()}
    if "inter" not in fields:
        raise GraphParseError("missing inter=... section", token="inter")
    declared = {}
    for key in ("c", "d"):
        if key in fields:
            try:
                declared[key] = numeral(fields[key])
            except ValueError:
                raise GraphParseError(
                    f"invalid side size {key}={fields[key]!r}", token=fields[key]
                ) from None
    graph = parse_intersections(fields["inter"], fields.get("mult", ""))
    sizes = {"c": graph.m, "d": graph.k}
    # a declared side over the budget is reported as such, not as a mismatch
    _check_budget(sum(max(declared.get(key, 0), n) for key, n in sizes.items()), text)
    for key, n in declared.items():
        if n != sizes[key]:
            raise GraphParseError(
                f"{key}={n} does not match the largest {key} index {sizes[key]} in inter",
                token=fields[key],
            )
    return graph
