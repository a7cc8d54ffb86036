"""Configuration graphs of multicurve pairs and the two-multitwist data.

A pair of multicurves in minimal position is recorded as a bipartite
intersection pattern: m components on one side, k on the other, an m-by-k
matrix of geometric intersection numbers, and a positive multiplicity per
component.  The weighted matrix N = (d_i i(gamma_i, gamma_j)) is
nonnegative and irreducible when the graph is connected, so it carries
Perron data (mu, v) with Nv = mu v and v > 0.

mu scales the derivative matrices of the two multitwists,

    DT_c = [[1, mu], [0, 1]],    DT_d = [[1, 0], [-mu, 1]],

and products of these classify by trace: elliptic (|tr| < 2), parabolic
(|tr| = 2), Anosov (|tr| > 2).  The flat surface is the union of one
v_i-by-v_j rectangle per intersection point.

The recessive / critical / dominant class (mu below, equal to or above 2)
is decided exactly, with no tolerance, for every multiplicity vector.  With
D the diagonal of multiplicities and A the adjacency matrix, N = DA is
similar to the symmetric D^(1/2) A D^(1/2), so mu < 2, mu = 2 or mu > 2 as
the integer matrix 2D - DAD (congruent to 2D^-1 - A) is definite, singular
semidefinite or indefinite.  A graph with more intersection points than
vertices is dominant by counting; on the rest, trees and graphs with one
cycle, a rational LDL^T factorization decides, with no fill-in.
The two-multitwist group of a unit-multiplicity graph has finite index in
the stabilizer of the flat surface precisely in the first two classes.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DisconnectedGraph,
    GraphParseError,
    InvalidGraph,
    InvariantViolation,
)

RECESSIVE = "recessive"
CRITICAL = "critical"
DOMINANT = "dominant"

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
ANOSOV = "anosov"

FINITE_INDEX_IN_VEECH = "finite_index_in_veech"
NOT_FINITE_INDEX = "not_finite_index"

DEFAULT_TOL = 1e-12
PARABOLIC_TOL = 1e-9
DET_TOL = 1e-12

#: Most vertices (m + k) a parsed configuration graph may have; every report
#: holds dense (m + k)^2 matrices and one eigensolve of that size.
VERTEX_BUDGET = 2000
#: Most intersection points (one flat-surface rectangle each) a parsed graph
#: may have in total, which also caps each count, and the largest parsed
#: multiplicity; both are checked on Python ints, before any int64 array.
POINT_BUDGET = 20000
MULTIPLICITY_CAP = 10**6


@dataclass(frozen=True)
class ConfigurationGraph:
    """Bipartite multicurve intersection data with multiplicities.

    ``intersections[i][j]`` is the geometric intersection number of the
    i-th component of the first multicurve with the j-th component of the
    second; ``multiplicities`` lists the m + k twist multiplicities in that
    vertex order.  The bipartite multigraph must be connected.
    """

    intersections: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]
    _adjacency: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.intersections)
        if m == 0:
            raise InvalidGraph("need at least one component on each side")
        k = len(self.intersections[0])
        if k == 0 or any(len(row) != k for row in self.intersections):
            raise InvalidGraph("intersection matrix must be rectangular and nonempty")
        if any(x < 0 for row in self.intersections for x in row):
            raise InvalidGraph("intersection numbers must be nonnegative")
        if len(self.multiplicities) != m + k:
            raise InvalidGraph(
                f"expected {m + k} multiplicities, got {len(self.multiplicities)}"
            )
        if any(d < 1 for d in self.multiplicities):
            raise InvalidGraph("multiplicities must be positive")
        inter = np.array(self.intersections, dtype=np.int64)
        adj = np.zeros((m + k, m + k), dtype=np.int64)
        adj[:m, m:] = inter
        adj[m:, :m] = inter.T
        adj.flags.writeable = False
        object.__setattr__(self, "_adjacency", adj)
        seen = {0}
        stack = [0]
        while stack:
            for w in np.flatnonzero(adj[stack.pop()]).tolist():
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != m + k:
            raise DisconnectedGraph("configuration graph is not connected")

    @property
    def m(self) -> int:
        return len(self.intersections)

    @property
    def k(self) -> int:
        return len(self.intersections[0])

    @property
    def size(self) -> int:
        return self.m + self.k

    @property
    def unit_multiplicities(self) -> bool:
        return all(d == 1 for d in self.multiplicities)

    def adjacency(self) -> np.ndarray:
        """Unweighted multigraph adjacency, size m + k: read-only, built once."""
        return self._adjacency


def intersection_matrix(g: ConfigurationGraph) -> np.ndarray:
    """The weighted matrix N with N[i][j] = d_i * i(gamma_i, gamma_j).

    Zero on the two diagonal blocks; not symmetric in general, since each
    row is scaled by its own multiplicity.
    """
    return np.asarray(g.multiplicities, dtype=np.int64)[:, None] * g.adjacency()


@dataclass(frozen=True)
class PerronData:
    mu: float
    v: tuple[float, ...]
    residual: float
    tolerance: float


def perron(g: ConfigurationGraph) -> PerronData:
    """Dominant eigenpair (mu, v) of N = DA, with v > 0 of unit length.

    One symmetric eigensolve: D^(1/2) A D^(1/2) = D^(-1/2) N D^(1/2) has the
    eigenvalues of N, and its top eigenvector w gives v = D^(1/2) w.  The
    pair is then checked against N itself: ||Nv - mu v|| <= DEFAULT_TOL * mu
    and v > 0, else InvariantViolation.
    """
    root = np.sqrt(np.asarray(g.multiplicities, dtype=float))
    adj = g.adjacency().astype(float)
    eigenvalues, eigenvectors = np.linalg.eigh(root[:, None] * adj * root[None, :])
    mu = float(eigenvalues[-1])
    v = root * eigenvectors[:, -1]
    v /= np.linalg.norm(v)
    if v.sum() < 0:
        v = -v
    residual = float(np.linalg.norm(intersection_matrix(g) @ v - mu * v))
    if not residual <= DEFAULT_TOL * mu:
        raise InvariantViolation(
            f"Perron residual {residual:.3g} exceeds {DEFAULT_TOL:g} * mu = {mu:.12g}"
        )
    if not np.all(v > 0):
        raise InvariantViolation("Perron vector is not strictly positive")
    return PerronData(
        mu=mu, v=tuple(float(x) for x in v), residual=residual, tolerance=DEFAULT_TOL
    )


@dataclass(frozen=True)
class SL2Mat:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c - 1.0) > DET_TOL:
            raise InvalidGraph("matrix must have determinant 1")

    @property
    def trace(self) -> float:
        return self.a + self.d

    def __matmul__(self, other: "SL2Mat") -> "SL2Mat":
        return SL2Mat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Mat":
        return SL2Mat(self.d, -self.b, -self.c, self.a)


def multitwist_matrices(mu: float) -> tuple[SL2Mat, SL2Mat]:
    """Derivative matrices of the two multitwists at Perron value mu."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return SL2Mat(1.0, mu, 0.0, 1.0), SL2Mat(1.0, 0.0, -mu, 1.0)


def classify_sl2(mat: SL2Mat) -> str:
    """Trace trichotomy: elliptic, parabolic or Anosov."""
    t = abs(mat.trace)
    if abs(t - 2.0) <= PARABOLIC_TOL:
        return PARABOLIC
    return ELLIPTIC if t < 2.0 else ANOSOV


# ---------------------------------------------------------------------------
# exact classification

def classify_graph(g: ConfigurationGraph) -> str:
    """Recessive / critical / dominant: mu below, equal to or above 2, exactly.

    With E intersection points on V = m + k vertices, rho(A) >= 2E/V (the
    all-ones Rayleigh quotient) and mu >= rho(A) (DA >= A), so E > V is
    dominant at once.  Otherwise the connected graph is a tree or has one
    cycle, and symmetric elimination in rationals on M = 2D - DAD, congruent
    to 2I - D^(1/2) A D^(1/2), never fills in: it takes from a lazy heap the
    row with fewest nonzeros, then lowest index.  All pivots positive: M is
    definite, mu < 2.  Only the last pivot zero: M is semidefinite of
    nullity one, mu = 2 (every proper principal submatrix of a connected
    critical graph is definite, so an earlier zero pivot rules that out).
    Any other non-positive pivot: mu > 2.
    """
    if sum(map(sum, g.intersections)) > g.size:
        return DOMINANT
    d = g.multiplicities
    adj = g.adjacency()
    rows = [
        {j: -d[i] * d[j] * int(adj[i, j]) for j in np.flatnonzero(adj[i]).tolist()}
        for i in range(g.size)
    ]
    for i, row in enumerate(rows):
        row[i] = Fraction(2 * d[i])
    heap = sorted((len(row), i) for i, row in enumerate(rows))
    remaining = set(range(g.size))
    while remaining:
        length, pivot_row = heapq.heappop(heap)
        row = rows[pivot_row]
        if pivot_row not in remaining or length != len(row):
            continue  # stale: eliminated, or pushed again with a new length
        remaining.remove(pivot_row)
        pivot = row.pop(pivot_row, 0)
        if pivot <= 0:
            return CRITICAL if pivot == 0 and not remaining else DOMINANT
        for i, a in row.items():
            target = rows[i]
            before = len(target)
            del target[pivot_row]
            for j, b in row.items():
                value = target.get(j, 0) - a * b / pivot
                if value:
                    target[j] = value
                else:
                    target.pop(j, None)
            if len(target) != before:
                heapq.heappush(heap, (len(target), i))
    return RECESSIVE


@dataclass(frozen=True)
class LatticeCertificate:
    graph_class: str
    status: str | None  # None for weighted graphs
    teichmuller_curve_by_mu: bool


def lattice_certificate(g: ConfigurationGraph) -> LatticeCertificate:
    """Finite-index status of the two-multitwist group and the mu <= 2 flag.

    Both follow from the exact class.  The finite-index status is reported
    for unit multiplicities only; the flag (a lattice stabilizer whenever
    mu <= 2) for every graph.
    """
    cls = classify_graph(g)
    status: str | None = None
    if g.unit_multiplicities:
        status = FINITE_INDEX_IN_VEECH if cls != DOMINANT else NOT_FINITE_INDEX
    return LatticeCertificate(
        graph_class=cls, status=status, teichmuller_curve_by_mu=cls != DOMINANT
    )


@dataclass(frozen=True)
class Rectangle:
    point_id: int
    c_index: int
    d_index: int
    width: float
    height: float


@dataclass(frozen=True)
class FlatSurfaceData:
    rectangles: tuple[Rectangle, ...]
    horizontal_gluing: tuple[tuple[int, int], ...]
    vertical_gluing: tuple[tuple[int, int], ...]
    total_area: float


def flat_surface(g: ConfigurationGraph, data: PerronData) -> FlatSurfaceData:
    """One rectangle per intersection point, sized by the Perron vector of g.

    Rectangles that share a component are glued in the cyclic order of
    their point ids along that component (deterministic but otherwise
    arbitrary): horizontally along first-multicurve components, vertically
    along second-multicurve components.
    """
    v = data.v
    rectangles: list[Rectangle] = []
    by_c: list[list[int]] = [[] for _ in range(g.m)]
    by_d: list[list[int]] = [[] for _ in range(g.k)]
    for i in range(g.m):
        for j in range(g.k):
            for _ in range(g.intersections[i][j]):
                by_c[i].append(len(rectangles))
                by_d[j].append(len(rectangles))
                rectangles.append(
                    Rectangle(
                        point_id=len(rectangles),
                        c_index=i,
                        d_index=j,
                        width=v[i],
                        height=v[g.m + j],
                    )
                )

    def cyclic(groups: list[list[int]]) -> list[tuple[int, int]]:
        return [
            (ids[t], ids[(t + 1) % len(ids)])
            for ids in groups
            if len(ids) >= 2
            for t in range(len(ids))
        ]

    horizontal, vertical = cyclic(by_c), cyclic(by_d)
    area = sum(r.width * r.height for r in rectangles)
    if not area > 0:
        raise InvalidGraph("flat surface has no area")
    return FlatSurfaceData(
        rectangles=tuple(rectangles),
        horizontal_gluing=tuple(horizontal),
        vertical_gluing=tuple(vertical),
        total_area=area,
    )


# ---------------------------------------------------------------------------
# construction helpers and the input DSL

def _from_edges(n: int, edges: list[tuple[int, int]]) -> ConfigurationGraph:
    """Split a connected bipartite multigraph on vertices 0..n-1, given by its
    edge list, into the two-sided intersection form (vertex 0 on the first
    side, each side in increasing vertex order)."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        neighbours[u].append(w)
        neighbours[w].append(u)
    color = [-1] * n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for w in neighbours[u]:
            if color[w] == -1:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                raise InvalidGraph(
                    "graph is not bipartite: two crossing multicurves must "
                    "alternate"
                )
    c_side = [v for v in range(n) if color[v] == 0]
    d_side = [v for v in range(n) if color[v] == 1]
    index = {v: t for side in (c_side, d_side) for t, v in enumerate(side)}
    inter = [[0] * len(d_side) for _ in c_side]
    for u, w in edges:
        if color[u]:
            u, w = w, u
        inter[index[u]][index[w]] += 1
    return ConfigurationGraph(tuple(map(tuple, inter)), (1,) * n)


def path_family(n: int) -> ConfigurationGraph:
    """The A-family: a path on n vertices."""
    if n < 2:
        raise InvalidGraph("path family needs at least 2 vertices")
    return _from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _forked_path(n: int, fork: int) -> ConfigurationGraph:
    """A path on n - 1 vertices with an extra leaf n - 1 on vertex ``fork``."""
    return _from_edges(n, [(i, i + 1) for i in range(n - 2)] + [(fork, n - 1)])


def forked_path_family(n: int) -> ConfigurationGraph:
    """The D-family: a path on n - 1 vertices with one extra fork leaf."""
    if n < 4:
        raise InvalidGraph("forked path family needs at least 4 vertices")
    return _forked_path(n, 1)


def exceptional_family(n: int) -> ConfigurationGraph:
    """The E-family trees for n in {6, 7, 8}: arms (1, 2, n - 4)."""
    if n not in (6, 7, 8):
        raise InvalidGraph("exceptional family exists for 6, 7, 8 only")
    return _forked_path(n, 2)


def cycle_family(n: int) -> ConfigurationGraph:
    """A cycle on n vertices; n must be even to admit a bipartition."""
    if n < 3:
        raise InvalidGraph("cycle family needs at least 3 vertices")
    return _from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_family(leaves: int) -> ConfigurationGraph:
    """A star with the given number of leaves."""
    if leaves < 1:
        raise InvalidGraph("star family needs at least 1 leaf")
    return _from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


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
        n = int(arg.strip())
    except ValueError:
        raise GraphParseError(
            f"invalid family size {arg.strip()!r} in {spec!r}", token=arg.strip()
        ) from None
    _check_budget(n + 1 if name == "star" else n, spec)
    try:
        return _FAMILY_BUILDERS[name](n)
    except InvalidGraph as exc:
        raise GraphParseError(str(exc), token=spec) from exc


_INTER_TOKEN = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_intersections(
    inter_text: str, mult_text: str = "", m: int = 0, k: int = 0
) -> ConfigurationGraph:
    """Parse an explicit bipartite spec.

    ``inter_text`` lists (i, j, count) triples with 1-based component
    indices; side sizes are inferred from the largest indices unless given.
    ``mult_text`` is a comma list of m + k multiplicities (default all 1).
    """
    entries = []
    cleaned = inter_text.replace(" ", "")
    pos = points = 0
    while pos < len(cleaned):
        if cleaned[pos] == ",":
            pos += 1
            continue
        match = _INTER_TOKEN.match(cleaned, pos)
        if not match:
            raise GraphParseError(
                f"invalid intersection token at position {pos}: "
                f"{cleaned[pos:pos + 12]!r}",
                token=cleaned[pos : pos + 12],
                position=pos,
            )
        i, j, count = map(int, match.groups())
        entries.append((i, j, count))
        points += count
        if points > POINT_BUDGET:
            raise GraphParseError(
                f"more than POINT_BUDGET = {POINT_BUDGET} intersection points, "
                f"at {match.group(0)!r}",
                token=match.group(0),
                position=pos,
            )
        pos = match.end()
    if not entries:
        raise GraphParseError("no intersections given", token=inter_text)
    m = max(m, max(e[0] for e in entries))
    k = max(k, max(e[1] for e in entries))
    _check_budget(m + k, inter_text)
    inter = [[0] * k for _ in range(m)]
    for i, j, count in entries:
        if i < 1 or j < 1:
            raise GraphParseError(
                f"component indices are 1-based, got ({i}, {j})", token=f"({i},{j})"
            )
        inter[i - 1][j - 1] += count
    if mult_text.strip():
        try:
            mult = tuple(int(t) for t in mult_text.split(","))
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
    try:
        return ConfigurationGraph(tuple(tuple(row) for row in inter), mult)
    except (InvalidGraph, DisconnectedGraph) as exc:
        raise GraphParseError(str(exc), token=inter_text) from exc


def parse_config_spec(text: str) -> ConfigurationGraph:
    """Parse either a named family or a ``c=..; d=..; inter=..; mult=..`` spec."""
    if "=" not in text:
        return parse_family(text)
    fields = {}
    for part in text.split(";"):
        if not part.strip():
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise GraphParseError(
                f"expected key=value, got {part.strip()!r}", token=part.strip()
            )
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"c", "d", "inter", "mult"}
    if unknown:
        raise GraphParseError(
            f"unknown sections {sorted(unknown)}", token=",".join(sorted(unknown))
        )
    if "inter" not in fields:
        raise GraphParseError("missing inter=... section", token="inter")
    sizes = []
    for key in ("c", "d"):
        try:
            sizes.append(int(fields.get(key, "0")))
        except ValueError:
            raise GraphParseError(
                f"invalid side size {key}={fields[key]!r}", token=fields[key]
            ) from None
    m, k = sizes
    return parse_intersections(fields["inter"], fields.get("mult", ""), m=m, k=k)
