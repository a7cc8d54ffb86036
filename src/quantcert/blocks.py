"""Color palettes, admissible colorings and block dimensions on trivalent graphs.

A level p >= 5 determines a palette of colors: the even integers 0, 2, ...,
p-3 when p is odd, and the full range 0, 1, ..., (p-4)/2 when p is even.
Palette membership is therefore a range-and-parity test (``in_palette``).
Three colors meeting at a trivalent vertex are admissible when they satisfy
the triangle inequalities, have even sum, and their sum stays below the
level bound (2p-4 for odd p, p-4 for even p).

A block space is attached to a trivalent graph whose vertices all have
degree three, counting loops twice and boundary tails once.  Its dimension
is the number of colorings of the internal edges making every vertex
admissible.  The tadpole graph (one vertex, one loop, one tail) is the
basic example; its basis is indexed by the admissible loop colors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GraphParseError, InvalidColor, InvalidGraph


def level_colors(p: int) -> tuple[int, ...]:
    """Palette of colors for level p."""
    if p < 5:
        raise ValueError(f"level must be at least 5, got {p}")
    if p % 2:
        return tuple(range(0, p - 2, 2))
    return tuple(range(0, (p - 4) // 2 + 1))


def in_palette(c: int, p: int) -> bool:
    """Whether c is a color of level p, i.e. ``c in level_colors(p)``."""
    if p < 5:
        raise ValueError(f"level must be at least 5, got {p}")
    if p % 2:
        return 0 <= c <= p - 3 and c % 2 == 0
    return 0 <= c <= (p - 4) // 2


def admissible_bound(p: int) -> int:
    """Largest allowed color sum at a vertex of level p."""
    return 2 * p - 4 if p % 2 else p - 4


def _admissible(a: int, b: int, c: int, p: int) -> bool:
    """Admissibility with out-of-palette colors treated as inadmissible."""
    if not (in_palette(a, p) and in_palette(b, p) and in_palette(c, p)):
        return False
    if (a + b + c) % 2:
        return False
    if a + b + c > admissible_bound(p):
        return False
    return abs(a - b) <= c <= a + b


def is_admissible(a: int, b: int, c: int, p: int) -> bool:
    """Decide admissibility of the triple (a, b, c) at level p.

    Raises InvalidColor when any of the three colors is outside the
    palette of the level.
    """
    for x in (a, b, c):
        if not in_palette(x, p):
            raise InvalidColor(
                f"color {x} is not in the level-{p} palette {level_colors(p)}"
            )
    return _admissible(a, b, c, p)


def tadpole_basis(i: int, p: int) -> tuple[int, ...]:
    """Increasing loop colors a with (a, a, i) admissible; the tadpole basis.

    The triangle inequality and the level bound confine a to the interval
    ceil(i/2) <= a <= (bound - i)/2, so only that interval is filtered.
    """
    if not in_palette(i, p):
        raise InvalidColor(f"tail color {i} is not in the level-{p} palette")
    lo, hi = (i + 1) // 2, (admissible_bound(p) - i) // 2
    return tuple(a for a in range(lo, hi + 1) if _admissible(a, a, i, p))


@dataclass(frozen=True)
class ColoredGraph:
    """Trivalent graph with loops, boundary tails, and free internal edges.

    ``edges`` is a multiset of vertex pairs (parallel edges allowed, loops
    written as (v, v)); ``tails`` is a list of (vertex, boundary color).
    Every vertex must have total degree three, counting tails once and
    loops twice.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...] = ()
    tails: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(tuple(sorted(e)) for e in self.edges)
        )
        object.__setattr__(self, "tails", tuple(tuple(t) for t in self.tails))
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InvalidGraph("duplicate vertex labels")
        degree = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            if u not in vset or v not in vset:
                raise InvalidGraph(f"edge ({u}, {v}) uses an unknown vertex")
            degree[u] += 1
            degree[v] += 1
        for v, _color in self.tails:
            if v not in vset:
                raise InvalidGraph(f"tail at unknown vertex {v}")
            degree[v] += 1
        bad = {v: d for v, d in degree.items() if d != 3}
        if bad:
            raise InvalidGraph(f"graph is not trivalent at vertices {bad}")

    def vertex_slots(self, v: int) -> tuple[list[int], list[int]]:
        """Tail colors and edge indices (loops repeated) incident to v."""
        tails = [c for (w, c) in self.tails if w == v]
        slots = []
        for idx, (a, b) in enumerate(self.edges):
            if a == v:
                slots.append(idx)
            if b == v:
                slots.append(idx)
        return tails, slots


def tadpole_graph(tail_color: int) -> ColoredGraph:
    """One vertex, one loop, one boundary tail."""
    return ColoredGraph(vertices=(1,), edges=((1, 1),), tails=((1, tail_color),))


def theta_graph() -> ColoredGraph:
    """Two vertices joined by three parallel edges (a closed genus-2 graph)."""
    return ColoredGraph(vertices=(1, 2), edges=((1, 2), (1, 2), (1, 2)))


def dumbbell_graph() -> ColoredGraph:
    """Two loops joined by a bridge (the other closed genus-2 graph)."""
    return ColoredGraph(vertices=(1, 2), edges=((1, 1), (1, 2), (2, 2)))


def chain_graph() -> ColoredGraph:
    """Two loops joined through a doubled middle edge; closed, genus 3."""
    return ColoredGraph(
        vertices=(1, 2, 3, 4),
        edges=((1, 1), (1, 2), (2, 3), (2, 3), (3, 4), (4, 4)),
    )


def block_dimension_bruteforce(graph: ColoredGraph, p: int) -> int:
    """Plain enumeration of all internal colorings; the slow oracle."""
    cols = level_colors(p)
    per_vertex = [graph.vertex_slots(v) for v in graph.vertices]
    count = 0
    for assign in itertools.product(cols, repeat=len(graph.edges)):
        for tails, slots in per_vertex:
            colors3 = tails + [assign[i] for i in slots]
            if not _admissible(colors3[0], colors3[1], colors3[2], p):
                break
        else:
            count += 1
    return count


def block_dimension(graph: ColoredGraph, p: int) -> int:
    """Number of admissible colorings of the free edges of ``graph``.

    Computed by eliminating edge variables one at a time (sum-product over
    the vertex constraints), which handles loops, parallel edges and
    disconnected graphs uniformly.
    """
    cols = level_colors(p)
    factors: list[tuple[tuple[int, ...], dict]] = []
    for v in graph.vertices:
        tails, slots = graph.vertex_slots(v)
        vars_v = tuple(sorted(set(slots)))
        table: dict[tuple[int, ...], int] = {}
        for assign in itertools.product(cols, repeat=len(vars_v)):
            lookup = dict(zip(vars_v, assign))
            colors3 = tails + [lookup[i] for i in slots]
            if _admissible(colors3[0], colors3[1], colors3[2], p):
                table[assign] = 1
        factors.append((vars_v, table))

    remaining = set(range(len(graph.edges)))
    while remaining:
        var = min(remaining, key=lambda x: sum(x in f[0] for f in factors))
        involved = [f for f in factors if var in f[0]]
        rest = [f for f in factors if var not in f[0]]
        merged = sorted(set().union(*(f[0] for f in involved)))
        out_vars = tuple(x for x in merged if x != var)
        new_table: dict[tuple[int, ...], int] = {}
        for assign in itertools.product(cols, repeat=len(merged)):
            amap = dict(zip(merged, assign))
            w = 1
            for fvars, ftab in involved:
                w *= ftab.get(tuple(amap[x] for x in fvars), 0)
                if not w:
                    break
            if w:
                key = tuple(amap[x] for x in out_vars)
                new_table[key] = new_table.get(key, 0) + w
        factors = rest + [(out_vars, new_table)]
        remaining.discard(var)

    result = 1
    for _vars, table in factors:
        result *= table.get((), 0)
    return result


def cut_graph(
    graph: ColoredGraph, cut_edges: tuple[int, ...], cut_colors: tuple[int, ...]
) -> ColoredGraph:
    """Replace each cut edge by two tails carrying the same color."""
    cut_set = set(cut_edges)
    for idx in cut_set:
        if not 0 <= idx < len(graph.edges):
            raise InvalidGraph(f"edge index {idx} out of range")
    new_edges = tuple(e for i, e in enumerate(graph.edges) if i not in cut_set)
    new_tails = list(graph.tails)
    for idx, color in zip(cut_edges, cut_colors):
        u, v = graph.edges[idx]
        new_tails.append((u, color))
        new_tails.append((v, color))
    return ColoredGraph(graph.vertices, new_edges, tuple(new_tails))


def cut_identity_check(graph: ColoredGraph, cut_edges: tuple[int, ...], p: int) -> bool:
    """Check dim(graph) against the sum of dimensions over cut colorings.

    Cutting an internal edge and summing the resulting dimensions over all
    colors of the new tail pair must reproduce the original dimension (a
    marginalization identity).  Returning False signals an implementation
    fault, never a property of the input.
    """
    cut_edges = tuple(cut_edges)
    if len(set(cut_edges)) != len(cut_edges):
        raise InvalidGraph("cut edges must be distinct")
    lhs = block_dimension(graph, p)
    cols = level_colors(p)
    rhs = 0
    for coloring in itertools.product(cols, repeat=len(cut_edges)):
        rhs += block_dimension(cut_graph(graph, cut_edges, coloring), p)
    return lhs == rhs


def _tokens(value: str, start: int):
    """Nonempty comma-separated tokens of ``value`` with their positions.

    ``start`` is the position of ``value`` in the parsed text.
    """
    for piece in value.split(","):
        tok = piece.strip()
        if tok:
            yield tok, start + len(piece) - len(piece.lstrip())
        start += len(piece) + 1


def parse_colored_graph(text: str) -> ColoredGraph:
    """Parse ``vertices=n; edges=u-v,...; tails=v:color,...``.

    Whitespace-insensitive; loops are written ``u-u``; the edges and tails
    sections may be empty or absent.  Parse errors name the offending
    token and its character position in the input.
    """
    vertices: tuple[int, ...] | None = None
    edges: list[tuple[int, int]] = []
    tails: list[tuple[int, int]] = []
    offset = 0
    for part in text.split(";"):
        pos, offset = offset, offset + len(part) + 1
        if not part.strip():
            continue
        if "=" not in part:
            raise GraphParseError(
                f"expected key=value, got {part.strip()!r} at position {pos}",
                token=part.strip(),
                position=pos,
            )
        key, _, value = part.partition("=")
        value_pos = pos + len(key) + 1
        key = key.strip()
        if key == "vertices":
            try:
                n = int(value)
            except ValueError:
                raise GraphParseError(
                    f"invalid vertex count {value.strip()!r} at position {pos}",
                    token=value.strip(),
                    position=pos,
                ) from None
            vertices = tuple(range(1, n + 1))
        elif key == "edges":
            for tok, tpos in _tokens(value, value_pos):
                try:
                    u, _, v = tok.partition("-")
                    edges.append((int(u), int(v)))
                except ValueError:
                    raise GraphParseError(
                        f"invalid edge token {tok!r} at position {tpos}",
                        token=tok,
                        position=tpos,
                    ) from None
        elif key == "tails":
            for tok, tpos in _tokens(value, value_pos):
                try:
                    v, _, c = tok.partition(":")
                    tails.append((int(v), int(c)))
                except ValueError:
                    raise GraphParseError(
                        f"invalid tail token {tok!r} at position {tpos}",
                        token=tok,
                        position=tpos,
                    ) from None
        else:
            raise GraphParseError(
                f"unknown section {key!r} at position {pos}", token=key, position=pos
            )
    if vertices is None:
        raise GraphParseError("missing vertices=... section", token="vertices")
    try:
        return ColoredGraph(vertices, tuple(edges), tuple(tails))
    except InvalidGraph as exc:
        raise GraphParseError(str(exc)) from exc
