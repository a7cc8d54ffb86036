"""Color palettes, admissible colorings and block dimensions on trivalent graphs.

A level p >= 5 determines a palette of colors: the even integers 0, 2, ...,
p-3 when p is odd, and the full range 0, 1, ..., (p-4)/2 when p is even.
Three colors meeting at a trivalent vertex are admissible when they satisfy
the triangle inequalities, have even sum, and their sum stays below the
level bound (2p-4 for odd p, p-4 for even p).  In palette positions, with
(bound, step, scale) = ``_geometry(p)``, (p-2, 1, 2) for odd p and (p-4, 2, 1)
for even p, color c sits at c // scale in 0..bound // 2, and the y with
(x, b, y) admissible form the slice |x-b| .. min(x+b, bound-x-b), stride step.

A block space is attached to a trivalent graph whose vertices all have
degree three, counting loops twice and boundary tails once.  Its dimension
is the number of colorings of the internal edges making every vertex
admissible.  The tadpole graph (one vertex, one loop, one tail) is the
basic example; its basis is indexed by the admissible loop colors.

``block_dimension`` counts them in the fusion ring (Blanchet, Habegger,
Masbaum and Vogel, 1995): a connected component with first Betti number g and
tail colors a_1..a_n gives (H^g N_{a_1} ... N_{a_n})_00, where over the palette
N_b[x, y] = [(x, b, y) admissible] and H = sum_b N_b^2; components multiply.
Each N_b v costs O(|palette|), read off one prefix-sum list of v, and so does
each H v, read off prefix sums of its moments (``_handle``); no H table is built.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import add, mul, sub

from .errors import GraphParseError, InvalidColor, InvalidGraph, UsageError
from .grammar import comma_tokens, numeral, sections

#: Most vertices of a parsed graph and highest level the CLI accepts.  A count costs
#: O(|palette|) big-int operations per tail and per handle.  The worst case measured
#: inside them is the prism C_50 x K_2 (closed, g = 51) at p = 799: about 0.06 s in
#: process for its 50 H products (0.14 s for the request in a fresh process); a
#: 100-vertex caterpillar with 102 tails takes about 0.01 s.
VERTEX_BUDGET = 100
LEVEL_BUDGET = 800


def _geometry(p: int) -> tuple[int, int, int]:
    """(bound, step, scale) of level p in palette positions; see the module docstring."""
    if p < 5:
        raise UsageError(f"level must be at least 5, got {p}")
    return (p - 2, 1, 2) if p % 2 else (p - 4, 2, 1)


def level_colors(p: int) -> tuple[int, ...]:
    """Palette of colors for level p."""
    bound, _, scale = _geometry(p)
    return tuple(range(0, bound // 2 * scale + 1, scale))


def in_palette(c: int, p: int) -> bool:
    """Whether c is a color of level p, i.e. ``c in level_colors(p)``."""
    bound, _, scale = _geometry(p)
    return c % scale == 0 and 0 <= c <= bound // 2 * scale


def _fits(a, b, c, p: int):
    """Even sum, level bound and triangle inequalities; on arrays only in the tests' oracle."""
    bound, _, scale = _geometry(p)
    s = a + b + c
    triangle = (abs(a - b) <= c) & (c <= a + b)
    return (s % 2 == 0) & (s <= bound * scale) & triangle


def _admissible(a: int, b: int, c: int, p: int) -> bool:
    """Admissibility with out-of-palette colors treated as inadmissible."""
    in_range = in_palette(a, p) and in_palette(b, p) and in_palette(c, p)
    return in_range and _fits(a, b, c, p)


def _loop_positions(b: int, bound: int, step: int) -> range:
    """Positions x with (x, x, b) admissible: b/2 <= x <= (bound - b)/2 when step divides b."""
    hi = (bound - b) // 2 if b % step == 0 else -1  # an odd tail closes no loop at even p
    return range((b + 1) // 2, hi + 1)


def tadpole_basis(i: int, p: int) -> tuple[int, ...]:
    """Increasing loop colors a with (a, a, i) admissible; the tadpole basis."""
    bound, step, scale = _geometry(p)
    if not in_palette(i, p):
        raise InvalidColor(f"tail color {i} is not in the level-{p} palette")
    loops = _loop_positions(i // scale, bound, step)
    return tuple(range(loops.start * scale, loops.stop * scale, scale))


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
        bad = [(v, d) for v, d in degree.items() if d != 3]
        if bad:
            more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
            raise InvalidGraph(f"graph is not trivalent at vertices {dict(bad[:5])}{more}")

    def vertex_slots(self, v: int) -> tuple[list[int], list[int]]:
        """Tail colors and edge indices (loops repeated) incident to v."""
        tails = [c for (w, c) in self.tails if w == v]
        return tails, [idx for idx, edge in enumerate(self.edges) for w in edge if w == v]


def tadpole_graph(tail_color: int) -> ColoredGraph:
    """One vertex, one loop, one boundary tail."""
    return ColoredGraph(vertices=(1,), edges=((1, 1),), tails=((1, tail_color),))


def block_dimension_bruteforce(graph: ColoredGraph, p: int) -> int:
    """Plain enumeration of all internal colorings; the slow oracle."""
    cols = level_colors(p)
    per_vertex = [graph.vertex_slots(v) for v in graph.vertices]
    count = 0
    for assign in itertools.product(cols, repeat=len(graph.edges)):
        for tails, slots in per_vertex:
            if not _admissible(*tails, *(assign[i] for i in slots), p):
                break
        else:
            count += 1
    return count


def _prefix(v: list[int], step: int) -> list[int]:
    """S with S[:step] = 0 and S[i + step] = S[i] + v[i]: v[lo] + v[lo + step] + ... + v[hi]
    is S[hi + step] - S[lo]."""
    s = [0] * (len(v) + step)
    for i in range(step):  # at step 2, two interleaved runs
        s[i::step] = itertools.accumulate(v[i::step], initial=0)
    return s


def _handle(v: list[int], p: int) -> list[int]:
    """H v over the palette positions of level p, in O(|palette|) from moment prefix sums.

    H = sum_b h_b N_b with h_b = top + 1 - b for step | b <= top (the tadpole loop count)
    and 0 otherwise.  With S = _prefix(v, step), T = S[step:], E[i] = T[min(i, bound - i)]
    and R[btop + j] = S[|j|] (btop = top - top % step), both terms of (N_b v)_x are read at
    i = x + b and i = x + btop - b, so over the one stride-step range i = x, x + step, ...,
    x + btop
        (H v)_x = sum_i (top + 1 + x - i) E[i] - (top + 1 - btop - x + i) R[i],
    the weights linear in i: one prefix list of (top + 1 - i) E[i] - (top + 1 - btop + i) R[i]
    and one of E[i] + R[i], which x multiplies, give every entry in O(1).
    """
    bound, step, _ = _geometry(p)
    top = bound // 2
    btop = top - top % step
    s = _prefix(v, step)
    t = s[step:]
    last = top + btop  # the largest i read
    edge = [t[min(i, bound - i)] for i in range(last + 1)]
    mirror = s[btop:0:-1] + s[: top + 1]
    constant = _prefix(
        [(top + 1 - i) * e - (top + 1 - btop + i) * r for i, (e, r) in enumerate(zip(edge, mirror))],
        step,
    )
    slope = _prefix(list(map(add, edge, mirror)), step)
    span = btop + step
    return [
        constant[x + span] - constant[x] + x * (slope[x + span] - slope[x]) for x in range(top + 1)
    ]


def block_dimension(graph: ColoredGraph, p: int) -> int:
    """Number of admissible colorings of the free edges of ``graph``.

    The fusion-ring product of the module docstring on palette positions.  N_b v costs
    O(|palette|) from the prefix list S of v (``_prefix``): with T = S[step:], entry x is
    T[min(x+b, bound-x-b)] - S[|x-b|], a range never empty as 2 max(x, b) <= bound.  So
    does H v (``_handle``), from the same prefix list and no H table; e_0 N_a = e_a and
    H e_0 = h, the tadpole loop counts, close each component.
    """
    bound, step, scale = _geometry(p)
    if not all(in_palette(c, p) for _v, c in graph.tails):
        return 0
    root = {v: v for v in graph.vertices}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in graph.edges:
        root[find(u)] = find(v)
    excess = Counter(find(u) for u, _v in graph.edges)
    excess.subtract(find(v) for v in graph.vertices)  # E - V = g - 1 per component
    ops = {r: [None] * (e + 1) for r, e in excess.items()}  # None stands for H
    for v, c in graph.tails:
        ops[find(v)].append(c // scale)
    top = bound // 2
    positions = range(top + 1)

    def fusion(b: int, s: list[int]) -> list[int]:
        """N_b v from s = _prefix(v, step): T[x + b] for x <= top - b, else T[bound - x - b]."""
        t = s[step:]
        his = t[b : top + 1] + t[bound - top - b : bound - top][::-1]
        return list(map(sub, his, s[b:0:-1] + s[: top - b + 1]))

    h = [top + 1 - x if x % step == 0 else 0 for x in positions]
    dim = 1
    for first, last, *middle in ops.values():
        v = h if last is None else [int(x == last) for x in positions]
        for op in middle:
            v = _handle(v, p) if op is None else fusion(op, _prefix(v, step))
        dim *= sum(map(mul, h, v)) if first is None else v[first]
    return dim


def parse_colored_graph(text: str) -> ColoredGraph:
    """Parse ``vertices=n; edges=u-v,...; tails=v:color,...``.

    Sections, numerals and positions follow ``grammar``; blanks around a
    token, a numeral or a separator are ignored.  Loops are written ``u-u``;
    the edges and tails sections may be empty or absent.  Parse errors name
    the offending token and its character position in the input; a graph
    that parses but is not trivalent raises InvalidGraph.
    """
    found = sections(text, ("vertices", "edges", "tails"))
    if "vertices" not in found:
        raise GraphParseError("missing vertices=... section", token="vertices")
    value, pos, _ = found["vertices"]
    try:
        n = numeral(value)
    except ValueError:
        n = -1  # reported with the negative counts
    if n < 0:
        raise GraphParseError(
            f"invalid vertex count {value.strip()!r} at position {pos}",
            token=value.strip(),
            position=pos,
        )
    if n > VERTEX_BUDGET:
        message = f"graph has {n} vertices, over VERTEX_BUDGET = {VERTEX_BUDGET}"
        raise GraphParseError(message, token=value.strip(), position=pos)
    pairs = {"edges": [], "tails": []}
    for key, sep in (("edges", "-"), ("tails", ":")):
        value, _, start = found.get(key, ("", 0, 0))
        for tok, tpos in comma_tokens(value, start):
            a, _, b = tok.partition(sep)
            try:
                pairs[key].append((numeral(a), numeral(b)))
            except ValueError:
                raise GraphParseError(
                    f"invalid {key[:-1]} token {tok!r} at position {tpos}",
                    token=tok,
                    position=tpos,
                ) from None
    return ColoredGraph(tuple(range(1, n + 1)), **pairs)
