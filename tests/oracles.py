"""Cross-check oracles and corpus graphs that only the tests read.

The package decides every sign and class exactly, finds its selectors by a
short scan and holds a configuration graph only as its intersection points;
these float evaluations, whole-window enumerations and dense (m + k)-square
matrices are the independent references the package code is compared
against, and ``dense_graph`` lets a test write a graph as its m-by-k
intersection matrix.  The closed trivalent corpus graphs and the cut-and-sum
identity are an oracle over ``blocks.block_dimension``, and so are the
Verlinde formula in floats, which shares no code with ``blocks``, and the
slice-sum fusion product it computed with before its prefix sums; the SL2
helpers classify the multitwist matrices by their trace in exact rationals.  The
elimination in ``Fraction`` entries is the oracle for the class, which the
package decides on integer pairs, and ``random_connected_bipartite`` draws
small graphs for the corpus tests.  The named families built from edge
lists by a BFS 2-colouring are the oracle for the family builders, which
write their points directly, the orbit list as JSON records the oracle
for the JSON text written from side pairs, and the rectangle records the
oracle for the rectangle text.  Twist eigenvalues as angles, exact
``Fraction`` turns mod 1, are the oracle for the certificate routes, which
decide on exponents mod 2p, and the argparse parser the CLI once built is
the oracle for its one-pass argument reader.  The report dict the CLI
built for ``certify``, dumped by json or printed row by row, is the oracle
for the certify text it now writes in one pass, and the explicit H table
the oracle for the handle product read off moment prefix sums.
``integer_step``, the int64 matmul the closure step ran before its float64
product, reads the same (source column, twisted) rules and the one "times
q" matrix, and is the oracle for ``burau._step``.
"""

import argparse
import heapq
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from operator import mul, sub

import numpy as np

from quantcert import __version__, certify
from quantcert.blocks import (
    ColoredGraph,
    _geometry,
    _loop_positions,
    _prefix,
    block_dimension,
    in_palette,
    level_colors,
    tadpole_basis,
)
from quantcert.burau import _GENERATORS
from quantcert.cli import _parse_level_range
from quantcert.errors import InvalidGraph
from quantcert.grammar import numeral
from quantcert.orbits import orbit_types
from quantcert.veech import CRITICAL, DOMINANT, RECESSIVE, ConfigurationGraph

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
ANOSOV = "anosov"


def spectral_radius(adj) -> float:
    """Float spectral radius; a cross-check oracle for ``veech.classify_graph``."""
    mat = np.asarray(adj, dtype=float)
    if np.allclose(mat, mat.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def classify_by_fractions(g: ConfigurationGraph) -> str:
    """The class by the same elimination as ``veech.classify_graph`` (E > V
    dominant at once; otherwise LDL^T of 2D - DAD, fewest nonzeros first,
    from a lazy heap), with every entry a ``Fraction``: the slow oracle of
    the integer-pair elimination, next to the float ``spectral_radius``."""
    if sum(count for _, _, count in g.points) > g.size:
        return DOMINANT
    d, m = g.multiplicities, g.m
    rows: list[dict] = [{} for _ in range(g.size)]
    for i, j, count in g.points:
        rows[i][m + j] = rows[m + j][i] = -d[i] * d[m + j] * count
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


def dense_graph(inter, multiplicities) -> ConfigurationGraph:
    """The configuration graph of a dense m-by-k intersection matrix: each
    entry becomes a point (i, j, count), zeros included, which the
    constructor drops."""
    points = [(i, j, count) for i, row in enumerate(inter) for j, count in enumerate(row)]
    return ConfigurationGraph(len(inter), len(inter[0]), points, tuple(multiplicities))


def random_connected_bipartite(rng, weighted: bool, dense: bool = False) -> ConfigurationGraph:
    """A random connected configuration graph of at most 12 vertices: each
    vertex is wired to one placed on the other side, then up to 3 (or, when
    ``dense``, m * k) extra points land anywhere; multiplicities are drawn
    from {1, 2, 3} when ``weighted``.  Raises DisconnectedGraph when the
    wiring leaves two halves apart."""
    m = rng.randint(1, 6)
    k = rng.randint(1, 12 - m) if m < 11 else 1
    inter = [[0] * k for _ in range(m)]
    order = [("c", i) for i in range(m)] + [("d", j) for j in range(k)]
    rng.shuffle(order)
    placed = [order[0]]
    for vertex in order[1:]:
        side, idx = vertex
        partners = [v for v in placed if v[0] != side]
        if not partners:
            placed.append(vertex)
            continue
        _, pidx = rng.choice(partners)
        if side == "c":
            inter[idx][pidx] += 1
        else:
            inter[pidx][idx] += 1
        placed.append(vertex)
    # a vertex may have been placed before any partner existed; wire it now
    for i in range(m):
        if not any(inter[i]):
            inter[i][rng.randrange(k)] = 1
    for j in range(k):
        if not any(row[j] for row in inter):
            inter[rng.randrange(m)][j] = 1
    for _ in range(rng.randint(0, m * k if dense else 3)):
        inter[rng.randrange(m)][rng.randrange(k)] += 1
    if weighted:
        mult = tuple(rng.randint(1, 3) for _ in range(m + k))
    else:
        mult = (1,) * (m + k)
    return dense_graph(inter, mult)


def graph_from_edges(n: int, edges: list[tuple[int, int]]) -> ConfigurationGraph:
    """Split a connected bipartite multigraph on vertices 0..n-1, given by its
    edge list, into the two-sided intersection form by a BFS 2-colouring
    (vertex 0 on the first side, each side in increasing vertex order)."""
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
                    "graph is not bipartite: two crossing multicurves must alternate"
                )
    c_side = [v for v in range(n) if color[v] == 0]
    d_side = [v for v in range(n) if color[v] == 1]
    index = {v: t for side in (c_side, d_side) for t, v in enumerate(side)}
    points = [(index[w], index[u], 1) if color[u] else (index[u], index[w], 1) for u, w in edges]
    return ConfigurationGraph(len(c_side), len(d_side), points, (1,) * n)


def family_from_edges(name: str, n: int) -> ConfigurationGraph:
    """The named family ``name:n`` from its edge list, with the size checks of
    ``veech``; the oracle for the family builders, which write their points."""
    path = [(i, i + 1) for i in range(n - 2)]  # a path on n - 1 vertices
    if name == "A":
        if n < 2:
            raise InvalidGraph("path family needs at least 2 vertices")
        return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if name == "D":
        if n < 4:
            raise InvalidGraph("forked path family needs at least 4 vertices")
        return graph_from_edges(n, path + [(1, n - 1)])
    if name == "E":
        if n not in (6, 7, 8):
            raise InvalidGraph("exceptional family exists for 6, 7, 8 only")
        return graph_from_edges(n, path + [(2, n - 1)])
    if name == "cycle":
        if n < 3:
            raise InvalidGraph("cycle family needs at least 3 vertices")
        return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if n < 1:
        raise InvalidGraph("star family needs at least 1 leaf")
    return graph_from_edges(n + 1, [(0, i) for i in range(1, n + 1)])


NONSEPARATING = "nonseparating"
SEPARATING = "separating"


def _side_record(genus: int, p) -> dict:
    if isinstance(p, int):
        return {"genus": genus, "puncture_count": p}
    return {"genus": genus, "puncture_count": len(p), "punctures": list(p)}


def enumerate_orbits(g: int, n: int, labeled: bool = False) -> list[dict]:
    """The orbit list as JSON records: ``{"kind": "nonseparating"}`` first,
    then ``{"kind": "separating", "sides": [lower, upper]}`` per side pair of
    ``orbits.orbit_types``; json.dumps of it is the oracle of the JSON text
    that ``orbits.orbit_list_json`` writes."""
    _, pairs = orbit_types(g, n, labeled)
    out = [{"kind": NONSEPARATING}] if g >= 1 else []
    out.extend(
        {"kind": SEPARATING, "sides": [_side_record(*lower), _side_record(*upper)]}
        for lower, upper in pairs
    )
    return out


def flat_surface(g: ConfigurationGraph, data) -> tuple[list[dict], float]:
    """One ``{id, c_component, d_component, width, height}`` record per
    intersection point, ids over ``g.points`` in order, one per unit of each
    count, and their total area, summed record by record; json.dumps of the
    records is the oracle of the text ``veech.flat_surface_json`` writes."""
    v, m = data.v, g.m
    units = ((i, j) for i, j, count in g.points for _ in range(count))
    rectangles = [
        {"id": n, "c_component": i, "d_component": j, "width": v[i], "height": v[m + j]}
        for n, (i, j) in enumerate(units)
    ]
    return rectangles, sum(r["width"] * r["height"] for r in rectangles)


def adjacency(g) -> np.ndarray:
    """Dense multigraph adjacency of a configuration graph, size m + k."""
    m = g.m
    adj = np.zeros((g.size, g.size), dtype=np.int64)
    for i, j, count in g.points:
        adj[i, m + j] = adj[m + j, i] = count
    return adj


def intersection_matrix(g) -> np.ndarray:
    """The weighted matrix N = DA, with N[i][j] = d_i * i(gamma_i, gamma_j).

    Zero on the two diagonal blocks; not symmetric in general, since each
    row is scaled by its own multiplicity.  The oracle for ``veech.perron``.
    """
    return np.asarray(g.multiplicities, dtype=np.int64)[:, None] * adjacency(g)


def integer_step(block: np.ndarray, g: int, times: np.ndarray) -> np.ndarray:
    """``burau._step`` in int64 arithmetic, with no float product."""
    source, twisted = _GENERATORS[g]
    block = block.astype(np.int64)
    out = np.empty_like(block)
    col, new_col = block[:, source::2], out[:, source::2]
    other, new_other = block[:, 1 - source::2], out[:, 1 - source::2]
    np.matmul(col, times.astype(np.int64), out=new_col)
    np.negative(new_col, out=new_col)
    if twisted:
        np.subtract(other, new_col, out=new_other)
    else:
        np.add(other, col, out=new_other)
    return out


def gram_ratio_float(s: int, p: int, ell: int) -> float | None:
    """Float evaluation of the closed product forms; None for s in {0, 3}.

    The oracle for ``hermitian.gram_ratio_sign``, which decides every sign.
    """
    k = p // 4
    if s == 1:
        return (
            4.0
            * math.sin(3 * math.pi * ell / (2 * k))
            * math.cos(math.pi * ell / (2 * k))
            * math.sin(math.pi * ell / (4 * k))
        )
    if s == 2:
        return 2.0 * math.sin(3 * math.pi * ell / (2 * k)) * math.cos(
            math.pi * ell / (2 * k)
        )
    return None


def selector_window(p: int) -> tuple[int, ...]:
    """Odd selectors coprime to 2p in the open window (4k/3, 2k), ascending.

    The oracle for ``hermitian.find_indefinite_ell``, which takes the first.
    """
    k = p // 4
    return tuple(
        ell for ell in range(1, 2 * k, 2) if 3 * ell > 4 * k and math.gcd(ell, 2 * p) == 1
    )


def twist_turn(a: int, p: int, ell: int = 1) -> Fraction:
    """The twist eigenvalue (-1)^a A^(a(a+2)), A = exp(2 pi i ell/2p), as its
    angle in turns: a/2 + ell a (a+2)/2p mod 1.  Its order is the denominator."""
    return (Fraction(a, 2) + Fraction(ell * a * (a + 2), 2 * p)) % 1


def odd_block(q: int) -> tuple[tuple[int, ...], Fraction]:
    """Loop colors (a, b) of the 2-dimensional block at (level q, tail q - 5)
    and the turn of its Burau parameter -mu_b/mu_a; the order of the negated
    parameter is the denominator of that turn plus 1/2."""
    basis = tadpole_basis(q - 5, q)
    a, b = basis
    return basis, (Fraction(1, 2) + twist_turn(b, q) - twist_turn(a, q)) % 1


def eigenvalue_turns(p: int, ell: int) -> tuple[Fraction, ...]:
    """Turns of mu_(k-3..k+1)/mu_(k-1) at p = 4k: the even route's tuple."""
    k = p // 4
    base = twist_turn(k - 1, p, ell)
    return tuple((twist_turn(a, p, ell) - base) % 1 for a in range(k - 3, k + 2))


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


def cut_graph(
    graph: ColoredGraph, cut_edges: tuple[int, ...], cut_colors: tuple[int, ...]
) -> ColoredGraph:
    """Replace each cut edge by two tails carrying the same color."""
    cut_set = set(cut_edges)
    assert all(0 <= idx < len(graph.edges) for idx in cut_set), cut_edges
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
    marginalization identity).  False signals a fault in ``block_dimension``.
    """
    assert len(set(cut_edges)) == len(cut_edges), "cut edges must be distinct"
    rhs = sum(
        block_dimension(cut_graph(graph, cut_edges, coloring), p)
        for coloring in itertools.product(level_colors(p), repeat=len(cut_edges))
    )
    return block_dimension(graph, p) == rhs


def verlinde_dimension(genus: int, tails, p: int) -> float:
    """Block dimension of a connected surface by the Verlinde formula, in floats.

    Sum over palette colors c of H_c^(genus-1) prod_i lambda_{a_i}(c), with
    theta_c = pi (c+1)/r, lambda_b(c) = sin((b+1) theta_c)/sin theta_c, and
    H_c = r/(4 sin^2 theta_c) for odd p (r = p) or r/(2 sin^2 theta_c) for
    even p (r = p/2).  The palette is written out here, not read from ``blocks``.
    """
    r, k = (p, 4) if p % 2 else (p // 2, 2)
    total = 0.0
    for c in range(0, p - 2, 2) if p % 2 else range(r - 1):
        theta = math.pi * (c + 1) / r
        sin = math.sin(theta)
        lambdas = math.prod(math.sin((a + 1) * theta) / sin for a in tails)
        total += (r / (k * sin * sin)) ** (genus - 1) * lambdas
    return total


def slice_sum_dimension(graph: ColoredGraph, p: int) -> int:
    """``blocks.block_dimension`` before its prefix sums: the same fusion-ring product
    over palette positions, with N_b v one slice sum per entry (O(|palette|^2) per
    product, O(|palette|^3) to build H).  The oracle of the prefix-sum product."""
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
    positions = range(bound // 2 + 1)

    def fusion(b: int, v: list[int]) -> list[int]:
        return [sum(v[abs(x - b) : min(x + b, bound - x - b) + 1 : step]) for x in positions]

    h = [len(_loop_positions(x, bound, step)) for x in positions]
    if max(excess.values(), default=0) >= 2:
        handle = [fusion(y, h) for y in positions]
    dim = 1
    for first, last, *middle in ops.values():
        v = h if last is None else [int(x == last) for x in positions]
        for op in middle:
            v = [sum(map(mul, row, v)) for row in handle] if op is None else fusion(op, v)
        dim *= sum(map(mul, h, v)) if first is None else v[first]
    return dim


def handle_table_product(v: list[int], p: int) -> list[int]:
    """H v from the explicit H table, as ``blocks.block_dimension`` computed it before
    its moment prefix sums: row y of H is N_y h by the prefix-sum fusion product, with h
    from the loop-position rule (O(|palette|^2) to build, and per product).  The oracle
    of ``blocks._handle``."""
    bound, step, _ = _geometry(p)
    top = bound // 2
    positions = range(top + 1)

    def fusion(b: int, s: list[int]) -> list[int]:
        t = s[step:]
        his = t[b : top + 1] + t[bound - top - b : bound - top][::-1]
        return list(map(sub, his, s[b:0:-1] + s[: top - b + 1]))

    prefix_h = _prefix([len(_loop_positions(x, bound, step)) for x in positions], step)
    return [sum(map(mul, fusion(y, prefix_h), v)) for y in positions]


def sl2(a, b, c, d) -> tuple[Fraction, ...]:
    """The matrix [[a, b], [c, d]] as exact rationals; asserts determinant 1."""
    mat = tuple(map(Fraction, (a, b, c, d)))
    assert mat[0] * mat[3] - mat[1] * mat[2] == 1, mat
    return mat


def sl2_mul(x, y) -> tuple[Fraction, ...]:
    return sl2(
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def sl2_inverse(x) -> tuple[Fraction, ...]:
    a, b, c, d = x
    return sl2(d, -b, -c, a)


def sl2_type(x) -> str:
    """Elliptic, parabolic or Anosov as |trace| is below, at or above 2, exactly."""
    t = abs(x[0] + x[3])
    return PARABOLIC if t == 2 else ELLIPTIC if t < 2 else ANOSOV


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI read its arguments with before ``cli._read``:
    the oracle of the reader, which must give every argv it accepts the same
    namespace and reject every argv it rejects."""
    # --format/--quiet go before or after the subcommand; a flag given after it wins
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="quantcert",
        description=(
            "Exact certificates for quantum twist representations, block "
            "dimensions, multitwist Veech data and curve-orbit counts."
        ),
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser(
        "certify", parents=[common], help="infiniteness certificates per level"
    )
    p_cert.add_argument("levels", help="a level N or a range N..M")

    p_blocks = sub.add_parser(
        "blocks", parents=[common], help="block dimensions on trivalent graphs"
    )
    p_blocks.add_argument(
        "graph", help="'tadpole' or 'vertices=n; edges=u-v,...; tails=v:color,...'"
    )
    p_blocks.add_argument("--tail", type=numeral, default=None, help="tadpole tail color")
    p_blocks.add_argument("--level", type=numeral, required=True)

    p_veech = sub.add_parser(
        "veech", parents=[common], help="Perron data and multitwist classification"
    )
    p_veech.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="A:n, D:n, E:6|7|8, cycle:n, star:n, or c=..; d=..; inter=..; mult=..",
    )
    p_veech.add_argument("--inter", default=None, help="(i,j,count),... triples")
    p_veech.add_argument("--mult", default=None, help="comma list of multiplicities")

    p_orbits = sub.add_parser(
        "orbits", parents=[common], help="curve orbit counts and H^2 bounds"
    )
    p_orbits.add_argument("g", type=numeral)
    p_orbits.add_argument("n", type=numeral)
    p_orbits.add_argument("--labeled", action="store_true")
    return parser


def certify_report(levels: str) -> dict:
    """The report dict ``cli.cmd_certify`` built before it wrote text: one
    ``certify.certify_level`` record per level, the two summary lists, and the
    provenance notes stamped with their level, each kept once."""
    lo, hi = _parse_level_range(levels)
    results, provenance, certified, uncertified = [], [], [], []
    for p in range(lo, hi + 1):
        record, notes = certify.certify_level(p)
        results.append(record)
        (uncertified if record["route"] == certify.ROUTE_UNCERTIFIED else certified).append(p)
        for note in notes:
            stamped = f"p={p}: {note}"
            if stamped not in provenance:
                provenance.append(stamped)
    return {
        "command": "certify",
        "inputs": {"levels": levels},
        "results": results,
        "provenance": provenance,
        "version": __version__,
        "summary": {"certified": certified, "uncertified": uncertified},
    }


def certify_json(report: dict) -> str:
    """The stdout of a JSON certify request on ``report``; ``cli._dump``, which wrote
    it, is pinned to this ``json.dumps`` call."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def certify_table(report: dict, quiet: bool) -> str:
    """The stdout of a table certify request on ``report``, as
    ``cli._print_certify_table`` printed it line by line."""
    lines = []
    if not quiet:
        for cert in report["results"]:
            p = cert["p"]
            route = cert["route"]
            if route == certify.ROUTE_ODD:
                extra = f"odd part {cert['odd_part']}, boundary color {cert['boundary_color']}"
            elif route == certify.ROUTE_EVEN:
                extra = (
                    f"ell {cert['ell']}, signature {tuple(cert['signature'])}, "
                    f"{len(cert['cases'])} subspace cases"
                )
            else:
                extra = "; ".join(cert["failed"])
            lines.append(f"p={p:<4d} {route:<14s} {extra}")
    summary = report["summary"]
    lines.append(f"certified:   {summary['certified']}")
    lines.append(f"uncertified: {summary['uncertified']}")
    lines.extend(f"note: {note}" for note in report["provenance"])
    return "".join(line + "\n" for line in lines)
