"""Seeded inputs, request execution and correctness oracles per workload.

Every workload turns a seed into a plan: a few warm-up requests, then
rounds of requests.  Each round takes the next unused input from every
stratum (an input class of similar cost), so any prefix of whole rounds
has the same mix whatever the seed; round 0 also holds the anchors that
every run must include.  No request repeats within a plan, warm-up
included, so no cache in the program can answer a repeat.  A plan may
also hold probes: the inputs that show a known defect (``KNOWN_DEFECTS``),
run once after the measured rounds.

``execute`` calls the program once: ``quantcert.cli.main`` in-process with
captured stdout/stderr, or ``quantcert.burau.burau_closure_oracle``.
``check`` compares the outcome with oracles that do not share the code
path under test, and returns the work units done and the names of the
failed checks.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from quantcert import blocks, burau, cli
from quantcert.roots import RootOfUnity

#: Level sets the certify output must leave uncertified (README anchor).
UNCERTIFIABLE = frozenset({1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 24})

#: Braid-image orders for -q of order 2..5 (Coxeter 1957: B3 / <<sigma^k>>).
KNOWN_CLOSURE_ORDERS = {2: 6, 3: 24, 4: 96, 5: 600}

#: Failed checks the seed is known to produce.  The inputs that show them
#: are a plan's ``probes``: they run in every run, after the measured phase
#: and off the clock, and each failed check is printed by name.  They are
#: kept out of the measured rounds so that no measured operation fails.
#: Any failed check not listed here makes the run incorrect.
KNOWN_DEFECTS = frozenset(
    {
        # burau_is_finite(1) is True, yet q = -1 generates SL2(Z)
        "closure.finite_rule_agrees on q=-1",
        # bare int() in parse_config_spec raises ValueError (exit 1, traceback)
        "surfaces.exit_2_no_traceback on malformed:veech-non-integer-c",
        # _check_hyperbolic raises ValueError, cmd_orbits catches NonHyperbolic only
        "surfaces.exit_2_no_traceback on malformed:orbits-negative-genus",
    }
)


@dataclass(frozen=True)
class Request:
    args: tuple  # CLI argv, or (N, e, cap) for a closure probe
    tag: str  # input class, used in failure names
    meta: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Plan:
    warmup: list[Request]
    rounds: list[list[Request]]
    #: known-defect inputs, run once after the measured phase
    probes: list[Request] = field(default_factory=list)

    def digest(self) -> str:
        doc = [[r.args for r in self.warmup]] + [[r.args for r in rnd] for rnd in self.rounds]
        doc.append([r.args for r in self.probes])
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _rounds(anchors: list[Request], strata: list[list[Request]]) -> list[list[Request]]:
    """Round 0 is the anchors plus the first item of every stratum; round r
    takes item r of every stratum, for as many rounds as the shortest has."""
    depth = min(len(s) for s in strata)
    rounds = [[s[r] for s in strata] for r in range(depth)]
    rounds[0] = anchors + rounds[0]
    return rounds


def _banded(rng: random.Random, values, count: int) -> list:
    """One random value from each of ``count`` equal bands of ``values``,
    shuffled: seeds differ in the values, not in how they spread."""
    values = list(values)
    picks = [rng.choice(values[i * len(values) // count : (i + 1) * len(values) // count]) for i in range(count)]
    rng.shuffle(picks)
    return picks


class _Unique:
    """Hands out requests, refusing any argv already handed out."""

    def __init__(self):
        self.seen: set[tuple] = set()

    def __call__(self, args, tag, **meta) -> Request | None:
        args = tuple(args)
        if args in self.seen:
            return None
        self.seen.add(args)
        return Request(args, tag, meta)


# ---------------------------------------------------------------------------
# execution


@dataclass
class CliOutcome:
    code: int
    out: str
    err: str
    exception: str | None  # uncaught exception type: exit 1 with a traceback

    def digest(self) -> str:
        text = f"{self.code}\0{self.exception}\0{self.err}\0{self.out}"
        return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # what the interpreter would turn into exit 1
            code, exception = 1, type(exc).__name__
    return CliOutcome(code, out.getvalue(), err.getvalue(), exception)


def run_request(req: Request) -> CliOutcome:
    return run_cli(req.args)


def _json_output(outcome: CliOutcome, prefix: str, failed: list[str]):
    """Parsed report of a JSON request, or None after recording the failure."""
    if outcome.code != 0 or outcome.exception or outcome.err:
        failed.append(f"{prefix}.exit_0")
        return None
    report = json.loads(outcome.out)
    if json.dumps(report, sort_keys=True, indent=2) + "\n" != outcome.out:
        failed.append(f"{prefix}.json_round_trip")
    return report


# ---------------------------------------------------------------------------
# certify_range


def even_route_anchors(hi: int) -> list[int]:
    """Levels 2^a * {1, 3, 5} with p = 4k, k >= 4, up to hi."""
    return sorted(
        p
        for c in (1, 3, 5)
        for p in (c * 2**a for a in range(2, hi.bit_length() + 1))
        if 16 <= p <= hi
    )


class CertifyRange:
    name = "certify_range"
    trace_rounds = 3

    def generate(self, rng: random.Random, tiny: bool) -> Plan:
        top, stratum, slot = (320, 40, 4) if tiny else (2000, 40, 4)
        new = _Unique()
        warmup = [
            new(["certify", str(top + 1)], "warmup"),
            new(["certify", f"{top + 2}..{top + 3}", "--format", "json"], "warmup"),
        ]
        anchors = set(even_route_anchors(top))
        anchor_reqs: list[Request] = []
        strata: list[list[list[Request]]] = []
        for first in range(1, top + 1, stratum):
            # Half the slots put the single level first (an odd, costly level),
            # half last (a multiple of 4, cheap): every seed gets the same mix.
            sides = [True, False] * (stratum // slot // 2)
            rng.shuffle(sides)
            strata.append([])
            for lo, single_first in zip(range(first, first + stratum, slot), sides):
                hi = lo + slot - 1
                single, a, b = (lo, lo + 1, hi) if single_first else (hi, lo, hi - 1)
                reqs = [
                    new(["certify", str(single)], "single", levels=(single, single)),
                    new(["certify", f"{a}..{b}", "--format", "json"], "range", levels=(a, b)),
                ]
                if anchors & set(range(lo, hi + 1)):
                    anchor_reqs.extend(reqs)
                else:
                    strata[-1].append(reqs)
        for s in strata:
            rng.shuffle(s)
        depth = max(len(s) for s in strata)
        rounds = [
            [req for s in strata if r < len(s) for req in s[r]] for r in range(depth)
        ]
        rounds[0] = anchor_reqs + rounds[0]
        return Plan(warmup, rounds)

    execute = staticmethod(run_request)

    def check(self, req: Request, outcome: CliOutcome) -> tuple[int, list[str]]:
        lo, hi = req.meta["levels"]
        levels = list(range(lo, hi + 1))
        want_uncertified = [p for p in levels if p in UNCERTIFIABLE]
        failed: list[str] = []
        if "--format" in req.args:
            report = _json_output(outcome, "certify", failed)
            if report is None:
                return 0, failed
            results = report["results"]
            if [r["p"] for r in results] != levels:
                failed.append("certify.levels_listed")
            if report["summary"]["uncertified"] != want_uncertified:
                failed.append("certify.uncertified_set")
            routes = {r["p"]: r for r in results}
            if any(r["signature"] != [4, 1] for r in results if r["route"] == "even_coxeter"):
                failed.append("certify.even_signature")
        else:
            if outcome.code != 0 or outcome.exception or outcome.err:
                return 0, ["certify.exit_0"]
            lines = outcome.out.splitlines()
            line = next(ln for ln in lines if ln.startswith(f"p={lo} "))
            uncertified = next(ln for ln in lines if ln.startswith("uncertified:"))
            if json.loads(uncertified.split(":", 1)[1]) != want_uncertified:
                failed.append("certify.uncertified_set")
            if "even_coxeter" in line and "signature (4, 1)" not in line:
                failed.append("certify.even_signature")
            routes = {lo: {"route": line.split()[1]}}
        for p in even_route_anchors(hi):
            if p >= lo and p not in UNCERTIFIABLE and routes[p]["route"] != "even_coxeter":
                failed.append("certify.anchor_even_route")
        return (0 if failed else len(levels)), failed


# ---------------------------------------------------------------------------
# block_dims


def palette(p: int) -> list[int]:
    if p < 5:
        return []
    return list(range(0, p - 2, 2)) if p % 2 else list(range(0, (p - 4) // 2 + 1))


def admissible(a: int, b: int, c: int, p: int) -> bool:
    """Triangle, parity and level bound for palette colors a, b, c."""
    total = a + b + c
    bound = 2 * p - 4 if p % 2 else p - 4
    return total % 2 == 0 and total <= bound and abs(a - b) <= c <= a + b


def dimension_oracle(edges, tails, vertices: int, p: int) -> int:
    """Block dimension as one tensor contraction over the edge colors."""
    cols = palette(p)
    tensor = np.array([[[admissible(a, b, c, p) for c in cols] for b in cols] for a in cols], dtype=np.int64)
    index = {c: i for i, c in enumerate(cols)}
    letters = [chr(ord("a") + i) for i in range(len(edges))]
    operands, subscripts = [], []
    for v in range(1, vertices + 1):
        slots = [letters[i] for i, (a, b) in enumerate(edges) for w in (a, b) if w == v]
        fixed = [index[c] for w, c in tails if w == v]
        op = tensor
        for color in fixed:  # the tensor is symmetric: tails may take the last axes
            op = op[..., color]
        operands.append(op)
        subscripts.append("".join(slots))
    return int(np.einsum(",".join(subscripts) + "->", *operands, optimize=True))


def _spec(vertices: int, edges, tails) -> str:
    text = f"vertices={vertices}; edges=" + ",".join(f"{u}-{v}" for u, v in edges)
    if tails:
        text += "; tails=" + ",".join(f"{v}:{c}" for v, c in tails)
    return text


CLOSED_GRAPHS = {
    "theta": (2, ((1, 2), (1, 2), (1, 2))),
    "dumbbell": (2, ((1, 1), (1, 2), (2, 2))),
    "chain": (4, ((1, 1), (1, 2), (2, 3), (2, 3), (3, 4), (4, 4))),
}


#: (vertices, tails) of the random trivalent graphs, taken in turn: the
#: shape sets most of a graph's cost, so a fixed schedule keeps the cost
#: mix the same for every seed, and the seed picks the wiring and colors.
TRIVALENT_SHAPES = [(v, t) for v in range(1, 6) for t in range(4) if (3 * v - t) % 2 == 0]


def random_trivalent(rng: random.Random, p: int, vertices: int, n_tails: int):
    """A connected trivalent multigraph with loops, parallel edges and tails."""
    while True:
        stubs = [v for v in range(1, vertices + 1) for _ in range(3)]
        rng.shuffle(stubs)
        tails = [(v, rng.choice(palette(p))) for v in stubs[:n_tails]]
        rest = stubs[n_tails:]
        edges = [tuple(sorted(rest[i : i + 2])) for i in range(0, len(rest), 2)]
        reach, frontier = {1}, [1]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in reach:
                        reach.add(y)
                        frontier.append(y)
        if len(reach) == vertices:
            return vertices, tuple(edges), tuple(sorted(tails))


class BlockDims:
    name = "block_dims"
    trace_rounds = 2
    BRUTE_FORCE_LIMIT = 4096  # colorings enumerated by the slow oracle

    def generate(self, rng: random.Random, tiny: bool) -> Plan:
        top, bins = (14, 2) if tiny else (72, 4)
        new = _Unique()

        def blocks_req(kind, vertices, edges, tails, p):
            argv = ["blocks", _spec(vertices, edges, tails), "--level", str(p), "--format", "json"]
            return new(argv, kind, vertices=vertices, edges=edges, tails=tails, p=p)

        def tadpole_req(kind, tail, p):
            argv = ["blocks", "tadpole", "--tail", str(tail), "--level", str(p), "--format", "json"]
            return new(argv, kind, vertices=1, edges=((1, 1),), tails=((1, tail),), p=p)

        warmup = [tadpole_req("warmup", 0, 5)]
        levels = list(range(5, top + 1))
        width = len(levels) // bins
        strata = []
        for name, (vertices, edges) in CLOSED_GRAPHS.items():
            for b in range(bins):
                chunk = levels[b * width : (b + 1) * width]
                strata.append([blocks_req(name, vertices, edges, (), p) for p in rng.sample(chunk, len(chunk))])
        depth = width
        tad_top = 100 if tiny else 400
        odd = _banded(rng, range(7, tad_top, 2), depth)
        strata.append([tadpole_req("tadpole_odd", p - 5, p) for p in odd])
        fours = _banded(rng, range(16, 2 * tad_top, 4), depth)
        strata.append([tadpole_req("tadpole_4k", p // 2 - 6, p) for p in fours])
        anchored = {(p, p - 5) for p in odd} | {(p, p // 2 - 6) for p in fours}
        levels = _banded(rng, range(6, tad_top), depth)
        tails = [rng.choice([c for c in palette(p) if (p, c) not in anchored]) for p in levels]
        strata.append([tadpole_req("tadpole", tail, p) for p, tail in zip(levels, tails)])
        small = range(5, 15 if tiny else 17)
        for offset in (0, len(TRIVALENT_SHAPES) // 2):
            stratum = []
            for i in range(depth):
                req = None
                while req is None:
                    p = small[i % len(small)]
                    shape = TRIVALENT_SHAPES[(i + offset) % len(TRIVALENT_SHAPES)]
                    req = blocks_req("random", *random_trivalent(rng, p, *shape), p)
                stratum.append(req)
            rng.shuffle(stratum)
            strata.append(stratum)
        return Plan(warmup, _rounds([], strata))

    execute = staticmethod(run_request)

    def check(self, req: Request, outcome: CliOutcome) -> tuple[int, list[str]]:
        failed: list[str] = []
        report = _json_output(outcome, "blocks", failed)
        if report is None:
            return 0, failed
        m = req.meta
        dim = report["results"]["dimension"]
        if req.args[1] == "tadpole":
            p, tail = m["p"], m["tails"][0][1]
            basis = [a for a in palette(p) if admissible(a, a, tail, p)]
            if report["results"]["loop_colors"] != basis or dim != len(basis):
                failed.append("blocks.tadpole_basis")
            anchor = {"tadpole_odd": 2, "tadpole_4k": 5}.get(req.tag)
            if anchor is not None and dim != anchor:
                failed.append(f"blocks.anchor_{req.tag}")
        elif dim != dimension_oracle(m["edges"], m["tails"], m["vertices"], m["p"]):
            failed.append("blocks.dimension_oracle")
        if len(palette(m["p"])) ** len(m["edges"]) <= self.BRUTE_FORCE_LIMIT:
            graph = blocks.ColoredGraph(tuple(range(1, m["vertices"] + 1)), m["edges"], m["tails"])
            if dim != blocks.block_dimension_bruteforce(graph, m["p"]):
                failed.append("blocks.dimension_bruteforce")
        return (0 if failed else 1), failed


# ---------------------------------------------------------------------------
# closure_probe


def minus_q_order(n: int, e: int) -> int:
    """Order of -zeta_n^e = zeta_2n^(n + 2e)."""
    return 2 * n // math.gcd(2 * n, n + 2 * e)


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class ClosureProbe:
    name = "closure_probe"
    trace_rounds = 2
    #: infinite cases are split into this many strata of increasing degree
    DEGREE_STRATA = 12
    MAX_DEGREE = 24

    def generate(self, rng: random.Random, tiny: bool) -> Plan:
        cap, n_max, n_strata = (700, 12, 2) if tiny else (700, 60, self.DEGREE_STRATA)
        new = _Unique()
        warm = (3, 1)
        warmup = [new((*warm, 10), "warmup")]
        finite: dict[int, list[Request]] = {m: [] for m in KNOWN_CLOSURE_ORDERS}
        infinite: list[tuple[int, Request]] = []
        for n in range(1, n_max + 1):
            degree = totient(n)
            for e in range(n):
                m = minus_q_order(n, e)
                if m == 1 or (n, e) == warm:  # q = -1 is a known-defect probe
                    continue
                if m in finite:
                    finite[m].append(new((n, e, cap), f"finite:m={m}"))
                elif degree <= self.MAX_DEGREE:
                    infinite.append((degree, new((n, e, cap), "infinite")))
        rng.shuffle(infinite)
        infinite.sort(key=lambda item: item[0])
        size = len(infinite) // n_strata
        strata = list(finite.values())
        strata += [[req for _, req in infinite[i * size : (i + 1) * size]] for i in range(n_strata)]
        for s in strata:
            rng.shuffle(s)
        return Plan(warmup, _rounds([], strata), [new((2, 1, cap), "q=-1")])

    @staticmethod
    def execute(req: Request):
        n, e, cap = req.args
        try:
            return burau.burau_closure_oracle(RootOfUnity(n, e), cap)
        except Exception as exc:  # a failed call, reported by check
            return exc

    def check(self, req: Request, result) -> tuple[int, list[str]]:
        n, e, cap = req.args
        if isinstance(result, Exception):
            return 0, [f"closure.raised on {req.tag}"]
        failed: list[str] = []
        finite = isinstance(result, burau.FiniteOfOrder)
        if finite != burau.burau_is_finite(burau.minus_q_order(RootOfUnity(n, e))):
            failed.append(f"closure.finite_rule_agrees on {req.tag}")
        m = minus_q_order(n, e)
        if m in KNOWN_CLOSURE_ORDERS:
            expected = burau.FiniteOfOrder(KNOWN_CLOSURE_ORDERS[m])
        else:
            expected = burau.ExceedsCap(cap=cap, explored=cap + 1)
        if result != expected:
            failed.append(f"closure.known_order on {req.tag}")
        units = result.order if finite else result.explored
        return (0 if failed else units), failed


# ---------------------------------------------------------------------------
# surfaces


def family_adjacency(name: str, n: int) -> np.ndarray:
    """Adjacency of the named Dynkin-shape family, built independently."""
    size = n + 1 if name == "star" else n
    adj = np.zeros((size, size))
    if name == "star":
        pairs = [(0, i) for i in range(1, size)]
    elif name == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        path_len = n if name == "A" else n - 1
        pairs = [(i, i + 1) for i in range(path_len - 1)]
        if name == "D":
            pairs.append((1, n - 1))
        elif name == "E":
            pairs.append((2, n - 1))
    for i, j in pairs:
        adj[i, j] += 1
        adj[j, i] += 1
    return adj


def random_weighted_config(rng: random.Random):
    """Connected bipartite intersection pattern with some multiplicity > 1."""
    while True:
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        inter = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(k)] for _ in range(m)]
        mult = [rng.randint(1, 3) for _ in range(m + k)]
        adj = np.zeros((m + k, m + k))
        adj[:m, m:] = inter
        adj[m:, :m] = np.transpose(inter)
        reach = np.linalg.matrix_power(adj + np.eye(m + k), m + k) > 0
        if reach.all() and max(mult) > 1:
            return m, k, inter, mult, adj


def hyperbolic(g: int, n: int) -> bool:
    return 2 - 2 * g - n < 0


#: Malformed requests; the documented outcome is exit 2 with no traceback.
MALFORMED = {
    "veech-unknown-family": lambda i: ["veech", f"B:{i}"],
    "orbits-non-integer": lambda i: ["orbits", str(i), f"{i}x"],
}

#: Malformed requests that exit 1 with a traceback on the seed (known defects).
MALFORMED_DEFECTS = {
    "veech-non-integer-c": lambda i: ["veech", f"c=x;inter=(1,1,{i})"],
    "orbits-negative-genus": lambda i: ["orbits", f"-{i}", str(i % 7)],
}


class Surfaces:
    name = "surfaces"
    trace_rounds = 4

    def generate(self, rng: random.Random, tiny: bool) -> Plan:
        # Sized so that a slow host still runs every round in the budget:
        # only the unlabeled grid points, stars and weighted graphs vary.
        depth = 9 if tiny else 46
        labeled_g, labeled_n, anchor = (2, 4, (2, 7)) if tiny else (4, 9, (4, 12))
        new = _Unique()

        def veech(name, n):
            return new(["veech", f"{name}:{n}", "--format", "json"], name, family=name, n=n)

        def orbits(g, n, labeled):
            argv = ["orbits", str(g), str(n), "--format", "json"] + (["--labeled"] if labeled else [])
            return new(argv, "labeled" if labeled else "unlabeled", g=g, n=n)

        warmup = [veech("star", 2 * depth + 1), orbits(1, 1, False)]
        families = {
            "A": range(2, 2 + depth),
            "D": range(4, 4 + depth),
            "cycle": range(4, 4 + 2 * depth, 2),
            "star": range(1, 1 + 2 * depth),
        }
        strata = [[veech(name, n) for n in rng.sample(ns, depth)] for name, ns in families.items()]
        grid = [(g, n) for g in range(13) for n in range(17) if hyperbolic(g, n) and (g, n) != (1, 1)]
        strata.append([orbits(g, n, False) for g, n in rng.sample(grid, depth)])
        grid = [(g, n) for g in range(labeled_g + 1) for n in range(labeled_n + 1) if hyperbolic(g, n)]
        strata.append([orbits(g, n, True) for g, n in rng.sample(grid, depth)])
        for _ in range(2):
            stratum = []
            while len(stratum) < depth:
                m, k, inter, mult, adj = random_weighted_config(rng)
                triples = ",".join(
                    f"({i + 1},{j + 1},{inter[i][j]})" for i in range(m) for j in range(k) if inter[i][j]
                )
                mult_text = ",".join(map(str, mult))
                if rng.random() < 0.5:
                    argv = ["veech", "--inter", triples, "--mult", mult_text, "--format", "json"]
                else:
                    spec = f"c={m}; d={k}; inter={triples}; mult={mult_text}"
                    argv = ["veech", spec, "--format", "json"]
                req = new(argv, "weighted", adjacency=adj, mult=mult)
                if req is not None:
                    stratum.append(req)
            strata.append(stratum)
        kinds = list(MALFORMED)
        order = rng.sample(kinds, len(kinds))
        cycle = [order[i % len(order)] for i in range(depth)]
        strata.append([new(MALFORMED[kind](i + 10), f"malformed:{kind}") for i, kind in enumerate(cycle)])
        anchors = [veech("E", n) for n in (6, 7, 8)] + [orbits(*anchor, True)]
        anchors += [new(MALFORMED[kind](1), f"malformed:{kind}") for kind in kinds]
        probes = [new(make(1), f"malformed:{kind}") for kind, make in MALFORMED_DEFECTS.items()]
        return Plan(warmup, _rounds(anchors, strata), probes)

    execute = staticmethod(run_request)

    def check(self, req: Request, outcome: CliOutcome) -> tuple[int, list[str]]:
        failed: list[str] = []
        if req.tag.startswith("malformed:"):
            if outcome.code != 2 or outcome.exception or "Traceback" in outcome.err:
                failed.append(f"surfaces.exit_2_no_traceback on {req.tag}")
            return (0 if failed else 1), failed
        report = _json_output(outcome, "surfaces", failed)
        if report is None:
            return 0, failed
        res = report["results"]
        if req.args[0] == "orbits":
            if res["count"] != len(res["orbits"]):
                failed.append("surfaces.orbit_count")
            if res["h2"]["upper_bound"] != req.meta["n"] + 1 + res["h2"]["lower_rank"]:
                failed.append("surfaces.h2_upper_bound")
            return (0 if failed else 1), failed
        mu = res["mu"]
        if not res["residual"] <= res["tolerance"] * mu:
            failed.append("surfaces.residual_within_tol")
        if req.tag == "weighted":
            adj, mult = req.meta["adjacency"], np.sqrt(req.meta["mult"])
        else:
            adj = family_adjacency(req.meta["family"], req.meta["n"])
            mult = np.ones(len(adj))
        expected = np.linalg.eigvalsh(mult[:, None] * adj * mult[None, :])[-1]
        if abs(mu - expected) > 1e-9 * expected:
            failed.append("surfaces.mu_matches_eigvalsh")
        if req.tag == "A" and abs(mu - 2 * math.cos(math.pi / (req.meta["n"] + 1))) > 1e-9:
            failed.append("surfaces.path_mu_closed_form")
        return (0 if failed else 1), failed


WORKLOADS = {w.name: w for w in (CertifyRange(), BlockDims(), ClosureProbe(), Surfaces())}


def outcome_digest(outcome) -> str:
    if isinstance(outcome, CliOutcome):
        return outcome.digest()
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


def output_bytes(outcome) -> int:
    return len(outcome.out.encode()) if isinstance(outcome, CliOutcome) else 0


def is_well_formed(req: Request, command: str, outcome) -> bool:
    return req.args[0] == command and isinstance(outcome, CliOutcome) and outcome.code == 0

