"""Orbit counts of essential simple closed curves and the degree-2 bounds.

On a hyperbolic surface of genus g with n punctures, curve orbits under the
mapping class group are determined by the homeomorphism type of the
complement: one nonseparating type when g >= 1, plus one type per unordered
pair of separating sides.  A side is a (genus, punctures) pair and must be
neither a disk (0, 0) nor a once-punctured disk (0, 1).

With labeled punctures (the pure group) the sides carry puncture subsets;
without labels (the full group) only the cardinalities matter.  The
unlabeled count N_{g,n} is the normal-generator count of the power
subgroup, the rank of the invariant homomorphism module, and the lower
bound in the degree-2 cohomology estimate lower <= dim H^2 <= n + 1 +
N_{g,n} (the upper bound valid for g >= 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NonHyperbolic, UsageError

NONSEPARATING = "nonseparating"
SEPARATING = "separating"

_FORBIDDEN_SIDES = {(0, 0), (0, 1)}

#: Most (genus, puncture set) side pairs one orbit count may scan:
#: (g + 1) * 2^n with labeled punctures, (g + 1) * (n + 1) without.
PAIR_BUDGET = 10**5
#: Most puncture labels in the side pairs a labeled orbit list scans,
#: (g + 1) * 2^n pairs of n labels each; every labeled type prints its labels.
LABEL_BUDGET = 5 * 10**5


@dataclass(frozen=True)
class Side:
    genus: int
    punctures: frozenset[int] | None  # None when only the count is tracked
    puncture_count: int

    def sort_key(self):
        labels = tuple(sorted(self.punctures)) if self.punctures is not None else ()
        return (self.genus, self.puncture_count, labels)


@dataclass(frozen=True)
class CurveType:
    kind: str
    sides: tuple[Side, Side] | None = None


def _check_hyperbolic(g: int, n: int) -> None:
    if g < 0 or n < 0:
        raise UsageError(f"genus and puncture count must be nonnegative: ({g}, {n})")
    if 2 - 2 * g - n >= 0:
        raise NonHyperbolic(f"(g, n) = ({g}, {n}) has non-negative Euler characteristic")


def _side_ok(genus: int, count: int) -> bool:
    return (genus, count) not in _FORBIDDEN_SIDES


def _check_budget(g: int, n: int, labeled: bool) -> None:
    # past 2^64 any budget is broken, so the labeled count stays a small int
    pairs = (g + 1) * (2 ** min(n, 64) if labeled else n + 1)
    if pairs > PAIR_BUDGET:
        kind = "labeled" if labeled else "unlabeled"
        raise UsageError(
            f"{kind} (g, n) = ({g}, {n}) has more side pairs than PAIR_BUDGET = {PAIR_BUDGET}"
        )


def _check_label_budget(g: int, n: int) -> None:
    _check_budget(g, n, labeled=True)  # bounds 2^n before it is computed
    labels = (g + 1) * 2**n * n
    if labels > LABEL_BUDGET:
        raise UsageError(
            f"labeled (g, n) = ({g}, {n}) has (g + 1) * 2^n * n = {labels} side-pair "
            f"labels, over LABEL_BUDGET = {LABEL_BUDGET}"
        )


def _separating_types(g: int, n: int, labeled: bool) -> list[tuple[Side, Side]]:
    """Each unordered pair of complementary sides once, as (a, b) in sort-key
    order; a's sort key strictly increases, so the list comes out sorted."""
    _check_budget(g, n, labeled)
    types: list[tuple[Side, Side]] = []
    everyone = frozenset(range(n))
    for g1 in range(g + 1):
        for n1 in range(n + 1):
            if not _side_ok(g1, n1) or not _side_ok(g - g1, n - n1):
                continue
            subsets = map(frozenset, itertools.combinations(range(n), n1))
            for a_set in subsets if labeled else [None]:
                b_set = None if a_set is None else everyone - a_set
                side_a, side_b = Side(g1, a_set, n1), Side(g - g1, b_set, n - n1)
                if side_a.sort_key() <= side_b.sort_key():
                    types.append((side_a, side_b))
    return types


def count_orbits(g: int, n: int, labeled: bool = False) -> int:
    """Number of curve orbits on the (g, n) surface.

    One nonseparating orbit when g >= 1, plus the separating types; for
    closed surfaces this is floor(g/2) + 1, and g for a single puncture.
    """
    _check_hyperbolic(g, n)
    return (1 if g >= 1 else 0) + len(_separating_types(g, n, labeled))


def enumerate_orbits(g: int, n: int, labeled: bool = False) -> tuple[CurveType, ...]:
    """Deterministic orbit list: the nonseparating type first, then the
    separating types ordered by (smaller side genus, side data)."""
    _check_hyperbolic(g, n)
    if labeled:
        _check_label_budget(g, n)
    out: list[CurveType] = []
    if g >= 1:
        out.append(CurveType(kind=NONSEPARATING))
    out.extend(CurveType(kind=SEPARATING, sides=pair) for pair in _separating_types(g, n, labeled))
    return tuple(out)


@dataclass(frozen=True)
class H2Bounds:
    g: int
    n: int
    lower_rank: int
    upper_bound: int
    upper_bound_valid: bool  # the upper estimate is established for g >= 4


def h2_bounds(g: int, n: int) -> H2Bounds:
    """Rank bounds lower <= dim H^2 <= n + 1 + N_{g,n} from the orbit count.

    The lower rank is the unlabeled orbit count; lower_rank >= 1 (any g >= 1)
    certifies non-vanishing for sufficiently divisible twist powers.  The
    upper bound is flagged valid only for g >= 4.
    """
    lower = count_orbits(g, n, labeled=False)
    return H2Bounds(
        g=g,
        n=n,
        lower_rank=lower,
        upper_bound=n + 1 + lower,
        upper_bound_valid=g >= 4,
    )


def curve_type_to_json(ct: CurveType) -> dict:
    if ct.kind == NONSEPARATING:
        return {"kind": NONSEPARATING}
    sides = []
    for side in ct.sides:
        entry: dict = {"genus": side.genus, "puncture_count": side.puncture_count}
        if side.punctures is not None:
            entry["punctures"] = sorted(side.punctures)
        sides.append(entry)
    return {"kind": SEPARATING, "sides": sides}
