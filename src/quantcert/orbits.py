"""Orbit counts of essential simple closed curves and the degree-2 bounds.

On a hyperbolic surface of genus g with n punctures, curve orbits under the
mapping class group are determined by the homeomorphism type of the
complement: one nonseparating type when g >= 1, plus one type per unordered
pair of separating sides.  A side is a (genus, punctures) pair and must be
neither a disk (0, 0) nor a once-punctured disk (0, 1).

With labeled punctures (the pure group) the sides carry puncture subsets;
without labels (the full group) only the cardinalities matter.  Either way
the count has a closed form (``count_orbits``).  One generator yields the
separating types as pairs of sides, the one form of an orbit list, which
``orbit_types`` lists and ``orbit_list_json`` writes straight to JSON text.
Both check their length against the closed form.

The unlabeled count N_{g,n} is the normal-generator count of the power
subgroup, the rank of the invariant homomorphism module, and the lower bound
in the degree-2 cohomology estimate lower <= dim H^2 <= n + 1 + N_{g,n} (the
upper bound valid for g >= 4).
"""

from __future__ import annotations

import itertools
import math

from .errors import InvariantViolation, NonHyperbolic, UsageError

_FORBIDDEN_SIDES = {(0, 0), (0, 1)}

#: Most integers one orbit list may print: four per separating type (genus
#: and puncture count of both sides), plus its n puncture labels when labeled.
LIST_BUDGET = 200000


def _check_hyperbolic(g: int, n: int) -> None:
    if g < 0 or n < 0:
        raise UsageError(f"genus and puncture count must be nonnegative: ({g}, {n})")
    if 2 - 2 * g - n >= 0:
        raise NonHyperbolic(f"(g, n) = ({g}, {n}) has non-negative Euler characteristic")


def count_orbits(g: int, n: int, labeled: bool = False) -> int:
    """Number of curve orbits on the (g, n) surface, in closed form.

    Of the ordered pairs of complementary sides, the forbidden ones are a
    side (0, 0) or (0, 1) and its complement: (g + 1)(n + 1) - 2 - 2[n >= 1]
    remain unlabeled, (g + 1) 2^n - 2(n + 1) labeled.  Each unordered pair
    is counted twice, except a pair of equal sides: unlabeled when g and n
    are both even, labeled only when n = 0 and g is even.  One more orbit is
    nonseparating when g >= 1.  For closed surfaces this is floor(g/2) + 1,
    and g for a single puncture.  A labeled count forms 2^n, so callers
    bound n first.
    """
    _check_hyperbolic(g, n)
    if labeled:
        ordered = (g + 1) * 2**n - 2 * (n + 1)
        equal = n == 0 and g % 2 == 0
    else:
        ordered = (g + 1) * (n + 1) - 2 - 2 * (n >= 1)
        equal = g % 2 == 0 and n % 2 == 0
    return (g >= 1) + (ordered + equal) // 2


def _check_budget(g: int, n: int, labeled: bool) -> int:
    """The orbit count, once the list it gives is known to fit LIST_BUDGET."""
    _check_hyperbolic(g, n)
    # past 2^64 side pairs any budget is broken, so 2^n is formed only for n <= 64
    if labeled and n > 64:
        raise UsageError(
            f"labeled (g, n) = ({g}, {n}) prints over 2^64 integers, "
            f"over LIST_BUDGET = {LIST_BUDGET}"
        )
    count = count_orbits(g, n, labeled)
    size = (count - (g >= 1)) * (4 + n if labeled else 4)
    if size > LIST_BUDGET:
        kind = "labeled" if labeled else "unlabeled"
        raise UsageError(
            f"{kind} (g, n) = ({g}, {n}) prints {size} integers, over LIST_BUDGET = {LIST_BUDGET}"
        )
    return count


def _separating_types(g: int, n: int, labeled: bool, form=None):
    """Each unordered pair of complementary sides once, as ``(g1, lower, g2,
    upper)``: the genus and the ``form`` of the puncture side of each, a side
    being its puncture count, or when labeled the tuple of its puncture
    labels (``form`` None keeps it as it is).

    Sides compare by (genus, puncture count, labels), and the lower side's
    key strictly increases along the pairs: the side types (g1, n1) run up
    to their complement in blocks, and within a labeled block the lower
    subsets come in ``itertools.combinations`` order.  The form of each
    subset is made once per subset size, for every block of that size.
    """
    forms: dict[int, list] = {}  # subset size -> the form of each subset, in combinations order
    for g1 in range(g // 2 + 1):
        g2 = g - g1
        for n1 in range(n + 1 if g1 < g2 else n // 2 + 1):
            n2 = n - n1
            if (g1, n1) in _FORBIDDEN_SIDES or (g2, n2) in _FORBIDDEN_SIDES:
                continue
            if not labeled:
                yield (g1, n1, g2, n2) if form is None else (g1, form(n1), g2, form(n2))
                continue
            for size in (n1, n2):
                if size not in forms:
                    subsets = itertools.combinations(range(n), size)
                    forms[size] = list(subsets if form is None else map(form, subsets))
            lowers = forms[n1]
            if (g1, n1) == (g2, n2):
                # equal sides: the lower one holds label 0, and those come first
                lowers = lowers[: math.comb(n - 1, n1 - 1) if n1 else 1]
            # the complements of the n1-subsets, in combinations order, are
            # the n2-subsets in reverse combinations order
            for lower, upper in zip(lowers, reversed(forms[n2])):
                yield g1, lower, g2, upper


def _check_listed(g: int, n: int, listed: int, count: int) -> None:
    if listed != count:
        raise InvariantViolation(
            f"(g, n) = ({g}, {n}) lists {listed} curve types, the closed form gives {count}"
        )


def orbit_types(g: int, n: int, labeled: bool = False, listed: bool = True) -> tuple:
    """The orbit count and the separating types as ``(lower, upper)`` side
    pairs, a side being ``(genus, p)`` with p its puncture count or, when
    labeled, the tuple of its labels; the nonseparating type (g >= 1) is in
    the count only.  The list must fit LIST_BUDGET and the pairs must match
    the count; with ``listed`` false the pairs are not enumerated and come
    back as None."""
    count = _check_budget(g, n, labeled)
    if not listed:
        return count, None
    pairs = [((g1, a), (g2, b)) for g1, a, g2, b in _separating_types(g, n, labeled)]
    _check_listed(g, n, (g >= 1) + len(pairs), count)
    return count, pairs


# The text of one record as an item of the list, as
# json.dumps(..., sort_keys=True, indent=2) writes it at depth 0; a side is
# its genus, then the text of its puncture count and labels.
_NONSEP_JSON = '\n  {\n    "kind": "nonseparating"\n  }'
_PAIR_JSON = (
    '\n  {\n    "kind": "separating",\n    "sides": [\n      {\n        "genus": %d,%s\n      },'
    '\n      {\n        "genus": %d,%s\n      }\n    ]\n  }'
)
_COUNT_JSON = '\n        "puncture_count": %d'
_LABELS_JSON = ',\n        "punctures": [\n          %s\n        ]'
_LABEL_SEPARATOR = ",\n          "


def _punctures_json(p) -> str:
    if isinstance(p, int):
        return _COUNT_JSON % p
    if not p:
        return _COUNT_JSON % 0 + ',\n        "punctures": []'
    return _COUNT_JSON % len(p) + _LABELS_JSON % _LABEL_SEPARATOR.join(map(str, p))


def orbit_list_json(g: int, n: int, labeled: bool = False) -> tuple[int, str]:
    """The count and the JSON text of the orbit list, checked as ``orbit_types``
    checks it: ``{"kind": "nonseparating"}`` when g >= 1, then ``{"kind":
    "separating", "sides": [lower, upper]}`` per side pair, a side being
    ``{"genus", "puncture_count"}`` and, when labeled, its ``"punctures"``.
    The text is ``json.dumps(list, sort_keys=True, indent=2)`` exactly."""
    count = _check_budget(g, n, labeled)
    items = [_NONSEP_JSON] if g >= 1 else []
    items.extend(map(_PAIR_JSON.__mod__, _separating_types(g, n, labeled, _punctures_json)))
    _check_listed(g, n, len(items), count)
    return count, ("[" + ",".join(items) + "\n]" if items else "[]")


def h2_bounds(g: int, n: int) -> dict:
    """Rank bounds lower <= dim H^2 <= n + 1 + N_{g,n} from the orbit count,
    as the report's ``h2`` record.

    The lower rank is the unlabeled orbit count; lower_rank >= 1 (any g >= 1)
    certifies non-vanishing for sufficiently divisible twist powers.  The
    upper bound is flagged valid only for g >= 4.
    """
    lower = count_orbits(g, n, labeled=False)
    return {
        "lower_rank": lower,
        "upper_bound": n + 1 + lower,
        "upper_bound_valid": g >= 4,
    }
