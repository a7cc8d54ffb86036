"""Infiniteness certificates for the quantum twist representations, level by level.

Two routes exist.  For levels whose odd part q = p / 2^v2(p) is at least 7,
the 2-dimensional block with boundary color q - 5 carries a braid-group
image which is an infinite triangle group (odd route).  For levels
divisible by 4 with k = p/4 >= 4, the 5-dimensional block with boundary
color 2k - 6 carries an indefinite invariant Hermitian form; infiniteness
follows once every potential invariant subspace is excluded (even route).

Every twist eigenvalue mu_a = (-1)^a A^(a(a+2)), A = zeta_2p^ell, is a power
of zeta_2p, and both routes decide on its exponent mod 2p (``roots``).
Invariant subspaces of dimension 1 or 2 (complements reduce to these) are
indexed by sub-multisets of the twist-eigenvalue ratios
lambda_i = mu_(k-3+i) / mu_(k-1):

    (lambda_0, ..., lambda_4) = (-z^4, z, 1, -z, -z^4),   z = A^(2k+1),

and each case must fail a scalar identity -- (prod lambda)^6 = lambda_i^30
for singletons, (prod lambda)^12 = (lambda_i lambda_j)^30 for pairs --
checked as a congruence mod 2p on the exponents.  A case that survives it
is resolved only if it is the span case {lambda_0, lambda_2}, by the
indefiniteness of the form on that span; its partner {lambda_1, lambda_3}
never survives.
The irreducibility of a surviving restriction is not machine-checkable and
is recorded as externally asserted; see UNCERTIFIABLE_LEVELS for when that
assertion is available.
"""

from __future__ import annotations

import math
from collections import Counter

from . import blocks, hermitian
from .errors import InvariantViolation
from .roots import twist_exponent

ROUTE_ODD = "odd_burau"
ROUTE_EVEN = "even_coxeter"
ROUTE_UNCERTIFIED = "uncertified"

SCALAR_OBSTRUCTED = "scalar_obstructed"
SURVIVES = "survives"
FORM_INDEFINITE_ON_SPAN = "form_indefinite_on_span"

#: Even-route levels for which the irreducibility assertion is withheld.  The
#: even route leans on one step that exponent arithmetic cannot check (the
#: irreducibility of a surviving plane restriction); that step is taken as
#: externally established when the level fails to divide 120, and otherwise
#: exactly for levels absent from this list.  Only 20, 24 and 40 divide 120
#: and reach that step (smaller levels fail first: odd part below 7 and
#: k < 4).  Exponent arithmetic alone cannot distinguish 24 (listed) from 40
#: (absent): both satisfy the same divisibility predicates against 60 and 120.
UNCERTIFIABLE_LEVELS = frozenset({20, 24})


def odd_part(p: int) -> int:
    """p divided by its largest power of 2."""
    while p % 2 == 0:
        p //= 2
    return p


def eigenvalue_tuple(p: int, ell: int) -> tuple[int, ...]:
    """Twist eigenvalues of loop colors k-3..k+1 over that of color k-1, as
    exponents of zeta_2p in 0..2p-1.

    Needs p = 4k, k >= 4, a primitive ell.  The ratios are (-z^4, z, 1, -z,
    -z^4), with z = A^(2k+1) and A = zeta_2p^ell.
    """
    k = hermitian._check_level(p, ell)
    mus = [twist_exponent(a, p, ell) for a in range(k - 3, k + 2)]
    return tuple((mu - mus[2]) % (2 * p) for mu in mus)


def scalar_obstruction(p: int, product: int, subset: tuple[int, ...]) -> str:
    """Check the scalar identity forced by an invariant subspace, mod 2p.

    ``product`` is the exponent of the product of the eigenvalue tuple and
    ``subset`` a sub-multiset of the tuple of size 1 or 2, all exponents of
    zeta_2p.  The identity reads 6 |S| product = 30 sum(S) mod 2p.  Returns
    SCALAR_OBSTRUCTED when it fails (the subspace cannot exist) and SURVIVES
    when it holds identically.
    """
    if len(subset) not in (1, 2):
        raise ValueError("subspace case must have size 1 or 2")
    holds = (6 * len(subset) * product - 30 * sum(subset)) % (2 * p) == 0
    return SURVIVES if holds else SCALAR_OBSTRUCTED


def _root_text(e: int, p: int) -> str:
    """zeta_2p^e as a report writes it."""
    return f"zeta_{2 * p}^{e}" if e else "1"


def odd_certificate(p: int) -> dict:
    """Certify via the odd part q = p / 2^v2(p) when q >= 7.

    The block at level q with boundary color q - 5 is 2-dimensional, with
    loop colors (a, b); the braid image there is the reduced 2-strand-generator
    representation at the parameter -mu_b/mu_a.  Its negative mu_b/mu_a is
    zeta_2q^(e_b - e_a); it is checked to be a primitive q-th root of unity,
    hence the image is an infinite triangle group, as q >= 7 lies outside
    {2, 3, 4, 5}.
    """
    if p < 1:
        raise ValueError(f"level must be positive, got {p}")
    q = odd_part(p)
    if q < 7:
        return {
            "p": p,
            "route": ROUTE_UNCERTIFIED,
            "failed": [f"odd part {q} of level {p} is smaller than 7"],
        }
    basis = blocks.tadpole_basis(q - 5, q)
    if len(basis) != 2:
        raise InvariantViolation(
            f"expected a 2-dimensional block at (level {q}, tail {q - 5}), got {basis}"
        )
    a, b = basis
    order = 2 * q // math.gcd(2 * q, twist_exponent(b, q) - twist_exponent(a, q))
    if order != q:
        raise InvariantViolation(f"-parameter has order {order}, expected {q}")
    return {"p": p, "route": ROUTE_ODD, "odd_part": q, "boundary_color": q - 5}


def _irreducibility_asserted(p: int) -> tuple[bool, str]:
    """Whether the irreducibility of a surviving plane is externally asserted.

    Returns the license flag and a note describing which criterion granted
    (or denied) it.
    """
    if 120 % p != 0:
        return True, (
            "irreducibility of the surviving plane restriction is externally "
            "asserted (level does not divide 120)"
        )
    if p not in UNCERTIFIABLE_LEVELS:
        return True, (
            f"level {p} divides 120, so the closed-form criterion is silent; "
            "the level is absent from the known uncertifiable list, so the "
            "externally asserted irreducibility is applied (annotated)"
        )
    return False, (
        f"level {p} divides 120 and is on the known uncertifiable list; no "
        "irreducibility assertion is available for the surviving restriction"
    )


def _distinct_submultisets(lams: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All distinct size-1 and size-2 sub-multisets of the eigenvalue tuple.

    Eigenvalues are grouped by value (lambda_0 = lambda_4 always), so the
    case analysis is well-posed even with repeats; complements of sizes 4
    and 3 are covered by these via orthogonality.
    """
    counts = Counter(lams)
    distinct = sorted(counts)
    return [(lam,) for lam in distinct] + [
        (a, b)
        for i, a in enumerate(distinct)
        for b in distinct[i:]
        if a != b or counts[a] > 1
    ]


def even_certificate(p: int) -> dict:
    """Certify via the indefinite form on the 5-dimensional block at p = 4k."""
    if p % 4:
        raise ValueError(f"level must be divisible by 4, got {p}")
    k = p // 4
    if k < 4:
        return {
            "p": p,
            "route": ROUTE_UNCERTIFIED,
            "failed": [
                f"level {p} = 4k with k = {k} < 4: no 5-dimensional block with "
                "positive boundary color"
            ],
        }
    ell = hermitian.find_indefinite_ell(p)
    boundary = 2 * k - 6
    basis = blocks.tadpole_basis(boundary, p)
    if basis != tuple(range(k - 3, k + 2)):
        raise InvariantViolation(
            f"expected loop colors {tuple(range(k - 3, k + 2))} at (level {p}, "
            f"tail {boundary}), got {basis}"
        )
    profile = hermitian.gram_profile(p, ell)
    if not profile.indefinite:
        raise InvariantViolation(f"window selector {ell} is not indefinite at level {p}")
    lams = eigenvalue_tuple(p, ell)
    product = sum(lams)
    if math.gcd(lams[1], 2 * p) != 1:
        raise InvariantViolation(f"z = A^(2k+1) is not primitive at level {p}")

    licensed, license_note = _irreducibility_asserted(p)
    span_pattern = Counter((lams[0], lams[2]))
    class_signs: dict[int, set[int]] = {}
    for lam, sign in zip(lams, profile.diagonal_signs):
        class_signs.setdefault(lam, set()).add(sign)
    texts = {lam: _root_text(lam, p) for lam in class_signs}
    cases: list[dict] = []
    failures: list[str] = []

    for subset in _distinct_submultisets(lams):
        multiset = sorted(texts[lam] for lam in subset)
        if scalar_obstruction(p, product, subset) == SCALAR_OBSTRUCTED:
            cases.append({"multiset": multiset, "resolution": SCALAR_OBSTRUCTED})
            continue
        # Only the span case can survive the scalar test.  Its partner
        # {z, -z} would need (prod lambda)^12 = (-z^2)^30, i.e. z^120 = z^60,
        # i.e. z^60 = 1; but z is a primitive 2p = 8k-th root and 8 does not
        # divide 60, so that pair is always scalar_obstructed.
        reason = " and admits no indefiniteness argument"
        if Counter(subset) == span_pattern:
            # The sign of a norm must not depend on which vector of an
            # eigenspace realizes the subspace, so each class needs one sign.
            signs = [class_signs[lam] for lam in subset]
            uniform = all(len(s) == 1 for s in signs)
            indefinite = uniform and set().union(*signs) == {1, -1}
            if indefinite and licensed:
                cases.append({"multiset": multiset, "resolution": FORM_INDEFINITE_ON_SPAN})
                continue
            if indefinite:
                reason = f"; the span is indefinite but {license_note}"
        label = "{" + ", ".join(texts[lam] for lam in subset) + "}"
        failures.append(f"case {label} survives the scalar identity{reason}")

    if failures:
        return {"p": p, "route": ROUTE_UNCERTIFIED, "failed": failures}
    return {
        "p": p,
        "route": ROUTE_EVEN,
        "boundary_color": boundary,
        "ell": ell,
        "signature": list(profile.signature),
        "cases": cases,
    }


def certify_level(p: int) -> tuple[dict, tuple[str, ...]]:
    """Odd route first, then the even route for multiples of 4.

    Returns the certificate record and its provenance notes.  The span case
    survives the scalar identity at every level, so an even certificate
    always rests on the asserted irreducibility, and its one note says why
    that assertion applies.
    """
    record = odd_certificate(p)
    if record["route"] == ROUTE_ODD:
        return record, ()
    if p % 4:
        record["failed"].append(f"level {p} is not divisible by 4: no even route")
        return record, ()
    even = even_certificate(p)
    if even["route"] == ROUTE_EVEN:
        return even, (_irreducibility_asserted(p)[1],)
    record["failed"].extend(even["failed"])
    return record, ()
