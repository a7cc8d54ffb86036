import itertools
import json

import pytest

from oracles import NONSEPARATING, SEPARATING, enumerate_orbits
from quantcert.errors import NonHyperbolic, UsageError
from quantcert import orbits
from quantcert.orbits import (
    LIST_BUDGET,
    count_orbits,
    h2_bounds,
)


def bruteforce_labeled_count(g, n):
    """Independent enumeration of curve types with labeled punctures."""
    types = set()
    for g1 in range(g + 1):
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                a = frozenset(subset)
                b = frozenset(range(n)) - a
                if (g1, len(a)) in {(0, 0), (0, 1)}:
                    continue
                if (g - g1, len(b)) in {(0, 0), (0, 1)}:
                    continue
                types.add(
                    tuple(sorted([(g1, tuple(sorted(a))), (g - g1, tuple(sorted(b)))]))
                )
    return (1 if g >= 1 else 0) + len(types)


def bruteforce_pairs(g, n, labeled):
    """Unordered pairs of complementary sides, collected from every ordered split."""
    pairs = set()
    labels = set(range(n))
    for r in range(n + 1):
        # unlabeled sides keep only the count, so one r-subset stands for all
        subsets = itertools.combinations(range(n), r) if labeled else [tuple(range(r))]
        for subset in subsets:
            rest = tuple(sorted(labels - set(subset)))
            for g1 in range(g + 1):
                sides = [(g1, subset), (g - g1, rest)]
                if any((genus, len(p)) in {(0, 0), (0, 1)} for genus, p in sides):
                    continue
                if not labeled:
                    sides = [(genus, len(p)) for genus, p in sides]
                pairs.add(frozenset(sides))
    return pairs


def no_enumeration(*args):
    raise AssertionError("enumerated")


class TestCountOrbits:
    def test_closed_surface_formula(self):
        for g in range(2, 21):
            assert count_orbits(g, 0) == g // 2 + 1

    def test_one_puncture_formula(self):
        for g in range(2, 21):
            assert count_orbits(g, 1) == g
            assert count_orbits(g, 1, labeled=True) == g

    def test_genus4_closed(self):
        assert count_orbits(4, 0) == 3

    def test_genus3_one_puncture(self):
        assert count_orbits(3, 1) == 3

    def test_labeled_matches_bruteforce(self):
        for g in range(0, 5):
            for n in range(0, 5):
                if 2 - 2 * g - n >= 0:
                    continue
                assert count_orbits(g, n, labeled=True) == bruteforce_labeled_count(g, n)

    def test_labeled_at_least_unlabeled(self):
        for g in range(0, 5):
            for n in range(0, 6):
                if 2 - 2 * g - n >= 0:
                    continue
                assert count_orbits(g, n, labeled=True) >= count_orbits(g, n)

    def test_non_hyperbolic_rejected(self):
        for g, n in ((0, 0), (0, 2), (1, 0)):
            with pytest.raises(NonHyperbolic):
                count_orbits(g, n)

    def test_closed_form_matches_enumeration_and_bruteforce(self):
        checked = 0
        for g in range(30):
            for n in range(14):
                if 2 - 2 * g - n >= 0:
                    continue
                for labeled in (False, True):
                    try:
                        orbits._check_budget(g, n, labeled)
                    except UsageError:
                        continue
                    count = count_orbits(g, n, labeled)
                    case = (g, n, labeled)
                    assert count == len(enumerate_orbits(g, n, labeled)), case
                    assert count == (g >= 1) + len(bruteforce_pairs(g, n, labeled)), case
                    checked += 1
        assert checked == 760

    def test_counts_do_not_enumerate(self, monkeypatch):
        monkeypatch.setattr(orbits, "_separating_types", no_enumeration)
        assert count_orbits(4, 0) == 3
        assert count_orbits(4, 12, labeled=True) == 10228
        assert count_orbits(10**30, 0) == 10**30 // 2 + 1
        assert h2_bounds(99999, 0)["lower_rank"] == 50000
        with pytest.raises(AssertionError, match="enumerated"):
            enumerate_orbits(4, 0)

    def test_list_budget_edge(self, monkeypatch):
        # 4 integers per separating type, plus n labels when labeled; the
        # check takes the count from the closed form and enumerates nothing
        monkeypatch.setattr(orbits, "_separating_types", no_enumeration)
        assert LIST_BUDGET == 200000
        edges = [
            (False, (100001, 0), (100002, 0)),  # 50000 * 4, then 50001 * 4
            (False, (0, 100003), (0, 100004)),  # 50000 * 4, then 50001 * 4
            (True, (5, 12), (6, 12)),  # 12275 * 16 = 196400, then 14323 * 16 = 229168
            (True, (0, 14), (0, 15)),  # 8177 * 18 = 147186, then 16368 * 19 = 310992
        ]
        for labeled, admitted, rejected in edges:
            assert orbits._check_budget(*admitted, labeled) == count_orbits(*admitted, labeled)
            with pytest.raises(UsageError, match=f"LIST_BUDGET = {LIST_BUDGET}"):
                orbits._check_budget(*rejected, labeled)
        orbits._check_budget(99, 999, labeled=False)
        orbits._check_budget(99999, 0, labeled=False)
        for g, n, labeled in ((99, 1000, False), (1, 16, True), (0, 16, True), (0, 10**30, True)):
            with pytest.raises(ValueError, match=f"LIST_BUDGET = {LIST_BUDGET}"):
                orbits._check_budget(g, n, labeled)

    def test_labeled_list_budget_points(self):
        # the (4, 12) anchor prints 10227 * 16 = 163632 integers
        grid = [(g, n) for g in range(5) for n in range(10) if 2 - 2 * g - n < 0]
        for g, n in [(4, 12)] + grid:
            orbits._check_budget(g, n, labeled=True)
        for g, n in ((5, 14), (2, 15), (10, 12), (1, 15), (9, 12), (0, 15)):
            with pytest.raises(ValueError, match=f"LIST_BUDGET = {LIST_BUDGET}"):
                orbits._check_budget(g, n, labeled=True)
        with pytest.raises(ValueError, match="LIST_BUDGET"):
            enumerate_orbits(5, 14, labeled=True)
        with pytest.raises(ValueError, match="LIST_BUDGET"):
            enumerate_orbits(1, 17, labeled=True)
        # unlabeled lists carry no labels
        assert len(enumerate_orbits(2, 15)) == 23

    def test_thrice_punctured_sphere_has_no_essential_curves(self):
        assert count_orbits(0, 3) == 0

    def test_thrice_punctured_sphere_plus_one(self):
        # (0, 4): no nonseparating type; three labeled splittings 2|2
        assert count_orbits(0, 4, labeled=True) == 3
        assert count_orbits(0, 4) == 1


def _side_key(side):
    return (side["genus"], side["puncture_count"], side.get("punctures", []))


class TestEnumerateOrbits:
    def test_genus2_closed(self):
        types = enumerate_orbits(2, 0)
        assert [t["kind"] for t in types] == [NONSEPARATING, SEPARATING]
        sides = types[1]["sides"]
        assert [(s["genus"], s["puncture_count"]) for s in sides] == [(1, 0), (1, 0)]

    def test_genus3_closed(self):
        types = enumerate_orbits(3, 0)
        assert len(types) == 2
        assert [(s["genus"], s["puncture_count"]) for s in types[1]["sides"]] == [(1, 0), (2, 0)]

    def test_nonseparating_first_and_lengths_agree(self):
        for g in range(0, 5):
            for n in range(0, 5):
                if 2 - 2 * g - n >= 0:
                    continue
                for labeled in (False, True):
                    types = enumerate_orbits(g, n, labeled=labeled)
                    assert len(types) == count_orbits(g, n, labeled=labeled)
                    assert len({json.dumps(t, sort_keys=True) for t in types}) == len(types)
                    if g >= 1:
                        assert types[0]["kind"] == NONSEPARATING

    def test_separating_types_match_bruteforce_pairs(self):
        for g in range(0, 5):
            for n in range(0, 7):
                if 2 - 2 * g - n >= 0:
                    continue
                for labeled in (False, True):
                    found = [
                        frozenset(
                            (s["genus"], tuple(s["punctures"]) if labeled else s["puncture_count"])
                            for s in t["sides"]
                        )
                        for t in enumerate_orbits(g, n, labeled=labeled)
                        if t["kind"] == SEPARATING
                    ]
                    case = (g, n, labeled)
                    assert len(set(found)) == len(found), case
                    assert set(found) == bruteforce_pairs(g, n, labeled), case

    def test_separating_types_come_out_sorted(self):
        """The enumeration order is the (lo, hi) side-key order, with no sort."""
        for g in range(0, 7):
            for n in range(0, 10):
                if 2 - 2 * g - n >= 0:
                    continue
                for labeled in (False, True):
                    seps = [
                        t for t in enumerate_orbits(g, n, labeled=labeled)
                        if t["kind"] == SEPARATING
                    ]
                    key = lambda t: (_side_key(t["sides"][0]), _side_key(t["sides"][1]))
                    assert sorted(seps, key=key) == seps, (g, n, labeled)

    def test_sides_are_canonically_ordered(self):
        for ct in enumerate_orbits(3, 2, labeled=True):
            if ct["kind"] == SEPARATING:
                lo, hi = ct["sides"]
                assert _side_key(lo) <= _side_key(hi)

    def test_json_rendering(self):
        docs = enumerate_orbits(2, 1, labeled=True)
        assert docs[0] == {"kind": "nonseparating"}
        for doc in docs[1:]:
            assert doc["kind"] == "separating"
            assert len(doc["sides"]) == 2
            for side in doc["sides"]:
                assert "punctures" in side
        # the text written from the side pairs is json.dumps of the records
        # built from the side pairs of orbit_types, on every list that fits
        checked = 0
        for g in range(7):
            for n in range(13):
                if 2 - 2 * g - n >= 0:
                    continue
                for labeled in (False, True):
                    try:
                        count, text = orbits.orbit_list_json(g, n, labeled)
                    except UsageError:
                        continue
                    docs = enumerate_orbits(g, n, labeled)
                    assert count == len(docs)
                    assert text == json.dumps(docs, sort_keys=True, indent=2), (g, n, labeled)
                    checked += 1
        assert checked == 173


class TestH2Bounds:
    def test_genus4_closed(self):
        assert h2_bounds(4, 0) == {"lower_rank": 3, "upper_bound": 4, "upper_bound_valid": True}

    def test_genus5_one_puncture(self):
        bounds = h2_bounds(5, 1)
        assert (bounds["lower_rank"], bounds["upper_bound"]) == (5, 7)

    def test_upper_is_lower_plus_n_plus_1(self):
        for g in range(2, 8):
            for n in range(0, 4):
                bounds = h2_bounds(g, n)
                assert bounds["upper_bound"] == bounds["lower_rank"] + n + 1

    def test_nonvanishing_certificate(self):
        for g in range(2, 12):
            assert h2_bounds(g, 0)["lower_rank"] >= 1

    def test_validity_flag(self):
        assert not h2_bounds(3, 0)["upper_bound_valid"]
        assert h2_bounds(4, 0)["upper_bound_valid"]
