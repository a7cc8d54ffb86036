"""The exact subcommands print byte for byte what they printed when these
hashes were taken: each request's whole stdout is pinned by its sha256.

The other CLI tests check parts of a report; this one checks all of it, key
order, indentation and table layout included.  A ``veech`` report is pinned
after its float fields are dropped (``VEECH_FLOATS`` and each rectangle's
width and height): they come from ``eigh`` and may differ in the last place
across builds, while every other field is exact.
"""

import contextlib
import hashlib
import io
import json

import pytest

from oracles import enumerate_orbits
from quantcert.cli import EXIT_OK, main

#: argv -> sha256 of stdout
GOLDEN = {
    ("certify", "1..3000", "--format", "json"):
        "b82e35a2f2887a39433661ab30aa432c27bf7a03d8d432cb699153d758700562",
    ("certify", "1..3000"):
        "175708052f35f13e92b1e10f9cae4d0e6d74f214ba38dbb4459b772de5e910ca",
    ("certify", "40", "--format", "json"):
        "8d6b0d9a74c1c66cee062237576af342845c4a11a84b4debe27038596308f56d",
    ("certify", "1..100000", "--format", "json"):
        "115eeceded637a1010ae0a353db60dff66af1a93fabb736923c8147f1462fb4c",
    ("certify", "1..100000"):
        "50f5f6eb6507606121b37e080046e731e9fb47bdb8041fa5ca6b5ae37f67383b",
    ("certify", "1..100000", "--quiet"):
        "663f807b6b8d22bfbf5e22a383bd127e9ff06bd2b9e5fe5c93339726e792b599",
    ("orbits", "5", "4", "--labeled", "--format", "json"):
        "9864e81f441d17ef91062f9fe76cae8963730bcf56deb71256754caa4e3324d1",
    ("orbits", "5", "4", "--format", "json"):
        "b9c63fa749be5d55812c7e3af4214fc8e03ab8b2f51d0abe1bc4856aaf55cdd0",
    ("orbits", "4", "12", "--labeled", "--format", "json"):
        "ea50ae1ea154c98d6cf221d9a2592549cb3813270d36094452ef43d1e5fcf35c",
    ("orbits", "4", "0", "--labeled", "--format", "json"):
        "41cdb2345a0a6034d5bd3138c86a4149d09edec6a460011dada0d4bc19960c48",
    ("orbits", "0", "8", "--labeled", "--format", "json"):
        "9cc22706cd261b3499c4cbc6e420b6a5be3ad11e1f8e47b7099c866443797bae",
    ("orbits", "12", "16", "--format", "json"):
        "d03f59cfa927b672cb92ced79d1cba67a330b1d45394fd12f19b17951c29f066",
    ("orbits", "3", "2", "--labeled"):
        "ba364f3702cbd6368bf3b8e20b8b2a82f65c792343c063a95900725820c96461",
    ("blocks", "tadpole", "--tail", "2", "--level", "16", "--format", "json"):
        "7d6ff5531ff6ce83674433bb972a585bdb7be928a3e963db6e47223401c4f641",
    ("blocks", "tadpole", "--tail", "4", "--level", "40"):
        "492a814f7ceceeda5c3dfb83a6d0610ee8b58e34180a1fefab4d7d3eb2135365",
    ("blocks", "vertices=2; edges=1-2,1-2,1-2", "--level", "5", "--format", "json"):
        "fafeea4cbcb411b62bf2be8f07f9e46d27d2d00d2e0ae9c52033d56f20cfc1a3",
    ("blocks", "vertices=4; edges=1-2,1-2,2-3,3-4,3-4,1-4", "--level", "12", "--format", "json"):
        "5832d40b408065e4af5f6b746ecb5ee4d8f77fd98021048013beb43868b217a9",
    ("blocks", "vertices=2; edges=1-1,1-2; tails=2:2,2:4", "--level", "9", "--format", "json"):
        "de8ad687c2eb2bfaaa59e17ae1231f1317f1728636a8a6e04cca140afd00a385",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_is_byte_identical(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
def test_orbit_list_text_matches_its_records(labeled):
    """The JSON path writes the orbit list from the side pairs as text; the
    records of ``enumerate_orbits``, dumped by json, are its slow oracle."""
    checked = 0
    for g in range(7):
        for n in range(11):
            if 2 - 2 * g - n >= 0:
                continue
            argv = ["orbits", str(g), str(n), "--format", "json"] + ["--labeled"] * labeled
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == EXIT_OK
            report = json.loads(out.getvalue())
            report["results"]["orbits"] = enumerate_orbits(g, n, labeled)
            assert out.getvalue() == json.dumps(report, sort_keys=True, indent=2) + "\n", argv
            checked += 1
    assert checked == 73


K141_141 = ",".join(f"({i},{j},1)" for i in range(1, 142) for j in range(1, 142))

#: top-level float fields of a veech report's results
VEECH_FLOATS = ("mu", "eigenvector", "residual", "dt_c", "dt_d", "total_area")

#: id -> (veech argv, sha256 of the JSON report without its float fields)
VEECH_GOLDEN = {
    "A:2000": (
        ("A:2000",),
        "2b726fe3239562adb3952982a40c26386dc3e952cb412dfe7d55e6059f33abd0",
    ),
    "cycle:1998": (
        ("cycle:1998",),
        "769cd2aabfd208eb81cd1f91503a61aa0f135a69353ee2790006836513c6137c",
    ),
    "star:1999": (
        ("star:1999",),
        "cd2c4cc82be9ce96e252e4e35115cf7de6761c81a925d5dce465862fcb944490",
    ),
    "E:8": (("E:8",), "a4a3901315d8df040be22f82e611f66472e0ab7f01d37ed0622f438c0eab02d4"),
    "K141_141": (
        ("--inter", K141_141),
        "782eae0d23abe1ad8165a05ddf83f1be8a5ea7f3d07640a34558aa01e61cac45",
    ),
    # (1,1) given twice and (2,2) with count 0
    "repeated_and_zero": (
        ("--inter", "(1,1,1),(2,1,1),(1,1,2),(2,2,0),(1,2,1)", "--mult", "1,2,3,1"),
        "697367b9f87cf514dbc030f5b2ae81fa1e8fbcad37232eff79b2809f7c47d0c6",
    ),
    "spec": (
        ("c=2; d=3; inter=(1,1,1),(1,2,2),(2,2,1),(2,3,1); mult=1,2,1,1,3",),
        "ac6c7e6f9386d7848f1c9c2eef5d45040f36481db1c6c6a5bb792d6a41830639",
    ),
}


@pytest.mark.parametrize("name", list(VEECH_GOLDEN))
def test_veech_exact_fields_are_byte_identical(name):
    argv, digest = VEECH_GOLDEN[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["veech", *argv, "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out.getvalue())
    for key in VEECH_FLOATS:
        del doc["results"][key]
    for rectangle in doc["results"]["rectangles"]:
        del rectangle["width"], rectangle["height"]
    exact = json.dumps(doc, sort_keys=True, indent=2)
    assert hashlib.sha256(exact.encode()).hexdigest() == digest
