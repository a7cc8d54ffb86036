"""The exact subcommands print byte for byte what they printed when these
hashes were taken: each request's whole stdout is pinned by its sha256.

The other CLI tests check parts of a report; this one checks all of it, key
order, indentation and table layout included.  ``veech`` is left out: its
floats come from ``eigh`` and may differ in the last place across builds.
"""

import contextlib
import hashlib
import io

import pytest

from quantcert.cli import EXIT_OK, main

#: argv -> sha256 of stdout
GOLDEN = {
    ("certify", "1..3000", "--format", "json"):
        "b82e35a2f2887a39433661ab30aa432c27bf7a03d8d432cb699153d758700562",
    ("certify", "1..3000"):
        "175708052f35f13e92b1e10f9cae4d0e6d74f214ba38dbb4459b772de5e910ca",
    ("certify", "40", "--format", "json"):
        "8d6b0d9a74c1c66cee062237576af342845c4a11a84b4debe27038596308f56d",
    ("orbits", "5", "4", "--labeled", "--format", "json"):
        "9864e81f441d17ef91062f9fe76cae8963730bcf56deb71256754caa4e3324d1",
    ("orbits", "5", "4", "--format", "json"):
        "b9c63fa749be5d55812c7e3af4214fc8e03ab8b2f51d0abe1bc4856aaf55cdd0",
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
