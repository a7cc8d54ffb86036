"""Growth guards: the work of a request, counted as line events inside the
package, grows with its size no faster than the maths allows.

Each family names a request at size n and a bound on the ratio of the counts
at sizes 2n and n.  A count does not depend on the host's speed, so the bound
can sit close to the growth the maths allows: 2 for linear work.  Work done in
C, such as a list scan by ``in`` or ``sum`` over a slice, makes no line
events, and these guards do not see it.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import quantcert
from quantcert.cli import EXIT_OK, main

PACKAGE = str(Path(quantcert.__file__).resolve().parent)

#: family -> (its argv at size n, the size n, the bound on count(2n) / count(n));
#: levels 2101..2500 hold no even-route level, so every level costs about the same
FAMILIES = {
    "certify table": (lambda n: ["certify", f"2101..{2100 + n}"], 200, 2.2),
    "certify json": (lambda n: ["certify", f"2101..{2100 + n}", "--format", "json"], 200, 2.2),
}


def line_events(argv: list[str]) -> int:
    """Line events inside the package while ``main(argv)`` runs once, in process."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        sys.settrace(call)
        try:
            code = main(argv)
        finally:
            sys.settrace(previous)
    assert code == EXIT_OK, argv
    return count


@pytest.mark.parametrize("family", list(FAMILIES))
def test_work_grows_as_the_maths_allows(family):
    argv, n, bound = FAMILIES[family]
    counts = line_events(argv(n)), line_events(argv(2 * n))
    assert counts[1] / counts[0] <= bound, (family, counts)
