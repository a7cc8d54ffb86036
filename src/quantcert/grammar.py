"""The input grammar every parser shares: numerals, comma tokens and sections.

A numeral is ASCII digits with an optional leading ``-``, at most 4300 of
them (the most ``int()`` converts), with blanks around it ignored: no ``+``,
no ``_``, no other script's digits and no blank inside.  Positions count the
characters of the text as given, blanks included.
"""

from __future__ import annotations

import functools

from .errors import GraphParseError


@functools.lru_cache(maxsize=2048)  # an intersection list repeats its indices
def numeral(text: str) -> int:
    """The integer ``text`` writes; ValueError if it is not a numeral."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit() and len(digits) <= 4300):
        raise ValueError(f"invalid numeral {text!r}")
    return int(text)


def comma_tokens(value: str, start: int):
    """Nonempty comma-separated tokens of ``value`` with their positions.

    ``start`` is the position of ``value`` in the parsed text.
    """
    for piece in value.split(","):
        tok = piece.strip()
        if tok:
            yield tok, start + len(piece) - len(piece.lstrip())
        start += len(piece) + 1


def sections(text: str, keys) -> dict[str, tuple[str, int, int]]:
    """Map each key of the ``;``-separated ``key=value`` sections of ``text``,
    blank ones skipped, to its raw value, section position and value position.

    A section without ``=``, with a key not in ``keys`` or with a key given
    before raises GraphParseError naming its token and position.
    """
    found: dict[str, tuple[str, int, int]] = {}
    end = 0
    for part in text.split(";"):
        pos, end = end, end + len(part) + 1
        if not part.strip():
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            token, problem = part.strip(), f"expected key=value, got {part.strip()!r}"
        elif key not in keys:
            token, problem = key, f"unknown section {key!r}"
        elif key in found:
            token, problem = key, f"repeated section {key!r}"
        else:
            found[key] = value, pos, pos + len(part) - len(value)
            continue
        raise GraphParseError(f"{problem} at position {pos}", token=token, position=pos)
    return found
