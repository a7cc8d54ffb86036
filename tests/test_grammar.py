"""The one input grammar: numerals, comma tokens and key=value sections."""

import pytest

from quantcert.errors import GraphParseError
from quantcert.grammar import comma_tokens, numeral, sections

LONGEST = "9" * 4300


@pytest.mark.parametrize(
    "text, value",
    [("0", 0), ("-0", 0), (" 17\t", 17), ("\n-4 ", -4), ("007", 7), ("\u00a05\u3000", 5)],
)
def test_numerals(text, value):
    assert numeral(text) == value


def test_longest_numerals():
    assert numeral(LONGEST) == 10**4300 - 1
    assert numeral(f" -{LONGEST} ") == 1 - 10**4300


@pytest.mark.parametrize(
    "text",
    ["", " ", "-", "+1", "--1", "1_0", "1 0", "- 1", "\u0661", "\uff19", "\u00b2", "1.0", "0x1",
     "1e3", "9" * 4301, "-" + "9" * 4301],
    ids=repr,
)
def test_not_numerals(text):
    with pytest.raises(ValueError):
        numeral(text)


def test_comma_tokens_skip_blanks_and_keep_positions():
    assert list(comma_tokens(" 1-2 ,, 3-4", 10)) == [("1-2", 11), ("3-4", 18)]


def test_sections_map_keys_to_raw_values_and_positions():
    text = " a = 1 ;; b=x,y "
    assert sections(text, ("a", "b", "c")) == {"a": (" 1 ", 0, 4), "b": ("x,y ", 9, 12)}
    assert sections(" ; ", ("a",)) == {}


@pytest.mark.parametrize(
    "text, message, token",
    [
        ("a=1; b", "expected key=value, got 'b' at position 4", "b"),
        ("a=1; c=2", "unknown section 'c' at position 4", "c"),
        ("a=1;a =2", "repeated section 'a' at position 4", "a"),
    ],
)
def test_section_faults_name_token_and_position(text, message, token):
    with pytest.raises(GraphParseError) as err:
        sections(text, ("a", "b"))
    assert (str(err.value), err.value.token, err.value.position) == (message, token, 4)
