"""The wire contract of both ends of a verdict.

Output: `Verdict.to_json()` is `json.dumps(d, sort_keys=True, indent=2)`
byte for byte, and `to_json(compact=True)` is the one-line form with
separators (",", ":").  Input: `parse_fraction` reads a string exactly as
`fractions.Fraction` does and refuses what it refuses, with one message.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nilgrade.serialize import parse_fraction
from nilgrade.verdict import Verdict

KEYS = st.text(max_size=6) | st.sampled_from(["é", "ключ", '"q"', "a\\b", "\x00\n\t\x1f", " ", "𝔤"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**40, max_value=10**60)
    | st.integers(min_value=-(10**60), max_value=-(10**40))
    | st.floats()
    | st.text(max_size=8)
)
TREES = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(KEYS, kids, max_size=4), max_leaves=40)
MIXED = {
    "é\"\n": [1, [], {}, [[], {"x": None}], "s", [True, -(10**45)]],
    "rows": [["1", "-7/12"], ["0", "3"]],
    "": {"": {}, "\x01": [[[]]], "z": 10**41},
}


def _verdict(tree, diagnostics) -> Verdict:
    return Verdict("accept", "some-condition", tree if isinstance(tree, dict) else {"tree": tree}, diagnostics)


@settings(max_examples=400)
@given(TREES, st.lists(st.text(max_size=8), max_size=3))
@example(MIXED, ["ünïcode", ""])
@example([[], {}, [[]], [{}], {"a": []}], [])
def test_indented_json_is_json_dumps_byte_for_byte(tree, diagnostics):
    v = _verdict(tree, diagnostics)
    assert v.to_json() == json.dumps(v.to_dict(), sort_keys=True, indent=2)
    assert v.to_json(compact=True) == json.dumps(v.to_dict(), sort_keys=True, separators=(",", ":"))


def _outcome(read, s):
    """The rational read from s, or the message a refusal carries."""
    try:
        return read(s)
    except (ValueError, ZeroDivisionError):
        return f"malformed input: cannot parse rational {s!r}"


def _parsed(s):
    try:
        return parse_fraction(s)
    except ValueError as e:
        return str(e)


PINNED = {
    "3/0": None,
    "-0": Fraction(0),
    "007/014": Fraction(1, 2),
    "+3": Fraction(3),
    "1_000": Fraction(1000),
    " 3 ": Fraction(3),
    "3 /4": None,
    "3/-4": None,
    "1e3": Fraction(1000),
    "0.5": Fraction(1, 2),
    "-7/12": Fraction(-7, 12),
    "٣": Fraction(3),
}


@pytest.mark.parametrize("s", sorted(PINNED))
def test_pinned_strings(s):
    want = PINNED[s]
    assert _parsed(s) == (f"malformed input: cannot parse rational {s!r}" if want is None else want)
    assert _parsed(s) == _outcome(Fraction, s)


@settings(max_examples=600)
@given(st.text(alphabet="0123456789-+/.e_ \t٣", max_size=12) | st.text())
def test_parse_fraction_reads_a_string_as_fraction_does(s):
    assert _parsed(s) == _outcome(Fraction, s)


@pytest.mark.parametrize("n", [0, -5, 10**50])
def test_json_integers_are_read_exactly(n):
    assert parse_fraction(n) == Fraction(n)


@pytest.mark.parametrize("b", [True, False])
def test_json_booleans_are_refused(b):
    with pytest.raises(ValueError, match="^malformed input: rational entries must be strings or integers, got bool$"):
        parse_fraction(b)
