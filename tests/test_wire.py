"""The wire contract of both ends of a verdict.

Output: `Verdict.to_json()` is `json.dumps(d, sort_keys=True, indent=2)`
byte for byte, and `to_json(compact=True)` is the one-line form with
separators (",", ":").  Input: `parse_fraction` reads a string exactly as
`fractions.Fraction` does and refuses what it refuses, with one message,
and the int readers of matrices, vectors, gradings and algebras give the
value or the refusal text of their Fraction-based oracles, building no
`Fraction` for a plain entry.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nilgrade import serialize
from nilgrade.matrices import rmat, rvec
from nilgrade.serialize import algebra_from_dict, grading_from_dict, matrix_from_lists, parse_fraction, vector_from_list
from nilgrade.verdict import Verdict
from oracles import algebra_from_dict_fraction, grading_from_dict_fraction, matrix_from_lists_fraction, vector_from_list_fraction

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
    "1" * 5000: None,  # past int()'s digit limit: refused as Fraction refuses it
}


@pytest.mark.parametrize("s", sorted(PINNED), ids=lambda s: f"{s[:4]}...{len(s)}-digits" if len(s) > 40 else None)
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


# -- the int readers against their Fraction oracles ----------------------------

# entries that read: JSON ints, plain strings (non-lowest terms among them)
# and every other form Fraction reads
GOOD = (
    st.integers(-(10**6), 10**6)
    | st.integers(min_value=10**40, max_value=10**60)
    | st.from_regex(r"-?[0-9]{1,5}(/[1-9][0-9]{0,2})?", fullmatch=True)
    | st.sampled_from(["2/4", "-0", "0/7", "-6/4", *(s for s, want in PINNED.items() if want is not None)])
)
ENTRIES = (
    GOOD
    | st.sampled_from(["1/0", *(s for s, want in PINNED.items() if want is None)])
    | st.text(alphabet="0123456789-/. ", max_size=5)
    | st.sampled_from([None, 0.5, True, [], {}])
)


def _read(reader, data):
    """What reader makes of data: a value, or the text of its refusal."""
    try:
        return reader(data)
    except ValueError as e:
        return str(e)


@settings(max_examples=300)
@given(st.lists(st.lists(GOOD, min_size=2, max_size=2), min_size=1, max_size=3) | st.lists(st.lists(ENTRIES, max_size=3), max_size=3) | ENTRIES)
@example([["1", "x"], ["2"]])  # ragged and a bad entry: the shape is refused first
@example([["1" * 5000, "1"]])
@example([["2/4", "-0"], [3, "1/6"]])
def test_matrix_reader_is_its_fraction_oracle(data):
    assert _read(matrix_from_lists, data) == _read(matrix_from_lists_fraction, data)


@settings(max_examples=300)
@given(st.lists(GOOD, max_size=4) | st.lists(ENTRIES, max_size=4) | ENTRIES)
@example(["2/4", "-0", 5, "0.5", " 3 ", "1_000", "٣"])
def test_vector_reader_is_its_fraction_oracle(data):
    assert _read(vector_from_list, data) == _read(vector_from_list_fraction, data)


@st.composite
def grading_files(draw, entries):
    n = draw(st.integers(0, 3))
    vectors = st.lists(entries, min_size=n, max_size=n)
    weights = st.integers(-2, 2)
    if entries is ENTRIES:
        vectors |= st.lists(entries, max_size=3)
        weights |= st.just("1")
    components = st.lists(st.fixed_dictionaries({"weight": weights, "basis": st.lists(vectors, min_size=int(entries is GOOD), max_size=3)}), max_size=3)
    return {"components": draw(components)}


@settings(max_examples=300)
@given(grading_files(GOOD) | grading_files(ENTRIES))
@example({"components": [{"weight": 2, "basis": [["0", "1/2"]]}, {"weight": 1, "basis": [["2/4", "0"], ["-0", 3]]}]})
def test_grading_reader_is_its_fraction_oracle(data):
    got, want = _read(grading_from_dict, data), _read(grading_from_dict_fraction, data)
    assert got == want if isinstance(want, str) else got.components == want.components


@st.composite
def algebra_files(draw, entries):
    """Algebra data with repeated targets; over all `ENTRIES`, also with
    bad indices, duplicates and bad constants mixed, so that the first
    refusal depends on the order of the checks."""
    n = draw(st.integers(2, 4))
    term = st.fixed_dictionaries({"k": st.integers(1, n), "c": entries})
    if entries is GOOD:
        pairs = st.lists(st.sampled_from([(i, j) for j in range(2, n + 1) for i in range(1, j)]), unique=True)
    else:
        term |= st.fixed_dictionaries({"k": st.integers(0, n + 1), "c": entries})
        pairs = st.lists(st.tuples(st.integers(0, n + 1), st.integers(0, n + 1)), max_size=4)
    brackets = [{"i": i, "j": j, "terms": draw(st.lists(term, max_size=4))} for i, j in draw(pairs)]
    return {"dim": n, "brackets": brackets}


def _table(algebra):
    return algebra if isinstance(algebra, str) else (algebra.dim, algebra.terms, algebra.ints, algebra.den)


@settings(max_examples=400)
@given(algebra_files(GOOD) | algebra_files(ENTRIES))
@example({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "x"}]}, {"i": 3, "j": 1, "terms": []}]})
@example({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1/2"}, {"k": 3, "c": "-2/4"}, {"k": 1, "c": "1/3"}]}]})
def test_algebra_reader_is_its_fraction_oracle(data):
    assert _table(_read(algebra_from_dict, data)) == _table(_read(algebra_from_dict_fraction, data))


def test_plain_entries_build_no_fraction(monkeypatch):
    """Plain entries go from JSON to int rows with no `Fraction` made in
    `serialize`; any other form still reads, through `parse_fraction`."""

    def refuse(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(serialize, "Fraction", refuse)
    assert matrix_from_lists([["1/2", -3], ["0", "4/6"]]) == rmat([[Fraction(1, 2), -3], [0, Fraction(2, 3)]])
    assert vector_from_list(["-0", "7/14", 10**50]) == rvec([0, Fraction(1, 2), 10**50])
    grading = grading_from_dict({"components": [{"weight": 1, "basis": [["1", "0"]]}, {"weight": 2, "basis": [["0", "1/2"]]}]})
    assert grading.components == ((1, rmat([[1], [0]])), (2, rmat([[0], [Fraction(1, 2)]])))
    algebra = algebra_from_dict({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "2/4"}, {"k": 3, "c": 1}]}]})
    assert (algebra.ints[(0, 1)], algebra.den) == ({2: 3}, 2)
    with pytest.raises(AssertionError, match="built"):  # the guard sees a Fraction read
        vector_from_list(["0.5"])
    monkeypatch.undo()
    assert vector_from_list(["0.5"]) == rvec([Fraction(1, 2)])
