"""Machine-readable outcomes shared by every top-level check.  `to_json()` is
`json.dumps(d, sort_keys=True, indent=2)` of `to_dict()` byte for byte, built
from the C encoder that `json.dumps` uses only without indent, and
`to_json(compact=True)` is the same with separators (",", ":")."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii

_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _level(level: int):
    """(encode, first, next, close) for the items at nesting `level`: encode(o, 0)
    writes a scalar, or a container of scalars with its items split by `next`;
    `first` and `next` open an item's line, `close` the closing bracket's."""
    first = "\n" + "  " * level
    # as JSONEncoder.iterencode calls it: markers, default, encoder, indent, separators, sort/skip keys, allow_nan
    default = json.JSONEncoder().default
    encode = c_make_encoder(None, default, encode_basestring_ascii, None, ": ", "," + first, True, False, True)
    return encode, first, "," + first, first[:-2]


def _indented(o, level: int, out: list[str]) -> None:
    """Append the sort_keys, indent=2 JSON of container o, opened at nesting
    `level`, to out; its dict keys are strings."""
    encode, first, next_, close = _level(level + 1)
    is_dict = isinstance(o, dict)
    if _SCALARS.issuperset(map(type, o.values() if is_dict else o)):  # or o is empty
        text = "".join(encode(o, 0))
        out += (text[0], first, text[1:-1], close, text[-1]) if o else (text,)
    else:
        out.append("{" if is_dict else "[")
        for i, (k, v) in enumerate(sorted(o.items()) if is_dict else enumerate(o)):
            out.append(next_ if i else first)
            if is_dict:
                out += encode_basestring_ascii(k), ": "
            if isinstance(v, (list, tuple, dict)):
                _indented(v, level + 1, out)
            else:
                out += encode(v, 0)
        out += close, "}" if is_dict else "]"


@dataclass
class Verdict:
    """Decision plus a replayable certificate or witness.

    decision is one of "accept", "reject", "unknown"; no check emits
    unknown today, and the value is kept for a search that exhausts an
    explicit work budget (never as a silent failure).
    """

    decision: str
    condition: str | None = None
    certificate: dict | None = None
    diagnostics: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.decision not in ("accept", "reject", "unknown"):
            raise ValueError(f"bad decision {self.decision!r}")

    def accepted(self) -> bool:
        return self.decision == "accept"

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "condition": self.condition,
            "certificate": self.certificate,
            "diagnostics": list(self.diagnostics),
        }

    def to_json(self, compact: bool = False) -> str:
        if compact:
            return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        out: list[str] = []
        _indented(self.to_dict(), 0, out)
        return "".join(out)
