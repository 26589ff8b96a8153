"""Machine-readable outcomes shared by every top-level check."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)
