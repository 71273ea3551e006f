"""Finding: one lint diagnostic, file/line/column precise."""

from __future__ import annotations

import dataclasses
from typing import Any


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """A single rule violation at a precise source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @classmethod
    def at(cls, path: str, node: object, rule: str, message: str) -> "Finding":
        """A finding located at an AST ``node`` (line 1 when it has none)."""
        return cls(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)
