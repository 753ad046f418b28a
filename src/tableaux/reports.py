"""Structured pass/fail evidence shared by the checkers and the CLI.

Every verification routine in this package returns a ``VerifyReport`` rather
than a bare bool, so that failures always carry a concrete witness and so the
CLI can stream results as JSON lines with a stable field order.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any


def _jsonable(value: Any) -> Any:
    """Coerce report payloads to JSON-safe values (exact numbers as strings)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class VerifyReport:
    """Outcome of one verification: what was checked, with what parameters,
    and on failure a witness pinpointing the first violation."""

    def __init__(self, identity: str, params: dict[str, Any] | None = None,
                 status: str = "pass", witness: Any = None,
                 seed: int | None = None, millis: int = 0) -> None:
        self.identity = identity
        self.params = {} if params is None else params
        self.status = status
        self.witness = witness
        self.seed = seed
        self.millis = millis

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_line(self) -> str:
        import json
        doc: dict[str, Any] = {
            "identity": self.identity,
            "params": _jsonable(self.params),
            "status": self.status,
        }
        if self.witness is not None:
            doc["witness"] = _jsonable(self.witness)
        if self.seed is not None:
            doc["seed"] = str(self.seed)
        doc["millis"] = self.millis
        return json.dumps(doc)


def failed(identity: str, params: dict[str, Any], witness: Any,
           started: float, seed: int | None = None) -> VerifyReport:
    return VerifyReport(identity, params, "fail", witness, seed,
                        _elapsed_ms(started))


def passed(identity: str, params: dict[str, Any],
           started: float, seed: int | None = None) -> VerifyReport:
    return VerifyReport(identity, params, "pass", None, seed,
                        _elapsed_ms(started))


def _elapsed_ms(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


class CountReport:
    """A path-count query together with every method's exact answer."""

    def __init__(self, graph: str, k: int, source: tuple[int, ...],
                 target: tuple[int, ...],
                 counts: dict[str, int] | None = None) -> None:
        self.graph = graph
        self.k = k
        self.source = source
        self.target = target
        self.counts = {} if counts is None else counts

    @property
    def agree(self) -> bool:
        return len(set(self.counts.values())) <= 1

    def to_json(self) -> str:
        import json
        doc = {
            "graph": self.graph,
            "k": self.k,
            "from": ",".join(str(c) for c in self.source),
            "to": ",".join(str(c) for c in self.target),
            "counts": {m: str(v) for m, v in self.counts.items()},
            "agree": self.agree,
        }
        return json.dumps(doc)
