"""Spans recorded from outside the program.

A span is (id, name, start, end, parent) with ``time.perf_counter``
times.  Spans stay in memory and are written out as one JSON document,
with the run's per-layer counts and timings, when the run ends.
``NullTracer`` is the untraced stand-in: the same calls, nothing
recorded.

``PlanLog`` counts the exchange (all-to-all) operators of every Ray
Data execution the driver starts, from the "Execution plan" records of
the ``ray.data`` logger.  The counts depend only on the plans, so they
repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
import time

_EXCHANGE = re.compile(r"AllToAllOperator\[|Hash\w*Operator\[|Join\w*\[")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1]
               if self._stack else None, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, **extra},
                      f, indent=1, sort_keys=True)


class NullTracer(Tracer):
    @contextlib.contextmanager
    def span(self, name: str):
        yield None


class PlanLog(logging.Handler):
    """Collects Ray Data execution plans logged by this process."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.plans: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if msg.startswith("Execution plan of Dataset"):
            self.plans.append(msg)

    def install(self) -> "PlanLog":
        logging.getLogger("ray.data").addHandler(self)
        return self

    def mark(self) -> int:
        return len(self.plans)

    def exchanges_since(self, mark: int) -> int:
        return sum(len(_EXCHANGE.findall(p)) for p in self.plans[mark:])

    def datasets_since(self, mark: int) -> int:
        return len(self.plans) - mark
