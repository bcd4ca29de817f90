"""Speed-adjusted timing: wall times rescaled by the host's speed at that moment.

On a shared host the speed of a vCPU changes by up to half within a second,
and CPU time tracks wall time, so neither clock gives steady figures. The
benchmark therefore runs a fixed *calibration round* (plain Python and the
standard library's ``json``, nothing from remlab) just before each timed
operation. A round's wall time tracks the host's speed. An operation's
adjusted time is its wall time times ``REF_MS`` over the median of the
``2 * HALF_WINDOW + 1`` rounds around it: the time it would take on a host
where one round takes exactly ``REF_MS``. A change to remlab cannot change
how long a round takes, so it moves the adjusted time as it moves wall time.

The rounds are not timed as part of any operation, and the time spent in
them (``Pace.spent``) is taken out of every longer span that contains them.
"""

from __future__ import annotations

import json
import statistics
import time

REF_MS = 0.5
HALF_WINDOW = 3
_DOC = json.dumps({"tasks": [{"name": f"task {i}", "shell": f"restart svc-{i}", "retries": i}
                             for i in range(12)]})


def _round() -> int:
    total, seen = 0, {}
    for i in range(2000):
        total += i * i % 7
        seen[str(i % 97)] = total
    return total + len(json.loads(_DOC)["tasks"])


class Pace:
    def __init__(self) -> None:
        self.rounds: list[float] = []  # wall seconds of each round
        self.spent = 0.0  # wall seconds spent in rounds, call overhead included
        self.enabled = True

    def tick(self) -> int | None:
        """Run one calibration round; return its index (None while disabled)."""
        if not self.enabled:
            return None
        t0 = time.perf_counter()
        _round()
        t1 = time.perf_counter()
        self.rounds.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        return len(self.rounds) - 1

    def factors(self) -> list[float]:
        """Per round: REF_MS over the median round time around it."""
        ms = [r * 1e3 for r in self.rounds]
        return [REF_MS / statistics.median(ms[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1])
                for i in range(len(ms))]


PACE = Pace()
