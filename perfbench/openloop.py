"""Open-loop request generator for :meth:`repro.serve.Server.submit`.

Requests are sent on a seeded Poisson schedule regardless of how fast the
server answers, and each latency is timed from the request's *due* time, so
a stall also charges the wait it imposes on the requests behind it.  The
generator reports how late it ran and the server backlog at the start and
end of the rung, so an overloaded rung cannot pass for a fast one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

#: A send more than this late counts as late in :attr:`Rung.late_share`.
LATE_S = 1e-3

#: Latency limit of the rate ladder (ms): a rung qualifies for the
#: maximum rate when its tail latency stays within it.
LATENCY_LIMIT_MS = 50.0

#: Wait for the answers of one rung at most this long after its last send.
DRAIN_TIMEOUT_S = 30.0

#: Share of a rung's sends over which the start and end backlog are
#: averaged (one snapshot of the outstanding count is mostly noise).
BACKLOG_WINDOW = 0.1


@dataclass
class Rung:
    """Outcome of one open-loop phase at a fixed offered rate."""

    rate: float
    sent: int = 0
    answered: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    #: outstanding requests seen at each send
    backlog: List[int] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: per-answer (query index, label, low version, high version)
    answers: list = field(default_factory=list)

    @property
    def late_share(self) -> float:
        late = sum(1 for lag in self.lag_ms if lag > LATE_S * 1e3)
        return late / len(self.lag_ms) if self.lag_ms else 0.0

    def _backlog_mean(self, tail: bool) -> float:
        width = max(1, int(len(self.backlog) * BACKLOG_WINDOW))
        window = self.backlog[-width:] if tail else self.backlog[:width]
        return float(np.mean(window)) if window else 0.0

    @property
    def backlog_start(self) -> float:
        """Mean outstanding requests over the first sends of the rung."""
        return self._backlog_mean(tail=False)

    @property
    def backlog_end(self) -> float:
        """Mean outstanding requests over the last sends of the rung."""
        return self._backlog_mean(tail=True)

    @property
    def backlog_grew(self) -> bool:
        """The queue gained more than the latency limit's worth of
        requests at this rate (Little's law) between start and end."""
        return self.backlog_end - self.backlog_start \
            > self.rate * LATENCY_LIMIT_MS / 1e3

    @property
    def achieved_rps(self) -> float:
        return self.answered / self.elapsed_s if self.elapsed_s > 0 else 0.0


def run_rung(server, images: np.ndarray, offsets: np.ndarray, rate: float,
             version_window: Optional[Callable[[], int]] = None,
             current_version: Optional[Callable[[], int]] = None,
             stop: Optional[threading.Event] = None) -> Rung:
    """Send ``images[i % len(images)]`` at ``start + offsets[i]``.

    With ``version_window``/``current_version`` each answer records the
    memory versions that were live while it was in flight: the published
    version when it was sent and the memory's version when it resolved.
    ``stop`` ends the rung early (used when the run alongside ends).
    """
    from repro.serve import ServerClosedError, ServerOverloaded

    rung = Rung(rate=rate)
    pending = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.002
    for index, offset in enumerate(offsets):
        if stop is not None and stop.is_set():
            break
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent_at = time.perf_counter()
        rung.lag_ms.append((sent_at - due) * 1e3)
        rung.backlog.append(server.outstanding)
        low = version_window() if version_window is not None else 0
        rung.sent += 1
        try:
            future = server.submit(images[index % len(images)])
        except (ServerOverloaded, ServerClosedError):
            rung.failed += 1
            continue

        def done(fut, index=index, due=due, low=low):
            finished = time.perf_counter()
            high = current_version() if current_version is not None else 0
            with lock:
                if fut.exception() is not None:
                    rung.failed += 1
                    return
                rung.answered += 1
                rung.latencies_ms.append((finished - due) * 1e3)
                rung.answers.append((index % len(images), fut.result(), low,
                                     high))

        future.add_done_callback(done)
        pending.append(future)
    rung.elapsed_s = time.perf_counter() - start
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for future in pending:
        try:
            future.exception(timeout=max(0.0, deadline - time.monotonic()))
        except TimeoutError:
            pass
    with lock:
        rung.failed += sum(1 for future in pending if not future.done())
    return rung


def max_rate(rungs: List[Rung]) -> float:
    """Highest offered rate whose rung kept the tail within
    :data:`LATENCY_LIMIT_MS` with nothing failed and no backlog growth
    (0 when none did)."""
    from .stats import summarize

    passing = [rung.rate for rung in rungs
               if rung.failed == 0 and not rung.backlog_grew
               and (summarize(rung.latencies_ms)["tail"] or float("inf"))
               <= LATENCY_LIMIT_MS]
    return float(max(passing, default=0.0))


def run_saturated(server, images: np.ndarray, count: int, window: int
                  ) -> Rung:
    """Closed loop: keep ``window`` submits in flight until ``count`` have
    been sent; the answered rate is the server's capacity."""
    from repro.serve import ServerClosedError, ServerOverloaded

    rung = Rung(rate=float("inf"))
    slots = threading.Semaphore(window)
    lock = threading.Lock()
    pending = []
    start = time.perf_counter()
    for index in range(count):
        slots.acquire()
        rung.sent += 1
        try:
            future = server.submit(images[index % len(images)])
        except (ServerOverloaded, ServerClosedError):
            rung.failed += 1
            slots.release()
            continue

        def done(fut, index=index):
            with lock:
                if fut.exception() is not None:
                    rung.failed += 1
                else:
                    rung.answered += 1
                    rung.answers.append((index % len(images), fut.result(),
                                         0, 0))
            slots.release()

        future.add_done_callback(done)
        pending.append(future)
    for future in pending:
        future.exception(timeout=DRAIN_TIMEOUT_S)
    rung.elapsed_s = time.perf_counter() - start
    return rung
