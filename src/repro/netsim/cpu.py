"""Per-node CPU model: a single FIFO service queue with bounded backlog.

This is the substitute for the paper's hardware CPUs (see DESIGN.md).  Each
piece of work (receiving a packet, computing an MD5 cookie, serving a DNS
request) costs a configurable number of CPU-seconds.  Work queues FIFO; when
the backlog exceeds ``queue_limit`` seconds the submission is dropped — which
is exactly how an overloaded BIND drops requests indiscriminately in §IV.C.

Utilisation is metered by integrating executed busy time, so experiment
runners can reproduce the CPU-utilisation curves of Figures 5(b) and 6(b):
sample :meth:`Cpu.completed_busy_seconds` at two instants and divide by the
elapsed virtual time.
"""

from __future__ import annotations

from typing import Any, Callable

from .simulator import Simulator


class Cpu:
    """A single FIFO service queue measuring work in CPU-seconds: one
    execution unit, busy until the last accepted job completes."""

    def __init__(self, sim: Simulator, *, queue_limit: float = 0.050):
        """``queue_limit`` is the maximum backlog, expressed in seconds of
        queued work."""
        self.sim = sim
        self.queue_limit = queue_limit
        #: virtual time at which the last queued job finishes
        self.busy_until = 0.0
        self._busy_accumulated = 0.0
        self.jobs_accepted = 0
        self.jobs_dropped = 0
        #: CPU-seconds burned on pure accounting while the queue was
        #: saturated — the cost of *discarding* packets under overload,
        #: which §IV.C insists does not vanish just because the box is busy.
        self.work_dropped_seconds = 0.0

    # -- work submission ----------------------------------------------------

    def submit(self, cost: float, fn: Callable[..., Any] | None = None, *args: Any) -> bool:
        """Queue ``cost`` CPU-seconds of work, then run ``fn(*args)``.

        Returns False (and drops the work) if the backlog is over the queue
        limit.  ``fn`` may be ``None`` for pure accounting (e.g. the cost of
        dropping an invalid packet); pure accounting is *burned even at the
        limit* — an overloaded CPU still spends cycles receiving and
        discarding the packets it cannot serve (§IV.C) — and the saturated
        share is tracked in :attr:`work_dropped_seconds`.
        """
        sim = self.sim
        now = sim.now
        busy_until = self.busy_until
        if busy_until > now:
            backlog = busy_until - now
            start = busy_until
        else:
            backlog = 0.0
            start = now
        if backlog > self.queue_limit:
            self.jobs_dropped += 1
            if fn is None:
                # discarding still burns CPU: extend the busy horizon so the
                # cost delays (and keeps dropping) later submissions, exactly
                # like an overloaded kernel spending its time in rx+drop
                self.busy_until = start + cost
                self._busy_accumulated += cost
                self.work_dropped_seconds += cost
            return False
        self.busy_until = busy_until = start + cost
        self._busy_accumulated += cost
        self.jobs_accepted += 1
        if fn is not None:
            sim.schedule_at(busy_until, fn, *args)
        return True

    def charge(self, cost: float) -> bool:
        """Account for work with no completion callback."""
        return self.submit(cost, None)

    # -- introspection ------------------------------------------------------

    @property
    def backlog(self) -> float:
        """Seconds of work queued ahead of a new submission."""
        return max(0.0, self.busy_until - self.sim.now)

    def completed_busy_seconds(self) -> float:
        """CPU-seconds of work actually executed by now (queued work whose
        service extends into the future is excluded)."""
        return self._busy_accumulated - self.backlog

    def utilization(self, busy_at_start: float, window_start: float) -> float:
        """Utilisation since a snapshot, in [0, 1].

        ``busy_at_start`` is a prior reading of :meth:`completed_busy_seconds`
        taken at virtual time ``window_start``.
        """
        elapsed = self.sim.now - window_start
        if elapsed <= 0:
            return 0.0
        busy = self.completed_busy_seconds() - busy_at_start
        return max(0.0, min(1.0, busy / elapsed))

    def reset_counters(self) -> None:
        self.jobs_accepted = 0
        self.jobs_dropped = 0
        self.work_dropped_seconds = 0.0
