"""The coalescing queue: many client requests, few engine batches.

The daemon's whole reason to exist is amortization — the accel engines
route a ``(B, N)`` batch for barely more than a single vector, so the
win is turning per-connection request streams into wide batches.  This
module is the **synchronous core** of that state machine: no sockets,
no asyncio, no wall clock.  Callers pass ``now`` explicitly, which is
what makes the cutoff logic testable with a fake clock (the asyncio
driver in :mod:`repro.serve.daemon` passes the event loop's time).

State machine per bucket (requests sharing a
:meth:`~repro.serve.protocol.RouteRequest.coalesce_key` — same op,
width, omega mode, fault map, states flag):

- **offer** appends to the bucket; the bucket's deadline is the *first*
  item's arrival plus ``max_wait`` (latency cutoff — one straggler
  cannot hold a batch forever);
- a bucket reaching ``max_batch`` items flushes immediately (size
  cutoff — returned straight from :meth:`offer`, no timer involved);
- :meth:`due` pops every bucket whose deadline has passed (a driver
  with a timer calls it at :meth:`next_deadline`);
- an offer that would push *total* queued items past ``queue_limit``
  is **rejected** — bounded memory under overload, the wire protocol's
  429-style ``rejected`` status (shedding beats unbounded latency) —
  *unless* the offer completes an existing bucket to ``max_batch``, in
  which case it is accepted and the full bucket flushes in the same
  call: the capacity it occupies frees immediately, so shedding it
  would only throw away work the engine is about to absorb for free.

Zero-wait semantics (``max_wait=0``): a bucket created at ``now`` has
``deadline == now``, and "due" means ``deadline <= now`` everywhere —
:meth:`due` pops it the next time the driver ticks.  :meth:`offer`
still answers ``QUEUED`` (not ``FLUSH``) for such a bucket: the flush
happens on the next driver tick, which keeps the size cutoff the
*only* reason ``offer`` itself returns a batch.  The daemon runs the
queue in this mode and ticks at the end of every event-loop pass that
queued a request, so every bucket leaves in the pass after its first
item and needs no timer.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import InvalidParameterError

__all__ = ["CoalescingQueue", "FLUSH", "QUEUED", "REJECT"]

#: :meth:`CoalescingQueue.offer` verdicts.
QUEUED = "queued"
FLUSH = "flush"
REJECT = "reject"


class _Bucket:
    __slots__ = ("items", "deadline")

    def __init__(self, deadline: float):
        self.items: List = []
        self.deadline = deadline


class CoalescingQueue:
    """Size/latency-cutoff micro-batching with bounded occupancy.

    Args:
        max_batch: size cutoff — a bucket flushes the moment it holds
            this many items (also the widest batch handed to the
            engine).
        max_wait: latency cutoff in **seconds** — a bucket flushes at
            latest this long after its first item arrived.
        queue_limit: total queued items across all buckets; offers
            beyond it are rejected.
    """

    def __init__(self, *, max_batch: int = 64,
                 max_wait: float = 500e-6,
                 queue_limit: int = 4096):
        if max_batch < 1:
            raise InvalidParameterError(
                f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise InvalidParameterError(
                f"max_wait must be >= 0, got {max_wait}")
        if queue_limit < 1:
            raise InvalidParameterError(
                f"queue_limit must be >= 1, got {queue_limit}")
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.queue_limit = queue_limit
        self._buckets: "Dict[Hashable, _Bucket]" = {}
        self._pending = 0

    @property
    def pending(self) -> int:
        """Items queued and not yet flushed, across all buckets."""
        return self._pending

    def offer(self, key: Hashable, item, now: float
              ) -> Tuple[str, Optional[List]]:
        """Queue ``item`` under ``key`` at time ``now``.

        Returns ``(verdict, batch)``: ``(FLUSH, items)`` when this
        offer completed a full batch (the offered item included, bucket
        cleared), ``(QUEUED, None)`` when it waits for more lanes or
        the deadline, ``(REJECT, None)`` when the queue is full — the
        item was **not** queued and the caller owes the client a
        ``rejected`` response.

        At ``queue_limit`` the offer is still accepted when it
        completes an existing bucket to ``max_batch``: the bucket
        flushes in this very call, so total occupancy drops by
        ``max_batch - 1`` instead of growing — rejecting would shed
        work whose capacity is about to free."""
        bucket = self._buckets.get(key)
        if self._pending >= self.queue_limit:
            if bucket is None or \
                    len(bucket.items) + 1 < self.max_batch:
                return REJECT, None
            bucket.items.append(item)
            self._pending += 1
            return FLUSH, self._pop(key)
        if bucket is None:
            bucket = _Bucket(deadline=now + self.max_wait)
            self._buckets[key] = bucket
        bucket.items.append(item)
        self._pending += 1
        if len(bucket.items) >= self.max_batch:
            return FLUSH, self._pop(key)
        return QUEUED, None

    def due(self, now: float) -> List[Tuple[Hashable, List]]:
        """Pop every bucket whose latency deadline has passed —
        ``deadline <= now``, so a ``max_wait=0`` bucket created at
        ``now`` is already due on the same tick."""
        ready = [key for key, bucket in self._buckets.items()
                 if bucket.deadline <= now]
        return [(key, self._pop(key)) for key in ready]

    def next_deadline(self) -> Optional[float]:
        """The earliest pending latency deadline, or ``None`` when
        nothing is queued (the driver's next timer target)."""
        if not self._buckets:
            return None
        return min(bucket.deadline
                   for bucket in self._buckets.values())

    def drain(self) -> List[Tuple[Hashable, List]]:
        """Pop everything regardless of deadlines (shutdown path: no
        queued request may be dropped silently)."""
        return [(key, self._pop(key)) for key in list(self._buckets)]

    def _pop(self, key: Hashable) -> List:
        bucket = self._buckets.pop(key)
        self._pending -= len(bucket.items)
        return bucket.items
