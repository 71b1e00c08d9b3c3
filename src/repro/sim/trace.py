"""Structured event trace.

The experiment harnesses (Figures 6 and 7, the same-subnet switch) need to
reconstruct what happened and when: which packet was lost, when each
registration stage started and ended.  Components emit trace records through
``sim.trace.emit(category, event, **fields)``; harnesses filter them back out
with :meth:`Trace.select`.

The trace is append-only and deliberately dumb: no aggregation, no I/O.
Keeping measurement outside the protocol code mirrors the paper's method of
instrumenting the kernel with timestamps and post-processing off-line.

Recording is gated per category so the hot path can stay lazy: call sites
that would pay string formatting just to build a record first ask
:meth:`Trace.wants`.  The categories in :data:`VERBOSE_CATEGORIES` are off
by default.  They are the per-packet streams (``ip``, ``tunnel``,
``policy``), which would otherwise record a ``packet.describe()`` string
for every packet sent, received, encapsulated, decapsulated or routed by
policy.  No experiment harness post-processes them; a consumer that wants
them opts in with :meth:`Trace.enable`.  The control-plane categories (``registration``,
``handoff``, ``device``, ``dhcp``, ``binding``, ``binding_shard``,
``home_agent``, ``fault``, ``tcp``, ``arp`` ...) record by default, so the
harnesses and :class:`~repro.faults.auditor.PlaneAuditor` see every record
they read; :meth:`Trace.disable` turns any category off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.sim.arena import poolable, release

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@poolable(clear=("fields",))
class TraceRecord:
    """One traced occurrence.

    ``category`` is a coarse stream name (``"ip"``, ``"registration"``,
    ``"handoff"`` ...), ``event`` the specific occurrence within it, and
    ``fields`` free-form structured data.

    A ``__slots__`` value class rather than a dataclass: one is allocated
    per emitted record, which makes construction part of the datapath.
    """

    __slots__ = ("time", "category", "event", "fields")

    def __init__(self, time: int, category: str, event: str,
                 fields: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.category = category
        self.event = event
        self.fields = fields if fields is not None else {}

    @classmethod
    def acquire(cls, time: int, category: str, event: str,
                fields: Optional[Dict[str, Any]] = None) -> "TraceRecord":
        """Pooled constructor: identical semantics to ``TraceRecord(...)``."""
        pool = cls._pool
        if pool:
            self = pool.pop()
            cls._pool_reuses += 1
            self.time = time
            self.category = category
            self.event = event
            self.fields = fields if fields is not None else {}
            return self
        return cls(time, category, event, fields)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Field lookup with a default (dict.get semantics)."""
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time and self.category == other.category
                and self.event == other.event and self.fields == other.fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord(time={self.time}, category={self.category!r}, "
                f"event={self.event!r}, fields={self.fields!r})")


#: Categories that are *off* unless a consumer opts in with
#: :meth:`Trace.enable`: the per-packet streams, one record per packet
#: sent, received, encapsulated, decapsulated or routed by policy, which no
#: experiment harness reads.  Every other category records by default.
VERBOSE_CATEGORIES = frozenset({"ip", "tunnel", "policy"})


class Trace:
    """Append-only record sink bound to a simulator clock."""

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._records: List[TraceRecord] = []
        self.enabled = True
        self._disabled_categories = set(VERBOSE_CATEGORIES)
        self._subscribers: List[Any] = []

    def wants(self, category: str) -> bool:
        """True if a record in *category* would actually be kept.

        Hot call sites check this *before* formatting record fields
        (``packet.describe()``, ``str(addr)``), so a disabled category
        costs one set lookup instead of string building.
        """
        return self.enabled and category not in self._disabled_categories

    def enable(self, *categories: str) -> None:
        """Opt categories (back) in — including the verbose ones."""
        self._disabled_categories.difference_update(categories)

    def disable(self, *categories: str) -> None:
        """Stop recording the given categories (benchmarks, soak runs)."""
        self._disabled_categories.update(categories)

    def subscribe(self, callback: Any) -> None:
        """Deliver every future record to *callback* as it is emitted.

        Callbacks run synchronously inside :meth:`emit`, in subscription
        order, and see the record before any :meth:`clear` can recycle it
        — a subscriber that keeps data must **copy** the fields it needs,
        never hold the (pooled) record.  With no subscribers the emit
        path pays a single truthiness check, so runs that never subscribe
        stay byte-identical and un-slowed.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Any) -> None:
        """Stop delivering records to *callback* (missing is a no-op)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def emit(self, category: str, event: str, **fields: Any) -> None:
        """Record *event* in *category* at the current virtual time."""
        if not self.enabled or category in self._disabled_categories:
            return
        record = TraceRecord.acquire(self._sim.now, category, event, fields)
        self._records.append(record)
        if self._subscribers:
            for callback in self._subscribers:
                callback(record)

    @property
    def records(self) -> List[TraceRecord]:
        """The recorded stream in emission order (read-only view)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def select(
        self,
        category: Optional[str] = None,
        event: Optional[str] = None,
        since: Optional[int] = None,
        **field_filters: Any,
    ) -> List[TraceRecord]:
        """Return records matching every given criterion.

        ``field_filters`` match on equality against ``record.fields``; a
        record lacking the key does not match.
        """
        out: List[TraceRecord] = []
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            if since is not None and record.time < since:
                continue
            if any(record.get(key, _MISSING) != value for key, value in field_filters.items()):
                continue
            out.append(record)
        return out

    def last(self, category: str, event: str) -> Optional[TraceRecord]:
        """Most recent record matching ``(category, event)``, if any."""
        for record in reversed(self._records):
            if record.category == category and record.event == event:
                return record
        return None

    def clear(self) -> None:
        """Drop all records (harnesses call this between iterations).

        Records nobody else kept a reference to are recycled into the
        :class:`TraceRecord` arena; anything a harness still holds (via
        :meth:`select`, :attr:`records`, ...) survives untouched.
        """
        for record in self._records:
            # held=2: this loop variable plus the list slot about to die.
            release(record, held=2)
        self._records.clear()


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
