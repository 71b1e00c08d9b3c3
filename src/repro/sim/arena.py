"""Free-list arenas for the datapath's slotted value classes.

Steady-state simulation traffic builds the same handful of object shapes
over and over — packets, datagrams, segments, trace records — and then
drops them within a hop or two.  An arena keeps a per-class free list so
those shapes can be recycled instead of re-allocated, which removes most
allocator churn from the hot loops (``python -m repro.bench`` tracks the
effect).

Safety model
------------

Recycling a *live* object would be catastrophic (a reused packet mutating
under a component still holding it), so release is guarded by the real
reference count: :func:`release` recycles an object **only if** the
caller's declared bindings are provably the last references.  Any extra
reference anywhere — a retransmit queue, a trace, a test — makes the
release a silent no-op and leaves the object to the garbage collector.
False negatives cost a little reuse; false positives cannot happen as long
as ``held`` is not over-declared.  The byte-identity determinism guard and
the pooled-vs-unpooled property tests double-check exactly that.

Classes opt in with the :func:`poolable` decorator and provide their own
``acquire(...)`` classmethod (direct slot assignment is faster than any
generic reset loop).  Arenas are process-global and deliberately tiny
state: toggling them (``set_arena_enabled``) only changes *allocator*
behaviour, never simulation results.

``set_arena_enabled(False)`` is also the engine's pooling-off reference:
a :class:`~repro.sim.engine.Simulator` built while the arenas are off gets
an event free list of capacity zero, so "unpooled" covers events and
packets alike.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, List, Type

#: Upper bound on each per-class free list; beyond it objects go to the GC.
ARENA_CAP = 2048

_enabled = True
_registered: List[type] = []

# ``sys.getrefcount(object())`` measures the reference count contributed by
# the call machinery alone (the probe object has no other bindings).  Inside
# ``release(obj)`` the same machinery plus the function's own parameter are
# in play, so an object whose only other references are the caller's
# ``held`` bindings shows exactly ``_SOLO_REFS + held + 1``.
_getrefcount = getattr(sys, "getrefcount", None)
_SOLO_REFS = _getrefcount(object()) if _getrefcount is not None else None


def poolable(clear: Iterable[str] = ()) -> Any:
    """Class decorator: attach a free list and register it for stats.

    ``clear`` names the slots holding object references; they are set to
    ``None`` on release so a parked instance never pins payloads (or
    anything else) alive.
    """

    def wrap(cls: type) -> type:
        cls._pool = []
        cls._pool_reuses = 0
        cls._clear_on_release = tuple(clear)
        _registered.append(cls)
        return cls

    return wrap


def release(obj: Any, held: int = 1) -> bool:
    """Recycle *obj* into its class arena if it is provably dead.

    ``held`` is the number of references the *caller* still holds (frame
    locals, closure cells) and promises never to dereference again; the
    default 1 covers the single local being passed in.  Returns True when
    the object was actually parked.  Over-declaring ``held`` is the one
    way to corrupt a simulation — keep it exact and let the determinism
    guard keep you honest.
    """
    if not _enabled or _SOLO_REFS is None:
        return False
    if _getrefcount(obj) > _SOLO_REFS + held + 1:
        return False
    cls = obj.__class__
    pool = cls._pool
    if len(pool) >= ARENA_CAP:
        return False
    for name in cls._clear_on_release:
        setattr(obj, name, None)
    pool.append(obj)
    return True


def set_arena_enabled(on: bool) -> None:
    """Process-wide recycling switch (the pooling-off reference).

    Disabling drains every packet free list so subsequent acquires
    allocate fresh objects, and simulators built afterwards recycle no
    events.  Simulators that already exist keep their event free list."""
    global _enabled
    _enabled = bool(on)
    if not _enabled:
        for cls in _registered:
            cls._pool.clear()


def arena_enabled() -> bool:
    return _enabled


def arena_stats() -> Dict[str, Dict[str, int]]:
    """Per-class free-list stats: current free objects and lifetime reuses."""
    return {
        cls.__name__: {"free": len(cls._pool), "reuses": cls._pool_reuses}
        for cls in _registered
    }


def registered_classes() -> List[Type]:
    return list(_registered)
