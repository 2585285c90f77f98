"""Per-process memos of values that depend only on a problem's content.

The feasible decision grid, the convexity scan's sample chunks and the dual
weight grid are functions of the problem and the options alone, not of the
point being checked.  Each is
kept in an ``LruMemo`` keyed by the parts of the problem it depends on, so
repeated calls in one process share one copy.  Shared arrays are made
read-only by the functions that build them.

Point data (the ``PointAnalysis``, the efficiency guard, a triple's dual
feasibility, the checks' worst cases and stationarity distances) is shared
only inside one ``shared_points()`` block.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Callable, Hashable, Optional, TypeVar

import numpy as np

if TYPE_CHECKING:
    from .constraints import ConeSpec, Problem

V = TypeVar("V")


def _array_key(a):
    return None if a is None else (np.shape(a),
                                   np.asarray(a, dtype=float).tobytes())


def content_key(P: Problem) -> tuple:
    """Everything a decision-box computation depends on, label and cone excluded.

    Expressions enter by ``repr``, which tells ``Lit(-0.0)`` from
    ``Lit(0.0)`` where ``==`` does not; arrays by shape and bytes.  The key
    is built once per problem object and kept on it: a ``Problem`` is
    frozen and its arrays read-only, so the key cannot go stale.
    """
    key = vars(P).get("_content_key")
    if key is None:
        U = P.uncertainty
        arrays = tuple(map(_array_key, (P.box_lower, P.box_upper, U.lower,
                                        U.upper, U.points)))
        key = (tuple(map(repr, P.objectives)),
               tuple(map(repr, P.constraints)), U.kind, arrays)
        # a frozen dataclass refuses setattr, but its __dict__ keeps a cache
        vars(P)["_content_key"] = key
    return key


def cone_key(cone: ConeSpec) -> tuple:
    """Everything a cone's dual rays depend on."""
    return (cone.kind, cone.dim, _array_key(cone.rays))


class LruMemo:
    """Least-recently-used map of at most ``entries`` values, safe to share
    between threads.

    A missing value is built outside the lock, so two threads missing the
    same key may both build it; the first stored value is the one every
    caller then gets.
    """

    def __init__(self, entries: int) -> None:
        self._max = entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value stored under ``key``, built and stored on a miss; the
        least recently used value goes first when the map is full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        value = build()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._max:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


# inside ``shared_points()``: (kind, owner id, key) -> (owner, value)
_points: ContextVar[Optional[dict]] = ContextVar("_points", default=None)


@contextmanager
def shared_points():
    """Calls of ``shared`` in this block build one value per key."""
    token = _points.set({})
    try:
        yield
    finally:
        _points.reset(token)


def shared(kind: str, owner: object, key: Hashable,
           build: Callable[[], V]) -> V:
    """``build()``, once per (kind, owner object, key) in a block.

    The owner is the problem, or the expression, the value is computed for.
    The block holds on to it, so its id cannot pass to a later object; an
    owner must not be changed in place inside it.  Outside a block every
    call builds afresh.
    """
    entries = _points.get()
    if entries is None:
        return build()
    full = (kind, id(owner), key)
    if full not in entries:
        entries[full] = (owner, build())
    return entries[full][1]
