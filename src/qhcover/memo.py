"""One memo helper for every result cached on the object it describes.

``memo(obj, key, build)`` returns ``build()``, computed on the first call for
``(obj, key)`` and stored as ``obj``'s attribute ``key``.  Nothing else holds
it, so a cached result lives exactly as long as its object.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")
_EMPTY = object()


class _Shared:
    """A memo slot held by two objects under the same key."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def memo(obj, key: str, build: Callable[[], T]) -> T:
    """``build()``, computed once per ``(obj, key)``, or once per shared slot."""
    slots = vars(obj)
    value = slots.get(key, _EMPTY)
    if value is _EMPTY:
        value = slots[key] = build()
    elif type(value) is _Shared:
        if value.value is _EMPTY:
            value.value = build()
        value = value.value
    return value


def share(a, b, key: str) -> None:
    """Give a and b one memo slot for ``key``, keeping a value ``a`` already has."""
    vars(a)[key] = vars(b)[key] = _Shared(vars(a).get(key, _EMPTY))
