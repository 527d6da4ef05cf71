"""One memo helper for every cached result, shared by objects with equal content.

``memo(obj, key, build)`` returns ``build()``, computed on the first call for
``(obj, key)`` and stored as ``obj``'s attribute ``key``.

A class opts into sharing by defining ``memo_content()``, which returns
``(owner, parts)``: a tuple ``parts`` of hashable values, built without
copying them, that fixes every memo of the object (a module gives its
algebra and ``(dim, flat action)``, so a lookup hashes one array and
compares one).  Objects with one owner and equal parts are twins, and the
first of them to ask is their representative.  A twin missing a key takes
the representative's value, which is built there on the first ask, and
stores it as its own attribute too.  Keys in the class's ``own_memos`` stay
per object.

The owner keeps a weak-valued table from ``hash(parts)`` to representative,
and every twin holds its representative, so a value lives as long as some
object with its content lives and nothing global holds it.  A hit in the
table is confirmed by ``==`` on the parts; a hash collision costs only a
miss.

``memo_pair(a, b, key, build)`` memoises a result on a pair of objects, such
as Hom(M, N): a weak-keyed table under ``key`` on a's representative maps
b's representative to the value, so it is built once per pair of contents
and dies with either content.  A pair value must not hold a or b, or its
weak key would be kept alive by its own value.
"""

from __future__ import annotations

import weakref
from typing import Callable, TypeVar

T = TypeVar("T")
_EMPTY = object()


class _Shared:
    """A memo slot held by two objects under the same key."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def memo(obj, key: str, build: Callable[[], T]) -> T:
    """``build()``, computed once per ``(obj, key)``, or once per shared slot or set of twins."""
    slots = vars(obj)
    value = slots.get(key, _EMPTY)
    if value is _EMPTY:
        rep = _representative(obj, key)
        value = slots[key] = build() if rep is obj else memo(rep, key, build)
    elif type(value) is _Shared:
        if value.value is _EMPTY:
            value.value = build()
        value = value.value
    return value


def share(a, b, key: str) -> None:
    """Give a and b one memo slot for ``key``, keeping a value ``a`` already has."""
    vars(a)[key] = vars(b)[key] = _Shared(vars(a).get(key, _EMPTY))


def memo_pair(a, b, key: str, build: Callable[[], T]) -> T:
    """``build()``, computed once per ``(a, b, key)``, or once per pair of twins."""
    table = memo(a, key, weakref.WeakKeyDictionary)
    rep = _representative(b, key)
    value = table.get(rep, _EMPTY)
    if value is _EMPTY:
        value = table[rep] = build()
    return value


def _representative(obj, key: str):
    """The twin that holds obj's memo ``key``: obj itself unless the key is shared."""
    content = getattr(obj, "memo_content", None)
    if content is None or key in obj.own_memos:
        return obj
    slots = vars(obj)
    rep = slots.get("_twin", _EMPTY)
    if rep is _EMPTY:
        owner, parts = content()
        found = memo(owner, "_twins", weakref.WeakValueDictionary).setdefault(hash(parts), obj)
        # None stands for obj itself, which must not hold itself
        rep = slots["_twin"] = None if found is obj or found.memo_content()[1] != parts else found
    return obj if rep is None else rep
