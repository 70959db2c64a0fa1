"""Python-version shims.

:func:`slotted_dataclass` is ``dataclass(slots=True)``, which exists
only from Python 3.10 on; the package still supports 3.9::

    @slotted_dataclass(frozen=True)
    class Point:
        x: float

Like ``slots=True``, it rebuilds the class, so methods of a slotted
class must not use zero-argument ``super()`` (its ``__class__`` cell
would still name the discarded class).  Every base of a slotted class
must be slotted too, or instances keep a ``__dict__``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Type, TypeVar

T = TypeVar("T")


def slotted_dataclass(cls: Optional[Type[T]] = None, **kwargs: Any):
    """``dataclasses.dataclass(**kwargs)``, then one slot per field."""

    def wrap(cls: Type[T]) -> Type[T]:
        return _add_slots(dataclasses.dataclass(cls, **kwargs))

    return wrap if cls is None else wrap(cls)


def _add_slots(cls: Type[T]) -> Type[T]:
    """``cls`` rebuilt with one slot per dataclass field it declares."""
    inherited = {
        name for base in cls.__mro__[1:] for name in base.__dict__.get("__slots__", ())
    }
    names = tuple(
        field.name for field in dataclasses.fields(cls) if field.name not in inherited
    )
    namespace = dict(cls.__dict__)
    for name in names:
        namespace.pop(name, None)  # a default value would shadow the slot
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace["__slots__"] = names
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = cls.__qualname__
    if cls.__dataclass_params__.frozen:  # type: ignore[attr-defined]
        # the generated guards call super() on the discarded class, and the
        # default slot restore uses setattr, which a frozen class refuses
        rebuilt.__setattr__ = _frozen_setattr  # type: ignore[assignment]
        rebuilt.__delattr__ = _frozen_delattr  # type: ignore[assignment]
        rebuilt.__getstate__ = _frozen_getstate  # type: ignore[attr-defined]
        rebuilt.__setstate__ = _frozen_setstate  # type: ignore[attr-defined]
    return rebuilt


def _frozen_setattr(self, name: str, value: object) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen_getstate(self) -> list:
    return [getattr(self, field.name) for field in dataclasses.fields(self)]


def _frozen_setstate(self, state: list) -> None:
    for field, value in zip(dataclasses.fields(self), state):
        object.__setattr__(self, field.name, value)
