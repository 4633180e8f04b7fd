"""Immutable records on ``__slots__`` that cost next to nothing to define:
no generated code, and no import that pulls in ``inspect``.

A subclass names its fields in ``__slots__``, or in ``_fields`` when a slot
is a cache kept out of equality and repr, and writes its own ``__init__``
with ``_set``. It inherits equality and hashing on its fields within its
own class, the repr ``Name(field=value, ...)``, and the refusal of every
assignment. A record is not a tuple: numbers such as ``Dyadic`` must not
pick up tuple ``+`` and ``*``, and ``Point`` and ``Schema`` keep caches
beside their fields. The formulas of ``logic``, which need neither, are
named tuples instead.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__
        cls._fields = own.get("_fields", cls._fields + tuple(own.get("__slots__", ())))

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()
