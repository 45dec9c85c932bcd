"""Frozen records: the base of the package's value and result types.

A record class names its fields in `_fields` and holds them in `__slots__`.
Its `__init__` sets each field through its slot's setter, which writes past
`Record.__setattr__`.  A record with checks writes its own `__init__`,
ending in the checks, and its module binds the setters from `setters(cls)`
once, after the class, for that `__init__` and any unchecked builder.  Any
other record gets an `__init__` generated from `_fields`, compiled once per
class as `collections.namedtuple` compiles its `__new__`, which makes the
same setter calls a written one would.
The base adds what the class would otherwise get from a frozen dataclass,
without importing `dataclasses`:

* equality between records of the same class, field by field, and a hash
  over the fields (a class compared often may override both with code that
  reads its fields directly, which is faster than `attrgetter`);
* a `Name(field=value, ...)` repr;
* no assignment or deletion of attributes (AttributeError);
* pickling and copying as the list of field values, read back through the
  class's `__init__`, with its checks if it has any, which also reads the
  dict state of pickles written before the records were slotted.
"""

from __future__ import annotations

from operator import attrgetter


def setters(cls: type, *slots: str) -> tuple:
    """The `__set__` of each named slot's descriptor; by default, each field's in `_fields`."""
    return tuple(getattr(cls, name).__set__ for name in slots or cls._fields)


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        fields = cls.__match_args__ = cls._fields
        values = attrgetter(*fields)
        # attrgetter of a single name returns the value, not a 1-tuple.
        cls._values = values if len(fields) > 1 else staticmethod(lambda record: (values(record),))
        if "__init__" not in vars(cls):
            # Each setter is a global of the generated code, as a written
            # __init__ finds its module's setters.
            namespace = {f"_set_{name}": setter for name, setter in zip(fields, setters(cls))}
            namespace["__name__"] = cls.__module__
            exec(f"def __init__(self, {', '.join(fields)}):"
                 + "".join(f"\n    _set_{name}(self, {name})" for name in fields), namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return list(self._values(self))

    def __setstate__(self, state) -> None:
        if isinstance(state, dict):
            state = map(state.__getitem__, self._fields)
        self.__init__(*state)
