"""One base for the package's value classes, formula nodes and records alike:
slotted and immutable.

A value class lists its fields, in order, as its ``__slots__``. When the class
is created, ``Node`` builds from that list its ``__match_args__``,
``__init__``, ``__eq__`` and ``__hash__``, so that a value takes its fields by
position or by name, two values are equal when they are of one class and
their fields are equal, and a value hashes as the tuple of its fields. The
class keyword ``defaults``, a dict from field name to value, gives defaults
to the last fields, in order, as the defaults of ``__init__``; every instance
shares a default, so it must be immutable. A value has no ``__dict__``, so
building one is one allocation, and ``__init__`` writes each field through its
slot's descriptor, taken once per class. Nothing else writes a field:
assigning or deleting an attribute raises AttributeError, because the tables
that key nodes on their identity, the monitor's states and steps and the
free-logic memo, rely on nodes never changing. A class that defines
``__post_init__`` has it called after the fields are set, to reject bad
values. ``__reduce__`` rebuilds a value from its fields, less the trailing
ones that are their defaults, so ``copy.deepcopy`` and ``pickle`` work and
rerun ``__post_init__``.
"""

from __future__ import annotations

import functools


class Node:
    __slots__ = ()

    def __init_subclass__(cls, defaults: dict | None = None):
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} must list its fields as __slots__")
        fields = tuple(name for base in reversed(cls.__mro__)
                       for name in base.__dict__.get("__slots__", ()))
        defaults = defaults or {}
        if tuple(defaults) != fields[len(fields) - len(defaults):]:
            raise TypeError(f"{cls.__qualname__} defaults must be for its last fields, in order")
        own = "".join(f"self.{name}, " for name in fields)
        other = "".join(f"other.{name}, " for name in fields)
        source = (
            f"def __init__(self, {', '.join(fields)}):\n"
            + "".join(f"    set_{name}(self, {name})\n" for name in fields)
            + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
            + "    pass\n"
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({own}) == ({other})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({own}))\n"
        )
        namespace = {f"set_{name}": getattr(cls, name).__set__ for name in fields}
        exec(_compiled(source), namespace)
        namespace["__init__"].__defaults__ = tuple(defaults.values())
        cls.__match_args__ = fields
        for name in ("__init__", "__eq__", "__hash__"):
            setattr(cls, name, namespace[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        values = [getattr(self, name) for name in self.__match_args__]
        for default in reversed(self.__init__.__defaults__):
            if values[-1] is not default:
                break
            values.pop()
        return type(self), tuple(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@functools.cache
def _compiled(source: str):
    """The code of a class's methods; classes with one list of fields share it."""
    return compile(source, "<node>", "exec")
