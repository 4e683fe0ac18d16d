"""Immutable records: the specs and reports of the calculator.

A ``Record`` subclass declares its fields as class annotations, in
order, and a default as a class attribute; fields with a default come
last.  The field list, and the class's ``__slots__`` from it, are worked
out once per class, when it is defined, and no code is generated for
it.  Records are built positionally or by keyword, compare equal field
by field within one class only, hash like their field tuple and cannot
be changed after ``__post_init__`` (use ``replace``).  Fields live in
slots; an instance's ``__dict__`` is made on first use, so a
``functools.cached_property`` works on them.
"""

from __future__ import annotations


class _RecordType(type):
    """Makes a record class's own fields its ``__slots__``, and binds each slot's ``__set__``
    once: about half the cost of ``object.__setattr__``.  Defaults move to ``_defaults``."""

    def __new__(mcls, name, bases, namespace):
        if not bases:  # Record itself: its instances keep a __dict__
            return super().__new__(mcls, name, bases, namespace)
        fields, base_defaults = list(bases[0]._fields), bases[0]._defaults
        defaults = dict(zip(fields[len(fields) - len(base_defaults):], base_defaults))
        for field in namespace.get("__annotations__", {}):
            if field in namespace:
                defaults[field] = namespace.pop(field)
            elif defaults:
                raise TypeError(f"{name}: field {field!r} without a default follows one with a default")
            if field not in fields:
                fields.append(field)
        namespace["__slots__"] = tuple(fields[len(bases[0]._fields):])
        cls = super().__new__(mcls, name, bases, namespace)
        cls._fields, cls._defaults = tuple(fields), tuple(defaults.values())
        cls._setters, cls._checked = tuple(getattr(cls, f).__set__ for f in fields), hasattr(cls, "__post_init__")
        return cls


class Record(metaclass=_RecordType):
    """Base of the frozen records.  A ``__post_init__``, where a class has
    one, runs last in ``__init__``: validation or derived defaults.

    >>> class Point(Record):
    ...     x: int
    ...     y: int = 0
    >>> Point(1), Point(1) == Point(x=1, y=0), replace(Point(1), y=2)
    (Point(x=1, y=0), True, Point(x=1, y=2))
    """

    _fields = _defaults = _setters = ()  # _defaults: the values of the trailing fields that have one

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        if self._checked:
            self.__post_init__()

    def _arguments(self, args: tuple, kwargs: dict):
        """Every field's value in order, from the arguments and the defaults."""
        cls, fields = type(self).__name__, self._fields
        required = len(fields) - len(self._defaults)
        if not kwargs and required <= len(args) <= len(fields):
            return args + self._defaults[len(args) - required:]
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} positional arguments but {len(args)} were given")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if name in fields[: len(args)]:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
        values = {**dict(zip(fields[required:], self._defaults)), **dict(zip(fields, args)), **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing required arguments: {missing}")
        return [values[name] for name in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with some fields changed; ``__post_init__`` runs again."""
    fields = record._fields
    unknown = changes.keys() - set(fields)
    if unknown:
        raise TypeError(f"{type(record).__name__} has no fields {sorted(unknown)}")
    return type(record)(*[changes[f] if f in changes else getattr(record, f) for f in fields])
