"""Immutable records: the specs and reports of the calculator.

A ``Record`` subclass declares its fields as class annotations, in
order, and a default as a class attribute; fields with a default come
last.  The field list is worked out once per class, when it is defined,
and no code is generated for it.  Records are built positionally or by
keyword, compare equal field by field within one class only, hash like
their field tuple and cannot be changed after ``__post_init__`` (use
``replace``).  Instances have a ``__dict__``, so a
``functools.cached_property`` works on them.
"""

from __future__ import annotations

# Fields are stored with object.__setattr__, never through __dict__: an
# instance whose __dict__ was never requested keeps CPython's inline
# attribute storage, which reads several times faster.
_setattr = object.__setattr__


class Record:
    """Base of the frozen records.

    >>> class Point(Record):
    ...     x: int
    ...     y: int = 0
    >>> Point(1), Point(1) == Point(x=1, y=0), replace(Point(1), y=2)
    (Point(x=1, y=0), True, Point(x=1, y=2))
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # the values of the trailing fields that have one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = list(cls._fields)
        defaults = dict(zip(fields[len(fields) - len(cls._defaults):], cls._defaults))
        for name in cls.__annotations__:
            if name in cls.__dict__:
                defaults[name] = cls.__dict__[name]
            elif defaults:
                raise TypeError(f"{cls.__name__}: field {name!r} without a default follows one with a default")
            if name not in fields:
                fields.append(name)
        cls._fields = tuple(fields)
        cls._defaults = tuple(defaults.values())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._arguments(args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
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
        values = dict(zip(fields[required:], self._defaults))
        values.update(zip(fields, args))
        values.update(kwargs)
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing required arguments: {missing}")
        return [values[name] for name in fields]

    def __post_init__(self):
        """Validation or derived defaults; runs last in ``__init__``."""

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
