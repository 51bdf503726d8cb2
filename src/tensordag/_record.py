"""The immutable record base of the package's value classes.

A record's fields are its ``__slots__``, after those of the records it
extends.  It is built from positional or keyword arguments, is equal to a
record of the same class with equal field values and hashes by those
values, prints its fields by name and refuses assignment.  Build a changed
record with its constructor.  The module imports nothing and generates no
code, so defining a record class costs no more than defining a class.
"""


class Record:
    """Base of an immutable record; a subclass lists its new fields in ``__slots__``.

    ``_defaults`` maps a trailing field to the value it takes when omitted,
    and a field named in ``_tuples`` is stored as the tuple of its items.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _tuples: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__base__._fields + cls.__dict__.get("__slots__", ())

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bound(args, kwargs)
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        for name in cls._tuples:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @classmethod
    def _bound(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in field order, from a call's arguments and the defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes) -> "Record":
        """This record with the named fields changed; a name that is no field is refused."""
        values = [changes.pop(name, value) for name, value in zip(self._fields, self._values())]
        return type(self)(*values, **changes)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        return type(self), self._values()
