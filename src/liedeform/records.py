"""Frozen records without ``dataclasses``: ``record`` makes a class whose
body annotates its fields, in order, an immutable value class, as
``dataclass(frozen=True)`` would.  Its methods are closures over the field
names, so making a record class compiles no generated source at import."""


class field:
    """A field made by ``default_factory()``, or left out of ``__eq__``."""

    __slots__ = ("default_factory", "compare")

    def __init__(self, *, default_factory=None, compare=True):
        self.default_factory, self.compare = default_factory, compare


def record(cls):
    """``cls`` with the ``__init__``, ``__eq__``, ``__hash__``, ``__repr__``
    and assignment guard of a frozen dataclass, and a ``__dict__``."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    fields = {}
    for f in names:
        spec = cls.__dict__.get(f)
        if isinstance(spec, field):
            delattr(cls, f)
        else:  # a class-body default, or none
            spec = field(default_factory=(lambda value=spec: value)
                         if f in cls.__dict__ else None)
        fields[f] = spec
    compared = [f for f, spec in fields.items() if spec.compare]
    post_init = hasattr(cls, "__post_init__")

    # every field's value, in order, also from keywords and defaults
    def bind(args, kwargs) -> list:
        values = dict(zip(names, args))
        if (len(args) > len(names) or not fields.keys() >= kwargs.keys()
                or not values.keys().isdisjoint(kwargs)):
            raise TypeError(f"{cls.__name__}() takes the fields "
                            f"{', '.join(names)} once each")
        values.update(kwargs)
        for f in names:
            if f not in values:
                if fields[f].default_factory is None:
                    raise TypeError(f"{cls.__name__}() missing required "
                                    f"argument {f!r}")
                values[f] = fields[f].default_factory()
        return [values[f] for f in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        # one by one: filling ``__dict__`` would make a dict where the values
        # were kept inline, and slow every later attribute read
        for f, value in zip(names, args):
            object.__setattr__(self, f, value)
        if post_init:
            self.__post_init__()

    def key(obj) -> tuple:
        return tuple([getattr(obj, f) for f in compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, attr, *value):
        raise AttributeError(f"cannot assign to or delete field {attr!r}")

    # a method the class body defines is kept, as ``dataclass`` keeps it
    for method in (__init__, __eq__, __hash__, __repr__, __setattr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__delattr__ = __setattr__
    cls.__match_args__ = names
    return cls
