"""Record classes: the package's small value types, built without exec.

``@record`` reads a class's annotated names as its fields, in order, and
gives it ``__init__``, ``__repr__``, ``__eq__`` and ``__hash__``:

- ``__init__`` takes the fields positionally or by keyword, fills the
  defaults (class attributes), then calls ``self.__post_init__()`` when
  the class defines one.  The call is looked up on the instance, so a
  ``__post_init__`` replaced on the class later is the one that runs.
- ``repr`` is ``Name(a=..., b=...)``.
- ``==`` holds only between instances of the same class, comparing the
  field tuples.
- A record is frozen: it refuses assignment and deletion with
  ``FrozenInstanceError`` and hashes its field tuple; the class body may
  still set fields through ``object.__setattr__`` in ``__post_init__``,
  and ``functools.cached_property`` works, as instances keep a
  ``__dict__``.

The methods are closures over the field names, so defining a record
generates and compiles no code, and ``oscal`` start-up imports neither
the standard library's code-generating record decorator nor ``inspect``.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


_setattr = object.__setattr__


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError("cannot assign to field %r" % name)


def _frozen_delattr(self, name):
    raise FrozenInstanceError("cannot delete field %r" % name)


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The field values of a call that is not one positional per field."""
    if len(args) > len(names):
        raise TypeError(
            "%s.__init__() takes %d positional arguments but %d were given"
            % (cls.__qualname__, len(names) + 1, len(args) + 1)
        )
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(
                "%s.__init__() missing required argument: %r" % (cls.__qualname__, name)
            )
    if kwargs:
        name = next(iter(kwargs))
        raise TypeError(
            "%s.__init__() got %s %r" % (
                cls.__qualname__,
                "multiple values for argument" if name in names
                else "an unexpected keyword argument",
                name,
            )
        )
    return values


def record(cls):
    """Make ``cls`` a record (see the module docstring)."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    n = len(names)
    post = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(type(self), names, defaults, args, kwargs)
        # one object.__setattr__ per field: filling self.__dict__ directly
        # makes CPython 3.11+ keep the fields in a real dict, and every
        # later read of them about three times slower
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post:
            self.__post_init__()

    # the field tuple; attrgetter returns a bare value for a single name
    if n == 1:
        get = attrgetter(names[0])

        def key(self):
            return (get(self),)
    else:
        key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    template = ", ".join(name + "=%r" for name in names)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, template % key(self))

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = __hash__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__record_fields__ = names
    return cls
