"""Exception types shared across the package, and the base of its value types.

Most exceptions subclass ValueError so callers that only care about "bad
input" can catch the builtin.
"""

from types import MemberDescriptorType
from typing import Callable

_set = object.__setattr__


class RecError(ValueError):
    """Base class for all package-specific errors."""


class DomainError(RecError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateRegionError(RecError):
    """A region carries no proposal mass (or collapsed to a point)."""


class UnboundedRatioError(RecError):
    """The density ratio has no finite supremum where one is required."""


class AbsoluteContinuityError(RecError):
    """Target support is not contained in proposal support."""


class InvalidCodeError(RecError):
    """Codeword is not one the encoder could have produced."""


class BudgetExhaustedError(RecError):
    """Search exceeded an explicit step or size budget."""


class InfeasibleParameterError(RecError):
    """Requested divergence constraints admit no distribution."""


class MalformedMessageError(RecError):
    """Bitstream does not parse as a well-formed message."""


class DepthExceededError(RecError):
    """Tree depth grew past the width of a packable heap index."""


class Frozen:
    """Base of the package's immutable value types. A subclass keeps its fields
    in ``__slots__``, names in ``_fields`` those that equality, hashing and
    ``repr`` read, and stores them in ``__init__`` with ``_store``, one value
    a field of ``_fields`` in order (any other field with
    ``object.__setattr__``); assigning or deleting later raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._store = _storer(cls)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __setstate__(self, state):  # copy and pickle: a __dict__, or (__dict__, slots)
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                _set(self, name, value)


def _storer(cls: type) -> Callable[..., None]:
    """``cls._store(self, *values)``: one call a field of ``cls._fields``,
    through the field's slot-descriptor setter, cached here, or through
    ``object.__setattr__`` for a field held in the instance ``__dict__``.
    It is written out as one function per class, as ``dataclasses`` writes
    an ``__init__``: a loop over the fields costs about twice as much."""
    scope, args, body = {"_set": _set}, ["self"], []
    for i, name in enumerate(cls._fields):
        args.append(f"v{i}")
        slot = getattr(cls, name, None)
        if isinstance(slot, MemberDescriptorType):
            scope[f"set{i}"] = slot.__set__
            body.append(f"    set{i}(self, v{i})")
        else:
            body.append(f"    _set(self, {name!r}, v{i})")
    exec(f"def _store({', '.join(args)}):\n" + "\n".join(body or ["    pass"]), scope)
    return scope["_store"]
