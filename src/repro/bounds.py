"""Declared numeric bounds: each config field states its type and range once.

``integer(...)`` / ``real(...)`` return a dataclass field carrying a
:class:`Bound`; ``__post_init__`` calls :func:`check_bounds`, the one rule
for every declared field.  Integers go through :func:`index_arg` and are
stored as ``int``; reals must be finite and are stored unchanged; a value
past a bound raises ``"<name> must be <range>, got <value>"``.  Cross-field
rules, enums and sequence shapes stay in ``__post_init__``.  Stdlib only,
so every layer may import it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator

BOUND = "bound"  # the metadata key of a declared field's Bound


def index_arg(name: str, value) -> int:
    """``value`` as an exact integer (``operator.index``: any integer
    type, never a bool, a float or a string), or a ``TypeError`` naming
    ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclasses.dataclass(frozen=True)
class Bound:
    """The type (``int`` or ``float``) and range of one numeric value;
    also checks values that are not fields (keys, elements, flags)."""

    kind: type
    low: float | None = None
    high: float | None = None
    open_low: bool = False
    open_high: bool = False
    optional: bool = False

    def check(self, name: str, value):
        """``value`` as it is to be stored, or the error naming ``name``."""
        if value is None and self.optional:
            return None
        if self.kind is int:
            value = index_arg(name, value)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        elif not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        low, high = self.low, self.high
        if (low is not None and (value <= low if self.open_low else value < low)) or (
            high is not None and (value >= high if self.open_high else value > high)
        ):
            if low is not None and high is not None:
                ends = ("(" if self.open_low else "[", ")" if self.open_high else "]")
                text = f"in {ends[0]}{low}, {high}{ends[1]}"
            elif low is not None:
                text = f"{'>' if self.open_low else '>='} {low}"
            else:
                text = f"{'<' if self.open_high else '<='} {high}"
            optional = " or None" if self.optional else ""
            raise ValueError(f"{name} must be {text}{optional}, got {value}")
        return value


#: the bounds most non-field arguments share
COUNT = Bound(int, low=1)
INDEX = Bound(int, low=0)
NONNEGATIVE = Bound(float, low=0)
OPTIONAL_COUNT = Bound(int, low=1, optional=True)
POSITIVE = Bound(float, low=0, open_low=True)
FRACTION = Bound(float, 0, 1, open_low=True)  # (0, 1]


def integer(default=dataclasses.MISSING, *, low=None, high=None, optional=False):
    """A dataclass field holding an integer in ``[low, high]``."""
    bound = Bound(int, low, high, optional=optional)
    return dataclasses.field(default=default, metadata={BOUND: bound})


def real(
    default=dataclasses.MISSING, *, low=None, high=None, open_low=False, open_high=False
):
    """A dataclass field holding a finite real; ``open_*`` excludes that end."""
    bound = Bound(float, low, high, open_low, open_high)
    return dataclasses.field(default=default, metadata={BOUND: bound})


def check_bounds(obj) -> None:
    """Check every declared field of the dataclass instance ``obj``,
    storing integers as ``int`` (frozen instances included)."""
    for spec in dataclasses.fields(obj):
        if BOUND in spec.metadata:
            value = getattr(obj, spec.name)
            checked = spec.metadata[BOUND].check(spec.name, value)
            if checked is not value:
                object.__setattr__(obj, spec.name, checked)
