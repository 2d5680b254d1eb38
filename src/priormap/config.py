"""The one reader of JSON config objects (recipes, loss weights, eval
configs) and the one number check. Each config dataclass checks its own
values in __post_init__."""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, fields
from typing import Any, TypeVar

T = TypeVar("T")


def finite_number(value: Any, name: str, positive: bool = False) -> Any:
    """value, unchanged, if it is a real number that is finite as a double
    (and above 0, if positive); bool, non-numbers, non-finite values and
    integers too large for a double are refused with a ValueError naming
    name."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value) and (value > 0 or not positive):
                return value
        except OverflowError:
            pass
    what = "a positive finite number" if positive else "a finite number"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def read_config(cls: type[T], raw: Any, where: str) -> T:
    """Build the config dataclass cls from the JSON object raw. Keys that
    are not fields of cls, and fields without a default that are absent,
    are refused; any ValueError is prefixed with where."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object")
    known = fields(cls)
    unknown = sorted(raw.keys() - {f.name for f in known})
    if unknown:
        raise ValueError(f"{where}: unknown key(s): {', '.join(unknown)}")
    missing = [f.name for f in known
               if f.name not in raw and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{where}: missing key(s): {', '.join(missing)}")
    try:
        return cls(**raw)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
