"""Configurable size limits keeping brute-force oracles desk-scale."""

from __future__ import annotations

import json
import os
import sys
from typing import NamedTuple

from .errors import BadLimits, SizeLimitExceeded, TooManyGenerators

ENV_VAR = "FERRER_LIMITS"

# each limit's error and message, formatted with the value and the limit
BOUNDS = {
    "max_depth": (SizeLimitExceeded, "depth {} exceeds limit {}"),
    "max_boxes": (SizeLimitExceeded, "{} boxes exceed limit {}"),
    "oracle_max_variables": (SizeLimitExceeded, "{} variables exceed oracle limit {}"),
    "oracle_max_generators": (SizeLimitExceeded, "{} generators exceed oracle limit {}"),
    "hitting_set_max_variables": (SizeLimitExceeded, "{} variables exceed hitting-set limit {}"),
    "series_recursion_max_generators": (TooManyGenerators, "{} generators exceed limit {}"),
    "truncation_max_degree": (SizeLimitExceeded, "degree {} exceeds truncation limit {}"),
    "pure_max_length": (SizeLimitExceeded, "length {} exceeds pure limit {}"),
}


class Limits(NamedTuple):
    max_depth: int = 6
    max_boxes: int = 10_000
    oracle_max_variables: int = 16
    oracle_max_generators: int = 60
    hitting_set_max_variables: int = 30
    series_recursion_max_generators: int = 512
    truncation_max_degree: int = 20
    pure_max_length: int = 1_000

    def check(self, name: str, value: int) -> None:
        """Raise the error ``BOUNDS`` gives ``name`` when ``value`` exceeds that limit."""
        limit = getattr(self, name)
        if value > limit:
            error, message = BOUNDS[name]
            raise error(message.format(_numeral(value), limit))

    @classmethod
    def from_env(cls, environ=os.environ) -> "Limits":
        """Build defaults, overridden by a JSON object in $FERRER_LIMITS."""
        raw = environ.get(ENV_VAR)
        if not raw:
            return cls()
        try:
            data = json.loads(raw)
        except ValueError as err:  # JSONDecodeError, or a numeral past int's digit limit
            raise BadLimits(str(err)) from None
        except RecursionError:
            raise BadLimits(f"{ENV_VAR} nested too deeply to parse") from None
        if not isinstance(data, dict):
            raise BadLimits(f"{ENV_VAR} must be a JSON object")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise BadLimits(f"unknown limit names in {ENV_VAR}: {sorted(unknown)}")
        for name, value in data.items():
            if type(value) is not int or value < 0:
                raise BadLimits(f"{ENV_VAR}: {name} must be a non-negative integer")
        return cls(**data)


def _numeral(value: int) -> str:
    """``value`` in decimal, or a phrase when it has more digits than the
    interpreter converts to a string (4,300 by default)."""
    try:
        return str(value)
    except ValueError:
        return f"a number of more than {sys.get_int_max_str_digits()} digits"


DEFAULT_LIMITS = Limits()
