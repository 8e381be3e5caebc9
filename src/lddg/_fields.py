"""Field-type rule shared by the config dataclasses."""

from __future__ import annotations

from dataclasses import fields
from numbers import Integral, Real

# annotation (as a string, see the __future__ import) -> accepted types
_NUMERIC_FIELD_TYPES = {
    "int": Integral,
    "float": Real,
    "int | None": (Integral, type(None)),
}


def check_field_types(cfg):
    """Reject a numeric field holding another type (str, bool, a float for an int).

    The ``ValueError`` names the field, so a bad config value reads as a
    message rather than a traceback from the first comparison that uses it.
    """
    for f in fields(cfg):
        kind = _NUMERIC_FIELD_TYPES.get(f.type)
        value = getattr(cfg, f.name)
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
