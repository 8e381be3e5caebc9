"""Field-type rule shared by the config dataclasses."""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral, Real

# annotation (as a string, see the __future__ import) -> accepted types
_FIELD_TYPES = {
    "int": Integral,
    "float": Real,
    "bool": bool,
    "int | None": (Integral, type(None)),
}


def _fits(value, annotation):
    """A bool fits only a bool field, which takes nothing else; a ``float``
    field takes only finite numbers (no NaN or inf); a ``tuple[T, ...]``
    field takes a tuple whose items each fit T."""
    if annotation.startswith("tuple["):
        return isinstance(value, tuple) and all(_fits(v, annotation[6:-6]) for v in value)
    kind = _FIELD_TYPES.get(annotation)
    return kind is None or (
        isinstance(value, kind) and isinstance(value, bool) == (annotation == "bool")
        and (annotation != "float" or -math.inf < value < math.inf)
    )


def check_field_types(cfg):
    """Reject a field holding another type than its annotation names
    (a str, a bool for a number, a float for an int, a list for a tuple)
    or a non-finite float.

    The ``ValueError`` names the field, so a bad config value reads as a
    message rather than a traceback from the first comparison that uses it.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not _fits(value, f.type):
            finite = " with finite values" if "float" in f.type else ""
            raise ValueError(f"{f.name} must be of type {f.type}{finite}, got {value!r}")
