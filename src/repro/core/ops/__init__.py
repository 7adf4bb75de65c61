"""Array operators (Section 2.2).

Two broad categories, exactly as the paper divides them:

* :mod:`repro.core.ops.structural` — operators that "create new arrays based
  purely on the structure of the inputs" (data-agnostic, hence optimizable):
  Subsample, Exists?, Reshape, Sjoin, add/remove dimension, Concatenate,
  Cross product, Transpose.
* :mod:`repro.core.ops.content` — operators "whose result depends on the
  data stored in the input array": Filter, Aggregate, Cjoin, Apply, Project,
  Regrid.

All operators are functions from arrays to a new array; inputs are never
mutated.  Every operator is also registered in :data:`OPERATORS`, the
extension point through which users "add their own array operations"
(Section 2.3) and through which the query executor dispatches parse trees.
"""

from __future__ import annotations

from typing import Callable

from ..errors import UnknownFunctionError

#: name -> callable; the user-extendable operator catalog (Section 2.3).
OPERATORS: dict[str, Callable] = {}


def register_operator(name: str, fn: Callable, replace: bool = False) -> Callable:
    """Add an operation to the engine's catalog (Postgres-style extension)."""
    key = name.lower()
    if key in OPERATORS and not replace:
        raise UnknownFunctionError(f"operator {name!r} is already registered")
    OPERATORS[key] = fn
    return fn


def get_operator(name: str) -> Callable:
    try:
        return OPERATORS[name.lower()]
    except KeyError:
        raise UnknownFunctionError(f"no operator named {name!r}") from None


from . import structural as structural  # noqa: E402  (populate the catalog)
from . import content as content  # noqa: E402

from .structural import (  # noqa: E402
    add_dimension, concatenate, cross_product, exists, remove_dimension,
    reshape, sjoin, subsample, transpose,
)
from .content import aggregate, apply, cjoin, filter, project, regrid  # noqa: E402

__all__ = [
    "OPERATORS", "register_operator", "get_operator",
    "subsample", "exists", "reshape", "sjoin", "add_dimension",
    "remove_dimension", "concatenate", "cross_product", "transpose",
    "filter", "aggregate", "cjoin", "apply", "project", "regrid",
]
