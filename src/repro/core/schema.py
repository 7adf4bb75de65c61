"""Array definitions: dimensions, attributes, and array types (Section 2.1).

The paper's model: an array has named, integer-valued dimensions running
contiguously from 1 to a per-dimension high-water mark N (or unbounded,
written ``*``); each combination of dimension values is a *cell*; every cell
carries the same record of named, typed values, each of which is a scalar or
a (nested) array.

Mirroring the paper's two-step usage::

    define Remote (s1 = float, s2 = float, s3 = float) (I, J)
    create My_remote as Remote [1024, 1024]

this module provides :func:`define_array` producing an :class:`ArraySchema`
(the array *type*), whose :meth:`ArraySchema.create` instantiates a concrete
:class:`~repro.core.array.SciArray` with bounds.  Declaring a schema
``updatable`` makes every instance gain an implicit, unbounded ``history``
dimension (Section 2.5: "the fact that Remote is declared to be updatable
would allow the system to add the History dimension automatically").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, Union

from .datatypes import ScalarType, get_type
from .errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from .array import SciArray

__all__ = [
    "Dimension",
    "Attribute",
    "ArraySchema",
    "define_array",
    "HISTORY_DIMENSION",
    "UNBOUNDED",
]

#: Name of the implicit time-travel dimension added to updatable arrays.
HISTORY_DIMENSION = "history"

#: Sentinel accepted wherever a bound may be unbounded (the paper's ``*``).
UNBOUNDED = "*"


@dataclass(frozen=True)
class Dimension:
    """A named array dimension.

    ``size`` is the high-water mark N (valid indexes are 1..N) or ``None``
    for an unbounded dimension, which grows as cells beyond the current
    high-water mark are written.
    """

    name: str
    size: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid dimension name {self.name!r}")
        if self.size is not None and self.size < 0:
            raise SchemaError(
                f"dimension {self.name!r} must have non-negative size, "
                f"got {self.size}"
            )

    @property
    def unbounded(self) -> bool:
        return self.size is None

    def contains(self, index: int, high_water: Optional[int] = None) -> bool:
        """Whether 1-based *index* is a legal coordinate on this dimension.

        For bounded dimensions the declared size governs; for unbounded
        dimensions the current *high_water* mark (if given) governs reads,
        while writes may exceed it.
        """
        if index < 1:
            return False
        if self.size is not None:
            return index <= self.size
        if high_water is not None:
            return index <= high_water
        return True

    def __str__(self) -> str:
        return f"{self.name}={'*' if self.size is None else self.size}"


AttributeType = Union[ScalarType, "ArraySchema"]


@dataclass(frozen=True)
class Attribute:
    """A named, typed value component of a cell.

    The type is a scalar type or, for nested arrays (Section 2.1), another
    :class:`ArraySchema`.
    """

    name: str
    type: AttributeType

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid attribute name {self.name!r}")
        if not isinstance(self.type, (ScalarType, ArraySchema)):
            raise SchemaError(
                f"attribute {self.name!r} must be typed with a ScalarType or "
                f"ArraySchema, got {type(self.type).__name__}"
            )

    @property
    def is_nested(self) -> bool:
        return isinstance(self.type, ArraySchema)

    @property
    def is_native(self) -> bool:
        """Whether chunks hold this component in a native numpy dtype —
        the precondition of every plane kernel that computes on it (nested
        arrays, strings, uncertain and user types are object planes)."""
        return not self.is_nested and self.type.numpy_dtype != object

    def __str__(self) -> str:
        tname = self.type.name if isinstance(self.type, ArraySchema) else str(self.type)
        return f"{self.name} = {tname}"


@dataclass(frozen=True)
class ArraySchema:
    """An array *type* (the result of ``define``), instantiable many times.

    Attributes
    ----------
    name:
        Type name, e.g. ``"Remote"``.
    attributes:
        The cell record's components, in declaration order.
    dimensions:
        Declared dimensions.  In a schema, sizes are usually ``None`` — they
        are fixed per instance at :meth:`create` time — but a schema may pin
        sizes too.
    updatable:
        Whether instances are no-overwrite time-travelled arrays
        (Section 2.5).  Updatable instances automatically gain an unbounded
        ``history`` dimension as their last dimension.
    """

    name: str
    attributes: tuple[Attribute, ...]
    dimensions: tuple[Dimension, ...]
    updatable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid array type name {self.name!r}")
        if not self.attributes:
            raise SchemaError(f"array type {self.name!r} must have at least one value")
        if not self.dimensions:
            raise SchemaError(
                f"array type {self.name!r} must have at least one dimension"
            )
        seen: set[str] = set()
        for part in (*self.attributes, *self.dimensions):
            if part.name in seen:
                raise SchemaError(
                    f"duplicate name {part.name!r} in array type {self.name!r}"
                )
            seen.add(part.name)

    # -- introspection -------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.dimensions)

    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    @property
    def attr_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"array type {self.name!r} has no value named {name!r}")

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise SchemaError(f"array type {self.name!r} has no dimension named {name!r}")

    def dim_index(self, name: str) -> int:
        """0-based position of dimension *name*."""
        for i, d in enumerate(self.dimensions):
            if d.name == name:
                return i
        raise SchemaError(f"array type {self.name!r} has no dimension named {name!r}")

    @property
    def has_history(self) -> bool:
        return any(d.name == HISTORY_DIMENSION for d in self.dimensions)

    # -- derivation ----------------------------------------------------------

    def with_dimensions(self, dimensions: Sequence[Dimension]) -> "ArraySchema":
        return replace(self, dimensions=tuple(dimensions))

    def with_attributes(self, attributes: Sequence[Attribute]) -> "ArraySchema":
        return replace(self, attributes=tuple(attributes))

    def renamed(self, name: str) -> "ArraySchema":
        return replace(self, name=name)

    def bind(self, bounds: Sequence[Union[int, str, None]]) -> "ArraySchema":
        """Fix per-instance dimension sizes (the ``create ... [b1, b2]`` step).

        Each bound is an int high-water mark, or ``"*"``/``None`` for
        unbounded.  For an updatable schema lacking an explicit ``history``
        dimension, one is appended automatically (always unbounded).
        """
        dims = list(self.dimensions)
        if self.updatable and not self.has_history:
            dims.append(Dimension(HISTORY_DIMENSION, None))
        if len(bounds) == len(dims) - 1 and dims[-1].name == HISTORY_DIMENSION:
            bounds = list(bounds) + [UNBOUNDED]
        if len(bounds) != len(dims):
            raise SchemaError(
                f"array type {self.name!r} has {len(dims)} dimensions, "
                f"got {len(bounds)} bounds"
            )
        bound_dims = []
        for dim, bound in zip(dims, bounds):
            if bound in (UNBOUNDED, None):
                bound_dims.append(replace(dim, size=None))
            else:
                if not isinstance(bound, int):
                    raise SchemaError(f"bound for {dim.name!r} must be int or '*'")
                bound_dims.append(replace(dim, size=bound))
        if self.updatable and bound_dims[-1].size is not None:
            raise SchemaError("the history dimension of an updatable array "
                              "must be unbounded")
        return replace(self, dimensions=tuple(bound_dims))

    def create(
        self,
        instance_name: Optional[str] = None,
        bounds: Optional[Sequence[Union[int, str, None]]] = None,
        **options,
    ) -> "SciArray":
        """Instantiate this type as a concrete array (the ``create`` step)."""
        from .array import SciArray

        schema = self.bind(bounds if bounds is not None else
                           [d.size if d.size is not None else UNBOUNDED
                            for d in self.dimensions])
        return SciArray(schema, name=instance_name or self.name, **options)

    def __str__(self) -> str:
        attrs = ", ".join(str(a) for a in self.attributes)
        dims = ", ".join(str(d) for d in self.dimensions)
        kind = "updatable array" if self.updatable else "array"
        return f"{kind} {self.name} ({attrs}) ({dims})"


def define_array(
    name: str,
    values: Union[Mapping[str, Union[str, ScalarType, ArraySchema]],
                  Iterable[tuple[str, Union[str, ScalarType, ArraySchema]]]],
    dims: Sequence[Union[str, Dimension, tuple[str, Optional[int]]]],
    *,
    updatable: bool = False,
) -> ArraySchema:
    """Define an array type — the Python rendering of the paper's syntax.

    The 2-D remote-sensing example from Section 2.1::

        Remote = define_array(
            "Remote",
            values={"s1": "float", "s2": "float", "s3": "float"},
            dims=["I", "J"],
        )
        my_remote = Remote.create("My_remote", [1024, 1024])

    ``values`` maps attribute names to type names, :class:`ScalarType`
    descriptors, or nested :class:`ArraySchema` objects.  ``dims`` entries
    are dimension names, ``(name, size)`` pairs, or :class:`Dimension`
    objects.
    """
    items = values.items() if isinstance(values, Mapping) else values
    attributes = []
    for attr_name, spec in items:
        if isinstance(spec, ArraySchema):
            attributes.append(Attribute(attr_name, spec))
        else:
            attributes.append(Attribute(attr_name, get_type(spec)))

    dimensions = []
    for d in dims:
        if isinstance(d, Dimension):
            dimensions.append(d)
        elif isinstance(d, tuple):
            dname, size = d
            dimensions.append(Dimension(dname, None if size in (UNBOUNDED, None) else size))
        else:
            dimensions.append(Dimension(d))

    return ArraySchema(
        name=name,
        attributes=tuple(attributes),
        dimensions=tuple(dimensions),
        updatable=updatable,
    )
