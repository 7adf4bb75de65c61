"""Named versions: delta-based alternative data sets (Section 2.11).

The paper's use case: a scientist wants the same data set as a parent "for
much of the study region, but different in a portion" — e.g. a different
cloud-cover compositing algorithm over their study area.  The mechanism:

* "At a specific time, T, a user will be able to construct a version V from
  a base array A ... At time T, the version V is identical to A.  Since V
  is stored as a delta off its parent A, it consumes essentially no space."
* Reads: "it will first look in the delta array for V for the most recent
  value along the history dimension.  If there is no value in V, it will
  then look for the most recent value along the history dimension in A.
  In turn, if A is a version, it will repeat this process until it reaches
  a base array."
* "Hanging off any base array is a tree of named versions."

:class:`Version` pins the parent as of the creation history value T by
default, whether the parent is the base or another version (so later
parent commits don't silently change the version — the snapshot reading
of "at time T, V is identical to A"); pass ``follow_parent="latest"`` for
the literal most-recent-value reading.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from ..core.array import block_cells
from ..core.cells import Cell
from ..core.errors import VersionError
from .transactions import Transaction, UpdatableArray, _Reads, read, visible_blocks

__all__ = ["Version", "VersionTree"]

Coords = tuple[int, ...]
Parent = Union[UpdatableArray, "Version"]


class Version(_Reads):
    """A named delta off a parent array (or another version).

    Do not construct directly; use :meth:`VersionTree.create` (which wires
    the tree structure) or :meth:`Version.branch`.
    """

    def __init__(
        self,
        name: str,
        parent: Parent,
        created_at: int,
        follow_parent: str = "creation",
    ) -> None:
        if follow_parent not in ("creation", "latest"):
            raise VersionError(
                "follow_parent must be 'creation' or 'latest', "
                f"got {follow_parent!r}"
            )
        self.name = name
        self.parent = parent
        #: The parent history value T at which this version was created.
        self.created_at = created_at
        self.follow_parent = follow_parent
        #: The delta: its own updatable array, initially empty.
        self.delta = UpdatableArray(
            (parent.delta if isinstance(parent, Version) else parent).schema,
            name=f"{name}__delta",
        )
        self.children: list["Version"] = []

    # -- construction of children ------------------------------------------------

    def branch(self, name: str, follow_parent: str = "creation") -> "Version":
        """A version of this version (the paper's version *tree*)."""
        child = Version(
            name, self, created_at=self.delta.current_history,
            follow_parent=follow_parent,
        )
        self.children.append(child)
        return child

    # -- writes ----------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Open a transaction whose writes land in this version's delta."""
        return self.delta.begin()

    # -- reads ------------------------------------------------------------------------

    def _layers(
        self, as_of: Optional[int] = None, cell: Optional[Coords] = None
    ) -> dict[Coords, list]:
        """The parent's layers as of :attr:`created_at` (its latest with
        ``follow_parent="latest"``), then the delta's: "look in the delta
        ... then in A", at every level, as one oldest-first order."""
        own = self.delta._layers(as_of, cell)
        if cell is not None and any(box[2].any() for box in own.get(cell, ())):
            return own  # the delta holds this cell: its parents cannot matter
        out = self.parent._layers(
            None if self.follow_parent == "latest" else self.created_at, cell
        )
        for origin, boxes in own.items():
            out.setdefault(origin, []).extend(boxes)
        return out

    def get(self, *coords: int) -> Optional[Cell]:
        """Read through the delta chain: delta first, then the parent."""
        return read(self, self.delta._check_cell_coords(coords))

    def cells(self) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """The version's full visible state (delta over parent)."""
        for origin, planes, state in visible_blocks(self):
            yield from block_cells(origin, planes, state, self.delta.schema.attr_names)

    # -- accounting --------------------------------------------------------------------

    def delta_count(self) -> int:
        """Cells stored by this version itself — "essentially no space"
        when the divergence is small (experiment E4)."""
        return self.delta.delta_count()

    def chain_depth(self) -> int:
        parent = self.parent
        return 1 + (parent.chain_depth() if isinstance(parent, Version) else 0)

    def base(self) -> UpdatableArray:
        return self.parent.base() if isinstance(self.parent, Version) else self.parent

    def __repr__(self) -> str:
        return (
            f"<Version {self.name!r} off {getattr(self.parent, 'name', '?')!r} "
            f"at T={self.created_at}, {self.delta_count()} delta cells>"
        )


class VersionTree:
    """The registry of named versions hanging off one base array."""

    def __init__(self, base: UpdatableArray) -> None:
        self.base = base
        self._versions: dict[str, Version] = {}

    def create(
        self,
        name: str,
        parent: Optional["str | Version"] = None,
        follow_parent: str = "creation",
    ) -> Version:
        """Create version *name* off the base (default) or another version.

        Records the creation time T (the parent's current history value).
        """
        if name in self._versions:
            raise VersionError(f"version {name!r} already exists")
        if parent is None:
            v = Version(
                name, self.base, created_at=self.base.current_history,
                follow_parent=follow_parent,
            )
        else:
            parent_v = self.get(parent) if isinstance(parent, str) else parent
            v = parent_v.branch(name, follow_parent=follow_parent)
        self._versions[name] = v
        return v

    def get(self, name: str) -> Version:
        try:
            return self._versions[name]
        except KeyError:
            raise VersionError(f"no version named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._versions)

    def tree(self) -> dict[str, list[str]]:
        """parent name -> child names (base is keyed by its array name)."""
        out: dict[str, list[str]] = {self.base.name: []}
        for v in self._versions.values():
            pname = (
                v.parent.name if isinstance(v.parent, Version) else self.base.name
            )
            out.setdefault(pname, []).append(v.name)
            out.setdefault(v.name, [])
        return out

    def total_delta_cells(self) -> int:
        return sum(v.delta_count() for v in self._versions.values())
