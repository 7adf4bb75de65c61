"""An n-dimensional R-tree (Section 2.8).

"An R-tree keeps track of the size of the various buckets."  This is a
classic Guttman R-tree with quadratic split, generalised to any number of
dimensions.  Boxes are inclusive integer (or float) intervals
``(lo_tuple, hi_tuple)``; values are opaque (the storage manager stores
bucket ids, the grid layer partition ids).

The tree supports insert, delete, window search, and overlap counting; the
planner uses :meth:`RTree.search` for bucket pruning (experiment E2).
"""

from __future__ import annotations

import functools
import math
from typing import Any, Iterator, Optional, Sequence

from ..core.errors import StorageError

__all__ = ["RTree", "Box"]

Box = tuple[tuple, tuple]  # (lo coords, hi coords), inclusive


def _valid_box(box: Box) -> Box:
    lo, hi = box
    if len(lo) != len(hi):
        raise StorageError(f"box corners differ in dimensionality: {box}")
    if any(l > h for l, h in zip(lo, hi)):
        raise StorageError(f"box has inverted interval: {box}")
    return tuple(lo), tuple(hi)


def _intersects(a: Box, b: Box) -> bool:
    return all(al <= bh and bl <= ah
               for al, ah, bl, bh in zip(a[0], a[1], b[0], b[1]))


def _union(a: Box, b: Box) -> Box:
    return (
        tuple(min(al, bl) for al, bl in zip(a[0], b[0])),
        tuple(max(ah, bh) for ah, bh in zip(a[1], b[1])),
    )


def _volume(box: Box) -> float:
    return math.prod(h - l + 1 for l, h in zip(box[0], box[1]))


def _enlargement(box: Box, extra: Box) -> float:
    return _volume(_union(box, extra)) - _volume(box)


class _Node:
    __slots__ = ("leaf", "entries", "box")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        # leaf entries: (box, value); inner entries: (box, child _Node)
        self.entries: list[tuple[Box, Any]] = []
        self.box: Optional[Box] = None

    def recompute_box(self) -> None:
        self.box = functools.reduce(_union, [b for b, _ in self.entries]) if self.entries else None


class RTree:
    """Guttman R-tree with quadratic split.

    Parameters
    ----------
    max_entries:
        Node capacity M; nodes split when exceeding it.
    min_entries:
        Minimum fill m (defaults to ``max_entries // 2``).
    """

    def __init__(self, max_entries: int = 8, min_entries: Optional[int] = None) -> None:
        if max_entries < 2:
            raise StorageError("max_entries must be >= 2")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max_entries // 2
        if not 1 <= self.min_entries <= max_entries // 2:
            raise StorageError("min_entries must be in [1, max_entries // 2]")
        self._root = _Node(leaf=True)
        self._size = 0
        self.ndim: Optional[int] = None

    def __len__(self) -> int:
        return self._size

    # -- insertion -------------------------------------------------------------

    def insert(self, box: Box, value: Any) -> None:
        box = _valid_box(box)
        if self.ndim is None:
            self.ndim = len(box[0])
        elif len(box[0]) != self.ndim:
            raise StorageError(
                f"box is {len(box[0])}-D, tree is {self.ndim}-D"
            )
        if not self._root.leaf and not self._root.entries:
            # Deletions may have emptied an inner root; restart as a leaf.
            self._root = _Node(leaf=True)
        split = self._insert(self._root, box, value)
        if split is not None:
            old_root = self._root
            self._root = _Node(leaf=False)
            for node in (old_root, split):
                node.recompute_box()
                self._root.entries.append((node.box, node))
            self._root.recompute_box()
        self._size += 1

    def _insert(self, node: _Node, box: Box, value: Any) -> Optional[_Node]:
        if node.leaf:
            node.entries.append((box, value))
        else:
            best_i = min(
                range(len(node.entries)),
                key=lambda i: (
                    _enlargement(node.entries[i][0], box),
                    _volume(node.entries[i][0]),
                ),
            )
            child_box, child = node.entries[best_i]
            split = self._insert(child, box, value)
            child.recompute_box()
            node.entries[best_i] = (child.box, child)
            if split is not None:
                split.recompute_box()
                node.entries.append((split.box, split))
        node.recompute_box()
        if len(node.entries) > self.max_entries:
            return self._quadratic_split(node)
        return None

    def _quadratic_split(self, node: _Node) -> _Node:
        entries = node.entries
        # Pick the pair wasting the most volume as seeds.
        worst = None
        seed_a = seed_b = 0
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    _volume(_union(entries[i][0], entries[j][0]))
                    - _volume(entries[i][0])
                    - _volume(entries[j][0])
                )
                if worst is None or waste > worst:
                    worst, seed_a, seed_b = waste, i, j
        groups = [[entries[seed_a]], [entries[seed_b]]]
        boxes = [entries[seed_a][0], entries[seed_b][0]]
        rest = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]
        for k, entry in enumerate(rest):
            remaining = len(rest) - k
            if len(groups[0]) + remaining <= self.min_entries:
                side = 0
            elif len(groups[1]) + remaining <= self.min_entries:
                side = 1
            else:  # the group its box enlarges less; a tie goes to the first
                side = int(_enlargement(boxes[0], entry[0]) > _enlargement(boxes[1], entry[0]))
            groups[side].append(entry)
            boxes[side] = _union(boxes[side], entry[0])
        node.entries = groups[0]
        node.recompute_box()
        sibling = _Node(leaf=node.leaf)
        sibling.entries = groups[1]
        sibling.recompute_box()
        return sibling

    # -- queries -----------------------------------------------------------------

    def search(self, window: Box) -> Iterator[tuple[Box, Any]]:
        """All (box, value) entries intersecting *window*."""
        window = _valid_box(window)
        if self._root.box is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.box is None or not _intersects(node.box, window):
                continue
            for box, payload in node.entries:
                if not _intersects(box, window):
                    continue
                if node.leaf:
                    yield box, payload
                else:
                    stack.append(payload)

    def covering(self, point: Sequence) -> Iterator[tuple[Box, Any]]:
        """Entries whose box contains *point*."""
        yield from self.search((tuple(point), tuple(point)))

    def all_entries(self) -> Iterator[tuple[Box, Any]]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            for box, payload in node.entries:
                if node.leaf:
                    yield box, payload
                else:
                    stack.append(payload)

    def bounding_box(self) -> Optional[Box]:
        return self._root.box

    # -- deletion ---------------------------------------------------------------

    def delete(self, box: Box, value: Any) -> bool:
        """Remove one entry matching (box, value); returns whether found.

        Underfull nodes are handled by reinsertion of their residue —
        simple and adequate for bucket-merge workloads.
        """
        box = _valid_box(box)
        found = self._delete(self._root, box, value)
        if found:
            self._size -= 1
            if not self._root.leaf and len(self._root.entries) == 1:
                self._root = self._root.entries[0][1]
        return found

    def _delete(self, node: _Node, box: Box, value: Any) -> bool:
        if node.leaf:
            for i, (b, v) in enumerate(node.entries):
                if b == box and v == value:
                    del node.entries[i]
                    node.recompute_box()
                    return True
            return False
        for i, (b, child) in enumerate(node.entries):
            if _intersects(b, box):  # a box inside b meets it
                if self._delete(child, box, value):
                    if not child.entries:
                        del node.entries[i]
                    else:
                        node.entries[i] = (child.box, child)
                    node.recompute_box()
                    return True
        return False

    def depth(self) -> int:
        d = 1
        node = self._root
        while not node.leaf:
            if not node.entries:
                break
            node = node.entries[0][1]
            d += 1
        return d
