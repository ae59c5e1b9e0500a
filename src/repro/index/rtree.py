"""An R-tree (Guttman, quadratic split) over minimum bounding rectangles.

The Pattern Base uses this as its *locational feature index*
(Section 7.1): archived clusters are indexed by the MBR of their SGS so
position-sensitive matching queries can retrieve the overlapping
candidates without scanning the archive.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.geometry.mbr import MBR


class _Node:
    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        # Leaf entries: (MBR, value). Inner entries: (MBR, _Node).
        self.entries: List[Tuple[MBR, Any]] = []
        self.parent: Optional["_Node"] = None

    def mbr(self) -> MBR:
        box = self.entries[0][0]
        for other, _ in self.entries[1:]:
            box = box.union(other)
        return box


class RTree:
    """Dynamic R-tree with Guttman's quadratic split.

    Supports insertion, exact-entry deletion, intersection search, and
    point queries. ``max_entries`` defaults to 8, ``min_entries`` to
    ``max_entries // 2`` (standard fill factors).
    """

    def __init__(self, max_entries: int = 8, min_entries: Optional[int] = None):
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = (
            max_entries // 2 if min_entries is None else min_entries
        )
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValueError("min_entries must be in [1, max_entries/2]")
        self._root = _Node(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, box: MBR, value: Any) -> None:
        """Insert a value keyed by its bounding box."""
        leaf = self._choose_leaf(self._root, box)
        leaf.entries.append((box, value))
        self._size += 1
        if len(leaf.entries) > self.max_entries:
            self._split(leaf)
        else:
            self._enlarge_upward(leaf, box)

    def _enlarge_upward(self, node: _Node, box: MBR) -> None:
        """Grow ancestor entry boxes to cover a newly inserted box."""
        while node.parent is not None:
            parent = node.parent
            for i, (entry_box, child) in enumerate(parent.entries):
                if child is node:
                    if not entry_box.contains(box):
                        parent.entries[i] = (entry_box.union(box), node)
                    break
            node = parent

    def _choose_leaf(self, node: _Node, box: MBR) -> _Node:
        while not node.leaf:
            best = None
            best_key: Tuple[float, float] = (float("inf"), float("inf"))
            for child_box, child in node.entries:
                key = (child_box.enlargement(box), child_box.volume())
                if key < best_key:
                    best_key = key
                    best = child
            node = best
        return node

    def _split(self, node: _Node) -> None:
        """Quadratic split of an overflowing node, propagating upward."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        box_a = entries[seed_a][0]
        box_b = entries[seed_b][0]
        remaining = [
            entry for i, entry in enumerate(entries) if i not in (seed_a, seed_b)
        ]
        while remaining:
            # Force assignment when one group must absorb the rest to
            # reach the minimum fill.
            need_a = self.min_entries - len(group_a)
            need_b = self.min_entries - len(group_b)
            if need_a >= len(remaining):
                group_a.extend(remaining)
                for entry_box, _ in remaining:
                    box_a = box_a.union(entry_box)
                break
            if need_b >= len(remaining):
                group_b.extend(remaining)
                for entry_box, _ in remaining:
                    box_b = box_b.union(entry_box)
                break
            # Pick the entry with the greatest preference difference.
            best_index = 0
            best_diff = -1.0
            best_to_a = True
            for i, (entry_box, _) in enumerate(remaining):
                grow_a = box_a.enlargement(entry_box)
                grow_b = box_b.enlargement(entry_box)
                diff = abs(grow_a - grow_b)
                if diff > best_diff:
                    best_diff = diff
                    best_index = i
                    best_to_a = grow_a < grow_b
            entry = remaining.pop(best_index)
            if best_to_a:
                group_a.append(entry)
                box_a = box_a.union(entry[0])
            else:
                group_b.append(entry)
                box_b = box_b.union(entry[0])

        sibling = _Node(leaf=node.leaf)
        node.entries = group_a
        sibling.entries = group_b
        if not node.leaf:
            for _, child in sibling.entries:
                child.parent = sibling

        parent = node.parent
        if parent is None:
            new_root = _Node(leaf=False)
            new_root.entries = [(box_a, node), (box_b, sibling)]
            node.parent = new_root
            sibling.parent = new_root
            self._root = new_root
            return
        # Replace node's entry box and add the sibling.
        for i, (_, child) in enumerate(parent.entries):
            if child is node:
                parent.entries[i] = (box_a, node)
                break
        parent.entries.append((box_b, sibling))
        sibling.parent = parent
        if len(parent.entries) > self.max_entries:
            self._split(parent)
        else:
            self._tighten_upward(parent)

    @staticmethod
    def _pick_seeds(entries: List[Tuple[MBR, Any]]) -> Tuple[int, int]:
        worst = -1.0
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i][0].union(entries[j][0]).volume()
                    - entries[i][0].volume()
                    - entries[j][0].volume()
                )
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        return seeds

    def _tighten_upward(self, node: Optional[_Node]) -> None:
        while node is not None and node.parent is not None:
            parent = node.parent
            for i, (_, child) in enumerate(parent.entries):
                if child is node:
                    parent.entries[i] = (node.mbr(), node)
                    break
            node = parent

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, box: MBR) -> List[Any]:
        """Return the values of all entries whose MBR intersects ``box``."""
        result: List[Any] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                for entry_box, value in node.entries:
                    if entry_box.intersects(box):
                        result.append(value)
            else:
                for entry_box, child in node.entries:
                    if entry_box.intersects(box):
                        stack.append(child)
        return result

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, box: MBR, value: Any) -> bool:
        """Remove one entry matching (box, value); returns success."""
        leaf = self._find_leaf(self._root, box, value)
        if leaf is None:
            return False
        leaf.entries = [
            entry for entry in leaf.entries if not (entry[0] == box and entry[1] is value)
        ]
        self._size -= 1
        self._condense(leaf)
        if not self._root.leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][1]
            self._root.parent = None
        return True

    def _find_leaf(self, node: _Node, box: MBR, value: Any) -> Optional[_Node]:
        if node.leaf:
            for entry_box, entry_value in node.entries:
                if entry_box == box and entry_value is value:
                    return node
            return None
        for entry_box, child in node.entries:
            if entry_box.intersects(box):
                found = self._find_leaf(child, box, value)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node) -> None:
        orphans: List[Tuple[MBR, Any]] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                parent.entries = [
                    entry for entry in parent.entries if entry[1] is not node
                ]
                if node.leaf:
                    orphans.extend(node.entries)
                else:
                    for entry_box, child in node.entries:
                        orphans.extend(self._collect_leaf_entries(child))
            else:
                for i, (_, child) in enumerate(parent.entries):
                    if child is node:
                        parent.entries[i] = (node.mbr(), node)
                        break
            node = parent
        for box, value in orphans:
            self._size -= 1
            self.insert(box, value)

    def _collect_leaf_entries(self, node: _Node) -> List[Tuple[MBR, Any]]:
        if node.leaf:
            return list(node.entries)
        result: List[Tuple[MBR, Any]] = []
        for _, child in node.entries:
            result.extend(self._collect_leaf_entries(child))
        return result
