"""The memo: deduplicated store of plan alternatives.

Groups hold semantically-equivalent expressions; group expressions
reference children *by group id*, so one stored subtree is shared by
every alternative that uses it.  A memo holds only what a query's
*shape* decides — expressions, key splits, widths and alias sets — so
every search of one shape can read the same memo, each with its own
row counts (see :class:`~repro.optimizer.enumeration.ShapeTrace`).

The memo module also owns the byte accounting the paper's mechanism
depends on: every group and group expression has a simulated
footprint, and :func:`memo_bytes` of the groups and expressions a
search can see is what the compilation pipeline charges to the task's
memory account as search proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.plans.logical import LogicalNode
from repro.units import KiB

#: simulated footprint of one group (header, context, properties)
GROUP_BYTES = 64 * KiB
#: simulated footprint of one group expression (operator + rule state)
GEXPR_BYTES = 24 * KiB


def memo_bytes(groups: int, expressions: int, base_bytes: int = 0,
               multiplier: float = 1.0) -> int:
    """Simulated footprint of a memo of ``groups`` groups holding
    ``expressions`` expressions, plus ``base_bytes`` of other structures
    (query tree, binding); ``multiplier`` scales the memo part (lets
    low-effort searches keep a full-effort memory profile in
    scaled-down experiments)."""
    structural = groups * GROUP_BYTES + expressions * GEXPR_BYTES
    return base_bytes + int(structural * multiplier)


@dataclass(slots=True)
class GroupExpression:
    """One logical operator with children resolved to group ids."""

    node: LogicalNode
    children: Tuple[int, ...]
    group_id: int
    #: position in the memo's creation order: a search sees exactly the
    #: expressions whose index is below its horizon
    index: int
    #: for a join, its condition split into ``(build keys, probe keys,
    #: residual)`` against the child groups' alias sets; set by whoever
    #: creates the expression
    split: Optional[tuple] = None


@dataclass(slots=True)
class GroupStats:
    """What a group's shape decides about its output: the row count is
    each search's own."""

    #: bytes per output row
    width: float
    aliases: FrozenSet[str]


class Group:
    """A set of semantically equivalent expressions."""

    __slots__ = ("id", "expressions", "stats")

    def __init__(self, group_id: int):
        self.id = group_id
        self.expressions: List[GroupExpression] = []
        self.stats: Optional[GroupStats] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Group {self.id} exprs={len(self.expressions)}>"


class Memo:
    """All groups of one query shape, with duplicate detection."""

    def __init__(self):
        self.groups: List[Group] = []
        self._index: Dict[tuple, GroupExpression] = {}
        self.expression_count = 0
        #: the children-first order: ``levels[k]`` lists, ascending, the
        #: groups whose alias set has ``k`` members.  A join's inputs
        #: have strictly fewer aliases than the join, and a one-input
        #: operator has its input's aliases and opens after it, so
        #: every expression's children come before its group.
        self.levels: List[List[int]] = []

    @property
    def group_count(self) -> int:
        return len(self.groups)

    # -- construction ------------------------------------------------------------
    def new_group(self) -> Group:
        group = Group(len(self.groups))
        self.groups.append(group)
        return group

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    def set_stats(self, group_id: int, stats: GroupStats) -> None:
        """Describe a group just opened, placing it in the
        children-first order; groups are described in the order they
        open."""
        self.groups[group_id].stats = stats
        level = len(stats.aliases)
        while len(self.levels) <= level:
            self.levels.append([])
        self.levels[level].append(group_id)

    def insert_tree(self, node: LogicalNode,
                    target_group: Optional[int] = None) -> int:
        """Insert a logical tree, returning the id of its root group.

        Children are inserted recursively (deduplicated); if
        ``target_group`` is given the root expression joins that group
        (a transformation result), otherwise a fresh or existing group
        is used.
        """
        child_ids = tuple(self.insert_tree(child) for child in node.children)
        gexpr, _created = self.insert_expression(node, child_ids, target_group)
        return gexpr.group_id

    def insert_expression(self, node: LogicalNode,
                          child_ids: Tuple[int, ...],
                          target_group: Optional[int]
                          ) -> Tuple[GroupExpression, bool]:
        """Insert one expression; returns (expression, created_flag).

        Duplicate expressions are detected by (payload, child group ids)
        and returned rather than re-created.  When the same expression
        is derived in two different groups, full Cascades would merge
        the groups; we keep the first owner, which is safe because both
        groups are semantically equivalent.
        """
        key = (node.payload(), child_ids)
        existing = self._index.get(key)
        if existing is not None:
            return existing, False
        if target_group is None:
            group = self.new_group()
        else:
            group = self.group(target_group)
        gexpr = GroupExpression(node, child_ids, group.id,
                                self.expression_count)
        group.expressions.append(gexpr)
        self._index[key] = gexpr
        self.expression_count += 1
        return gexpr, True

    def expressions(self) -> List[GroupExpression]:
        """All group expressions (stable order)."""
        return [gexpr for group in self.groups
                for gexpr in group.expressions]
