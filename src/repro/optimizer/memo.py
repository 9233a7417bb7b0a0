"""The memo: deduplicated store of plan alternatives.

Groups hold semantically-equivalent expressions; group expressions
reference children *by group id*, so one stored subtree is shared by
every alternative that uses it.  The memo also keeps the byte
accounting the paper's mechanism depends on: every group and group
expression has a simulated footprint, and
:attr:`Memo.bytes_used` is what the compilation pipeline charges to the
task's memory account as search proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.plans.logical import LogicalNode
from repro.units import KiB

#: simulated footprint of one group (header, context, properties)
GROUP_BYTES = 64 * KiB
#: simulated footprint of one group expression (operator + rule state)
GEXPR_BYTES = 24 * KiB


@dataclass(slots=True)
class GroupExpression:
    """One logical operator with children resolved to group ids."""

    node: LogicalNode
    children: Tuple[int, ...]
    group_id: int = -1
    #: for a join, its condition split into ``(build keys, probe keys,
    #: residual)`` against the child groups' alias sets; set by whoever
    #: creates the expression
    split: Optional[tuple] = None


@dataclass(slots=True)
class GroupStats:
    """Estimated statistical properties shared by a whole group."""

    rows: float = 0.0
    #: bytes per output row
    width: float = 0.0
    aliases: FrozenSet[str] = frozenset()
    #: ``rows * width``; a group's statistics never change once derived
    bytes: float = field(init=False)

    def __post_init__(self):
        self.bytes = self.rows * self.width


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
    """All groups of one optimization, with duplicate detection."""

    def __init__(self):
        self.groups: List[Group] = []
        self._index: Dict[tuple, GroupExpression] = {}
        #: expressions held, whether inserted here (and indexed) or
        #: replayed from a shape's exploration trace (not indexed)
        self.expression_count = 0
        #: extra simulated bytes charged beyond group/expression costs
        #: (query tree, binding structures); set by the optimizer
        self.base_bytes = 0
        #: scales the simulated footprint (lets low-effort searches keep
        #: a full-effort memory profile in scaled-down experiments)
        self.byte_multiplier = 1.0

    # -- accounting ------------------------------------------------------------
    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def bytes_used(self) -> int:
        """Simulated memory footprint of the whole memo."""
        structural = (len(self.groups) * GROUP_BYTES
                      + self.expression_count * GEXPR_BYTES)
        return self.base_bytes + int(structural * self.byte_multiplier)

    # -- construction ------------------------------------------------------------
    def new_group(self) -> Group:
        group = Group(len(self.groups))
        self.groups.append(group)
        return group

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

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
        gexpr = GroupExpression(node=node, children=child_ids,
                                group_id=group.id)
        group.expressions.append(gexpr)
        self._index[key] = gexpr
        self.expression_count += 1
        return gexpr, True

    def expressions(self) -> List[GroupExpression]:
        """All group expressions (stable order)."""
        return [gexpr for group in self.groups
                for gexpr in group.expressions]
