"""Type-based enforcement of DAG ownership (§3, "Type-based enforcement").

The paper runs a single pass over contextclass declarations collecting,
for each contextclass ``C0`` that can reference ``C1``, the constraint
``C1 <= C0``, and rejects programs whose constraint graph is cyclic —
except for reflexive edges (``C <= C``), which are allowed to support
inductive data structures (linked lists, trees) at the price of a runtime
DAG check on every ownership mutation.

Here the declarations are Python classes with :class:`~repro.core.context.Ref`
/ :class:`~repro.core.context.RefSet` descriptors; registration collects
the same constraints and :meth:`StaticAnalysis.check` enforces acyclicity.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .errors import StaticAnalysisError

__all__ = ["StaticAnalysis"]

# Depth-first search colours of :meth:`StaticAnalysis._find_cycle`.
_WHITE, _GRAY, _BLACK = 0, 1, 2


class StaticAnalysis:
    """Collects and checks the contextclass constraint graph."""

    def __init__(self) -> None:
        # owner type -> set of referenced (owned) types
        self._refs: Dict[str, Set[str]] = {}
        self._checked_epoch = -1
        self._epoch = 0

    def register(self, owner_type: str, referenced_types: Set[str]) -> None:
        """Record that ``owner_type`` declares refs to ``referenced_types``."""
        known = self._refs.setdefault(owner_type, set())
        if not referenced_types <= known:
            known |= referenced_types
            self._epoch += 1

    def registered_types(self) -> List[str]:
        """All contextclass type names seen so far."""
        return sorted(self._refs)

    def recursive_types(self) -> Set[str]:
        """Types with a reflexive constraint (inductive structures).

        These are legal but force runtime cycle checks on ownership
        mutations (which :class:`repro.core.ownership.OwnershipNetwork`
        performs unconditionally in this implementation).
        """
        return {t for t, refs in self._refs.items() if t in refs}

    def check(self) -> None:
        """Verify the constraint graph is acyclic modulo self-loops.

        Raises :class:`StaticAnalysisError` naming the offending cycle.
        Results are memoized per registration epoch.
        """
        if self._checked_epoch == self._epoch:
            return
        cycle = self._find_cycle()
        if cycle is not None:
            raise StaticAnalysisError(
                "contextclass ownership constraints are cyclic: "
                + " <= ".join(reversed(cycle))
            )
        self._checked_epoch = self._epoch

    def _find_cycle(self) -> "List[str] | None":
        """Return a non-reflexive cycle in the type graph, if any."""
        color = {t: _WHITE for t in self._refs}
        stack: List[str] = []
        for start in sorted(self._refs):
            if color.get(start, _WHITE) == _WHITE:
                found = self._visit(start, color, stack)
                if found is not None:
                    return found
        return None

    def _visit(
        self, node: str, color: Dict[str, int], stack: List[str]
    ) -> "List[str] | None":
        # A method, not a closure of _find_cycle: a nested function that
        # calls itself is a reference cycle left behind by every check.
        color[node] = _GRAY
        stack.append(node)
        for nxt in sorted(self._refs.get(node, ())):
            if nxt == node:
                continue  # reflexive edges are allowed
            if nxt not in color:
                color[nxt] = _WHITE
            if color[nxt] == _GRAY:
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == _WHITE:
                found = self._visit(nxt, color, stack)
                if found is not None:
                    return found
        stack.pop()
        color[node] = _BLACK
        return None
