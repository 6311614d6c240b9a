"""Dynamic-programming tree-covering technology mapper (area-oriented).

The network DAG is partitioned into maximal fanout-free cones (every
multi-fanout node and every primary output is a cone root).  Within each
cone, the classic tree-covering recurrence applies: the best cost at a
node is the minimum over library gates whose pattern tree matches the
local structure, of the gate area plus the best costs of the subtrees at
the pattern leaves.  Matching handles commutativity of AND/OR/XOR by
trying both operand orders.

Only the gates whose pattern root can match the node's kind are tried
(``GateLibrary.by_root``), in library order, so ties go to the gate
listed first.

The mapper is area-only (the paper's comparison metric) and returns both
the total area and the chosen cover for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.techmap.genlib import Gate, GateLibrary
from repro.techmap.network import LogicNetwork


@dataclass
class MappedGate:
    """One chosen library cell: gate, root node id, leaf node ids."""

    gate: Gate
    root: int
    leaves: tuple[int, ...]


@dataclass
class MappingResult:
    """Outcome of mapping a network onto a library."""

    area: float
    gates: list[MappedGate]

    def gate_histogram(self) -> dict[str, int]:
        """Count of instances per cell name."""
        histogram: dict[str, int] = {}
        for mapped in self.gates:
            histogram[mapped.gate.name] = histogram.get(mapped.gate.name, 0) + 1
        return histogram


class MappingError(RuntimeError):
    """No library pattern matches a network node (incomplete library)."""


def _match(
    network: LogicNetwork,
    pattern: tuple,
    node_id: int,
    is_root: bool,
    roots: set[int],
    bindings: list[int],
) -> list[list[int]]:
    """All ways to match ``pattern`` at ``node_id``.

    Returns a list of leaf-binding lists (node ids where pattern
    variables attach).  Internal pattern nodes must not cross cone
    boundaries (non-root multi-fanout nodes).
    """
    kind = pattern[0]
    if kind == "var":
        return [bindings + [node_id]]
    node = network.nodes[node_id]
    if not is_root and node_id in roots:
        return []  # crossing into another cone
    if kind == "const":
        expected = "const1" if pattern[1] else "const0"
        return [bindings] if node.kind == expected else []
    if kind == "not":
        if node.kind != "not":
            return []
        return _match(network, pattern[1], node.fanins[0], False, roots, bindings)
    if kind in ("and", "or", "xor"):
        if node.kind != kind:
            return []
        left_id, right_id = node.fanins
        results = []
        for first, second in ((left_id, right_id), (right_id, left_id)):
            for partial in _match(network, pattern[1], first, False, roots, bindings):
                results.extend(
                    _match(network, pattern[2], second, False, roots, partial)
                )
            if left_id == right_id:
                break  # symmetric operands: avoid duplicate matches
        return results
    raise ValueError(f"bad pattern node {kind!r}")


def map_network_for_area(
    network: LogicNetwork, library: GateLibrary
) -> MappingResult:
    """Map a network onto the library, minimizing total area."""
    fanouts = network.fanout_counts()
    roots = {
        node_id
        for node_id, node in enumerate(network.nodes)
        if node.kind not in ("input",) and fanouts[node_id] > 1
    }
    roots |= set(network.outputs.values())

    best_cost: dict[int, float] = {}
    best_choice: dict[int, MappedGate | None] = {}

    def cost_of_leaf(node_id: int) -> float:
        node = network.nodes[node_id]
        if node.kind == "input":
            return 0.0
        return solve(node_id)

    def solve(node_id: int) -> float:
        cached = best_cost.get(node_id)
        if cached is not None:
            return cached
        node = network.nodes[node_id]
        if node.kind == "input":
            best_cost[node_id] = 0.0
            best_choice[node_id] = None
            return 0.0
        best = float("inf")
        chosen: MappedGate | None = None
        for gate in library.by_root.get(node.kind, ()):
            for leaves in _match(network, gate.pattern, node_id, True, roots, []):
                cost = gate.area + sum(cost_of_leaf(leaf) for leaf in leaves)
                if cost < best:
                    best = cost
                    chosen = MappedGate(gate, node_id, tuple(leaves))
        if chosen is None:
            raise MappingError(
                f"no library gate matches node {node_id} ({node.kind})"
            )
        best_cost[node_id] = best
        best_choice[node_id] = chosen
        return best

    # Total area: each cone root is mapped once; leaf costs below other
    # roots are counted at those roots, so sum roots' *local* gate areas.
    total = 0.0
    gates: list[MappedGate] = []
    visited: set[int] = set()

    def collect(node_id: int) -> None:
        nonlocal total
        if node_id in visited:
            return
        visited.add(node_id)
        node = network.nodes[node_id]
        if node.kind == "input":
            return
        solve(node_id)
        choice = best_choice[node_id]
        stack = [choice]
        while stack:
            mapped = stack.pop()
            if mapped is None:
                continue
            total += mapped.gate.area
            gates.append(mapped)
            for leaf in mapped.leaves:
                leaf_node = network.nodes[leaf]
                if leaf_node.kind == "input":
                    continue
                if leaf in roots:
                    collect(leaf)
                else:
                    stack.append(best_choice.get(leaf) or _solve_into(leaf))

    def _solve_into(node_id: int) -> MappedGate | None:
        solve(node_id)
        return best_choice[node_id]

    for output_root in set(network.outputs.values()):
        collect(output_root)
    return MappingResult(area=total, gates=gates)
