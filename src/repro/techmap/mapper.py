"""Dynamic-programming tree-covering technology mapper (area-oriented).

The network DAG is partitioned into maximal fanout-free cones (every
multi-fanout node and every primary output is a cone root).  Within each
cone, the classic tree-covering recurrence applies: the best cost at a
node is the minimum over library gates whose pattern tree matches the
local structure, of the gate area plus the best costs of the subtrees at
the pattern leaves.  Ties go to the match found first: the gates whose
pattern root can match the node's kind (``GateLibrary.by_root``) are
tried in library order, and each gate's matches in the order described
below.

**Compiled patterns.**  Each distinct pattern tree is compiled once, on
first use, into a Python function over four flat arrays the mapper
builds per network: node kind, fanin 0, fanin 1, and "not a cone root"
(an internal pattern node must not cross into another cone).  The
function returns every leaf tuple of the pattern at a node, in the
order of a depth-first, left-to-right match: the operands of a
commutative node are tried as stored, then swapped.

**Swaps that only permute leaves are skipped.**  When both sides of a
commutative pattern node have the same shape (and2, or2, xor2; the inner
pair of and3, nand3, aoi21, oai21, ...; both halves of aoi22 and oai22),
the swapped order binds the same network nodes as the stored order, with
the two sides' leaves exchanged.  Its cost is the same sum of the same
leaf costs, and it is found after its twin, so the strictly-cheaper rule
never picks it: skipping it changes neither the cover nor the area.  The
sums are exact for integer areas, as in every library shipped here; with
fractional areas only the leaf order inside one gate could differ.

**Two flat passes.**  A node is stored after its fanins.  The descending
pass marks the nodes a cover may use -- the outputs, then every leaf of
every match at a marked node -- and records those matches; a marked node
with no match raises :class:`MappingError`.  So a node no match can use
as a leaf (the AND under a NAND, say) is never costed, and an
incomplete library fails only where a cover would need the missing gate.
The ascending pass then costs each marked node from its leaves.  The
cover is collected from each output root, depth first, as in the
recursive formulation.

The mapper is area-only (the paper's comparison metric) and returns both
the total area and the chosen cover for inspection.  A call's tables are
locals, and the cached matchers refer to nothing of a network, so a call
leaves no reference cycle behind.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

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


#: ``match(node, kinds, fanin0, fanin1, inner) -> list of leaf tuples``.
Matcher = Callable[[int, list, list, list, list], list]


def _shape(pattern: tuple) -> tuple:
    """``pattern`` with its variable names erased."""
    if pattern[0] == "var":
        return ("var",)
    return (pattern[0],) + tuple(
        _shape(child) if isinstance(child, tuple) else child for child in pattern[1:]
    )


@functools.cache
def _compile(pattern: tuple) -> Matcher:
    """Generate the matcher of one pattern tree (see the module docstring),
    once per distinct pattern.

    ``aoi21``, ``!(a*b + c)``, becomes::

        def match(n0, kinds, fanin0, fanin1, inner):
            found = []
            if kinds[n0] == 'not':
                n1 = fanin0[n0]
                if inner[n1] and kinds[n1] == 'or':
                    a2 = fanin0[n1]
                    b2 = fanin1[n1]
                    for n3, n4 in ((a2, b2), (b2, a2)):
                        if inner[n3] and kinds[n3] == 'and':
                            n5 = fanin0[n3]
                            n6 = fanin1[n3]
                            found.append((n5, n6, n4))
                        if a2 == b2:
                            break
            return found
    """
    lines = ["def match(n0, kinds, fanin0, fanin1, inner):", "    found = []"]
    _emit([(pattern, "n0", True)], [], 1, lines, itertools.count(1))
    lines.append("    return found")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    # Keep the function, not the namespace that would refer back to it.
    return namespace.pop("match")


def _emit(
    goals: list[tuple[tuple, str, bool]],
    leaves: list[str],
    depth: int,
    lines: list[str],
    numbers: Iterator[int],
) -> None:
    """Append the code that matches ``goals`` -- (pattern, node variable,
    is the cone root) triples, in leaf order -- nesting one level per
    check, and records a leaf tuple once every goal has matched."""
    pad = "    " * depth
    if not goals:
        comma = "," if len(leaves) == 1 else ""
        lines.append(f"{pad}found.append(({', '.join(leaves)}{comma}))")
        return
    (pattern, var, is_root), rest = goals[0], goals[1:]
    kind = pattern[0]
    if kind == "var":
        _emit(rest, leaves + [var], depth, lines, numbers)
        return
    if kind == "const":
        kind = "const1" if pattern[1] else "const0"
    elif kind not in ("not", "and", "or", "xor"):
        raise ValueError(f"bad pattern node {kind!r}")
    crossing = "" if is_root else f"inner[{var}] and "
    lines.append(f"{pad}if {crossing}kinds[{var}] == {kind!r}:")
    pad += "    "
    if kind in ("const0", "const1"):
        _emit(rest, leaves, depth + 1, lines, numbers)
    elif kind == "not":
        child = f"n{next(numbers)}"
        lines.append(f"{pad}{child} = fanin0[{var}]")
        _emit([(pattern[1], child, False)] + rest, leaves, depth + 1, lines, numbers)
    elif _shape(pattern[1]) == _shape(pattern[2]):
        # Same shape on both sides: the stored order only.
        first, second = f"n{next(numbers)}", f"n{next(numbers)}"
        lines.append(f"{pad}{first} = fanin0[{var}]")
        lines.append(f"{pad}{second} = fanin1[{var}]")
        goals = [(pattern[1], first, False), (pattern[2], second, False)]
        _emit(goals + rest, leaves, depth + 1, lines, numbers)
    else:
        index = next(numbers)
        stored, other = f"a{index}", f"b{index}"
        first, second = f"n{next(numbers)}", f"n{next(numbers)}"
        lines.append(f"{pad}{stored} = fanin0[{var}]")
        lines.append(f"{pad}{other} = fanin1[{var}]")
        lines.append(
            f"{pad}for {first}, {second} in (({stored}, {other}), ({other}, {stored})):"
        )
        goals = [(pattern[1], first, False), (pattern[2], second, False)]
        _emit(goals + rest, leaves, depth + 2, lines, numbers)
        lines.append(f"{pad}    if {stored} == {other}:")
        lines.append(f"{pad}        break")


def map_network_for_area(
    network: LogicNetwork, library: GateLibrary
) -> MappingResult:
    """Map a network onto the library, minimizing total area."""
    nodes = network.nodes
    kinds = [node.kind for node in nodes]
    fanin0 = [node.fanins[0] if node.fanins else -1 for node in nodes]
    fanin1 = [node.fanins[1] if len(node.fanins) > 1 else -1 for node in nodes]
    inner = [count < 2 for count in network.fanout_counts()]
    for root in network.outputs.values():
        inner[root] = False
    matched = _match_marked(network, library, kinds, fanin0, fanin1, inner)
    choice = _cheapest(len(nodes), matched)
    return _collect(network, kinds, inner, choice)


def _match_marked(network, library, kinds, fanin0, fanin1, inner) -> list:
    """The descending pass: ``(node, [gate, leaves, gate, leaves, ...])``
    for each node a cover may use -- an output or a leaf of a match at
    such a node -- in descending node order.  Each match adds its gate
    and its leaf tuple to the node's flat list in turn, so it allocates
    no pair of its own."""
    candidates = {
        kind: [(gate, _compile(gate.pattern)) for gate in gates]
        for kind, gates in library.by_root.items()
    }
    marked = bytearray(len(kinds))
    for root in network.outputs.values():
        marked[root] = 1
    matched = []
    for node in range(len(kinds) - 1, -1, -1):
        kind = kinds[node]
        if not marked[node] or kind == "input":
            continue
        found = []
        for gate, match in candidates.get(kind, ()):
            for leaves in match(node, kinds, fanin0, fanin1, inner):
                found.append(gate)
                found.append(leaves)
                for leaf in leaves:
                    marked[leaf] = 1
        if not found:
            raise MappingError(f"no library gate matches node {node} ({kind})")
        matched.append((node, found))
    return matched


def _cheapest(n_nodes: int, matched: list) -> list:
    """The ascending pass: the first strictly cheapest ``(gate, leaves)``
    at each matched node (``None`` elsewhere).  Inputs cost nothing."""
    cost = [0.0] * n_nodes
    choice: list[tuple[Gate, tuple[int, ...]] | None] = [None] * n_nodes
    for node, found in reversed(matched):
        best = float("inf")
        pairs = iter(found)
        for gate, leaves in zip(pairs, pairs):
            total = gate.area + sum(map(cost.__getitem__, leaves))
            if total < best:
                best, best_gate, best_leaves = total, gate, leaves
        cost[node] = best
        choice[node] = (best_gate, best_leaves)
    return choice


def _collect(network, kinds, inner, choice) -> MappingResult:
    """The cover: from each output root, its cone's gates in stack order,
    entering a cone root below as soon as a gate names it as a leaf."""
    area = 0.0
    gates: list[MappedGate] = []
    visited = bytearray(len(kinds))
    for output_root in set(network.outputs.values()):
        if visited[output_root]:
            continue
        visited[output_root] = 1
        if kinds[output_root] == "input":
            continue
        # Each frame: the roots of its cone's pending gates, and the
        # leaves of the gate it emitted last with the next one's index.
        frames = [[[output_root], (), 0]]
        while frames:
            frame = frames[-1]
            pending, leaves, index = frame
            if index < len(leaves):
                frame[2] = index + 1
                leaf = leaves[index]
                if kinds[leaf] == "input":
                    continue
                if inner[leaf]:
                    pending.append(leaf)
                elif not visited[leaf]:
                    visited[leaf] = 1
                    frames.append([[leaf], (), 0])
                continue
            if not pending:
                frames.pop()
                continue
            node = pending.pop()
            gate, leaves = choice[node]
            area += gate.area
            gates.append(MappedGate(gate, node, leaves))
            frame[1] = leaves
            frame[2] = 0
    return MappingResult(area=area, gates=gates)
