"""Multi-level logic networks built from two-level and 2-SPP forms.

A :class:`LogicNetwork` is a DAG of primitive nodes (``input``,
``const0``, ``const1``, ``not``, and binary ``and``/``or``/``xor``).
Builders construct the natural circuit of an SOP (AND-OR with input
inverters) or of a 2-SPP form (XOR-AND-OR), with wide gates binarized
into *left-deep* chains — the same shape the genlib pattern trees use,
so the tree mapper can recognize multi-input cells (nand3, aoi21, ...).

Construction is *strashed*: structural hashing with commutative operand
normalization plus local constant/complement folding keeps the DAG
non-redundant, so a gate built twice — by different outputs of a
multi-output network, or in either operand order — materializes exactly
once and :meth:`LogicNetwork.gate_count` / the area mapper count shared
logic once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cover.cover import Cover
from repro.spp.spp_cover import SppCover
from repro.utils.bitops import bit_indices


@dataclass(frozen=True)
class Node:
    """A primitive network node; ``fanins`` are node ids."""

    kind: str
    fanins: tuple[int, ...] = ()
    name: str = ""


class LogicNetwork:
    """A DAG of primitive logic nodes with named primary outputs.

    Structural hashing keeps the DAG non-redundant: building the same
    (kind, fanins) node twice returns the same id, so shared input
    inverters and repeated factors are represented once.
    """

    def __init__(self, input_names: list[str] | tuple[str, ...]) -> None:
        self.nodes: list[Node] = []
        self.outputs: dict[str, int] = {}
        self._hash: dict[tuple, int] = {}
        self._inputs: dict[str, int] = {}
        for name in input_names:
            self._inputs[name] = self._add("input", (), name)
        # Input node ids by variable index, for the cover builders.
        self._input_ids = list(self._inputs.values())

    # -- construction ------------------------------------------------------
    def _add(self, kind: str, fanins: tuple[int, ...] = (), name: str = "") -> int:
        """Id of the node ``(kind, fanins, name)``, allocated only if new."""
        key = (kind, fanins, name)
        existing = self._hash.get(key)
        if existing is not None:
            return existing
        node_id = len(self.nodes)
        self.nodes.append(Node(kind, fanins, name))
        self._hash[key] = node_id
        return node_id

    def input_id(self, name: str) -> int:
        """Node id of a primary input."""
        return self._inputs[name]

    def const(self, value: int | bool) -> int:
        """Constant node."""
        return self._add("const1" if value else "const0")

    def negate(self, node_id: int) -> int:
        """NOT node, collapsing double negation."""
        node = self.nodes[node_id]
        if node.kind == "not":
            return node.fanins[0]
        if node.kind == "const0":
            return self.const(1)
        if node.kind == "const1":
            return self.const(0)
        return self._add("not", (node_id,))

    def _complementary(self, left: int, right: int) -> bool:
        """True iff one operand is the NOT of the other."""
        left_node = self.nodes[left]
        right_node = self.nodes[right]
        return (left_node.kind == "not" and left_node.fanins[0] == right) or (
            right_node.kind == "not" and right_node.fanins[0] == left
        )

    def binary(self, kind: str, left: int, right: int) -> int:
        """Binary ``and``/``or``/``xor`` node with local folding.

        Constants, repeated operands (``x op x``), and complementary
        operands (``x op ~x``) fold away; the surviving node is hashed
        with its operands in sorted order, so both operand orders of
        these commutative gates share one node.
        """
        if kind not in ("and", "or", "xor"):
            raise ValueError(f"bad binary kind {kind!r}")
        left_kind = self.nodes[left].kind
        right_kind = self.nodes[right].kind
        if kind == "and":
            if left_kind == "const0" or right_kind == "const0":
                return self.const(0)
            if left_kind == "const1":
                return right
            if right_kind == "const1":
                return left
            if left == right:
                return left
            if self._complementary(left, right):
                return self.const(0)
        elif kind == "or":
            if left_kind == "const1" or right_kind == "const1":
                return self.const(1)
            if left_kind == "const0":
                return right
            if right_kind == "const0":
                return left
            if left == right:
                return left
            if self._complementary(left, right):
                return self.const(1)
        else:
            if left_kind == "const0":
                return right
            if right_kind == "const0":
                return left
            if left_kind == "const1":
                return self.negate(right)
            if right_kind == "const1":
                return self.negate(left)
            if left == right:
                return self.const(0)
            if self._complementary(left, right):
                return self.const(1)
        if left > right:
            left, right = right, left
        return self._add(kind, (left, right))

    def chain(self, kind: str, operands: list[int]) -> int:
        """Left-deep chain of a wide AND/OR/XOR."""
        if not operands:
            return self.const(1 if kind == "and" else 0)
        result = operands[0]
        for operand in operands[1:]:
            result = self.binary(kind, result, operand)
        return result

    def set_output(self, name: str, node_id: int) -> None:
        """Declare a primary output."""
        self.outputs[name] = node_id

    # -- builders -----------------------------------------------------------
    def cover_root(self, cover: Cover) -> int:
        """Root id of the AND-OR circuit of an SOP cover (no output set)."""
        inputs = self._input_ids
        products = []
        for cube in cover.cubes:
            literals = []
            for var in bit_indices(cube.pos):
                literals.append(inputs[var])
            for var in bit_indices(cube.neg):
                literals.append(self.negate(inputs[var]))
            products.append(self.chain("and", literals))
        return self.chain("or", products)

    def add_cover(self, cover: Cover, output_name: str) -> int:
        """Add the AND-OR circuit of an SOP cover; returns the root id."""
        root = self.cover_root(cover)
        self.set_output(output_name, root)
        return root

    def spp_cover_root(self, cover: SppCover) -> int:
        """Root id of the XOR-AND-OR circuit of a 2-SPP cover (no output)."""
        inputs = self._input_ids
        products = []
        for pc in cover.pseudocubes:
            factors = []
            for var in bit_indices(pc.pos):
                factors.append(inputs[var])
            for var in bit_indices(pc.neg):
                factors.append(self.negate(inputs[var]))
            for xor in sorted(pc.xors):
                gate = self.binary("xor", inputs[xor.i], inputs[xor.j])
                factors.append(gate if xor.phase else self.negate(gate))
            products.append(self.chain("and", factors))
        return self.chain("or", products)

    def add_spp_cover(self, cover: SppCover, output_name: str) -> int:
        """Add the XOR-AND-OR circuit of a 2-SPP cover; returns the root id."""
        root = self.spp_cover_root(cover)
        self.set_output(output_name, root)
        return root

    def any_cover_root(self, cover) -> int:
        """Root of either cover flavour (``SppCover`` or plain ``Cover``)."""
        if isinstance(cover, SppCover):
            return self.spp_cover_root(cover)
        if isinstance(cover, Cover):
            return self.cover_root(cover)
        raise TypeError(
            f"cannot instantiate cover of type {type(cover).__name__};"
            " expected SppCover or Cover"
        )

    def operator_root(self, truth_row: tuple, g_root: int, h_root: int) -> int:
        """Combine two roots with a binary operator given by its truth row.

        ``truth_row`` lists the outputs on ``(g, h)`` = (0,0), (0,1),
        (1,0), (1,1) — the :meth:`repro.core.operators.BinaryOperator.truth_row`
        form — and is realized with the cheapest primitive-gate shape.
        """
        row = tuple(bool(bit) for bit in truth_row)
        if row == (False, False, False, True):  # AND
            return self.binary("and", g_root, h_root)
        if row == (False, False, True, True):  # projection to g (degenerate)
            return g_root
        if row == (False, False, True, False):  # g AND NOT h  (6⇒)
            return self.binary("and", g_root, self.negate(h_root))
        if row == (False, True, False, False):  # NOT g AND h  (6⇐)
            return self.binary("and", self.negate(g_root), h_root)
        if row == (True, False, False, False):  # NOR
            return self.negate(self.binary("or", g_root, h_root))
        if row == (False, True, True, True):  # OR
            return self.binary("or", g_root, h_root)
        if row == (True, True, False, True):  # IMPLIES: ~g + h
            return self.binary("or", self.negate(g_root), h_root)
        if row == (True, False, True, True):  # IMPLIED_BY: g + ~h
            return self.binary("or", g_root, self.negate(h_root))
        if row == (True, True, True, False):  # NAND
            return self.negate(self.binary("and", g_root, h_root))
        if row == (False, True, True, False):  # XOR
            return self.binary("xor", g_root, h_root)
        if row == (True, False, False, True):  # XNOR
            return self.negate(self.binary("xor", g_root, h_root))
        raise ValueError(f"unsupported operator row {row}")

    # -- analysis -------------------------------------------------------------
    def evaluate(self, assignment: dict[str, bool]) -> dict[str, bool]:
        """Evaluate all outputs on an input assignment."""
        values: list[bool | None] = [None] * len(self.nodes)
        for node_id, node in enumerate(self.nodes):
            if node.kind == "input":
                values[node_id] = bool(assignment[node.name])
            elif node.kind == "const0":
                values[node_id] = False
            elif node.kind == "const1":
                values[node_id] = True
            elif node.kind == "not":
                values[node_id] = not values[node.fanins[0]]
            elif node.kind == "and":
                values[node_id] = values[node.fanins[0]] and values[node.fanins[1]]
            elif node.kind == "or":
                values[node_id] = values[node.fanins[0]] or values[node.fanins[1]]
            elif node.kind == "xor":
                values[node_id] = values[node.fanins[0]] != values[node.fanins[1]]
            else:
                raise ValueError(f"bad node kind {node.kind!r}")
        return {name: bool(values[node_id]) for name, node_id in self.outputs.items()}

    def fanout_counts(self) -> list[int]:
        """Fanout count per node (outputs add one reference each)."""
        counts = [0] * len(self.nodes)
        for node in self.nodes:
            for fanin in node.fanins:
                counts[fanin] += 1
        for node_id in self.outputs.values():
            counts[node_id] += 1
        return counts

    def gate_count(self) -> int:
        """Number of non-input, non-constant nodes."""
        return sum(
            1
            for node in self.nodes
            if node.kind not in ("input", "const0", "const1")
        )

    def extract_cone(self, output_name: str) -> "LogicNetwork":
        """Copy one output's cone into a fresh single-output network.

        The copy declares the same primary inputs (so areas stay
        comparable) but contains only the logic reachable from the named
        output — the *isolated* realization of that output, duplicating
        anything the source network shared with its siblings.  The walk
        is iterative: left-deep chains make cones as deep as a cover is
        wide.
        """
        root = self.outputs[output_name]
        isolated = LogicNetwork(list(self._inputs))
        mapping: dict[int, int] = {}
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            node_id, emit = stack.pop()
            if node_id in mapping:
                continue
            node = self.nodes[node_id]
            if node.kind == "input":
                mapping[node_id] = isolated.input_id(node.name)
                continue
            if node.kind in ("const0", "const1"):
                mapping[node_id] = isolated.const(node.kind == "const1")
                continue
            if not emit:
                stack.append((node_id, True))
                for fanin in node.fanins:
                    stack.append((fanin, False))
                continue
            fanins = tuple(mapping[fanin] for fanin in node.fanins)
            if node.kind == "not":
                mapping[node_id] = isolated.negate(fanins[0])
            else:
                mapping[node_id] = isolated.binary(node.kind, *fanins)
        isolated.set_output(output_name, mapping[root])
        return isolated
