"""Tests for the DP tree-covering technology mapper.

:class:`ReferenceMapper` below is the recursive formulation the compiled
mapper replaced: every operand order of every pattern at every node,
costed on demand.  The mapper must return its area and cover exactly.
"""

import gc
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.bitset import BitsetBDD
from repro.bdd.ops import isop
from repro.benchgen import load_benchmark
from repro.cover.cover import Cover
from repro.harness.experiment import DEFAULT_OPERATORS, run_benchmark
from repro.spp.pseudocube import Pseudocube, make_xor_factor
from repro.spp.spp_cover import SppCover
from repro.techmap import area as techmap_area
from repro.techmap.area import (
    area_of_bidecomposition,
    area_of_covers,
    area_of_spp_covers,
    isolated_area_of_bidecomposition,
    isolated_area_of_spp_covers,
    map_network,
)
from repro.techmap.genlib import GateLibrary, parse_genlib
from repro.techmap.library_data import default_library
from repro.techmap.mapper import (
    MappedGate,
    MappingError,
    MappingResult,
    _compile,
    map_network_for_area,
)
from repro.techmap.network import LogicNetwork


def test_single_gates_map_to_themselves():
    library = default_library()
    cases = [
        ("and", "and2"),
        ("or", "or2"),
        ("xor", "xor2"),
    ]
    for kind, gate_name in cases:
        net = LogicNetwork(["a", "b"])
        net.set_output("f", net.binary(kind, net.input_id("a"), net.input_id("b")))
        result = map_network_for_area(net, library)
        assert result.area == library[gate_name].area
        assert result.gate_histogram() == {gate_name: 1}


def test_nand_is_cheaper_than_and_plus_inv():
    library = default_library()
    net = LogicNetwork(["a", "b"])
    net.set_output(
        "f",
        net.negate(net.binary("and", net.input_id("a"), net.input_id("b"))),
    )
    result = map_network_for_area(net, library)
    assert result.gate_histogram() == {"nand2": 1}
    assert result.area == library["nand2"].area


def test_nand3_chain_recognized():
    library = default_library()
    net = LogicNetwork(["a", "b", "c"])
    inner = net.binary("and", net.input_id("a"), net.input_id("b"))
    net.set_output("f", net.negate(net.binary("and", inner, net.input_id("c"))))
    result = map_network_for_area(net, library)
    assert result.gate_histogram() == {"nand3": 1}


def test_xnor_recognized():
    library = default_library()
    net = LogicNetwork(["a", "b"])
    net.set_output(
        "f",
        net.negate(net.binary("xor", net.input_id("a"), net.input_id("b"))),
    )
    result = map_network_for_area(net, library)
    assert result.gate_histogram() == {"xnor2": 1}


def test_aoi21_recognized():
    library = default_library()
    net = LogicNetwork(["a", "b", "c"])
    inner = net.binary("and", net.input_id("a"), net.input_id("b"))
    net.set_output("f", net.negate(net.binary("or", inner, net.input_id("c"))))
    result = map_network_for_area(net, library)
    assert result.area == library["aoi21"].area


def test_multi_fanout_breaks_cones():
    # shared = a & b feeds two outputs: its gate is counted once.
    library = default_library()
    net = LogicNetwork(["a", "b", "c"])
    shared = net.binary("and", net.input_id("a"), net.input_id("b"))
    net.set_output("f", net.binary("or", shared, net.input_id("c")))
    net.set_output("g", net.binary("xor", shared, net.input_id("c")))
    result = map_network_for_area(net, library)
    histogram = result.gate_histogram()
    assert histogram["and2"] == 1
    assert result.area == (
        library["and2"].area + library["or2"].area + library["xor2"].area
    )


def test_constant_outputs_are_free():
    library = default_library()
    net = LogicNetwork(["a"])
    net.set_output("f", net.const(0))
    result = map_network_for_area(net, library)
    assert result.area == 0.0


def test_incomplete_library_raises():
    tiny = parse_genlib("GATE inv 1.0 O=!a;\n")
    net = LogicNetwork(["a", "b"])
    net.set_output("f", net.binary("and", net.input_id("a"), net.input_id("b")))
    with pytest.raises(MappingError):
        map_network_for_area(net, tiny)


def test_mapping_is_functionally_consistent():
    """Mapped gate functions, composed over the chosen cover, reproduce
    each cone's logic (spot check on a nontrivial network)."""
    library = default_library()
    net = LogicNetwork(["a", "b", "c", "d"])
    expr = net.binary(
        "or",
        net.binary("and", net.input_id("a"), net.negate(net.input_id("b"))),
        net.binary("xor", net.input_id("c"), net.input_id("d")),
    )
    net.set_output("f", expr)
    result = map_network_for_area(net, library)
    assert result.area > 0
    # Every chosen gate root lies in the network.
    for mapped in result.gates:
        assert 0 <= mapped.root < len(net.nodes)


def test_area_of_covers_and_spp():
    cover = Cover.from_strings(["11--", "--11"])
    names = ("x1", "x2", "x3", "x4")
    sop_area = area_of_covers([cover], names)
    pc = Pseudocube(4, xors=frozenset({make_xor_factor(0, 1, 1)}))
    spp_area = area_of_spp_covers([SppCover(4, [pc])], names)
    assert sop_area > 0
    assert spp_area == default_library()["xor2"].area


def test_area_of_bidecomposition_all_operators():
    names = ("x1", "x2", "x3", "x4")
    g_cover = SppCover(4, [Pseudocube(4, pos=0b0001)])
    h_cover = SppCover(4, [Pseudocube(4, pos=0b0010)])
    from repro.core.operators import OPERATORS

    for name in OPERATORS:
        area = area_of_bidecomposition([(g_cover, h_cover)], name, names)
        assert area > 0, name


def test_map_network_default_library():
    net = LogicNetwork(["a", "b"])
    net.set_output("f", net.binary("and", net.input_id("a"), net.input_id("b")))
    assert map_network(net).area == default_library()["and2"].area


# ---------------------------------------------------------------------------
# The harness's networks (z4): sharing never costs area
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def z4_run():
    """z4's harness row and every network its areas mapped."""
    networks = []
    original = techmap_area.map_network

    def recording(network, library=None):
        networks.append(network)
        return original(network, library)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(techmap_area, "map_network", recording)
        row = run_benchmark("z4", keep_artifacts=True)
    return row, networks


def test_harness_maps_each_row_once(z4_run):
    # f, g, and the bi-decomposition under each operator.
    _, networks = z4_run
    assert len(networks) == 2 + len(DEFAULT_OPERATORS)


def test_shared_network_never_costs_more_than_isolated_outputs(z4_run):
    """One multi-output network counts a shared gate once, so it never
    maps to more area than the sum of its outputs mapped alone."""
    row, _ = z4_run
    names = row.artifacts[0].f.mgr.var_names
    f_covers = [artifacts.f_cover for artifacts in row.artifacts]
    shared = area_of_spp_covers(f_covers, names)
    assert shared == row.area_f
    assert shared <= isolated_area_of_spp_covers(f_covers, names)
    for op_name in DEFAULT_OPERATORS:
        pairs = [(a.g_cover, a.h_covers[op_name]) for a in row.artifacts]
        shared = area_of_bidecomposition(pairs, op_name, names)
        assert shared == row.op_areas[op_name]
        assert shared <= isolated_area_of_bidecomposition(pairs, op_name, names)


# ---------------------------------------------------------------------------
# The root-kind index against trying every gate at every node
# ---------------------------------------------------------------------------

NODE_KINDS = ("and", "or", "xor", "not", "const0", "const1")


def every_gate_library(library: GateLibrary) -> GateLibrary:
    """``library`` with every non-buffer gate listed under every node
    kind: the mapper then tries each gate at each node, and the compiled
    matchers reject those whose root cannot match."""
    everything = GateLibrary(list(library))
    logic = [gate for gate in library if gate.pattern[0] != "var"]
    everything.by_root = {kind: logic for kind in NODE_KINDS}
    return everything


def assert_index_matches_every_gate_loop(network, library):
    def signature(result):
        return result.area, [(m.gate.name, m.root, m.leaves) for m in result.gates]

    indexed = map_network_for_area(network, library)
    exhaustive = map_network_for_area(network, every_gate_library(library))
    assert signature(indexed) == signature(exhaustive)


@st.composite
def shared_networks(draw):
    """Random networks built through ``binary``/``negate`` (so folding
    and constants occur), with 1-3 outputs drawn from one node pool."""
    n_inputs = draw(st.integers(2, 6))
    network = LogicNetwork([f"x{i}" for i in range(n_inputs)])
    pool = [network.input_id(f"x{i}") for i in range(n_inputs)]
    if draw(st.booleans()):
        pool += [network.const(0), network.const(1)]
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("and", "or", "xor", "not")))
        left = pool[draw(st.integers(0, len(pool) - 1))]
        if kind == "not":
            pool.append(network.negate(left))
        else:
            right = pool[draw(st.integers(0, len(pool) - 1))]
            pool.append(network.binary(kind, left, right))
    for index in range(draw(st.integers(1, 3))):
        network.set_output(f"f{index}", pool[draw(st.integers(0, len(pool) - 1))])
    return network


@settings(max_examples=200, deadline=None)
@given(network=shared_networks())
def test_index_maps_like_every_gate_loop(network):
    assert_index_matches_every_gate_loop(network, default_library())


#: Every default gate and a twin of equal pattern and area, so that any
#: match ties and the gate listed first must win.
TWINNED_GATES = list(default_library()) + [
    replace(gate, name=f"{gate.name}_twin") for gate in default_library()
]


@settings(max_examples=100, deadline=None)
@given(network=shared_networks(), gates=st.permutations(TWINNED_GATES))
def test_index_maps_like_every_gate_loop_in_shuffled_library(network, gates):
    assert_index_matches_every_gate_loop(network, GateLibrary(gates))


def test_mapping_and_bitset_isop_leave_no_reference_cycles(z4_run):
    """Both free their tables by reference counting when they return: with
    the cyclic collector off, a call leaves it nothing to collect."""
    _, networks = z4_run
    library = default_library()
    mgr = BitsetBDD([f"x{i}" for i in range(6)])
    x = [mgr.var_at(i) for i in range(6)]
    lower = (x[0] & x[1]) | (x[2] ^ x[3])
    upper = lower | (x[4] & ~x[5])
    gc.collect()
    gc.disable()
    try:
        result = map_network_for_area(networks[-1], library)
        cubes, realized = isop(lower, upper)
        assert result.area > 0 and cubes and lower <= realized <= upper
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["z4", "add6"])
def test_bitset_row_leaves_no_reference_cycles(name):
    """A whole harness row on a bitset manager is freed by reference
    counting once it is dropped: the manager holds masks, not handles
    that point back at it."""
    gc.collect()
    gc.disable()
    try:
        instance = load_benchmark(name)
        assert isinstance(instance.mgr, BitsetBDD)
        row = run_benchmark(instance)
        assert row.area_f > 0
        del instance, row
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_index_maps_z4_harness_networks_like_every_gate_loop(z4_run):
    _, networks = z4_run
    shuffled = random.Random(16).sample(TWINNED_GATES, len(TWINNED_GATES))
    for network in networks:
        for library in (default_library(), GateLibrary(shuffled)):
            assert_index_matches_every_gate_loop(network, library)


# ---------------------------------------------------------------------------
# The recursive reference mapper: the compiled mapper must agree exactly
# ---------------------------------------------------------------------------


def reference_match(network, pattern, node_id, is_root, roots, bindings):
    """All leaf bindings of ``pattern`` at ``node_id``, trying both operand
    orders of every commutative node; internal pattern nodes must not
    cross into another cone."""
    kind = pattern[0]
    if kind == "var":
        return [bindings + [node_id]]
    node = network.nodes[node_id]
    if not is_root and node_id in roots:
        return []
    if kind == "const":
        expected = "const1" if pattern[1] else "const0"
        return [bindings] if node.kind == expected else []
    if kind == "not":
        if node.kind != "not":
            return []
        return reference_match(network, pattern[1], node.fanins[0], False, roots, bindings)
    if node.kind != kind:
        return []
    left_id, right_id = node.fanins
    results = []
    for first, second in ((left_id, right_id), (right_id, left_id)):
        for partial in reference_match(network, pattern[1], first, False, roots, bindings):
            results.extend(reference_match(network, pattern[2], second, False, roots, partial))
        if left_id == right_id:
            break
    return results


class ReferenceMapper:
    """Area mapping by memoized recursion: ``solve`` costs a node on
    demand, from every match of every gate indexed under its kind."""

    def __init__(self, network: LogicNetwork, library: GateLibrary) -> None:
        self.network = network
        self.library = library
        fanouts = network.fanout_counts()
        self.roots = {
            node_id
            for node_id, node in enumerate(network.nodes)
            if node.kind != "input" and fanouts[node_id] > 1
        } | set(network.outputs.values())
        self.best_cost: dict[int, float] = {}
        self.best_choice: dict[int, MappedGate | None] = {}
        self.total = 0.0
        self.gates: list[MappedGate] = []
        self.visited: set[int] = set()

    def run(self) -> MappingResult:
        for output_root in set(self.network.outputs.values()):
            self.collect(output_root)
        return MappingResult(area=self.total, gates=self.gates)

    def cost_of_leaf(self, node_id: int) -> float:
        if self.network.nodes[node_id].kind == "input":
            return 0.0
        return self.solve(node_id)

    def solve(self, node_id: int) -> float:
        if node_id in self.best_cost:
            return self.best_cost[node_id]
        node = self.network.nodes[node_id]
        best = float("inf")
        chosen = None
        for gate in self.library.by_root.get(node.kind, ()):
            for leaves in reference_match(
                self.network, gate.pattern, node_id, True, self.roots, []
            ):
                cost = gate.area + sum(self.cost_of_leaf(leaf) for leaf in leaves)
                if cost < best:
                    best = cost
                    chosen = MappedGate(gate, node_id, tuple(leaves))
        if chosen is None:
            raise MappingError(f"no library gate matches node {node_id} ({node.kind})")
        self.best_cost[node_id] = best
        self.best_choice[node_id] = chosen
        return best

    def collect(self, node_id: int) -> None:
        if node_id in self.visited:
            return
        self.visited.add(node_id)
        nodes = self.network.nodes
        if nodes[node_id].kind == "input":
            return
        self.solve(node_id)
        stack = [self.best_choice[node_id]]
        while stack:
            mapped = stack.pop()
            self.total += mapped.gate.area
            self.gates.append(mapped)
            for leaf in mapped.leaves:
                if nodes[leaf].kind == "input":
                    continue
                if leaf in self.roots:
                    self.collect(leaf)
                else:
                    self.solve(leaf)
                    stack.append(self.best_choice[leaf])


#: Two incomplete libraries: a node kind or shape they cannot cover
#: raises, but only if a cover would need it.
NAND_INV_CONST = parse_genlib(
    "GATE nand2 2.0 O=!(a*b);\nGATE inv1 1.0 O=!a;\n"
    "GATE zero 0.0 O=CONST0;\nGATE one 0.0 O=CONST1;\n"
)
NAND_NOR_XNOR_AOI = parse_genlib(
    "GATE nand2 2.0 O=!(a*b);\nGATE nor2 2.0 O=!(a+b);\n"
    "GATE xnor2 5.0 O=!(a^b);\nGATE aoi21 3.0 O=!(a*b+c);\n"
)


def assert_maps_like_reference(network, library):
    def signature(result):
        return result.area, [(m.gate.name, m.root, m.leaves) for m in result.gates]

    try:
        expected = signature(ReferenceMapper(network, library).run())
    except MappingError:
        with pytest.raises(MappingError):
            map_network_for_area(network, library)
        return
    assert signature(map_network_for_area(network, library)) == expected


@settings(max_examples=200, deadline=None)
@given(network=shared_networks())
def test_maps_like_reference(network):
    for library in (default_library(), NAND_INV_CONST, NAND_NOR_XNOR_AOI):
        assert_maps_like_reference(network, library)


@settings(max_examples=100, deadline=None)
@given(network=shared_networks(), gates=st.permutations(TWINNED_GATES))
def test_maps_like_reference_in_shuffled_library(network, gates):
    assert_maps_like_reference(network, GateLibrary(gates))


def harness_networks(name: str) -> list[LogicNetwork]:
    """Every network the harness maps for one row."""
    networks = []
    original = techmap_area.map_network

    def recording(network, library=None):
        networks.append(network)
        return original(network, library)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(techmap_area, "map_network", recording)
        run_benchmark(name)
    return networks


def test_maps_harness_networks_like_reference(z4_run):
    _, networks = z4_run
    networks = networks + harness_networks("spla")
    assert len(networks) == 2 * (2 + len(DEFAULT_OPERATORS))
    shuffled = GateLibrary(random.Random(25).sample(TWINNED_GATES, len(TWINNED_GATES)))
    for network in networks:
        for library in (default_library(), shuffled):
            assert_maps_like_reference(network, library)


def test_nand_only_library_never_costs_the_and_under_a_nand():
    """The AND of ``NOT(AND(a, b))`` is no leaf of any match, so it is
    never costed, though no nand2-only pattern matches it alone."""
    nand_only = parse_genlib("GATE nand2 2.0 O=!(a*b);\n")
    net = LogicNetwork(["a", "b"])
    conjunction = net.binary("and", net.input_id("a"), net.input_id("b"))
    net.set_output("f", net.negate(conjunction))
    result = map_network_for_area(net, nand_only)
    assert result.gate_histogram() == {"nand2": 1} and result.area == 2.0
    net.set_output("g", conjunction)
    with pytest.raises(MappingError):
        map_network_for_area(net, nand_only)


def test_compiled_matchers_leave_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        matchers = [_compile.__wrapped__(gate.pattern) for gate in default_library()]
        assert all(callable(matcher) for matcher in matchers)
        del matchers
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rebound_area_entry_points_stay_callable():
    """A benchmark tracer rebinds these ``repro.techmap.area`` names by
    name; renaming or moving one breaks its traced runs."""
    for name in (
        "map_network",
        "area_of_covers",
        "area_of_spp_covers",
        "area_of_bidecomposition",
        "isolated_area_of_spp_covers",
        "isolated_area_of_bidecomposition",
    ):
        entry = getattr(techmap_area, name)
        assert callable(entry) and entry.__module__ == "repro.techmap.area", name
