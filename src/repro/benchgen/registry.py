"""Benchmark registry: name → loadable instance for every table row."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.bitset import from_truthtable
from repro.backend.protocol import BooleanManager, choose_backend, make_manager
from repro.benchgen.arithmetic import ARITHMETIC_GENERATORS
from repro.benchgen.paper_data import PAPER_ROWS, PaperRow
from repro.benchgen.synthetic import SYNTHETIC_SPECS, generate_pla
from repro.boolfunc.isf import ISF
from repro.boolfunc.truthtable import TruthTable
from repro.boolfunc.convert import truthtable_to_function


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one benchmark."""

    name: str
    n_inputs: int
    n_outputs: int
    kind: str  # "arithmetic" | "synthetic"
    table: str  # "III" | "IV"


@dataclass
class BenchmarkInstance:
    """A loaded benchmark: one manager and one ISF per output."""

    spec: BenchmarkSpec
    mgr: BooleanManager
    outputs: list[ISF] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Benchmark name."""
        return self.spec.name

    def paper_row(self) -> PaperRow | None:
        """The paper's printed row for this benchmark, if any."""
        return PAPER_ROWS.get(self.spec.name)


def _build_specs() -> dict[str, BenchmarkSpec]:
    specs: dict[str, BenchmarkSpec] = {}
    for name, row in PAPER_ROWS.items():
        kind = "arithmetic" if name in ARITHMETIC_GENERATORS else "synthetic"
        specs[name] = BenchmarkSpec(
            name, row.n_inputs, row.n_outputs, kind, row.table
        )
    return specs


#: All benchmarks of the paper's Tables III and IV.
BENCHMARKS: dict[str, BenchmarkSpec] = _build_specs()


def table_benchmarks(table: str) -> list[BenchmarkSpec]:
    """Specs of the benchmarks in one paper table ("III" or "IV")."""
    return [spec for spec in BENCHMARKS.values() if spec.table == table]


def _load_arithmetic(spec: BenchmarkSpec, backend: str) -> BenchmarkInstance:
    bit_functions, n_vars = ARITHMETIC_GENERATORS[spec.name]()
    if n_vars != spec.n_inputs:
        raise AssertionError(
            f"{spec.name}: generator arity {n_vars} != spec {spec.n_inputs}"
        )
    if len(bit_functions) != spec.n_outputs:
        raise AssertionError(
            f"{spec.name}: generator outputs {len(bit_functions)} != spec"
            f" {spec.n_outputs}"
        )
    mgr = make_manager(backend, [f"x{i + 1}" for i in range(n_vars)])
    tabulate = from_truthtable if backend == "bitset" else truthtable_to_function
    outputs = []
    for bit_function in bit_functions:
        bits = 0
        for minterm in range(1 << n_vars):
            if bit_function(minterm):
                bits |= 1 << minterm
        table = TruthTable(n_vars, bits)
        outputs.append(ISF.completely_specified(tabulate(mgr, table)))
    return BenchmarkInstance(spec, mgr, outputs)


def _load_synthetic(spec: BenchmarkSpec, backend: str) -> BenchmarkInstance:
    pla = generate_pla(SYNTHETIC_SPECS[spec.name])
    mgr = make_manager(backend, pla.input_labels)
    outputs = [
        pla.output_isf(mgr, output) for output in range(pla.n_outputs)
    ]
    return BenchmarkInstance(spec, mgr, outputs)


def load_benchmark(name: str, backend: str = "auto") -> BenchmarkInstance:
    """Load a benchmark by its paper-table name.

    ``backend`` picks the representation its manager is built as, by the
    ingress rule of :func:`~repro.backend.protocol.choose_backend`: under
    ``"auto"`` a row declaring at most ``DEFAULT_BITSET_SUPPORT`` inputs
    is built straight into a :class:`~repro.backend.bitset.BitsetBDD`
    (its support cannot be wider than its declaration), every other row
    into a :class:`~repro.bdd.manager.BDD`.  Results are identical on
    either backend; only speed differs.
    """
    spec = BENCHMARKS.get(name)
    if spec is None:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}")
    # The declaration bounds the support, so the rule is applied before
    # any function is built.
    backend = choose_backend(spec.n_inputs, spec.n_inputs, backend)
    if spec.kind == "arithmetic":
        return _load_arithmetic(spec, backend)
    return _load_synthetic(spec, backend)
