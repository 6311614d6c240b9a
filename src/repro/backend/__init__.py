"""Function-representation backends behind one protocol.

See :mod:`repro.backend.protocol` for the protocol and the ingress
rule that picks a backend once per manager, :mod:`repro.backend.bitset`
for the dense truth-table backend.
Cross-backend conversion rides on the canonical serializer
(:mod:`repro.bdd.serialize`), which reads and writes both
representations with byte-identical payloads.
"""

from repro.backend.bitset import (
    MAX_BITSET_VARS,
    BitsetBDD,
    BitsetFunction,
    from_truthtable,
    to_truthtable,
)
from repro.backend.protocol import (
    BACKENDS,
    DEFAULT_BITSET_MAX_VARS,
    DEFAULT_BITSET_SUPPORT,
    BooleanFunction,
    BooleanManager,
    backend_of,
    choose_backend,
    make_manager,
    support_size,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BITSET_MAX_VARS",
    "DEFAULT_BITSET_SUPPORT",
    "MAX_BITSET_VARS",
    "BitsetBDD",
    "BitsetFunction",
    "BooleanFunction",
    "BooleanManager",
    "backend_of",
    "choose_backend",
    "from_truthtable",
    "make_manager",
    "support_size",
    "to_truthtable",
]
