"""Output checks that do not trust the program's own verification.

Functions arrive as ``repro-bdd/1`` dumps, covers as wire cover
payloads, networks as ``repro-network`` payloads.  Each is evaluated
here, bit-parallel over a seeded sample of minterms (bit ``k`` of a
value is the function at sample ``k``), so ``g op h = f`` on f's care
set is checked from the payloads alone.  Fingerprints hash payloads
with the informational channels stripped.
"""

from __future__ import annotations

import hashlib
import json
import random

#: Minterms sampled per checked function.
SAMPLES = 256

#: Truth tables ``(g, h) -> f`` of the ten Table I operators, written
#: out here rather than imported so the check stays independent.
OPERATORS = {
    "AND": lambda g, h, full: g & h,
    "NOT_IMPLIED_BY": lambda g, h, full: ~g & h & full,
    "NOT_IMPLIES": lambda g, h, full: g & ~h & full,
    "NOR": lambda g, h, full: ~(g | h) & full,
    "OR": lambda g, h, full: g | h,
    "IMPLIES": lambda g, h, full: (~g | h) & full,
    "IMPLIED_BY": lambda g, h, full: (g | ~h) & full,
    "NAND": lambda g, h, full: ~(g & h) & full,
    "XOR": lambda g, h, full: g ^ h,
    "XNOR": lambda g, h, full: ~(g ^ h) & full,
}

#: Payload channels that carry measurements, not results.
INFORMATIONAL = frozenset(("timings", "bdd_stats", "pool_stats", "engine_stats", "time_s"))


class CheckFailed(Exception):
    """An output disagrees with its specification or its golden record."""


def fingerprint(payload) -> str:
    """Short SHA-256 of a JSON value with informational keys stripped."""
    if isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k not in INFORMATIONAL}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Sample:
    """A seeded set of minterms over named variables, packed per variable."""

    def __init__(self, var_names, seed: int, n: int = SAMPLES) -> None:
        rng = random.Random(f"{seed}:{','.join(var_names)}")
        self.full = (1 << n) - 1
        self.var_names = list(var_names)
        self.bits = {name: rng.getrandbits(n) for name in self.var_names}

    def var(self, name: str) -> int:
        return self.bits[name]

    def index(self, i: int) -> int:
        """Variable ``i`` in declaration order (cover bit ``i``)."""
        return self.bits[self.var_names[i]]


def eval_dump(dump: dict, sample: Sample) -> dict[str, int]:
    """Evaluate every root of a ``repro-bdd/1`` dump on ``sample``."""
    if dump.get("format") != "repro-bdd/1":
        raise CheckFailed(f"not a repro-bdd/1 dump: {dump.get('format')!r}")
    names = dump["vars"]
    values = [0, sample.full]
    for level, low, high in dump["nodes"]:
        x = sample.var(names[level])
        values.append((x & values[high]) | (~x & values[low] & sample.full))
    return {label: values[ref] for label, ref in dump["roots"].items()}


def eval_cover(cover: dict, sample: Sample) -> int:
    """Evaluate a wire cover payload (``sop`` or ``spp``) on ``sample``."""
    full = sample.full
    if cover["kind"] == "sop":
        terms = [(pos, neg, ()) for pos, neg in cover["cubes"]]
    elif cover["kind"] == "spp":
        terms = cover["pseudocubes"]
    else:
        raise CheckFailed(f"unknown cover kind {cover['kind']!r}")
    out = 0
    for pos, neg, xors in terms:
        term = full
        for i in _bits(pos):
            term &= sample.index(i)
        for i in _bits(neg):
            term &= ~sample.index(i)
        for i, j, phase in xors:
            x = sample.index(i) ^ sample.index(j)
            term &= x if phase else ~x
        out |= term & full
    return out


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def check_against(f_on: int, f_dc: int, realized: int, sample: Sample, what: str) -> None:
    """Raise unless ``realized`` equals f's on-set on f's care set."""
    if (realized ^ f_on) & ~f_dc & sample.full:
        raise CheckFailed(f"{what} differs from f on its care set")


def check_decomposition(f_dump: dict, payload: dict, seed: int) -> None:
    """Check a ``repro-result/1`` payload against the ISF dump it answers."""
    sample = Sample(f_dump["vars"], seed)
    f = eval_dump(f_dump, sample)
    op = OPERATORS.get(payload.get("op"))
    if op is None:
        raise CheckFailed(f"unknown operator {payload.get('op')!r}")
    g = (
        eval_cover(payload["g_cover"], sample)
        if payload.get("g_cover") is not None
        else eval_dump(payload["g"], sample)["f"]
    )
    h = (
        eval_cover(payload["h_cover"], sample)
        if payload.get("h_cover") is not None
        else eval_dump(payload["h"], sample)["on"]
    )
    check_against(f["on"], f["dc"], op(g, h, sample.full), sample, f"g {payload['op']} h")


def eval_network(network: dict, sample: Sample) -> dict[str, int]:
    """Evaluate every output of a ``repro-network`` payload on ``sample``."""
    full = sample.full
    inputs = iter(network["inputs"])
    values: list[int] = []
    for kind, fanins in network["nodes"]:
        if kind == "input":
            values.append(sample.var(next(inputs)))
        elif kind == "const0":
            values.append(0)
        elif kind == "const1":
            values.append(full)
        elif kind == "not":
            values.append(~values[fanins[0]] & full)
        elif kind in ("and", "or", "xor"):
            acc = values[fanins[0]]
            for fanin in fanins[1:]:
                if kind == "and":
                    acc &= values[fanin]
                elif kind == "or":
                    acc |= values[fanin]
                else:
                    acc ^= values[fanin]
            values.append(acc)
        else:
            raise CheckFailed(f"unknown network node kind {kind!r}")
    return {name: values[node] for name, node in network["outputs"].items()}
