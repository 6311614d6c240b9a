"""Genlib gate-library format parser.

Supports the subset of the SIS genlib format used by area-oriented
mapping: ``GATE <name> <area> <output>=<expression>;`` followed by
optional ``PIN`` lines (parsed and ignored — this reproduction maps for
area, not delay).  Expressions use ``!`` (NOT), ``*`` (AND, also
juxtaposition), ``+`` (OR), ``^`` (XOR), parentheses, and the constants
``CONST0`` / ``CONST1``.

Each gate's function is normalized into a *pattern tree* over binary
AND/OR/XOR and unary NOT with variable leaves; AND/OR chains are
binarized left-deep, matching the shape produced by the network builder
so that tree matching in :mod:`repro.techmap.mapper` lines up.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


# -- pattern trees ---------------------------------------------------------
#
# A pattern is a nested tuple: ("var", name) | ("const", 0 | 1)
# | ("not", child) | ("and" | "or" | "xor", left, right).


def pattern_inputs(pattern: tuple) -> list[str]:
    """Variable names appearing in a pattern, in first-seen order."""
    seen: list[str] = []

    def walk(node: tuple) -> None:
        kind = node[0]
        if kind == "var":
            if node[1] not in seen:
                seen.append(node[1])
        elif kind == "not":
            walk(node[1])
        elif kind in ("and", "or", "xor"):
            walk(node[1])
            walk(node[2])

    walk(pattern)
    return seen


def evaluate_pattern(pattern: tuple, assignment: dict[str, bool]) -> bool:
    """Evaluate a pattern tree on a variable assignment."""
    kind = pattern[0]
    if kind == "var":
        return assignment[pattern[1]]
    if kind == "const":
        return bool(pattern[1])
    if kind == "not":
        return not evaluate_pattern(pattern[1], assignment)
    left = evaluate_pattern(pattern[1], assignment)
    right = evaluate_pattern(pattern[2], assignment)
    if kind == "and":
        return left and right
    if kind == "or":
        return left or right
    if kind == "xor":
        return left != right
    raise ValueError(f"bad pattern node {kind!r}")


@dataclass(frozen=True)
class Gate:
    """A library cell: name, area, and its function as a pattern tree."""

    name: str
    area: float
    output: str
    pattern: tuple

    @property
    def n_inputs(self) -> int:
        """Number of distinct input pins."""
        return len(pattern_inputs(self.pattern))


class GateLibrary:
    """A collection of gates indexed by name and by pattern root kind.

    ``by_root`` maps each network node kind (``and``, ``or``, ``xor``,
    ``not``, ``const0``, ``const1``) to the gates whose pattern root can
    match a node of that kind, in library order, so the mapper tries
    only those at each node.  Buffers (a bare variable pattern) match
    anything, add no logic, and are left out.
    """

    def __init__(self, gates: list[Gate]) -> None:
        self.gates = list(gates)
        self.by_name = {gate.name: gate for gate in gates}
        if len(self.by_name) != len(gates):
            raise ValueError("duplicate gate names in library")
        self.by_root: dict[str, list[Gate]] = {}
        for gate in self.gates:
            kind = gate.pattern[0]
            if kind == "const":
                kind = "const1" if gate.pattern[1] else "const0"
            if kind != "var":
                self.by_root.setdefault(kind, []).append(gate)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def __getitem__(self, name: str) -> Gate:
        return self.by_name[name]

    def cheapest(self) -> dict[str, float]:
        """Cheapest area per pattern root kind (diagnostics)."""
        result: dict[str, float] = {}
        for gate in self.gates:
            kind = gate.pattern[0]
            if kind not in result or gate.area < result[kind]:
                result[kind] = gate.area
        return result


class GenlibError(ValueError):
    """Raised for malformed genlib text."""


_GATE_RE = re.compile(
    r"GATE\s+(?P<name>\S+)\s+(?P<area>[\d.]+)\s+(?P<out>\w+)\s*=\s*(?P<expr>[^;]+);"
)

_EXPR_TOKEN_RE = re.compile(r"\s*(CONST0|CONST1|[A-Za-z_][A-Za-z0-9_]*|[!*+^()])")


def _tokenize_expr(text: str) -> list[str]:
    tokens = []
    position = 0
    while position < len(text):
        match = _EXPR_TOKEN_RE.match(text, position)
        if match is None:
            if text[position:].strip():
                raise GenlibError(f"bad expression character at {text[position:]!r}")
            break
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser for genlib expressions (OR < XOR < AND < NOT)."""

    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.position = 0

    def peek(self) -> str | None:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise GenlibError("unexpected end of expression")
        self.position += 1
        return token

    def parse_or(self) -> tuple:
        left = self.parse_xor()
        while self.peek() == "+":
            self.take()
            left = ("or", left, self.parse_xor())
        return left

    def parse_xor(self) -> tuple:
        left = self.parse_and()
        while self.peek() == "^":
            self.take()
            left = ("xor", left, self.parse_and())
        return left

    def parse_and(self) -> tuple:
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token == "*":
                self.take()
                left = ("and", left, self.parse_unary())
            elif token is not None and (token[0].isalpha() or token in ("(", "!")):
                left = ("and", left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> tuple:
        token = self.peek()
        if token == "!":
            self.take()
            return ("not", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> tuple:
        token = self.take()
        if token == "(":
            inner = self.parse_or()
            if self.take() != ")":
                raise GenlibError("missing closing parenthesis")
            return inner
        if token == "CONST0":
            return ("const", 0)
        if token == "CONST1":
            return ("const", 1)
        if token[0].isalpha() or token[0] == "_":
            return ("var", token)
        raise GenlibError(f"unexpected token {token!r}")


def parse_expression_tree(text: str) -> tuple:
    """Parse a genlib expression into a pattern tree."""
    parser = _ExprParser(_tokenize_expr(text))
    result = parser.parse_or()
    if parser.peek() is not None:
        raise GenlibError(f"trailing tokens at {parser.peek()!r}")
    return result


def parse_genlib(text: str) -> GateLibrary:
    """Parse genlib text into a :class:`GateLibrary`."""
    gates = []
    for match in _GATE_RE.finditer(text):
        pattern = parse_expression_tree(match.group("expr"))
        gates.append(
            Gate(
                name=match.group("name"),
                area=float(match.group("area")),
                output=match.group("out"),
                pattern=pattern,
            )
        )
    if not gates:
        raise GenlibError("no GATE definitions found")
    return GateLibrary(gates)
