"""Minimum-cost unate covering (set covering) with branch and bound.

Shared by exact Quine–McCluskey SOP minimization and exact 2-SPP
synthesis: rows are objects to cover (on-set minterms), columns are
candidate implicants with costs.

The solver applies the classic reductions — essential columns, row
dominance, column dominance — and then branches on the row with the
fewest covering columns, using a maximal-independent-set lower bound for
pruning.  Internally row sets are packed integer bitmasks (bit ``r`` =
row ``r``): subset tests, intersections and cardinalities in the
reduction loops are single ``&``/``|``/``bit_count`` operations instead
of per-element ``set`` traffic.  The public :class:`CoveringProblem`
still speaks ``frozenset`` columns; :meth:`CoveringProblem.from_masks`
is the zero-conversion entry for mask-native callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.bitops import bit_indices


@dataclass
class CoveringProblem:
    """A unate covering instance.

    ``columns[j]`` is the set of row indices column ``j`` covers;
    ``costs[j]`` its positive cost.  Rows are ``range(n_rows)``.
    ``column_masks`` carries the same columns as packed row bitmasks —
    derived automatically, or supplied directly via :meth:`from_masks`.
    """

    n_rows: int
    columns: list[frozenset[int]]
    costs: list[float]
    column_masks: list[int] = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.costs):
            raise ValueError("columns and costs must align")
        if any(cost <= 0 for cost in self.costs):
            raise ValueError("costs must be positive")
        if self.column_masks is None:
            self.column_masks = [
                _rows_to_mask(rows) for rows in self.columns
            ]
        elif len(self.column_masks) != len(self.costs):
            raise ValueError("column_masks and costs must align")

    @classmethod
    def from_masks(
        cls, n_rows: int, column_masks: list[int], costs: list[float]
    ) -> "CoveringProblem":
        """Build from packed row bitmasks without intermediate sets."""
        columns = [
            frozenset(bit_indices(mask)) for mask in column_masks
        ]
        return cls(n_rows, columns, costs, column_masks=list(column_masks))


def _rows_to_mask(rows) -> int:
    mask = 0
    for row in rows:
        mask |= 1 << row
    return mask


def solve_covering(
    problem: CoveringProblem, max_nodes: int = 200_000
) -> list[int]:
    """Return indices of a minimum-cost set of columns covering all rows.

    Raises ``ValueError`` if some row cannot be covered.  ``max_nodes``
    bounds the branch-and-bound search; if exhausted, the best solution
    found so far is returned (still a valid cover), making the solver
    usable as an any-time heuristic on large instances.  Ties (equal
    cardinality, equal cost) break toward the lowest row/column index,
    so results are reproducible across runs and machines.
    """
    column_rows = problem.column_masks
    costs = problem.costs
    all_rows = (1 << problem.n_rows) - 1
    coverable = 0
    for mask in column_rows:
        coverable |= mask
    if all_rows & ~coverable:
        raise ValueError(
            f"rows {list(bit_indices(all_rows & ~coverable))} cannot be covered"
        )

    best_solution: list[int] | None = None
    best_cost = float("inf")
    nodes_visited = 0

    def row_to_columns(rows: int, active: list[int]) -> dict[int, list[int]]:
        table: dict[int, list[int]] = {row: [] for row in bit_indices(rows)}
        for j in active:
            for row in bit_indices(column_rows[j] & rows):
                table[row].append(j)
        return table

    def lower_bound(rows: int, active: list[int]) -> float:
        """Greedy maximal independent set of rows: sum of each row's
        cheapest covering column is a valid lower bound."""
        remaining = rows
        table = row_to_columns(rows, active)
        bound = 0.0
        while remaining:
            # Pick the row whose covering columns are fewest (hardest row).
            row = min(
                bit_indices(remaining), key=lambda r: len(table[r])
            )
            cols = table[row]
            if not cols:
                return float("inf")
            bound += min(costs[j] for j in cols)
            # Remove all rows sharing a column with `row` (not independent).
            touched = 0
            for j in cols:
                touched |= column_rows[j]
            remaining &= ~touched
            remaining &= ~(1 << row)
        return bound

    def search(rows: int, active: list[int], chosen: list[int], cost: float) -> None:
        nonlocal best_solution, best_cost, nodes_visited
        nodes_visited += 1
        if nodes_visited > max_nodes:
            return
        if not rows:
            if cost < best_cost:
                best_cost = cost
                best_solution = list(chosen)
            return
        if cost + lower_bound(rows, active) >= best_cost:
            return

        # Reductions loop.
        active = list(active)
        chosen = list(chosen)
        changed = True
        while changed and rows:
            changed = False
            table = row_to_columns(rows, active)
            # Essential columns: a row covered by exactly one column.
            for row, cols in table.items():
                if not cols:
                    return  # infeasible branch
                if len(cols) == 1:
                    j = cols[0]
                    chosen.append(j)
                    cost += costs[j]
                    rows &= ~column_rows[j]
                    active = [k for k in active if k != j]
                    changed = True
                    break
            if changed:
                continue
            # Column dominance: drop k if some j covers a superset at <= cost.
            pruned = []
            active_sorted = sorted(
                active,
                key=lambda j: (-(column_rows[j] & rows).bit_count(), costs[j]),
            )
            kept: list[int] = []
            for j in active_sorted:
                j_rows = column_rows[j] & rows
                if not j_rows:
                    pruned.append(j)
                    continue
                dominated = any(
                    not (j_rows & ~(column_rows[k] & rows))
                    and costs[k] <= costs[j]
                    for k in kept
                )
                if dominated:
                    pruned.append(j)
                else:
                    kept.append(j)
            if pruned:
                active = [j for j in active if j not in set(pruned)]
                changed = True
        if not rows:
            if cost < best_cost:
                best_cost = cost
                best_solution = list(chosen)
            return
        if cost + lower_bound(rows, active) >= best_cost:
            return

        # Branch on the hardest row.
        table = row_to_columns(rows, active)
        branch_row = min(bit_indices(rows), key=lambda r: len(table[r]))
        candidates = sorted(table[branch_row], key=lambda j: costs[j])
        if not candidates:
            return
        for j in candidates:
            search(
                rows & ~column_rows[j],
                [k for k in active if k != j],
                chosen + [j],
                cost + costs[j],
            )

    search(all_rows, list(range(len(column_rows))), [], 0.0)
    if best_solution is None:
        # Search budget exhausted before any full cover: fall back to greedy.
        best_solution = _greedy_cover(all_rows, column_rows, costs)
    return sorted(best_solution)


def _greedy_cover(
    rows: int, column_rows: list[int], costs: list[float]
) -> list[int]:
    remaining = rows
    chosen: list[int] = []
    while remaining:
        best_j = max(
            range(len(column_rows)),
            key=lambda j: ((column_rows[j] & remaining).bit_count() / costs[j]),
        )
        gain = column_rows[best_j] & remaining
        if not gain:
            raise ValueError("greedy fallback stuck: uncoverable rows remain")
        chosen.append(best_j)
        remaining &= ~gain
    return chosen
