"""0→1 approximation by pseudoproduct expansion (paper Section IV-A).

The method of Bernasconi–Ciriani (DSD 2014, paper ref. [2]) expands
pseudoproducts of an initial 2-SPP cover of ``f``: dropping a factor from
a pseudoproduct doubles its coverage, removing literals from the form and
possibly swallowing other pseudoproducts, at the price of moving some
off-set minterms to the on-set (0→1 errors).

Two variants are provided:

* :func:`approximate_expand_full` — the variant the paper actually uses
  for its experiments: *every* pseudoproduct is expanded (its most
  profitable factor is dropped), all newly covered off-set minterms move
  to the dc-set, and the function is re-synthesized with the extended
  dc-set.  The final error rate is whatever the re-synthesis produces —
  "the actual error rate of the approximation g depends on the
  benchmark".
* :func:`approximate_expand_bounded` — the original bounded-error
  selection of [2]: candidate expansions are ranked by gain/cost and
  applied greedily while the cumulative error rate stays within a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.bdd.manager import Function
from repro.boolfunc.isf import ISF
from repro.spp.pseudocube import Pseudocube
from repro.spp.spp_cover import SppCover
from repro.spp.synthesis import minimize_spp


@dataclass
class ExpansionResult:
    """Outcome of an expansion-based approximation."""

    #: The divisor: a completely specified 0→1 approximation of f.
    g: Function
    #: Minimized 2-SPP form of the divisor.
    g_cover: SppCover
    #: The 2-SPP cover of f the expansion started from.
    initial_cover: SppCover
    #: Off-set minterms moved to the dc-set by the expansion.
    extended_dc: Function
    #: |g_on \ f_on| — the 0→1 errors actually introduced.
    n_errors: int
    #: ``n_errors / 2^n``.
    error_rate: float


def _expansion_candidates(
    pc: Pseudocube, off: Function, mgr
) -> list[tuple[int, int, Pseudocube]]:
    """All single-factor expansions of ``pc`` with their (cost, gain).

    Cost is the number of 0→1 complementations the expansion introduces;
    gain is the 2-SPP literal reduction.
    """
    candidates = []
    for kind, payload in pc.factors():
        expanded = pc.drop_factor(kind, payload)
        if expanded.factor_count == 0:
            # Never expand to the bare tautology: g = 1 is the trivial
            # endpoint g_n = 1, h_n = f of the decomposition sequence.
            continue
        cost = (expanded.to_function(mgr) & off).satcount()
        gain = pc.literal_count - expanded.literal_count
        candidates.append((cost, gain, expanded))
    return candidates


def _cost_per_gain(item: tuple[int, int, Pseudocube]) -> tuple:
    """Rank key of an expansion: errors per literal gained, then fewest
    errors, then largest gain.  The ratio is exact: costs are minterm
    counts, which exceed the float range above 1023 declared variables."""
    cost, gain, _expanded = item
    return (Fraction(cost, max(gain, 1)), cost, -gain)


def _finalize(
    f: ISF,
    initial: SppCover,
    extended_dc: Function,
    expanded: SppCover,
    resynthesis: str = "full",
) -> ExpansionResult:
    """Re-synthesize with the extended dc-set and package the result.

    ``resynthesis="full"`` runs the complete 2-SPP minimization loop
    seeded with the expanded cover (the aggressive regime: the extended
    dc-set lets the minimizer collapse the cover).  ``"light"`` only
    merges and removes redundant pseudoproducts, preserving the cover's
    structural alignment with ``f``'s own cover — important for the area
    of multi-output control benchmarks, where per-output re-synthesis
    would destroy the sharing of product terms across outputs.
    """
    mgr = f.mgr
    relaxed = ISF(f.on, (f.dc | extended_dc) - f.on)
    if resynthesis == "light":
        from repro.spp.synthesis import _merge_fixpoint, _spp_irredundant

        g_cover = _spp_irredundant(_merge_fixpoint(expanded), relaxed.dc, mgr)
    else:
        g_cover = minimize_spp(relaxed, initial=expanded)
    g = g_cover.to_function(mgr)
    error_set = g & f.off
    n_errors = error_set.satcount()
    return ExpansionResult(
        g=g,
        g_cover=g_cover,
        initial_cover=initial,
        extended_dc=extended_dc,
        n_errors=n_errors,
        error_rate=n_errors / (1 << f.n_vars),
    )


def approximate_expand_full(
    f: ISF,
    initial: SppCover | None = None,
    policy: str = "aggressive",
    rounds: int = 1,
) -> ExpansionResult:
    """Full-expansion variant used by the paper's experiments.

    Every pseudoproduct of the initial 2-SPP cover is expanded by
    dropping its most profitable factor — highest literal gain per
    introduced error, matching the gain/cost evaluation of [2] — and the
    off-set minterms involved in the expansions become don't-cares for
    the re-synthesis of ``g``.

    ``policy`` selects the expansion regime:

    * ``"aggressive"`` — every pseudoproduct is expanded unconditionally.
      On XOR-rich arithmetic functions this collapses ``g`` massively at
      a 40–50% error rate, the regime of the paper's Table IV.
    * ``"conservative"`` — a pseudoproduct is expanded only when the
      expansion is free (no new errors) or structurally profitable (the
      expanded pseudoproduct swallows at least one other pseudoproduct of
      the cover, the gain model of [2]).  This is the regime the paper's
      structured control-logic benchmarks exhibit in Table III; our
      synthetic stand-ins lack that structure, so the policy recreates it
      explicitly (see DESIGN.md, substitutions).
    """
    if policy not in ("aggressive", "conservative"):
        raise ValueError(f"unknown expansion policy {policy!r}")
    mgr = f.mgr
    spp = initial if initial is not None else minimize_spp(f)
    off = f.off
    resynthesis = "light" if policy == "conservative" else "full"

    extended_dc = mgr.false
    current = spp
    result: ExpansionResult | None = None
    # Conservative-policy error allowance per expansion: proportional to
    # the function's own on-set size (scale-free across variable counts).
    conservative_budget = max(2, f.on.satcount() // 256)
    for _round in range(max(1, rounds)):
        functions = [pc.to_function(mgr) for pc in current]
        expanded_pcs = []
        grew = False
        for index, pc in enumerate(current):
            candidates = _expansion_candidates(pc, off, mgr)
            if not candidates:
                expanded_pcs.append(pc)
                continue  # factor-free pseudoproduct: nothing to expand
            cost, _gain, expanded = min(candidates, key=_cost_per_gain)
            if policy == "conservative" and cost > 0:
                budget = conservative_budget
                expanded_fn = expanded.to_function(mgr)
                swallows = any(
                    other_index != index and functions[other_index] <= expanded_fn
                    for other_index in range(len(functions))
                )
                if not (swallows or cost <= budget):
                    # Fall back to the cheapest acceptable expansion, if any.
                    acceptable = [
                        item for item in candidates if item[0] <= budget
                    ]
                    if acceptable:
                        _cost, _gain, expanded = min(
                            acceptable, key=_cost_per_gain
                        )
                    else:
                        expanded_pcs.append(pc)
                        continue
            extended_dc = extended_dc | (expanded.to_function(mgr) & off)
            expanded_pcs.append(expanded)
            grew = True
        expanded_cover = SppCover(spp.n_vars, expanded_pcs)
        result = _finalize(f, spp, extended_dc, expanded_cover, resynthesis)
        current = result.g_cover
        if not grew:
            break
    assert result is not None
    return result


def approximate_expand_bounded(
    f: ISF,
    error_budget: float,
    initial: SppCover | None = None,
) -> ExpansionResult:
    """Bounded-error variant of [2].

    Applies single-factor expansions in decreasing gain/cost order while
    the cumulative number of newly covered off-set minterms stays within
    ``error_budget * 2^n``.
    """
    if not 0.0 <= error_budget <= 1.0:
        raise ValueError("error_budget must be within [0, 1]")
    mgr = f.mgr
    spp = initial if initial is not None else minimize_spp(f)
    off = f.off
    # Exact arithmetic: ``2^n`` and the minterm counts leave the float
    # range above 1023 declared variables.
    budget = int(Fraction(error_budget) * (1 << f.n_vars))

    ranked: list[tuple[Fraction, int, int, Pseudocube]] = []
    for index, pc in enumerate(spp):
        for cost, gain, expanded in _expansion_candidates(pc, off, mgr):
            ranked.append((Fraction(gain, cost + 1), cost, index, expanded))
    ranked.sort(key=lambda item: -item[0])

    extended_dc = mgr.false
    chosen: dict[int, Pseudocube] = {}
    for _ratio, _cost, index, expanded in ranked:
        if index in chosen:
            continue  # one expansion per pseudoproduct, as in [2]
        new_errors = (expanded.to_function(mgr) & off) - extended_dc
        introduced = new_errors.satcount()
        if extended_dc.satcount() + introduced > budget:
            continue
        extended_dc = extended_dc | new_errors
        chosen[index] = expanded
    expanded_cover = SppCover(
        spp.n_vars,
        [chosen.get(index, pc) for index, pc in enumerate(spp)],
    )
    return _finalize(f, spp, extended_dc, expanded_cover)
