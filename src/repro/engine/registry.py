"""Named strategy registries for the decomposition engine.

Two registries drive :class:`repro.engine.Decomposer`:

* :data:`APPROXIMATORS` — strategies ``(f, op) -> divisor`` producing a
  completely specified divisor ``g`` of the approximation kind ``op``
  requires (a bare :class:`~repro.bdd.manager.Function`, a
  :class:`~repro.engine.request.Divisor`, or anything with a ``.g``
  attribute such as :class:`~repro.approx.expansion.ExpansionResult`);
* :data:`MINIMIZERS` — strategies ``(isf) -> cover`` turning an
  incompletely specified function into a two- or three-level cover
  (anything with ``to_function`` and ``literal_count``), or ``None`` to
  skip minimization.

Strategies are addressed by name; a name may carry a parameter after a
colon (``"expand-bounded:0.05"``, ``"random:0.3"``).  User code extends
the registries with the :func:`register_approximator` and
:func:`register_minimizer` decorators::

    @register_approximator("tautology")
    def tautology_divisor(f, op):
        return f.mgr.true

Built-in approximators
    ``expand-full[:policy]``
        Pseudoproduct expansion (paper Section IV-A), adapted to every
        operator family: the expansion of ``f`` (or of ``~f``, or its
        complement) yields a divisor of the kind the operator requires.
        The optional parameter selects the expansion policy
        (``aggressive``, the default, or ``conservative``).
    ``expand-bounded:<budget>``
        The bounded-error expansion of [2] with the given error budget
        (a fraction of the Boolean space), likewise adapted per kind.

    Both start from the 2-SPP cover of the function they expand, which
    the engine hands them from its cover memo.
    ``random:<rate>[:<seed>]``
        Random approximation of the required kind flipping ``rate`` of
        the eligible minterms (mainly for testing and ablations).  The
        RNG is seeded explicitly from the spec (or the given seed), the
        operator's approximation kind, and a canonical fingerprint of
        the function, so results are bit-identical across call orders,
        parallel workers, and cache re-runs.

Built-in minimizers
    ``spp`` (2-SPP synthesis), ``espresso`` (heuristic SOP),
    ``exact`` (Quine–McCluskey minimum SOP), and ``none``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.bdd.manager import Function
from repro.boolfunc.isf import ISF
from repro.core.operators import ApproximationKind, BinaryOperator


class UnknownStrategyError(KeyError):
    """No strategy is registered under the requested name."""


def _parse_fraction(text: str, strategy: str, what: str) -> float:
    """Parse a numeric strategy parameter with a curated error message."""
    try:
        return float(text)
    except ValueError:
        raise UnknownStrategyError(
            f"{strategy} {what} must be a number, got {text!r}"
            f" (e.g. '{strategy}:0.05')"
        ) from None


@dataclass(frozen=True)
class ResolvedStrategy:
    """A strategy resolved from a registry (or wrapped from a callable)."""

    #: Full spec the strategy was resolved from (``"expand-bounded:0.05"``).
    name: str
    func: Callable
    #: True when the strategy's output depends on the operator only through
    #: its approximation kind — lets the engine share one divisor across
    #: all operators of a family during ``op="auto"`` search.
    kind_pure: bool = False


class StrategyRegistry:
    """Name → strategy-factory mapping with ``name:arg`` parameterization."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, tuple[Callable, bool, bool]] = {}
        self._resolved: dict[str, ResolvedStrategy] = {}

    def register(
        self,
        name: str,
        func: Callable | None = None,
        *,
        parameterized: bool = False,
        kind_pure: bool = False,
    ):
        """Register a strategy (decorator-friendly).

        With ``parameterized=True``, ``func`` is a factory
        ``(arg: str | None) -> strategy`` and the registered name accepts
        a ``:arg`` suffix; otherwise ``func`` is the strategy itself.
        Re-registering a name replaces the previous entry.
        """
        if ":" in name:
            raise ValueError(f"strategy name {name!r} may not contain ':'")

        def install(func: Callable) -> Callable:
            self._entries[name] = (func, parameterized, kind_pure)
            self._resolved = {
                spec: entry
                for spec, entry in self._resolved.items()
                if spec.partition(":")[0] != name
            }
            return func

        return install if func is None else install(func)

    def names(self) -> list[str]:
        """Registered base names (without parameters), sorted."""
        return sorted(self._entries)

    def resolve(self, spec) -> ResolvedStrategy:
        """Resolve a name, ``name:arg`` spec, or bare callable."""
        if callable(spec) and not isinstance(spec, str):
            return ResolvedStrategy(
                getattr(spec, "__name__", spec.__class__.__name__), spec
            )
        if not isinstance(spec, str):
            raise TypeError(
                f"{self.kind} spec must be a name or callable, got {spec!r}"
            )
        cached = self._resolved.get(spec)
        if cached is not None:
            return cached
        base, _, arg = spec.partition(":")
        entry = self._entries.get(base)
        if entry is None:
            raise UnknownStrategyError(
                f"unknown {self.kind} {spec!r}; registered: {self.names()}"
            )
        func, parameterized, kind_pure = entry
        if parameterized:
            strategy = func(arg or None)
        elif arg:
            raise UnknownStrategyError(
                f"{self.kind} {base!r} takes no parameter (got {spec!r})"
            )
        else:
            strategy = func
        resolved = ResolvedStrategy(spec, strategy, kind_pure)
        self._resolved[spec] = resolved
        return resolved


#: Registry of divisor-producing strategies.
APPROXIMATORS = StrategyRegistry("approximator")
#: Registry of cover minimization strategies.
MINIMIZERS = StrategyRegistry("minimizer")


def register_approximator(
    name: str, func=None, *, parameterized: bool = False, kind_pure: bool = False
):
    """Register an approximator strategy ``(f, op) -> divisor`` by name."""
    return APPROXIMATORS.register(
        name, func, parameterized=parameterized, kind_pure=kind_pure
    )


def register_minimizer(name: str, func=None, *, parameterized: bool = False):
    """Register a minimizer strategy ``(isf) -> cover | None`` by name."""
    return MINIMIZERS.register(name, func, parameterized=parameterized)


# ---------------------------------------------------------------------------
# Built-in approximators
# ---------------------------------------------------------------------------


def _expansion_divisor(f: ISF, op: BinaryOperator, expand) -> Function:
    """Adapt a 0→1 expansion to the approximation kind ``op`` requires.

    ``expand`` maps an ISF to an :class:`ExpansionResult` whose ``g``
    over-approximates its argument.  Expanding ``f`` gives an OVER_F
    divisor, expanding ``~f`` an OVER_COMPLEMENT one, and complementing
    those yields the two UNDER kinds (``g ⊇ x.on  ⇒  ~g ∩ x.on = ∅``).

    Only the bare divisor function is returned — not the expansion's own
    2-SPP cover — so the engine minimizes ``g`` with the *requested*
    minimizer and the ``op="auto"`` ranking compares literal counts from
    one cover framework across all candidates.  Callers who want to keep
    a pre-built cover pass an explicit
    :class:`~repro.engine.request.Divisor` instead.
    """
    kind = op.approximation
    if kind in (ApproximationKind.OVER_F, ApproximationKind.ANY):
        return expand(f).g
    if kind is ApproximationKind.OVER_COMPLEMENT:
        return expand(~f).g
    if kind is ApproximationKind.UNDER_F:
        return ~expand(~f).g
    # UNDER_COMPLEMENT
    return ~expand(f).g


def _takes_spp_cover(approximator):
    """Mark a built-in approximator that accepts ``spp_cover=``.

    ``spp_cover`` maps an ISF to its 2-SPP cover (``minimize_spp``'s).
    :class:`~repro.engine.Decomposer` passes one that reads its cover
    memo, so an expansion starts from a cover the engine already holds
    instead of minimizing the function again; called as ``(f, op)``, the
    approximator minimizes for itself.  Approximators without this mark,
    user-registered ones among them, are called as ``(f, op)``.
    """
    approximator.takes_spp_cover = True
    return approximator


def _seed(spp_cover, isf: ISF):
    """The initial cover of an expansion of ``isf`` (``None``: minimize)."""
    return spp_cover(isf) if spp_cover is not None else None


@register_approximator("expand-full", parameterized=True, kind_pure=True)
def _expand_full_factory(arg: str | None):
    policy = arg or "aggressive"
    if policy not in ("aggressive", "conservative"):
        raise UnknownStrategyError(
            f"expand-full policy must be 'aggressive' or 'conservative',"
            f" got {policy!r}"
        )

    @_takes_spp_cover
    def expand_full(f: ISF, op: BinaryOperator, spp_cover=None):
        from repro.approx.expansion import approximate_expand_full

        return _expansion_divisor(
            f,
            op,
            lambda isf: approximate_expand_full(
                isf, _seed(spp_cover, isf), policy=policy
            ),
        )

    return expand_full


@register_approximator("expand-bounded", parameterized=True, kind_pure=True)
def _expand_bounded_factory(arg: str | None):
    if arg is None:
        raise UnknownStrategyError(
            "expand-bounded needs an error budget, e.g. 'expand-bounded:0.05'"
        )
    budget = _parse_fraction(arg, "expand-bounded", "error budget")

    @_takes_spp_cover
    def expand_bounded(f: ISF, op: BinaryOperator, spp_cover=None):
        from repro.approx.expansion import approximate_expand_bounded

        return _expansion_divisor(
            f,
            op,
            lambda isf: approximate_expand_bounded(
                isf, budget, _seed(spp_cover, isf)
            ),
        )

    return expand_bounded


@register_approximator("random", parameterized=True, kind_pure=True)
def _random_factory(arg: str | None):
    rate_text, _, seed = (arg or "0.25").partition(":")
    rate = _parse_fraction(rate_text, "random", "flip rate")

    def random_divisor(f: ISF, op: BinaryOperator) -> Function:
        from repro.approx.generic import approximation_for_operator
        from repro.engine.wire import isf_fingerprint
        from repro.utils.rng import make_rng

        # Explicit per-call seed: the spec (or user seed) mixed with the
        # approximation kind and a canonical fingerprint of f.  The rng
        # stream then depends only on *what* is approximated — never on
        # call order, process identity, or manager history — so parallel
        # workers, cache re-runs, and memoized divisors all agree.
        rng = make_rng(
            (seed or f"random:{rate}", op.approximation.name, isf_fingerprint(f))
        )
        return approximation_for_operator(f, op, rate=rate, rng=rng)

    return random_divisor


@register_approximator("exact", kind_pure=True)
def _exact_divisor(f: ISF, op: BinaryOperator) -> Function:
    """The error-free divisor: g = f (or ~f) with dc resolved.

    Yields the trivial decomposition whose quotient has maximum
    flexibility everywhere the error set is empty — useful as a
    baseline and as the endpoint of approximation sweeps.
    """
    kind = op.approximation
    if kind in (
        ApproximationKind.OVER_COMPLEMENT,
        ApproximationKind.UNDER_COMPLEMENT,
    ):
        return f.off
    return f.on


# ---------------------------------------------------------------------------
# Built-in minimizers
# ---------------------------------------------------------------------------


@register_minimizer("spp")
def _spp_minimizer(isf: ISF):
    from repro.spp.synthesis import minimize_spp

    return minimize_spp(isf)


@register_minimizer("espresso")
def _espresso_minimizer(isf: ISF):
    from repro.twolevel.espresso import espresso_minimize

    return espresso_minimize(isf)


@register_minimizer("exact")
def _exact_minimizer(isf: ISF):
    from repro.twolevel.quine_mccluskey import minimize_exact

    return minimize_exact(isf.n_vars, isf.on_minterms(), isf.dc_minterms())


@register_minimizer("none")
def _no_minimizer(isf: ISF):
    return None
