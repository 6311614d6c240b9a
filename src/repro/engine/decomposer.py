"""The strategy-driven decomposition engine.

:class:`Decomposer` packages the paper's flow — approximate, compute the
full quotient with the Table II formulas, minimize, verify — behind a
configurable front end:

* strategies are looked up in the named registries of
  :mod:`repro.engine.registry` (or passed as callables / ready divisors);
* ``op="auto"`` searches all ten operators of Table I, validating the
  divisor kind per operator and ranking verified candidates by literal
  cost, then error rate;
* :meth:`Decomposer.decompose_many` runs a batch over one shared
  manager, memoizing approximation and minimization sub-results across
  requests; ``jobs=N`` fans the batch out to a ``multiprocessing``
  worker pool (requests cross the boundary in canonical serialized
  form), and ``cache=<dir>`` layers a persistent on-disk result cache
  consulted before any dispatch.

The engine always computes in ``f``'s own manager.  Whether that is a
BDD or a dense bitset table was decided once, where ``f`` entered the
program (see :func:`repro.backend.protocol.choose_backend`): results are
identical on either backend, only speed differs.

Example::

    from repro import Decomposer

    engine = Decomposer(approximator="expand-full", minimizer="spp")
    result = engine.decompose(f, op="auto")
    result.decomposition.verify()   # already checked by the engine
    result.op_name, result.literal_cost, result.timings["total"]
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable

from repro.backend.protocol import (
    BooleanFunction,
    BooleanManager,
    backend_of,
    choose_backend,
    make_manager,
    support_size,
)
from repro.bdd.ops import transfer
from repro.boolfunc.isf import ISF
from repro.core.bidecomposition import BiDecomposition
from repro.core.operators import TABLE_I_ORDER, BinaryOperator, operator_by_name
from repro.core.quotient import InvalidDivisorError, full_quotient
from repro.engine.cache import ResultCache, as_result_cache
from repro.engine.registry import APPROXIMATORS, MINIMIZERS, ResolvedStrategy
from repro.obs.trace import span as _obs_span
from repro.engine.request import (
    CandidateOutcome,
    DecomposeRequest,
    DecomposeResult,
    Divisor,
)


class VerificationError(AssertionError):
    """The decomposition failed the ``f = g op h`` care-set check."""


class AutoSearchError(RuntimeError):
    """No operator produced an acceptable decomposition under ``op="auto"``."""


def _as_divisor(raw) -> Divisor:
    """Normalize an approximator's return value to a :class:`Divisor`."""
    if isinstance(raw, Divisor):
        return raw
    if isinstance(raw, BooleanFunction):
        return Divisor(g=raw)
    g = getattr(raw, "g", None)
    if isinstance(g, BooleanFunction):
        return Divisor(g=g, g_cover=getattr(raw, "g_cover", None))
    raise TypeError(
        f"approximator must return a Function, Divisor, or object with a"
        f" .g attribute, got {raw!r}"
    )


class Decomposer:
    """Strategy-driven bi-decomposition engine (the primary public API).

    ``approximator`` and ``minimizer`` set the defaults for every
    request; both accept registry names (``"expand-full"``,
    ``"expand-bounded:0.05"``, ``"spp"``, ...) or bare callables.
    ``operators`` bounds the ``op="auto"`` search space (default: all ten
    operators of Table I, in table order).  ``verify=False`` skips the
    final care-set check (and, under auto, ranks unverified candidates).

    The engine memoizes divisors per ``(f, approximation kind)`` and
    covers per ``(isf, minimizer)``, so auto search shares one expansion
    across every operator of a family and batches share sub-results
    across requests.  Caches live on the instance; :meth:`clear_caches`
    drops them, and :attr:`stats` counts hits and misses.
    """

    def __init__(
        self,
        approximator="expand-full",
        minimizer="spp",
        operators: Iterable[str | BinaryOperator] | None = None,
        verify: bool = True,
        reorder_threshold: int | None = None,
    ) -> None:
        self.default_approximator = approximator
        self.default_minimizer = minimizer
        self.operators: tuple[BinaryOperator, ...] = tuple(
            op if isinstance(op, BinaryOperator) else operator_by_name(op)
            for op in (operators if operators is not None else TABLE_I_ORDER)
        )
        self.verify = verify
        #: When set, :meth:`decompose_many` follows any auto-gc sweep
        #: that leaves more than this many live nodes with a sifting
        #: reorder of the shared manager (results are unaffected — only
        #: peak memory; see :meth:`repro.bdd.manager.BDD.reorder`).
        self.reorder_threshold = reorder_threshold
        self._divisor_cache: dict[tuple, Divisor] = {}
        self._cover_cache: dict[tuple, object] = {}
        self.stats = {
            "divisor_hits": 0,
            "divisor_misses": 0,
            "cover_hits": 0,
            "cover_misses": 0,
            "result_cache_hits": 0,
            "result_cache_misses": 0,
            "dispatched": 0,
            "backend_bdd": 0,
            "backend_bitset": 0,
        }

    # -- public API -------------------------------------------------------

    def decompose(
        self,
        f: ISF | BooleanFunction,
        op: str | BinaryOperator = "auto",
        *,
        approximator=None,
        minimizer=None,
        verify: bool | None = None,
        name: str = "",
        metadata: dict | None = None,
    ) -> DecomposeResult:
        """Decompose one function; convenience wrapper over :meth:`run`."""
        if isinstance(f, BooleanFunction):
            f = ISF.completely_specified(f)
        request = DecomposeRequest(
            f=f,
            op=op,
            approximator=approximator,
            minimizer=minimizer,
            verify=self.verify if verify is None else verify,
            name=name,
            metadata=metadata if metadata is not None else {},
        )
        return self.run(request)

    def run(self, request: DecomposeRequest) -> DecomposeResult:
        """Execute one :class:`DecomposeRequest` in ``f``'s own manager.

        Every derived function (``g``, ``h``) is built in that manager,
        whichever backend it is; covers and metrics are
        representation-free, so the result is the same on either.
        """
        backend = backend_of(request.f.mgr)
        with _obs_span("engine.dispatch") as sp:
            sp.annotate(backend=backend)
        self.stats[f"backend_{backend}"] += 1
        approx_spec = (
            request.approximator
            if request.approximator is not None
            else self.default_approximator
        )
        min_spec = (
            request.minimizer
            if request.minimizer is not None
            else self.default_minimizer
        )
        minimizer = MINIMIZERS.resolve(min_spec)
        timings = {"approximate": 0.0, "quotient": 0.0, "minimize": 0.0, "verify": 0.0}
        start = perf_counter()
        if isinstance(request.op, str) and request.op.lower() == "auto":
            result = self._run_auto(request, approx_spec, minimizer, timings)
        else:
            result = self._run_single(request, approx_spec, minimizer, timings)
        result.timings = timings
        result.bdd_stats = request.f.mgr.stats()
        timings["total"] = perf_counter() - start
        return result

    def decompose_many(
        self,
        functions: Iterable,
        op: str | BinaryOperator = "auto",
        *,
        approximator=None,
        minimizer=None,
        verify: bool | None = None,
        mgr: BooleanManager | None = None,
        jobs: int = 1,
        cache: "ResultCache | str | None" = None,
        gc_threshold: int | None = 500_000,
        reorder_threshold: int | None = None,
        executor: "object | None" = None,
    ) -> list[DecomposeResult]:
        """Decompose a batch of functions over one shared manager.

        ``functions`` yields ``ISF`` / ``Function`` items or
        ``(name, item)`` pairs.  When the items live in different
        managers they are transferred (by variable name) into a single
        shared manager — ``mgr`` if given, else a fresh manager declaring
        the union of the variables in first-seen order — so the whole
        batch shares one unique table, one operation cache, and this
        engine's divisor/cover memos.  A fresh shared manager is of the
        backend the batch's managers share; a batch mixing backends
        merges into the one the ingress rule
        (:func:`~repro.backend.protocol.choose_backend`) picks for the
        merged declaration and the batch's joint support.

        ``jobs > 1`` ships the requests (in canonical serialized form) to
        a ``multiprocessing`` worker pool and reassembles the results in
        input order; the covers and metrics are identical to a ``jobs=1``
        run.  ``cache`` — a :class:`~repro.engine.cache.ResultCache` or a
        directory path — is consulted *before* any work is dispatched and
        updated with every computed result, so a warm re-run completes
        from disk alone.  Both features require registry-name strategies
        and a named (or ``"auto"``) operator; with callables the cache is
        bypassed and ``jobs > 1`` raises :class:`ValueError`.

        ``gc_threshold`` bounds the shared manager's growth on long
        serial batches: whenever its node count exceeds the threshold
        between requests, :meth:`repro.bdd.manager.BDD.gc` reclaims
        nodes unreachable from live handles (results computed so far,
        pending inputs, and engine memos all hold handles, so reclaim
        never changes results — only memory).  ``None`` disables it.
        ``reorder_threshold`` (default: the engine's
        ``reorder_threshold``) escalates a sweep that still leaves more
        live nodes than the threshold to a sifting reorder of the shared
        manager — a stronger memory lever with the same no-observable-
        effect guarantee (covers, networks, serialized payloads, and
        cache keys are all declaration-order-normalized).

        The backend never enters cache keys or payloads: results are
        identical either way, so warm caches are shared across backends.

        ``executor`` — a :class:`~repro.engine.parallel.WorkerPool` —
        keeps one worker pool alive across ``decompose_many`` calls:
        repeated batches skip the per-call fork + import warmup.  It
        implies parallel dispatch (the executor's ``jobs`` count
        applies) and has the same wire-safety requirements as
        ``jobs > 1``.  Results are identical with or without it.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        parallel_dispatch = jobs > 1 or executor is not None
        labeled: list[tuple[str, ISF]] = []
        for index, item in enumerate(functions):
            if isinstance(item, tuple):
                label, value = item
            else:
                label, value = f"f{index}", item
            if isinstance(value, BooleanFunction):
                value = ISF.completely_specified(value)
            labeled.append((str(label), value))

        shared = self._shared_manager([isf for _, isf in labeled], mgr)
        # The input counts of the original functions, before the transfer
        # into the (possibly wider) shared manager.
        batch = [
            (label, self._transfer_isf(isf, shared), isf.n_vars)
            for label, isf in labeled
        ]

        approx_spec = (
            approximator if approximator is not None else self.default_approximator
        )
        min_spec = minimizer if minimizer is not None else self.default_minimizer
        verify_flag = self.verify if verify is None else verify
        op_spec = self._wire_op(op)
        wire_safe = (
            op_spec is not None
            and isinstance(approx_spec, str)
            and isinstance(min_spec, str)
        )
        if parallel_dispatch and not wire_safe:
            raise ValueError(
                "decompose_many(jobs>1 or executor=) needs registry-name"
                " strategies and a named (or 'auto') operator — callables"
                " and ready divisors cannot cross process boundaries"
            )
        result_cache = as_result_cache(cache) if wire_safe else None
        # The auto-search space is part of a result's identity: forward it
        # to workers and (for op="auto") into the cache key, so engines
        # configured with different operator sets never share results.
        operator_names = tuple(o.name for o in self.operators)

        from repro.bdd.serialize import SerializationError
        from repro.engine import wire

        results: list[DecomposeResult | None] = [None] * len(batch)
        keys: list[str | None] = [None] * len(batch)
        payloads: list[dict | None] = [None] * len(batch)
        pending: list[int] = []
        for index, (label, isf, _) in enumerate(batch):
            if result_cache is None and not parallel_dispatch:
                pending.append(index)
                continue
            payloads[index] = wire.isf_to_payload(isf)
            if result_cache is None:
                pending.append(index)
                continue
            keys[index] = result_cache.key_for(
                payloads[index], op_spec, approx_spec, min_spec, verify_flag,
                operators=operator_names,
            )
            hit = result_cache.get(keys[index])
            if hit is not None:
                try:
                    results[index] = wire.result_from_payload(
                        hit, self._batch_request(batch[index], op_spec,
                                                 approx_spec, min_spec,
                                                 verify_flag)
                    )
                    self.stats["result_cache_hits"] += 1
                    continue
                except SerializationError:
                    # Stale or corrupt inner payload: a miss, not an error.
                    result_cache.stats["hits"] -= 1
                    result_cache.stats["misses"] += 1
                    result_cache.stats["corrupt"] += 1
            self.stats["result_cache_misses"] += 1
            pending.append(index)

        reorder_spec = (
            reorder_threshold
            if reorder_threshold is not None
            else self.reorder_threshold
        )
        if pending and parallel_dispatch:
            from repro.engine.parallel import make_work_item, run_parallel

            items = [
                make_work_item(
                    batch[index][0],
                    payloads[index],
                    op_spec,
                    approx_spec,
                    min_spec,
                    verify_flag,
                    operator_names,
                    # Workers decode into the backend of the shared
                    # manager: the choice made where f entered holds.
                    backend=backend_of(shared),
                    reorder_threshold=reorder_spec,
                )
                for index in pending
            ]
            self.stats["dispatched"] += len(items)
            for index, payload in zip(
                pending, run_parallel(items, jobs, pool=executor)
            ):
                results[index] = wire.result_from_payload(
                    payload, self._batch_request(batch[index], op_spec,
                                                 approx_spec, min_spec,
                                                 verify_flag)
                )
                if result_cache is not None:
                    result_cache.put(keys[index], payload)
        else:
            # Hysteresis for the auto-gc trigger: a batch pins nodes
            # monotonically (inputs, results, engine memos), so once the
            # live set alone exceeds the threshold a fixed trigger would
            # sweep after every request while reclaiming nothing.  After
            # each collection, back off to twice the surviving size.
            effective_threshold = gc_threshold
            effective_reorder = reorder_spec
            for index in pending:
                label, isf, original_n_vars = batch[index]
                result = self.decompose(
                    isf,
                    op,
                    approximator=approximator,
                    minimizer=minimizer,
                    verify=verify,
                    name=label,
                    metadata={"n_vars": original_n_vars},
                )
                results[index] = result
                if result_cache is not None:
                    result_cache.put(keys[index], wire.result_to_payload(result))
                if (
                    effective_threshold is not None
                    and shared.node_count() > effective_threshold
                ):
                    # Safe point: no apply in flight between requests.
                    shared.gc()
                    if (
                        effective_reorder is not None
                        and shared.node_count() > effective_reorder
                    ):
                        # Collection alone did not get under the reorder
                        # bound — sift.  Reorder is observable only
                        # through peak node counts: every result, dump,
                        # and cache key is declaration-order-normalized.
                        shared.reorder()
                    effective_threshold = max(
                        effective_threshold, 2 * shared.node_count()
                    )
        return results

    @staticmethod
    def _wire_op(op: str | BinaryOperator) -> str | None:
        """Canonical operator name for cache keys and work items."""
        if isinstance(op, BinaryOperator):
            return op.name
        if not isinstance(op, str):
            return None
        if op.lower() == "auto":
            return "auto"
        return operator_by_name(op).name

    @staticmethod
    def _batch_request(
        entry: tuple[str, ISF, int],
        op_spec: str,
        approx_spec: str,
        min_spec: str,
        verify_flag: bool,
    ) -> DecomposeRequest:
        """Parent-side request for a result computed off-process or cached."""
        label, isf, original_n_vars = entry
        return DecomposeRequest(
            f=isf,
            op=op_spec,
            approximator=approx_spec,
            minimizer=min_spec,
            verify=verify_flag,
            name=label,
            metadata={"n_vars": original_n_vars},
        )

    def clear_caches(self) -> None:
        """Drop the divisor/cover memos (stats kept)."""
        self._divisor_cache.clear()
        self._cover_cache.clear()

    # -- batch manager sharing -------------------------------------------

    @staticmethod
    def _shared_manager(
        isfs: list[ISF], mgr: BooleanManager | None
    ) -> BooleanManager | None:
        if mgr is not None:
            return mgr
        managers = []
        for isf in isfs:
            if isf.mgr not in managers:
                managers.append(isf.mgr)
        if len(managers) <= 1:
            return managers[0] if managers else None
        # Topologically merge the per-manager variable orders so every
        # source order embeds in the shared one (a naive first-seen union
        # would reject compatible interleavings like [x1,x3] + [x1,x2,x3]).
        successors: dict[str, set[str]] = {}
        indegree: dict[str, int] = {}
        first_seen: dict[str, int] = {}
        for manager in managers:
            order = manager.var_names
            for name in order:
                indegree.setdefault(name, 0)
                successors.setdefault(name, set())
                first_seen.setdefault(name, len(first_seen))
            for above, below in zip(order, order[1:]):
                if below not in successors[above]:
                    successors[above].add(below)
                    indegree[below] += 1
        names: list[str] = []
        ready = [name for name in indegree if indegree[name] == 0]
        while ready:
            ready.sort(key=first_seen.__getitem__)
            name = ready.pop(0)
            names.append(name)
            for below in successors[name]:
                indegree[below] -= 1
                if indegree[below] == 0:
                    ready.append(below)
        if len(names) != len(indegree):
            raise ValueError(
                "variable orders of the batch managers are incompatible"
            )
        kinds = {backend_of(manager) for manager in managers}
        spec = kinds.pop() if len(kinds) == 1 else "auto"
        return make_manager(
            choose_backend(len(names), support_size(*isfs), spec), names
        )

    @staticmethod
    def _transfer_isf(isf: ISF, shared: BooleanManager | None) -> ISF:
        if shared is None or isf.mgr is shared:
            return isf
        return ISF(transfer(isf.on, shared), transfer(isf.dc, shared))

    # -- single-operator path --------------------------------------------

    def _run_single(
        self,
        request: DecomposeRequest,
        approx_spec,
        minimizer: ResolvedStrategy,
        timings: dict[str, float],
    ) -> DecomposeResult:
        op = (
            operator_by_name(request.op)
            if isinstance(request.op, str)
            else request.op
        )
        approx_name, decomposition = self._candidate(
            request.f, op, approx_spec, minimizer, timings
        )
        verified = False
        if request.verify:
            verified = self._verify(decomposition, timings)
            if not verified:
                raise VerificationError(
                    f"bi-decomposition verification failed for operator"
                    f" {op.name}"
                )
        literal_cost = decomposition.literal_cost()
        error_rate = decomposition.error_rate()
        return DecomposeResult(
            decomposition=decomposition,
            request=request,
            op_name=op.name,
            approximator_name=approx_name,
            minimizer_name=minimizer.name,
            literal_cost=literal_cost,
            error_rate=error_rate,
            verified=verified,
            candidates=[
                CandidateOutcome(op.name, verified, literal_cost, error_rate)
            ],
        )

    # -- operator auto-search --------------------------------------------

    def _run_auto(
        self,
        request: DecomposeRequest,
        approx_spec,
        minimizer: ResolvedStrategy,
        timings: dict[str, float],
    ) -> DecomposeResult:
        outcomes: list[CandidateOutcome] = []
        best = None  # ((literal_cost, error_rate), outcome, decomposition, name)
        for op in self.operators:
            try:
                approx_name, decomposition = self._candidate(
                    request.f, op, approx_spec, minimizer, timings
                )
            except InvalidDivisorError as exc:
                outcomes.append(
                    CandidateOutcome(op.name, False, reason=str(exc))
                )
                continue
            # Mirror the single-operator path: verify=False skips the
            # care-set check entirely and ranks unverified candidates.
            verified = (
                self._verify(decomposition, timings) if request.verify else False
            )
            literal_cost = decomposition.literal_cost()
            error_rate = decomposition.error_rate()
            outcome = CandidateOutcome(
                op.name,
                verified,
                literal_cost,
                error_rate,
                "" if verified or not request.verify else "verification failed",
            )
            outcomes.append(outcome)
            if request.verify and not verified:
                continue
            rank = (literal_cost, error_rate)
            if best is None or rank < best[0]:
                best = (rank, outcome, decomposition, approx_name)
        if best is None:
            raise AutoSearchError(
                f"op='auto': none of {[op.name for op in self.operators]}"
                f" produced a"
                f"{' verified' if request.verify else 'n acceptable'}"
                f" decomposition with approximator {approx_spec!r}"
            )
        _rank, outcome, decomposition, approx_name = best
        return DecomposeResult(
            decomposition=decomposition,
            request=request,
            op_name=outcome.op_name,
            approximator_name=approx_name,
            minimizer_name=minimizer.name,
            literal_cost=outcome.literal_cost,
            error_rate=outcome.error_rate,
            verified=outcome.verified,
            candidates=outcomes,
        )

    # -- stages -----------------------------------------------------------

    def _candidate(
        self,
        f: ISF,
        op: BinaryOperator,
        approx_spec,
        minimizer: ResolvedStrategy,
        timings: dict[str, float],
    ) -> tuple[str, BiDecomposition]:
        approx_name, divisor = self._divisor(f, op, approx_spec, timings)

        t0 = perf_counter()
        with _obs_span("engine.quotient", op=op.name):
            h = full_quotient(f, divisor.g, op)
        timings["quotient"] += perf_counter() - t0

        t0 = perf_counter()
        with _obs_span("engine.minimize", op=op.name, minimizer=minimizer.name):
            g_cover = divisor.g_cover
            if g_cover is None:
                g_cover = self._minimize(
                    ISF.completely_specified(divisor.g), minimizer
                )
            h_cover = self._minimize(h, minimizer)
        timings["minimize"] += perf_counter() - t0

        decomposition = BiDecomposition(
            f=f,
            op=op,
            g=divisor.g,
            h=h,
            g_cover=g_cover,
            h_cover=h_cover,
            metadata={
                "approximator": approx_name,
                "minimizer": minimizer.name,
            },
        )
        return approx_name, decomposition

    def _divisor(
        self,
        f: ISF,
        op: BinaryOperator,
        approx_spec,
        timings: dict[str, float],
    ) -> tuple[str, Divisor]:
        if isinstance(approx_spec, BooleanFunction):
            approx_spec = Divisor(g=approx_spec)
        if isinstance(approx_spec, Divisor):
            # A ready divisor: validated per-operator by full_quotient.
            return approx_spec.name or "<given>", approx_spec
        resolved = APPROXIMATORS.resolve(approx_spec)
        # Key on the resolved callable (stable per registry spec), not the
        # display name: distinct ad-hoc callables may share a __name__.
        key = (
            f,
            op.approximation if resolved.kind_pure else op.name,
            resolved.func,
        )
        cached = self._divisor_cache.get(key)
        if cached is not None:
            self.stats["divisor_hits"] += 1
            return resolved.name, cached
        self.stats["divisor_misses"] += 1
        t0 = perf_counter()
        with _obs_span("engine.approximate", op=op.name, approximator=resolved.name):
            divisor = _as_divisor(resolved.func(f, op))
        timings["approximate"] += perf_counter() - t0
        self._divisor_cache[key] = divisor
        return resolved.name, divisor

    def _minimize(self, isf: ISF, minimizer: ResolvedStrategy):
        key = (isf, minimizer.func)
        if key in self._cover_cache:
            self.stats["cover_hits"] += 1
            return self._cover_cache[key]
        self.stats["cover_misses"] += 1
        cover = minimizer.func(isf)
        self._cover_cache[key] = cover
        return cover

    @staticmethod
    def _verify(decomposition: BiDecomposition, timings: dict[str, float]) -> bool:
        t0 = perf_counter()
        with _obs_span("engine.verify", op=decomposition.op.name):
            verified = decomposition.verify()
        timings["verify"] += perf_counter() - t0
        return verified
