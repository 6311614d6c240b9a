"""Semantic contracts of the minimizer passes, checked by truth table.

Each pass is checked against what it promises, not against a second
implementation of itself:

* 2-SPP EXPAND (``_spp_expand_masks``): every item lands inside an
  output item, outputs miss the off-set and admit no further move, and
  so does every item of the dead-end set; every off-set projection it
  answers moves from, derived after a move or built from the off-set,
  is the projection of the item state it stands for;
* MERGE (``_merge_fixpoint_masks``): the union is unchanged and no two
  output items unite into one pseudoproduct;
* IRREDUNDANT (2-SPP and espresso): the kept items cover the on-set and
  none of them can go.  The 2-SPP loop skips the sweep where it has
  nothing to drop, so the merged ISOP seed and the heuristic's result
  are checked to be irredundant themselves;
* espresso EXPAND: outputs are primes grown from input cubes, none
  inside another;
* espresso REDUCE: each cube becomes the supercube of its on-set part
  that no other cube covers;
* exact QM: the cost of a brute-force minimum over prime subsets.

The passes are spied inside real minimizations of hypothesis-drawn ISFs
on a BDD, a bitset manager and a BDD whose order differs from
declaration.  Every verdict is recomputed here on truth tables: Python
integers with bit ``m`` set for each minterm ``m`` of a region, where
variable 0 is the most significant bit of ``m``.
"""

from __future__ import annotations

import functools
import itertools
from random import Random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.boolfunc.isf import ISF
from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.spp import synthesis
from repro.spp.pseudocube import make_xor_factor
from repro.spp.synthesis import minimize_spp_heuristic
from repro.twolevel import espresso
from repro.twolevel.espresso import espresso_minimize
from repro.twolevel.quine_mccluskey import minimize_exact
from tests.conftest import function_of_bits, manager_of_kind

# ---------------------------------------------------------------------------
# Truth-table oracle
# ---------------------------------------------------------------------------


@functools.cache
def variable_tables(n_vars: int) -> tuple[int, ...]:
    """Truth table of each variable ``x_v`` (bit ``m`` set iff ``x_v = 1``)."""
    size = 1 << n_vars
    return tuple(
        sum(1 << m for m in range(size) if m >> (n_vars - 1 - var) & 1)
        for var in range(n_vars)
    )


def region(n_vars: int, pos: int, neg: int, xors=()) -> int:
    """Truth table of a pseudoproduct: literal masks (bit ``v`` is ``x_v``)
    and XOR factors ``(i, j, phase)`` meaning ``x_i ^ x_j == phase``."""
    tables = variable_tables(n_vars)
    bits = (1 << (1 << n_vars)) - 1
    for var in range(n_vars):
        if pos >> var & 1:
            bits &= tables[var]
        elif neg >> var & 1:
            bits &= ~tables[var]
    for i, j, phase in xors:
        odd = tables[i] ^ tables[j]
        bits &= odd if phase else ~odd
    return bits


def union(n_vars: int, items) -> int:
    bits = 0
    for item in items:
        bits |= region(n_vars, *item)
    return bits


def inside(inner: int, outer: int) -> bool:
    return not inner & ~outer


def expansion_regions(n_vars: int, pos: int, neg: int, xors=()):
    """The region after each single EXPAND move: a literal dropped, an XOR
    factor dropped, or two literals weakened to the XOR factor they imply."""
    literals = [var for var in range(n_vars) if (pos | neg) >> var & 1]
    for var in literals:
        keep = ~(1 << var)
        yield region(n_vars, pos & keep, neg & keep, xors)
    for factor in xors:
        yield region(n_vars, pos, neg, [other for other in xors if other != factor])
    for var_a, var_b in itertools.combinations(literals, 2):
        keep = ~((1 << var_a) | (1 << var_b))
        phase = (pos >> var_a ^ pos >> var_b) & 1
        yield region(n_vars, pos & keep, neg & keep, [*xors, (var_a, var_b, phase)])


def supercube(n_vars: int, bits: int) -> tuple[int, int]:
    """Literal masks of the smallest cube holding a non-empty region."""
    pos = neg = 0
    for var, table in enumerate(variable_tables(n_vars)):
        if inside(bits, table):
            pos |= 1 << var
        elif not bits & table:
            neg |= 1 << var
    return pos, neg


def is_pseudoproduct_region(n_vars: int, bits: int) -> bool:
    """Whether ``bits`` is the region of one 2-pseudoproduct.

    Every factor of a pseudoproduct holds on its whole region, so the
    candidates are the literals and two-variable parities constant on
    ``bits``.  The region is a pseudoproduct iff those parities share no
    variable (three variables with pairwise constant parities need two
    factors on a common variable) and the candidates carve out exactly
    ``bits``.
    """
    if not bits:
        return False
    tables = variable_tables(n_vars)
    pos, neg = supercube(n_vars, bits)
    free = [var for var in range(n_vars) if not (pos | neg) >> var & 1]
    xors = []
    used = 0
    for var_a, var_b in itertools.combinations(free, 2):
        odd = tables[var_a] ^ tables[var_b]
        if inside(bits, odd):
            phase = 1
        elif not bits & odd:
            phase = 0
        else:
            continue
        pair = (1 << var_a) | (1 << var_b)
        if used & pair:
            return False
        used |= pair
        xors.append((var_a, var_b, phase))
    return region(n_vars, pos, neg, xors) == bits


def is_subsequence(kept: list, items: list) -> bool:
    remaining = iter(items)
    return all(any(item == candidate for candidate in remaining) for item in kept)


def assert_merged(n_vars: int, items: list, merged: list) -> None:
    """Distinct items, the same union, and no two items, neither inside
    the other, whose union is one pseudoproduct (a contained item is
    IRREDUNDANT's to drop)."""
    assert len(set(merged)) == len(merged)
    assert union(n_vars, merged) == union(n_vars, items)
    for a, b in itertools.combinations(merged, 2):
        bits_a, bits_b = region(n_vars, *a), region(n_vars, *b)
        if not inside(bits_a, bits_b) and not inside(bits_b, bits_a):
            assert not is_pseudoproduct_region(n_vars, bits_a | bits_b), (a, b)


def assert_irredundant(n_vars: int, on: int, items: list, kept: list) -> None:
    """The kept items are items in order, cover ``on``, and none can go."""
    assert is_subsequence(kept, items)
    regions = [region(n_vars, *item) for item in kept]
    assert inside(on, union(n_vars, kept))
    for index in range(len(regions)):
        others = 0
        for position, bits in enumerate(regions):
            if position != index:
                others |= bits
        assert not inside(on, others), kept[index]


# ---------------------------------------------------------------------------
# Drawn intervals
# ---------------------------------------------------------------------------


def parity_bits(n_vars: int, subset: int, phase: int) -> int:
    """Truth table of the parity of the variables in ``subset`` (bit v =
    variable v), complemented when ``phase`` is 1."""
    bits = 0
    for minterm in range(1 << n_vars):
        odd = 0
        for var in range(n_vars):
            if subset >> var & 1:
                odd ^= minterm >> (n_vars - 1 - var) & 1
        if odd ^ phase:
            bits |= 1 << minterm
    return bits


@st.composite
def intervals(draw, min_vars: int = 5, max_vars: int = 8):
    """``(kind, n, on_bits, dc_bits)`` with a non-empty dc-set; half the
    on-sets are a parity with sparse noise, so items take XOR factors.
    Tables come from a drawn seed: uniform tables, not shrunk ones."""
    kind = draw(st.sampled_from(("bdd", "bitset", "reordered")))
    n_vars = draw(st.integers(min_vars, max_vars))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    size = 1 << n_vars
    if draw(st.booleans()):
        subset = draw(st.integers(0, (1 << n_vars) - 1))
        assume(subset.bit_count() >= 2)
        noise = rng.getrandbits(size) & rng.getrandbits(size)
        noise &= rng.getrandbits(size)
        on = parity_bits(n_vars, subset, draw(st.integers(0, 1))) ^ noise
    else:
        on = rng.getrandbits(size)
    dc = rng.getrandbits(size) & rng.getrandbits(size)
    on &= ~dc
    assume(dc and on and on | dc != (1 << size) - 1)
    return kind, n_vars, on, dc


def isf_of(kind: str, n_vars: int, on: int, dc: int) -> ISF:
    mgr = manager_of_kind(kind, n_vars)
    return ISF(function_of_bits(mgr, on), function_of_bits(mgr, dc))


def spy_on(monkeypatch, module, name: str, check, before=lambda *args: None) -> None:
    """Replace ``module.name`` by a wrapper that hands each call's
    arguments, result and ``before(*args)`` (taken ahead of the call) to
    ``check``, so a broken pass fails its contract as soon as it
    returns, before the minimizer's own final check of the cover."""
    wrapped = getattr(module, name)

    def spy(*args):
        state = before(*args)
        result = wrapped(*args)
        check(args, result, state)
        return result

    monkeypatch.setattr(module, name, spy)


# ---------------------------------------------------------------------------
# 2-SPP passes
# ---------------------------------------------------------------------------


def test_spp_passes_meet_their_contracts(monkeypatch):
    """EXPAND, MERGE and IRREDUNDANT of real 2-SPP minimizations.

    EXPAND answers moves from off-set projections and skips items whose
    full scan found no move in an earlier round of the same
    minimization, so a wrong projection, a stale one or a wrong skip
    leaves an output that meets the off-set or still admits a move; a
    dead-end set that holds an item before its scan ended, or outlives
    its minimization, holds an item that admits a move.
    """
    current: dict = {}
    seen = {"skipped": 0, "xor_items": 0, "moves": 0, "irredundant": 0}

    def is_maximal(item: tuple) -> bool:
        """Disjoint from the off-set, and no EXPAND move stays so."""
        maximal = current["maximal"]
        if item not in maximal:
            n_vars, off = current["n_vars"], current["off"]
            maximal[item] = not region(n_vars, *item) & off and all(
                grown & off for grown in expansion_regions(n_vars, *item)
            )
        return maximal[item]

    def check_expand(args, expanded, skipped):
        triples, _off, _mgr, dead_ends = args
        n_vars = current["n_vars"]
        seen["skipped"] += skipped
        outputs = [region(n_vars, *item) for item in expanded]
        for item in triples:
            bits = region(n_vars, *item)
            assert any(inside(bits, grown) for grown in outputs), ("lost", item)
        for item in expanded:
            assert is_maximal(item), ("not maximal", item)
            seen["xor_items"] += bool(item[2])
        seen["moves"] += len(set(expanded) - set(triples))
        # Every item the set holds after the call, including those a set
        # shared with other minimizations would bring from them.
        for item in dead_ends:
            assert is_maximal(item), ("dead end", item)

    def check_merge(args, merged, _state):
        assert_merged(current["n_vars"], *args, merged)

    def check_irredundant(args, kept, _state):
        triples, _dc, _mgr = args
        assert_irredundant(current["n_vars"], current["on"], triples, kept)
        seen["irredundant"] += 1

    spy_on(
        monkeypatch,
        synthesis,
        "_spp_expand_masks",
        check_expand,
        # Items already in the dead-end set are kept without a scan.
        before=lambda triples, off, mgr, dead_ends: sum(
            1 for triple in triples if triple in dead_ends
        ),
    )
    spy_on(monkeypatch, synthesis, "_merge_fixpoint_masks", check_merge)
    spy_on(monkeypatch, synthesis, "_spp_irredundant_masks", check_irredundant)

    @settings(max_examples=150, deadline=None)
    @given(interval=intervals())
    def check(interval):
        kind, n_vars, on, dc = interval
        off = ((1 << (1 << n_vars)) - 1) & ~(on | dc)
        current.update(n_vars=n_vars, on=on, off=off, maximal={})
        minimize_spp_heuristic(isf_of(kind, n_vars, on, dc))

    check()
    # Some drawn minimization entered a later EXPAND round holding items
    # already in its dead-end set, so the skip was exercised and checked;
    # some item carried an XOR factor; some item moved at all.
    assert seen["skipped"] > 0
    assert seen["xor_items"] > 0
    assert seen["moves"] > 0
    assert seen["irredundant"] > 0


def projection_bits(n_vars: int, off: int, bound: int, xors) -> int:
    """Truth table of EXPAND's projection ``∃(variables not in bound).(off ∧ X)``:
    minterm ``m`` is in it iff an off-set minterm on the XOR factors
    ``X`` agrees with ``m`` on every variable of ``bound``."""
    keep = sum(1 << (n_vars - 1 - var) for var in range(n_vars) if bound >> var & 1)
    blocked = off & region(n_vars, 0, 0, xors)
    reached = {m & keep for m in range(1 << n_vars) if blocked >> m & 1}
    return sum(1 << m for m in range(1 << n_vars) if m & keep in reached)


def bits_of(function, n_vars: int) -> int:
    return sum(1 << m for m in range(1 << n_vars) if function(m))


def test_carried_projections_match_the_off_set(monkeypatch):
    """EXPAND carries an item's projection across a literal drop or a
    pair weakening instead of projecting the off-set again.  Each
    projection of real minimizations is followed from the off-set
    projection its item started from, and every one, carried or built,
    must be the projection of the off-set for the item state it stands
    for.  Minimizations start from the ISOP, whose primes admit no drop,
    or from the on-set minterms, from which items drop literals."""
    current: dict = {}
    seen = {"built": 0, "dropped": 0, "weakened": 0}

    def state_after_drop(blocked, _mgr, var):
        bound, xors = current["states"][id(blocked)][1]
        return "dropped", (bound & ~(1 << var), xors)

    def state_after_weakening(blocked, _mgr, factor):
        bound, xors = current["states"][id(blocked)][1]
        pair = (1 << factor.i) | (1 << factor.j)
        assert bound & pair == pair, ("weakened a non-literal", factor)
        return "weakened", (bound & ~pair, xors | {factor})

    def check(_args, projection, state):
        kind, (bound, xors) = state
        n_vars = current["n_vars"]
        expected = projection_bits(n_vars, current["off"], bound, xors)
        assert bits_of(projection, n_vars) == expected, (kind, bound, xors)
        # Keep the handle alive, so its id names this state alone.
        current["states"][id(projection)] = (projection, (bound, xors))
        seen[kind] += 1

    spy_on(
        monkeypatch,
        synthesis,
        "_off_projection",
        check,
        before=lambda off, mgr, bound, xors: ("built", (bound, xors)),
    )
    spy_on(monkeypatch, synthesis, "_dropped_projection", check, state_after_drop)
    spy_on(
        monkeypatch, synthesis, "_weakened_projection", check, state_after_weakening
    )

    @settings(max_examples=150, deadline=None)
    @given(interval=intervals(), minterm_seed=st.booleans())
    def run(interval, minterm_seed):
        kind, n_vars, on, dc = interval
        off = ((1 << (1 << n_vars)) - 1) & ~(on | dc)
        current.update(n_vars=n_vars, off=off, states={})
        initial = None
        if minterm_seed:
            minterms = [m for m in range(1 << n_vars) if on >> m & 1]
            initial = Cover(n_vars, [Cube.from_minterm(n_vars, m) for m in minterms])
        minimize_spp_heuristic(isf_of(kind, n_vars, on, dc), initial=initial)

    run()
    assert seen["built"] > 0
    assert seen["dropped"] > 0
    assert seen["weakened"] > 0


@settings(max_examples=100, deadline=None)
@given(interval=intervals())
def test_merged_isop_seed_is_irredundant(interval):
    """The merge fixpoint of an ISOP seed keeps a private on-set point in
    every item, so the 2-SPP loop runs no IRREDUNDANT sweep on it: the
    sweep would return every item, in order."""
    kind, n_vars, on, dc = interval
    isf = isf_of(kind, n_vars, on, dc)
    merged = synthesis._merge_fixpoint_masks(
        [(pos, neg, frozenset()) for pos, neg in synthesis._isop_seed(isf)]
    )
    assert_irredundant(n_vars, on, merged, merged)
    assert synthesis._spp_irredundant_masks(merged, isf.dc, isf.mgr) == merged


@settings(max_examples=100, deadline=None)
@given(
    interval=intervals(),
    rounds=st.sampled_from((0, 6)),
    padding=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_heuristic_result_is_irredundant(interval, rounds, padding, seed):
    """Every item of ``minimize_spp_heuristic``'s result holds an on-set
    point no other item covers, with or without EXPAND rounds, from the
    ISOP seed or from a given cover padded with on-set and dc-set
    minterms, which the first sweep has to drop."""
    kind, n_vars, on, dc = interval
    isf = isf_of(kind, n_vars, on, dc)
    initial = None
    if padding:
        rng = Random(seed)
        cubes = [Cube(n_vars, pos, neg) for pos, neg in synthesis._isop_seed(isf)]
        points = [m for m in range(1 << n_vars) if (on | dc) >> m & 1]
        for minterm in rng.sample(points, min(padding, len(points))):
            cubes.insert(rng.randrange(len(cubes) + 1), Cube.from_minterm(n_vars, minterm))
        initial = Cover(n_vars, cubes)
    result = minimize_spp_heuristic(isf, initial=initial, max_iterations=rounds)
    items = [(pc.pos, pc.neg, pc.xors) for pc in result.pseudocubes]
    assert inside(union(n_vars, items), on | dc)
    assert_irredundant(n_vars, on, items, items)


def random_triple(rng: Random, n_vars: int) -> tuple:
    """A pseudoproduct triple: each variable a literal, free, or paired
    with another free variable into an XOR factor."""
    pos = neg = 0
    free = []
    for var in range(n_vars):
        roll = rng.random()
        if roll < 0.3:
            pos |= 1 << var
        elif roll < 0.6:
            neg |= 1 << var
        else:
            free.append(var)
    rng.shuffle(free)
    xors = set()
    while len(free) >= 2 and rng.random() < 0.6:
        var_a, var_b = sorted((free.pop(), free.pop()))
        xors.add(make_xor_factor(var_a, var_b, rng.getrandbits(1)))
    return pos, neg, frozenset(xors)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**32 - 1), st.integers(0, 14))
def test_merge_fixpoint_contract_on_drawn_items(n_vars, seed, count):
    """MERGE on arbitrary pseudoproducts, related ones included: each
    item is drawn fresh or as a copy of an earlier one with one literal
    flipped, two literals flipped or one XOR factor's phase flipped."""
    rng = Random(seed)
    triples = []
    for _ in range(count):
        if triples and rng.random() < 0.6:
            pos, neg, xors = rng.choice(triples)
            literals = [var for var in range(n_vars) if (pos | neg) >> var & 1]
            move = rng.randrange(3)
            if move < 2 and len(literals) > move:
                flip = sum(1 << var for var in rng.sample(literals, move + 1))
                pos, neg = pos ^ flip, neg ^ flip
            elif xors:
                factor = rng.choice(sorted(xors))
                xors = (xors - {factor}) | {factor._replace(phase=factor.phase ^ 1)}
            triples.append((pos, neg, frozenset(xors)))
        else:
            triples.append(random_triple(rng, n_vars))
    assert_merged(n_vars, triples, synthesis._merge_fixpoint_masks(triples))


def test_pseudoproduct_oracle_on_known_regions():
    """The oracle itself: pseudoproducts are recognized, a three-variable
    parity and a union of two unrelated cubes are not."""
    n_vars = 4
    assert is_pseudoproduct_region(n_vars, region(n_vars, 0b0001, 0b0100))
    assert is_pseudoproduct_region(
        n_vars, region(n_vars, 0b0001, 0, [(1, 2, 1)])
    )
    assert is_pseudoproduct_region(n_vars, region(n_vars, 0, 0, [(0, 1, 0), (2, 3, 1)]))
    three_parity = region(n_vars, 0, 0, [(0, 1, 1)]) ^ region(n_vars, 0b0100, 0)
    assert three_parity.bit_count() == 8
    assert not is_pseudoproduct_region(n_vars, three_parity)
    assert not is_pseudoproduct_region(
        n_vars, region(n_vars, 0b0011, 0) | region(n_vars, 0, 0b1100)
    )
    assert not is_pseudoproduct_region(n_vars, 0)


# ---------------------------------------------------------------------------
# espresso passes
# ---------------------------------------------------------------------------


def test_espresso_passes_meet_their_contracts(monkeypatch):
    """EXPAND, IRREDUNDANT and REDUCE of real espresso minimizations,
    seeded from the ISOP or from the on-set minterms (from which EXPAND
    has moves to make and REDUCE has cubes to shrink)."""
    current: dict = {}
    seen = {"drops": 0, "shrunk": 0, "reduce": 0}

    def check_expand(args, expanded, _state):
        cover, _off, _mgr = args
        n_vars, off = current["n_vars"], current["off"]
        cubes, grown = list(cover.masks()), list(expanded.masks())
        inputs = [region(n_vars, *cube) for cube in cubes]
        outputs = [region(n_vars, *cube) for cube in grown]
        for bits in inputs:
            assert any(inside(bits, out) for out in outputs)
        for cube, bits in zip(grown, outputs):
            assert any(inside(source, bits) for source in inputs), cube
            assert not bits & off, cube
            pos, neg = cube
            for var in range(n_vars):
                if (pos | neg) >> var & 1:
                    keep = ~(1 << var)
                    assert region(n_vars, pos & keep, neg & keep) & off, cube
        for (a, bits_a), (b, bits_b) in itertools.permutations(zip(grown, outputs), 2):
            assert not inside(bits_a, bits_b), (a, b)
        seen["drops"] += sum((pos | neg).bit_count() for pos, neg in cubes) - sum(
            (pos | neg).bit_count() for pos, neg in grown
        )

    def check_irredundant(args, kept, _state):
        cover, _dc, _mgr = args
        assert_irredundant(
            current["n_vars"],
            current["on"],
            [(*cube, ()) for cube in list(cover.masks())],
            [(*cube, ()) for cube in list(kept.masks())],
        )

    def check_reduce(args, reduced, _state):
        cover, _on, _dc, _mgr = args
        n_vars, on = current["n_vars"], current["on"]
        cubes = list(cover.masks())
        expected: list[tuple[int, int]] = []
        for index, cube in enumerate(cubes):
            others = union(n_vars, expected) | union(n_vars, cubes[index + 1 :])
            part = region(n_vars, *cube) & on & ~others
            if part:
                expected.append(supercube(n_vars, part))
        assert list(reduced.masks()) == expected
        assert inside(on, union(n_vars, expected))
        seen["reduce"] += 1
        seen["shrunk"] += expected != cubes

    spy_on(monkeypatch, espresso, "_expand", check_expand)
    spy_on(monkeypatch, espresso, "_irredundant", check_irredundant)
    spy_on(monkeypatch, espresso, "_reduce", check_reduce)

    @settings(max_examples=120, deadline=None)
    @given(interval=intervals(4, 7), minterm_seed=st.booleans())
    def check(interval, minterm_seed):
        kind, n_vars, on, dc = interval
        off = ((1 << (1 << n_vars)) - 1) & ~(on | dc)
        current.update(n_vars=n_vars, on=on, off=off)
        initial = None
        if minterm_seed:
            minterms = [m for m in range(1 << n_vars) if on >> m & 1]
            initial = Cover(n_vars, [Cube.from_minterm(n_vars, m) for m in minterms])
        espresso_minimize(isf_of(kind, n_vars, on, dc), initial=initial)

    check()
    assert seen["drops"] > 0
    assert seen["reduce"] > 0
    assert seen["shrunk"] > 0


# ---------------------------------------------------------------------------
# Exact QM
# ---------------------------------------------------------------------------


def brute_force_min_cost(n_vars: int, on: int, dc: int) -> tuple[int, int]:
    """``(products, literals)`` of a cheapest set of primes covering ``on``.

    The primes are every cube inside ``on ∪ dc`` that no other such cube
    contains.  The search is exhaustive: the lowest uncovered on-set
    minterm is covered by some chosen prime, so it branches over those,
    memoized on the uncovered set.
    """
    allowed = on | dc
    implicants = []
    for literals in itertools.product((0, 1, 2), repeat=n_vars):
        pos = sum(1 << var for var, value in enumerate(literals) if value == 1)
        neg = sum(1 << var for var, value in enumerate(literals) if value == 0)
        bits = region(n_vars, pos, neg)
        if inside(bits, allowed):
            implicants.append(((pos | neg).bit_count(), bits))
    primes = [
        (count, bits)
        for count, bits in implicants
        if not any(other != bits and inside(bits, other) for _, other in implicants)
    ]

    @functools.cache
    def best(uncovered: int) -> tuple[int, int]:
        if not uncovered:
            return 0, 0
        lowest = uncovered & -uncovered
        options = []
        for count, bits in primes:
            if bits & lowest:
                products, literals = best(uncovered & ~bits)
                options.append((products + 1, literals + count))
        return min(options)

    return best(on)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 4), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_exact_qm_cost_is_the_brute_force_minimum(n_vars, on_bits, dc_bits):
    full = (1 << (1 << n_vars)) - 1
    on = on_bits & full
    dc = dc_bits & dc_bits >> 3 & full & ~on
    cover = minimize_exact(
        n_vars,
        [m for m in range(1 << n_vars) if on >> m & 1],
        [m for m in range(1 << n_vars) if dc >> m & 1],
    )
    realized = union(n_vars, [(cube.pos, cube.neg) for cube in cover.cubes])
    assert inside(on, realized) and inside(realized, on | dc)
    assert (cover.cube_count(), cover.literal_count()) == brute_force_min_cost(
        n_vars, on, dc
    )
