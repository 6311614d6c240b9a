"""Two-level (SOP) logic minimization.

* :func:`~repro.twolevel.quine_mccluskey.minimize_exact` — exact
  Quine–McCluskey minimization with don't-cares (prime generation +
  branch-and-bound covering), practical up to roughly 12 variables.
* :func:`~repro.twolevel.espresso.espresso_minimize` — an espresso-style
  EXPAND / IRREDUNDANT / REDUCE loop whose containment oracles are BDDs,
  used for all benchmark-scale synthesis.
* :mod:`~repro.twolevel.containment` — the IRREDUNDANT and REDUCE
  questions of espresso and 2-SPP, answered per backend.
* :mod:`~repro.twolevel.covering` — the shared minimum-cost unate
  covering solver.
"""

from repro.twolevel.covering import CoveringProblem, solve_covering
from repro.twolevel.espresso import espresso_minimize
from repro.twolevel.quine_mccluskey import generate_primes, minimize_exact

__all__ = [
    "CoveringProblem",
    "espresso_minimize",
    "generate_primes",
    "minimize_exact",
    "solve_covering",
]
