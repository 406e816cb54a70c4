"""Exact arithmetic for p-adic polynomial integrals and special-number families.

Everything in this package computes with arbitrary-precision rationals;
no operation ever rounds.  The main pieces:

* :mod:`volkenborn.polynomials` / :mod:`volkenborn.series` -- the exact
  substrate (dense polynomials, truncated formal power series).
* :mod:`volkenborn.sequences` -- Bernoulli, Euler, Stirling, Lah, Daehee,
  Changhee, Fubini, Cauchy, Eulerian and friends, with memoized tables.
* :mod:`volkenborn.padic` -- valuations, norms and primality.
* :mod:`volkenborn.integrals` -- exact bosonic/fermionic integrals of
  polynomials and their level-N Riemann sums.
* :mod:`volkenborn.identities` -- an executable catalog of integral and
  combinatorial identities with a pass/corrected/fail runner.
"""

from .polynomials import Polynomial, binom_int, binom_poly, falling_poly, rising_poly
from .series import PowerSeries
from .padic import padic_distance, valuation
from .integrals import (
    ConvergenceReport,
    Measure,
    alternating_power_sum,
    check_fermionic_shift,
    check_shift_equation,
    convergence_report,
    fermionic_exact,
    level_integral,
    power_sum,
    volkenborn_exact,
)
from .identities import IdentityRecord, IdentityReport, catalog, verify, verify_all
from . import sequences

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "IdentityRecord",
    "IdentityReport",
    "Measure",
    "Polynomial",
    "PowerSeries",
    "alternating_power_sum",
    "binom_int",
    "binom_poly",
    "catalog",
    "check_fermionic_shift",
    "check_shift_equation",
    "convergence_report",
    "falling_poly",
    "fermionic_exact",
    "level_integral",
    "padic_distance",
    "power_sum",
    "rising_poly",
    "sequences",
    "valuation",
    "verify",
    "verify_all",
    "volkenborn_exact",
]
