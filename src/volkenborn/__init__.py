"""Exact arithmetic for p-adic polynomial integrals and special-number families.

Everything in this package computes with arbitrary-precision rationals;
no operation ever rounds.  The main pieces:

* :mod:`volkenborn.polynomials` -- the exact substrate (dense polynomials).
* :mod:`volkenborn.sequences` -- Bernoulli, Euler, Stirling, Lah, Daehee,
  Changhee, Fubini, Cauchy, Eulerian and friends, with memoized tables.
* :mod:`volkenborn.padic` -- valuations, norms and primality.
* :mod:`volkenborn.integrals` -- exact bosonic/fermionic integrals of
  polynomials and their level-N Riemann sums.
* :mod:`volkenborn.identities` -- an executable catalog of integral and
  combinatorial identities with a pass/corrected/fail runner.
* :mod:`volkenborn.series` -- truncated formal power series, kept as an
  EGF reference for the tests and the benchmark; no family is built on it.

``import volkenborn`` loads no submodule: each name below loads its module
on first use (PEP 562), so a caller pays only for what it reads.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines; a name equal to its module's is the module itself
_EXPORTS = {
    "polynomials": ("Polynomial", "binom_int", "binom_poly", "falling_poly", "rising_poly"),
    "series": ("PowerSeries",),
    "padic": ("padic_distance", "valuation"),
    "integrals": (
        "ConvergenceReport", "Measure", "alternating_power_sum", "check_fermionic_shift",
        "check_shift_equation", "convergence_report", "fermionic_exact", "level_integral",
        "power_sum", "volkenborn_exact",
    ),
    "identities": ("IdentityRecord", "IdentityReport", "catalog", "verify", "verify_all"),
    "sequences": ("sequences",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # no cache: a name rebound in its module (a tracer, a test's monkeypatch) reads the same here
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
