"""Suite-wide test settings.

Every hypothesis test runs under the ``property`` profile: a fixed example
stream (derandomized, no example database), so each run checks the same
cases, and no per-example deadline.

The ``cold_plans`` fixture empties the three plan caches (quadrature rules,
``solve_fde`` bases and exponent lattices) before its test, so the test's
first calls build every plan afresh.
"""

import pytest
from hypothesis import settings

from fraclsq import fraccalc, quadrature

settings.register_profile("property", derandomize=True, deadline=None, database=None,
                          max_examples=40)
settings.load_profile("property")


@pytest.fixture
def cold_plans():
    """The cached plan builders, each emptied: (rules, bases, lattices)."""
    caches = (quadrature._ladder_rule, fraccalc._basis_of, fraccalc._lattice_of)
    for cache in caches:
        cache.cache_clear()
    return caches
