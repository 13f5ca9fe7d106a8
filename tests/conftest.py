"""Suite-wide test settings.

Every hypothesis test runs under the ``property`` profile: a fixed example
stream (derandomized, no example database), so each run checks the same
cases, and no per-example deadline.
"""

from hypothesis import settings

settings.register_profile("property", derandomize=True, deadline=None, database=None,
                          max_examples=40)
settings.load_profile("property")
