"""Shared pytest set-up.

Property tests run under a fixed ``hypothesis`` profile: examples are
derived from each test's source rather than drawn afresh (so reruns
test the same cases and no example database is kept), there is no
per-example deadline, and the example count is kept small enough for
the whole suite to stay quick.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None, max_examples=20
)
settings.load_profile("tier1")
