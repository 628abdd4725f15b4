"""Shared pytest set-up.

Property tests run under a fixed ``hypothesis`` profile: examples are
derived from each test's source rather than drawn afresh (so reruns
test the same cases and no example database is kept), there is no
per-example deadline, and the example count is kept small enough for
the whole suite to stay quick.  A failing example is reported as found,
without the shrink and explain phases: shrinking a failing 200-step
chain can take many minutes, and the same examples run either way.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "tier1",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=20,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
settings.load_profile("tier1")
