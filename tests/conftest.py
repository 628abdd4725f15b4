"""Shared pytest set-up.

Property tests run under a fixed ``hypothesis`` profile: examples are
derived from each test's source rather than drawn afresh (so reruns
test the same cases and no example database is kept), there is no
per-example deadline, and the example count is kept small enough for
the whole suite to stay quick.  A failing example is reported as found,
without the shrink and explain phases: shrinking a failing 200-step
chain can take many minutes, and the same examples run either way.

The ``wide`` profile is ``tier1`` with 300 examples, for the
bit-identity properties that CI also runs on more examples: the
oracle's, and the column routes' of the batch Gaussian density and the
CSV writer (``--hypothesis-profile=wide``).
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
settings.register_profile("wide", settings.get_profile("tier1"), max_examples=300)
settings.load_profile("tier1")
