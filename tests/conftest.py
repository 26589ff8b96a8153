"""One hypothesis profile for every property test in the suite.

Examples are derived from each test itself (`derandomize`), never from a
random seed or a saved example database, so every run draws the same
examples; exact arithmetic on a large draw can be slow, so there is no
per-example deadline.  A test sets only its own `max_examples` and
`suppress_health_check`.
"""

from hypothesis import settings

settings.register_profile("nilgrade", derandomize=True, deadline=None, database=None)
settings.load_profile("nilgrade")
