"""Shared test settings: a deterministic ``hypothesis`` profile.

``derandomize`` draws the same examples on every run, so tier-1 results do
not depend on the run, and no example database is written.
"""

from hypothesis import settings

settings.register_profile("floatdyn", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("floatdyn")
