"""Hypothesis settings for the whole suite.

Examples are derived from each test's name rather than a random seed, no
example database is kept, and each property runs a bounded number of
examples, so a run is deterministic and its duration bounded.
"""

from hypothesis import settings

settings.register_profile(
    "packedlcs", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("packedlcs")
