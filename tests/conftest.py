"""Hypothesis profiles for the test suite.

``default`` is derandomized: every run, local or CI, draws the same
examples, 100 per property unless a test asks for more. ``deep`` draws
fresh random examples, 2000 per property, for manual runs:

    python -m pytest --hypothesis-profile=deep
"""

from hypothesis import settings

settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=2000, deadline=None)
settings.load_profile("default")
