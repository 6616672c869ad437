"""Hypothesis profiles. Tier-1 runs the default one; CI runs the split-search
tests again under `--hypothesis-profile=ci`, with ten times the examples,
because the near-ties they look for are rare. A test whose @settings names
max_examples keeps its own count under either profile."""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
