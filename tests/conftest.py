"""Shared test settings: hypothesis properties run a fixed, reproducible set of examples."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
