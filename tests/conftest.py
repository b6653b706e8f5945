"""Suite-wide settings: property tests run a fixed, derandomized set of examples."""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=150, database=None
)
settings.load_profile("deterministic")
