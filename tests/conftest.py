"""Test-wide settings: every ``hypothesis`` property draws the same
examples on every run, so a pass or failure never depends on the random
seed or on a local ``.hypothesis/`` example database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
