"""Hypothesis draws the same examples on every run: its random seed comes
from each test function and no example database is read or written."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
