"""Hypothesis draws the same examples on every run, so a tier-1 failure
reproduces from the commit alone."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
