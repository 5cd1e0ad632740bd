"""Test-suite configuration: every run draws the same hypothesis examples.

Each test keeps its own `max_examples` and `deadline`; the profile only
derandomizes generation, so a failure found once is found on every run.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
