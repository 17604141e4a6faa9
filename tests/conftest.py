"""Hypothesis profiles; select one with HYPOTHESIS_PROFILE (default: "default").

The "ci" profile derandomizes the example search, so a failure seen in CI
reproduces on any machine, and drops the per-example deadline, whose
timing varies with the load of shared runners.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
