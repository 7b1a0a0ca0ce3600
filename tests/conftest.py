"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run
(``derandomize``), drops the per-example deadline, which a slow shared
runner would trip, and prints the blob that replays a failing example with
``@reproduce_failure``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
