"""Hypothesis settings for the suite.

With the ``CI`` environment variable set, as CI services set it, every
property draws its examples from a fixed seed (the ``derandomized``
profile), so a failure there comes back on rerun, and Hypothesis prints the
blob that reproduces it.  Recent Hypothesis releases load a profile like it
in CI by themselves; this one holds whatever version CI installs.  Local
runs keep Hypothesis's default: new random examples on every run.
"""

import os

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, print_blob=True)
if "CI" in os.environ:
    settings.load_profile("derandomized")
