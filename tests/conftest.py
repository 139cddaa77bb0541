"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` loads ``ci``, under which
every run draws the same examples, keeps no example database, and a
failure prints the blob that reproduces it."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
