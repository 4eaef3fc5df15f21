"""Test-wide settings: every property test runs the same examples each run.

HYPOTHESIS_PROFILE=soak selects a longer run of the same derandomised
examples, for the properties that read their example count from it (the
walk differential and the trace read order in test_due_scans, the bundle
model, the counters recount, the signature reference model, the Merkle
path walk and the metamorphic relations: time splitting, pure reads,
renaming, variant and seed):
    HYPOTHESIS_PROFILE=soak python -m pytest tests/test_due_scans.py \
        tests/test_lightning.py tests/test_harness.py tests/test_qlds.py \
        tests/test_relations.py tests/test_bridge.py
"""

import os

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("soak", settings.get_profile("deterministic"),
                          max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
