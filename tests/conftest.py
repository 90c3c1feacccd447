"""Suite-wide settings: one deterministic hypothesis profile.

Every property test draws the same examples on every run (derandomize,
no example database), takes as long as it needs (no deadline, so a slow
shared host cannot turn a pass into a flake) and stops after a bounded
number of examples, so a plain ``pytest`` run is deterministic and its
time bounded.
"""

from hypothesis import settings

settings.register_profile("fixpoint", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("fixpoint")
