"""Suite-wide settings: deterministic hypothesis profiles.

Every property test draws the same examples on every run (derandomize,
no example database), takes as long as it needs (no deadline, so a slow
shared host cannot turn a pass into a flake) and stops after a bounded
number of examples, so a plain ``pytest`` run is deterministic and its
time bounded.  ``fixpoint`` is the default; ``fixpoint-ci`` is the same
search widened to 500 examples, which CI runs on the bit-equality and
property tests with ``--hypothesis-profile=fixpoint-ci``.
"""

from hypothesis import settings

settings.register_profile("fixpoint", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.register_profile("fixpoint-ci", settings.get_profile("fixpoint"),
                          max_examples=500)
settings.load_profile("fixpoint")
