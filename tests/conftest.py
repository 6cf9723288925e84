"""Suite-wide settings.  Hypothesis tests draw the same examples on every
run, like the fixed-seed tests, and have no per-example deadline, which a
loaded machine would trip."""

from hypothesis import settings

settings.register_profile("boxstab", derandomize=True, deadline=None)
settings.load_profile("boxstab")
