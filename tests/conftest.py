"""Hypothesis profiles for the suite.

`ci` runs the examples of the default profile but leaves out the shrink
phase: a failing property test reports the first example that fails
instead of shrinking it for up to five minutes a test (hypothesis's
`MAX_SHRINKING_SECONDS`).  Select it with `--hypothesis-profile=ci`.
"""

from hypothesis import Phase, settings

settings.register_profile("ci", phases=[phase for phase in Phase if phase is not Phase.shrink])
