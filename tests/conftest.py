"""Test-suite settings shared by every module.

Property tests run derandomized, so a tier-1 run draws the same examples
every time, and without a deadline, since some examples simulate a
network draw.
"""

from hypothesis import settings

settings.register_profile("voidnet", derandomize=True, deadline=None)
settings.load_profile("voidnet")
