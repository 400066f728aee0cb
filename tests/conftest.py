"""Session-wide test settings."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Property tests are bounded differential checks: examples come from a
    # fixed seed, so every run tests the same graphs, and no example is
    # failed for taking long on a slow or busy machine.
    settings.register_profile("domlab", deadline=None, derandomize=True)
    settings.load_profile("domlab")
