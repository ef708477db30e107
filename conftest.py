"""Root pytest configuration shared by tests/, benchmarks/ and perfbench/.

pyproject sets a ``timeout`` ini option for pytest-timeout.  When that
plugin is not installed, the key is registered here so every tree
collected under this root reads it without an unknown-option warning.
The deadline itself is enforced only in tests/ (see tests/conftest.py).
"""


def pytest_addoption(parser):
    try:
        parser.addini("timeout", "per-test deadline in seconds "
                                 "(fallback for pytest-timeout)")
    except ValueError:
        pass  # pytest-timeout already registered the option
