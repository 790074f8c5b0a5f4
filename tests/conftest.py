"""Suite-wide pytest options."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--write-golden", action="store_true",
        help="rewrite results/golden/eN.txt from the current code "
             "instead of comparing against it",
    )


@pytest.fixture
def write_golden(request) -> bool:
    """True when the run should rewrite the goldens it checks."""
    return request.config.getoption("--write-golden")
