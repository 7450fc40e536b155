"""Where tier-1 must run against the installed package, it does.

CI installs certisqrt and runs tier-1 from the checkout root without
PYTHONPATH; its tier-1 step sets CERTISQRT_EXPECT_INSTALLED=1.  A later
pythonpath setting or sys.path insert that put the tests back on src/
would then fail here rather than pass unseen.  Elsewhere, tier-1 runs
with PYTHONPATH=src and this test is skipped.
"""
import os
from pathlib import Path

import pytest

import certisqrt

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.skipif(os.environ.get("CERTISQRT_EXPECT_INSTALLED") != "1",
                    reason="CERTISQRT_EXPECT_INSTALLED=1 is not set")
def test_imports_the_installed_package():
    where = Path(certisqrt.__file__).resolve()
    assert not where.is_relative_to(SRC.resolve()), where
