from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import Phase, settings

from certisqrt.fixarith import FixProfile
from certisqrt.floatmodel import FloatProfile
from certisqrt.exact import within_of_sqrt
from certisqrt.lut import build_root_table
from certisqrt.newton import sqr_exact
from certisqrt.verify import applied_corrections, iteration_cap, sample_rationals

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS_SEED = 20240801

# Selected by --hypothesis-profile no-shrink, as tools/mutants.py runs
# each test: a failing example is reported as found, not shrunk first, as
# a mutant is killed by any failure.  A test's own @settings inherits
# these phases; the default profile, which tier-1 runs, still shrinks.
settings.register_profile(
    "no-shrink", phases=[p for p in Phase if p is not Phase.shrink])
# Selected by tools/covmap.py, so that every run of the coverage map
# draws the same examples and reaches the same statements.
settings.register_profile("derandomized", derandomize=True, database=None)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def demo_profile() -> FixProfile:
    # 1/100 grid on [-16, 16]
    return FixProfile(100, 1600, 1600)


@pytest.fixture(scope="session")
def demo_stp(demo_profile):
    return demo_profile.val(25)


@pytest.fixture(scope="session")
def demo_eps(demo_profile):
    return demo_profile.val(25)


@pytest.fixture(scope="session")
def demo_table(demo_profile, demo_stp):
    return build_root_table(demo_profile, demo_stp)


@pytest.fixture(scope="session")
def demo_float_profile(demo_profile) -> FloatProfile:
    return FloatProfile(2, demo_profile, Fraction(65536), Fraction(65536))


@pytest.fixture(scope="session")
def micro_profile() -> FixProfile:
    # 1/10 grid on [-4, 4]
    return FixProfile(10, 40, 40)


@pytest.fixture(scope="session")
def sqr_corpus():
    """1000 seeded random (y, eps) runs shared by acceptance criteria 1
    and 2 and the exact-oracle filter tests."""
    inputs = sample_rationals(1000, seed=CORPUS_SEED)
    t0 = perf_counter()
    runs = []
    for y, eps in inputs:
        x, trace = sqr_exact(y, eps)
        post_ok = within_of_sqrt(x, y, eps)
        cap_ok = applied_corrections(trace) <= iteration_cap(y, eps)
        runs.append((y, eps, trace, post_ok, cap_ok))
    elapsed = perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="session")
def corpus_corrections(sqr_corpus):
    """Each correction of each sqr_corpus run, read once for the tests
    that read them all."""
    runs, _ = sqr_corpus
    return [[trace.correction(k) for k in range(len(trace.corrections))]
            for _, _, trace, _, _ in runs]
