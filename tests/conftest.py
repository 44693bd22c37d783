import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from relzeros import trace_locus
from relzeros.reference import Families

# sample counts per disc scale: the case-d violation window shrinks like
# ~0.07*lam in theta, so small lam needs a denser open grid
LOCUS_SAMPLES = {1.0: 4096, 0.1: 8192, 0.01: 65536}


@pytest.fixture(scope="session")
def families():
    """Family polynomials and root sets at the reproduction precision, shared by all tests."""
    return Families()


class LocusCache:
    def __init__(self, family_cache):
        self._families = family_cache
        self._curves = {}

    def curve(self, case, lam, n_samples=None):
        if n_samples is None:
            n_samples = LOCUS_SAMPLES[lam]
        key = (case, lam, n_samples)
        if key not in self._curves:
            self._curves[key] = trace_locus(self._families.bipoly(case), "b", lam, n_samples)
        return self._curves[key]


@pytest.fixture(scope="session")
def locus(families):
    return LocusCache(families)
