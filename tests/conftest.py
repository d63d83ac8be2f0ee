import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Return a function giving the peak bytes traced while fn() runs, above what was
    live when it started."""
    def peak(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak
