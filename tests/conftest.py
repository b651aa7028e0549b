import os
import tempfile
import tracemalloc


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: multi-minute end-to-end training runs")
    # Hypothesis caches the constants it reads from local source files in
    # its storage directory, whatever the example database setting; keep
    # that cache out of the checkout.
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                          os.path.join(tempfile.gettempdir(), "stmfg-hypothesis"))


def traced_peak(fn):
    """Call ``fn()`` under ``tracemalloc``; return its result and the peak
    bytes traced during the call."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak
