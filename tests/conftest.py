import os
import tempfile


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: multi-minute end-to-end training runs")
    # Hypothesis caches the constants it reads from local source files in
    # its storage directory, whatever the example database setting; keep
    # that cache out of the checkout.
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                          os.path.join(tempfile.gettempdir(), "stmfg-hypothesis"))
