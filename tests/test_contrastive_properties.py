"""Property tests of the masked contrastive op on degenerate inputs: zero
rows, duplicated rows, row scales from 1e-8 to 1e8 and temperatures from
1e-4 to 10. Examples are derandomized and no example database is kept, so
the suite is deterministic and leaves no files behind."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stmfg import autodiff as ad  # noqa: E402

from conftest import stack  # noqa: E402
from test_losses import contrastive_oracle  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


@st.composite
def paired_views(draw):
    """Two n-by-d views (n from 1 to 40) with per-row scales 10^[-8, 8],
    some rows zeroed, some copied from others, and a log-uniform tau."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(2 * n, d))
    exponents = draw(st.lists(st.floats(-8.0, 8.0), min_size=2 * n, max_size=2 * n))
    z *= 10.0 ** np.array(exponents)[:, None]
    row = st.integers(0, 2 * n - 1)
    z[draw(st.lists(row, max_size=3))] = 0.0
    for src, dst in draw(st.lists(st.tuples(row, row), max_size=3)):
        z[dst] = z[src]
    tau = 10.0 ** draw(st.floats(-4.0, 1.0))
    return z[:n], z[n:], tau


@DETERMINISTIC
@given(paired_views())
def test_value_and_gradients_are_finite(views):
    zs_data, zf_data, tau = views
    z = stack(zs_data, zf_data, requires_grad=True)
    loss = ad.cross_view_contrastive(z, tau)
    ad.backward(loss)
    value = loss.item()
    assert np.isfinite(value) and value >= 0.0
    assert np.isfinite(z.grad).all()
    if zs_data.shape[0] == 1:
        assert value == 0.0


@DETERMINISTIC
@given(paired_views().filter(lambda views: views[2] >= 0.1))
def test_matches_masked_double_loop(views):
    zs, zf, tau = views
    got = ad.cross_view_contrastive(stack(zs, zf), tau).item()
    want = contrastive_oracle(zs.tolist(), zf.tolist(), tau, eps=ad.NORM_EPS)
    assert abs(got - want) < 1e-10
