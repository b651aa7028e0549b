"""Property tests of the KNN graph on tie-heavy inputs: small integer
features with duplicated and all-zero rows and every k from 1 to n - 1.
The selection must equal the full stable argsort's, array for array,
whatever the row blocks of the build.
The rule both properties check is the build's own: ties between equal
*computed* similarities go to the lower spot index. Each reference sorts
the similarity rows as computed (the one-block symmetric product, or the
blocks' own products), so duplicate spots that rounding puts one ulp
apart are ordered by those values, not by index.
Examples are derandomized and no example database is kept, so the suite
is deterministic and leaves no files behind."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from stmfg import graphs  # noqa: E402
from stmfg.graphs import build_feature_graph  # noqa: E402

from test_graphs import (  # noqa: E402
    argsort_feature_graph,
    argsort_graph,
    assert_same_csr,
    unit_rows,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def tied_features(draw):
    """An n-by-d matrix (n from 2 to 30) of integers in [-2, 2], some rows
    zeroed and some copied from others, and a k in [1, n - 1]."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    row = st.integers(0, n - 1)
    x[draw(st.lists(row, max_size=4))] = 0.0
    for src, dst in draw(st.lists(st.tuples(row, row), max_size=4)):
        x[dst] = x[src]
    return x, draw(st.integers(1, n - 1))


@DETERMINISTIC
@given(tied_features())
def test_matches_full_argsort(case):
    x, k = case
    assert_same_csr(build_feature_graph(x, k), argsort_feature_graph(x, k))



@pytest.mark.parametrize("block_rows", [1, 7, 256])
@DETERMINISTIC
@given(case=tied_features())
def test_matches_full_argsort_at_any_block_size(block_rows, case):
    """Built in blocks of ``block_rows`` rows, the graph is the full stable
    argsort of the blocks' own products. The products, not the one-block
    reference, are the oracle: a row block's GEMM and the whole matrix's
    SYRK can round a tied pair differently, even a pair of duplicate
    spots."""
    x, k = case
    n = x.shape[0]
    unit = unit_rows(x)
    sims = np.vstack([unit[r0:r0 + block_rows] @ unit.T for r0 in range(0, n, block_rows)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "KNN_BLOCK_ENTRIES", block_rows * n)
        got = build_feature_graph(x, k)
    assert_same_csr(got, argsort_graph(sims, k))
