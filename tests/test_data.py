"""Dataset I/O, preprocessing and synthetic-generator tests."""

import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stmfg import data
from stmfg.data import (
    _load_dense_expression,
    Dataset,
    generate_synthetic,
    load_dataset,
    preprocess,
    save_embeddings,
    save_labels,
    save_metrics,
    write_coords_csv,
    write_expression_csv,
    write_labels_csv,
)
from stmfg.errors import ContractError, DataError

from conftest import load_embeddings, traced_peak


def per_cell_expression_reference(path):
    """The dense-CSV parser that read the whole file, then converted one
    cell per call: the values and messages the streaming parser keeps."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]

    def float_cell(raw, where):
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"{where}: not a number: {raw!r}") from None

    if len(rows) < 2:
        raise DataError(f"{path}: expected a header and at least one spot row")
    gene_ids = [g.strip() for g in rows[0][1:]]
    if not gene_ids:
        raise DataError(f"{path}: header has no gene columns")
    spot_ids, values = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(gene_ids) + 1:
            raise DataError(f"{path} line {r}: expected {len(gene_ids) + 1} cells, got {len(row)}")
        spot_ids.append(row[0].strip())
        values.append([float_cell(c, f"{path} line {r}") for c in row[1:]])
    return spot_ids, gene_ids, np.array(values, dtype=np.float64)


@pytest.fixture
def tiny_files(tmp_path):
    expr = tmp_path / "expr.csv"
    expr.write_text(
        "spot_id,gA,gB,gC,gD\n"
        "s1,0,3,1,2\n"
        "s2,5,0,2,0\n"
        "s3,1,1,0,4\n"
    )
    coords = tmp_path / "coords.csv"
    coords.write_text("spot_id,x,y\ns1,0,0\ns2,0,100\ns3,100,0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("spot_id,label\ns1,L1\ns2,L2\ns3,L1\n")
    return expr, coords, labels


class TestLoadDataset:
    def test_round_trip_exact(self, tiny_files):
        expr, coords, labels = tiny_files
        ds = load_dataset(expr, coords, labels)
        np.testing.assert_array_equal(
            ds.counts, [[0, 3, 1, 2], [5, 0, 2, 0], [1, 1, 0, 4]])
        assert ds.spot_ids == ["s1", "s2", "s3"]
        assert ds.gene_ids == ["gA", "gB", "gC", "gD"]
        np.testing.assert_array_equal(ds.truth_labels, [0, 1, 0])

    def test_spot_order_follows_coords(self, tiny_files):
        expr, _, _ = tiny_files
        coords = expr.parent / "reordered.csv"
        coords.write_text("spot_id,x,y\ns3,0,0\ns1,0,1\ns2,1,0\n")
        ds = load_dataset(expr, coords)
        assert ds.spot_ids == ["s3", "s1", "s2"]
        np.testing.assert_array_equal(ds.counts[0], [1, 1, 0, 4])

    @pytest.mark.parametrize("order", ["s1,s2,s3", "s3,s1,s2", "s1,s2"])
    def test_rows_in_coordinate_order_keep_the_parsed_matrix(self, tiny_files, monkeypatch,
                                                              order):
        """Rows that already follow the coordinates are the parsed matrix
        itself; any other order or subset is a reordered copy."""
        expr, _, _ = tiny_files
        parsed = []

        def parse(path):
            out = _load_dense_expression(path)
            parsed.append(out[2])
            return out

        monkeypatch.setattr("stmfg.data._load_dense_expression", parse)
        coords = expr.parent / "order.csv"
        coords.write_text("spot_id,x,y\n" + "".join(f"{s},0,{i}\n"
                                                    for i, s in enumerate(order.split(","))))
        ds = load_dataset(expr, coords)
        rows = [int(s[1]) - 1 for s in order.split(",")]
        np.testing.assert_array_equal(ds.counts, parsed[0][rows])
        assert ds.counts.flags.c_contiguous
        assert np.shares_memory(ds.counts, parsed[0]) == (order == "s1,s2,s3")

    def test_missing_spot_named_in_error(self, tiny_files):
        expr, _, _ = tiny_files
        coords = expr.parent / "extra.csv"
        coords.write_text("spot_id,x,y\ns1,0,0\nsX,1,1\n")
        with pytest.raises(DataError, match="sX"):
            load_dataset(expr, coords)

    def test_negative_count_context(self, tiny_files, tmp_path):
        _, coords, _ = tiny_files
        expr = tmp_path / "neg.csv"
        expr.write_text("spot_id,gA\ns1,1\ns2,-2\ns3,0\n")
        with pytest.raises(DataError, match="s2"):
            load_dataset(expr, coords)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_count_context(self, tiny_files, tmp_path, raw):
        _, coords, _ = tiny_files
        expr = tmp_path / "non_finite.csv"
        expr.write_text(f"spot_id,gA,gB\ns1,1,0\ns2,2,{raw}\ns3,0,4\n")
        with pytest.raises(DataError, match="non-finite count .* spot 's2', gene 'gB'"):
            load_dataset(expr, coords)

    @pytest.mark.parametrize("raw", ["nan", "-inf"])
    def test_non_finite_matrix_market_count_context(self, tiny_files, tmp_path, raw):
        _, coords, _ = tiny_files
        mtx = tmp_path / "expr.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                       f"3 2 2\n1 1 3\n3 2 {raw}\n")
        (tmp_path / "expr.spots.txt").write_text("s1\ns2\ns3\n")
        (tmp_path / "expr.genes.txt").write_text("gA\ngB\n")
        with pytest.raises(DataError, match="non-finite count .* spot 's3', gene 'gB'"):
            load_dataset(mtx, coords)

    @pytest.mark.parametrize("cell", ["nan,100", "0,inf", "-1e400,0"])
    def test_non_finite_coordinate_names_line(self, tiny_files, tmp_path, cell):
        expr, _, _ = tiny_files
        coords = tmp_path / "coords_bad.csv"
        coords.write_text(f"spot_id,x,y\ns1,0,0\ns2,{cell}\ns3,100,0\n")
        with pytest.raises(DataError, match="line 3: coordinates must be finite"):
            load_dataset(expr, coords)

    def test_matrix_market_equals_dense_twin(self, tiny_files, tmp_path):
        expr, coords, _ = tiny_files
        dense = load_dataset(expr, coords)
        mtx = tmp_path / "expr.mtx"
        mtx.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 4 8\n"
            "1 2 3\n1 3 1\n1 4 2\n2 1 5\n2 3 2\n3 1 1\n3 2 1\n3 4 4\n"
        )
        (tmp_path / "expr.spots.txt").write_text("s1\ns2\ns3\n")
        (tmp_path / "expr.genes.txt").write_text("gA\ngB\ngC\ngD\n")
        sparse = load_dataset(mtx, coords)
        np.testing.assert_array_equal(sparse.counts, dense.counts)
        assert sparse.gene_ids == dense.gene_ids

    @pytest.mark.parametrize("body", [
        "coordinate complex general\n3 2 2\n1 1 3 4\n3 2 1 0\n",
        "array complex general\n3 2\n3 4\n0 0\n0 0\n0 0\n0 0\n1 0\n",
    ], ids=["coordinate", "array"])
    def test_complex_matrix_market_is_data_error(self, tiny_files, tmp_path, body):
        """Complex entries are refused, not loaded with their imaginary
        parts dropped (3+4j read as 3)."""
        _, coords, _ = tiny_files
        mtx = tmp_path / "expr.mtx"
        mtx.write_text("%%MatrixMarket matrix " + body)
        (tmp_path / "expr.spots.txt").write_text("s1\ns2\ns3\n")
        (tmp_path / "expr.genes.txt").write_text("gA\ngB\n")
        with pytest.raises(DataError, match="expr.mtx: complex entries"):
            load_dataset(mtx, coords)

    def test_partial_labels_get_minus_one(self, tiny_files, tmp_path):
        expr, coords, _ = tiny_files
        labels = tmp_path / "partial.csv"
        labels.write_text("spot_id,label\ns1,L1\ns3,L2\n")
        ds = load_dataset(expr, coords, labels)
        np.testing.assert_array_equal(ds.truth_labels, [0, -1, 1])


    @pytest.mark.parametrize("role", ["expression", "coords", "labels"])
    @pytest.mark.parametrize("kind, message", [
        ("not-utf8", "not UTF-8 text"),
        ("huge-cell", "field larger than field limit"),
    ])
    def test_undecodable_byte_or_huge_cell_names_line(self, tiny_files, role, kind, message):
        """A byte that is not UTF-8 and a cell over the csv field limit, on
        the third non-blank line after a blank one, are DataErrors naming
        the file and that line."""
        files = dict(zip(("expression", "coords", "labels"), tiny_files))
        lines = files[role].read_bytes().split(b"\n")
        lines.insert(1, b"")
        lines[3] += b"\xff" if kind == "not-utf8" else b"9" * (csv.field_size_limit() + 1)
        files[role].write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match=f"{files[role].name} line 3: {message}"):
            load_dataset(*files.values())

    def test_undecodable_sidecar_names_line(self, tiny_files, tmp_path):
        _, coords, _ = tiny_files
        mtx = tmp_path / "expr.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 1 1\n1 1 3\n")
        (tmp_path / "expr.spots.txt").write_bytes(b"s1\n\ns2\xe9\ns3\n")
        (tmp_path / "expr.genes.txt").write_text("gA\n")
        with pytest.raises(DataError, match="expr.spots.txt line 2: not UTF-8 text"):
            load_dataset(mtx, coords)

    @pytest.mark.parametrize("label", ["L2", "L1"])
    def test_duplicate_label_id_names_line(self, tiny_files, tmp_path, label):
        expr, coords, _ = tiny_files
        labels = tmp_path / "dup.csv"
        labels.write_text(f"spot_id,label\ns1,L1\ns2,L2\ns1,{label}\n")
        with pytest.raises(DataError, match="line 4: duplicate spot id 's1'"):
            load_dataset(expr, coords, labels)


class TestDenseCsvParser:
    SPELLINGS = ("\nspot_id, gA ,gB,gC,gD\n"
                 "s1,3,3.0,1e2, 4 \n"
                 "\n"
                 " s2 ,1_0,5e-324,-0.0,+7\n"
                 "s3,.5,5.,1E+2,\u0663\n"
                 "\n\n"
                 "s4,nan,inf,1e400,0012\n")

    def test_spellings_bitwise_equal_to_per_cell_parse(self, tmp_path):
        expr = tmp_path / "spellings.csv"
        expr.write_text(self.SPELLINGS, encoding="utf-8")
        spots, genes, values = _load_dense_expression(expr)
        ref_spots, ref_genes, ref_values = per_cell_expression_reference(expr)
        assert (spots, genes) == (ref_spots, ref_genes) == (
            ["s1", "s2", "s3", "s4"], ["gA", "gB", "gC", "gD"])
        assert values.dtype == ref_values.dtype == np.float64
        assert values.shape == ref_values.shape == (4, 4)
        assert values.tobytes() == ref_values.tobytes()
        assert values[1, 0] == 10.0 and values[1, 1] == 5e-324

    @pytest.mark.parametrize("text", [
        "",
        "\n\n",
        "spot_id,gA\n",
        "spot_id\n",
        "spot_id\ns1\n",
        "spot_id,gA,gB\ns1,1,2\n\ns2,1,x2\ns3,1\n",
        "spot_id,gA,gB\ns1,1,2\n\ns2,1\ns3,1,x\n",
        "spot_id,gA,gB\ns1,1,2\ns2,1,2,3\n",
        "spot_id,gA,gB\ns1, ,2\n",
        "spot_id,gA,gB\ns1,1,2\n\n\ns2,0x10,1e\n",
        "spot_id,gA,gB\ns1,1,2\ns2,'3',4\n",
    ], ids=["empty", "blank", "header-only", "no-genes-no-rows", "no-genes",
            "bad-cell-after-blank", "short-row-after-blank", "long-row", "space-cell",
            "first-bad-cell-named", "quoted-cell"])
    def test_messages_equal_to_per_cell_parse(self, tmp_path, text):
        expr = tmp_path / "bad.csv"
        expr.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as want:
            per_cell_expression_reference(expr)
        with pytest.raises(DataError) as got:
            _load_dense_expression(expr)
        assert str(got.value) == str(want.value)

    def test_load_peak_below_three_counts_arrays(self, tmp_path):
        rng = np.random.default_rng(4)
        n, g = 400, 2000
        ds = Dataset(counts=rng.poisson(2.0, size=(n, g)).astype(np.float64),
                     coords=np.column_stack([np.arange(n), np.zeros(n)]).astype(np.float64),
                     spot_ids=[f"s{i:03d}" for i in range(n)],
                     gene_ids=[f"g{j:04d}" for j in range(g)])
        write_expression_csv(ds, tmp_path / "expr.csv")
        write_coords_csv(ds, tmp_path / "coords.csv")
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path / "expr.csv", tmp_path / "coords.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.counts, ds.counts)
        assert peak < 3 * ds.counts.nbytes


def copying_preprocess(ds, min_spots, n_hvg):
    """preprocess as it was before it scaled and logged in place: a
    kept-gene copy, a scaled copy and a logged copy, then the chosen
    columns. Returns (preprocessed, selected genes, selected indices)."""
    keep = (ds.counts > 0).sum(axis=0) >= min_spots
    kept_idx = np.nonzero(keep)[0]
    sub = ds.counts[:, kept_idx]
    totals = sub.sum(axis=1, keepdims=True)
    scales = np.divide(np.median(totals), totals, out=np.ones_like(totals), where=totals > 0)
    logged = np.log1p(sub * scales)
    variances = logged.var(axis=0)
    kept_ids = [ds.gene_ids[i] for i in kept_idx]
    ranked = sorted(range(len(kept_ids)), key=lambda j: (-variances[j], kept_ids[j]))
    chosen = sorted(ranked[:min(n_hvg, len(kept_ids))], key=lambda j: kept_ids[j])
    return logged[:, chosen], [kept_ids[j] for j in chosen], kept_idx[chosen]


class TestPreprocess:
    @pytest.mark.parametrize("case", ["all-kept", "some-dropped", "fewer-chosen",
                                      "unsorted-ids", "non-integer"])
    def test_matches_copying_reference_bitwise(self, case):
        """Values, layout, genes and indices are those of the copying
        body, non-integer counts included (their library sizes and
        variances depend on summation order)."""
        rng = np.random.default_rng(5)
        n, g = 40, 60
        counts = rng.poisson(2.0, size=(n, g)).astype(float)
        ids = [f"g{j:03d}" for j in range(g)]
        n_hvg = g
        if case == "some-dropped":
            counts[:, [3, 17, 40]] = 0.0
        elif case == "fewer-chosen":
            n_hvg = 25
        elif case == "unsorted-ids":
            ids = ids[::-1]
        elif case == "non-integer":
            counts *= rng.uniform(0.1, 3.0, size=(n, g))
        ds = Dataset(counts=counts, coords=np.zeros((n, 2)),
                     spot_ids=[f"s{i}" for i in range(n)], gene_ids=ids)
        out = preprocess(ds, min_spots=1, n_hvg=n_hvg)
        want, genes, idx = copying_preprocess(ds, 1, n_hvg)
        np.testing.assert_array_equal(out.preprocessed, want)
        assert out.preprocessed.flags.f_contiguous == want.flags.f_contiguous
        assert out.selected_genes == genes
        np.testing.assert_array_equal(out.selected_idx, idx)
        np.testing.assert_array_equal(ds.counts, counts)  # the input is left as it was

    @pytest.mark.parametrize("block", [7, 256])
    @pytest.mark.parametrize("genes", [1, 15, 257, 600])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_variances_match_one_call(self, order, genes, block, monkeypatch):
        """The HVG variance over column blocks is bitwise numpy's single
        call on a row- and a column-major kept copy (preprocessing's own
        copy is column-major), one-column tails (15 by 7, 257 by 256)
        included."""
        monkeypatch.setattr(data, "VARIANCE_COLUMN_BLOCK", block)
        rng = np.random.default_rng(8)
        logged = np.log1p(rng.poisson(2.0, size=(300, genes)) * rng.uniform(0.5, 2.0, (300, 1)))
        logged = np.asarray(logged, order=order)
        assert logged.flags.c_contiguous == (order == "C") or genes == 1
        np.testing.assert_array_equal(data._column_variances(logged), logged.var(axis=0))

    def test_peak_of_an_all_kept_input(self):
        """At 400 x 2000 with every gene kept and chosen, preprocessing
        holds one working copy, and the variance's temporary is one
        256-column block: within 1.25 count-sized buffers (2.02 with a
        whole-matrix temporary, 3.05 with kept, scaled and logged copies)."""
        rng = np.random.default_rng(6)
        n, g = 400, 2000
        ds = Dataset(counts=rng.poisson(2.0, size=(n, g)).astype(np.float64),
                     coords=np.zeros((n, 2)), spot_ids=[f"s{i}" for i in range(n)],
                     gene_ids=[f"g{j:04d}" for j in range(g)])
        out, peak = traced_peak(lambda: preprocess(ds, min_spots=1, n_hvg=g))
        assert out.preprocessed.shape == (n, g)
        assert peak <= 1.25 * ds.counts.nbytes, f"peak {peak / ds.counts.nbytes:.2f} buffers"

    def test_released_counts(self):
        """A dataset whose raw counts were released keeps its sizes, and
        preprocessing it again is a contract error, not a TypeError."""
        rng = np.random.default_rng(7)
        ds = preprocess(Dataset(counts=rng.poisson(2.0, size=(5, 4)).astype(float),
                                coords=np.zeros((5, 2)), spot_ids=list("abcde"),
                                gene_ids=["g1", "g2", "g3", "g4"]), min_spots=1, n_hvg=4)
        released = replace(ds, counts=None)
        assert (released.n_spots, released.n_genes) == (5, 4)
        with pytest.raises(ContractError, match="raw counts"):
            preprocess(released, min_spots=1, n_hvg=4)

    def test_undetected_gene_dropped(self):
        ds = Dataset(
            counts=np.array([[0.0, 2.0], [0.0, 3.0], [0.0, 1.0]]),
            coords=np.zeros((3, 2)),
            spot_ids=["a", "b", "c"],
            gene_ids=["dead", "live"],
        )
        out = preprocess(ds, min_spots=1, n_hvg=10)
        assert out.selected_genes == ["live"]
        assert out.preprocessed.shape == (3, 1)

    def test_proportional_spots_become_identical(self):
        base = np.array([2.0, 4.0, 6.0])
        ds = Dataset(
            counts=np.vstack([base, 2.0 * base]),
            coords=np.zeros((2, 2)),
            spot_ids=["a", "b"],
            gene_ids=["g1", "g2", "g3"],
        )
        out = preprocess(ds, min_spots=1, n_hvg=3)
        np.testing.assert_allclose(out.preprocessed[0], out.preprocessed[1], atol=1e-12)

    def test_variance_ranking_matches_brute_force(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(4.0, size=(10, 20)).astype(float)
        counts[:, 7] = 0.0  # never detected
        ds = Dataset(counts=counts, coords=np.zeros((10, 2)),
                     spot_ids=[f"s{i}" for i in range(10)],
                     gene_ids=[f"g{j:02d}" for j in range(20)])
        out = preprocess(ds, min_spots=1, n_hvg=5)

        kept = [j for j in range(20) if (counts[:, j] > 0).sum() >= 1]
        sub = counts[:, kept]
        totals = sub.sum(axis=1, keepdims=True)
        logged = np.log1p(sub * (np.median(totals) / totals))
        variances = logged.var(axis=0)
        ranked = sorted(range(len(kept)),
                        key=lambda j: (-variances[j], f"g{kept[j]:02d}"))[:5]
        expected = sorted(f"g{kept[j]:02d}" for j in ranked)
        assert out.selected_genes == expected

    def test_gene_permutation_invariance(self):
        rng = np.random.default_rng(1)
        counts = rng.poisson(3.0, size=(8, 12)).astype(float)
        ids = [f"g{j:02d}" for j in range(12)]
        ds = Dataset(counts=counts, coords=np.zeros((8, 2)),
                     spot_ids=[f"s{i}" for i in range(8)], gene_ids=ids)
        perm = rng.permutation(12)
        ds_perm = Dataset(counts=counts[:, perm], coords=np.zeros((8, 2)),
                          spot_ids=ds.spot_ids, gene_ids=[ids[j] for j in perm])
        out = preprocess(ds, min_spots=1, n_hvg=6)
        out_perm = preprocess(ds_perm, min_spots=1, n_hvg=6)
        assert out.selected_genes == out_perm.selected_genes
        np.testing.assert_array_equal(out.preprocessed, out_perm.preprocessed)

    def test_all_genes_filtered_is_error(self):
        ds = Dataset(counts=np.zeros((3, 2)), coords=np.zeros((3, 2)),
                     spot_ids=["a", "b", "c"], gene_ids=["g1", "g2"])
        with pytest.raises(DataError):
            preprocess(ds, min_spots=1, n_hvg=2)

    @pytest.mark.parametrize("min_spots", [0, -4])
    def test_min_spots_below_one_is_contract_error(self, min_spots):
        ds = Dataset(counts=np.ones((3, 2)), coords=np.zeros((3, 2)),
                     spot_ids=["a", "b", "c"], gene_ids=["g1", "g2"])
        with pytest.raises(ContractError, match="min_spots must be >= 1"):
            preprocess(ds, min_spots=min_spots, n_hvg=2)

    @pytest.mark.parametrize("n_hvg", [0, -3])
    def test_n_hvg_below_one_is_contract_error(self, n_hvg):
        ds = Dataset(counts=np.ones((3, 2)), coords=np.zeros((3, 2)),
                     spot_ids=["a", "b", "c"], gene_ids=["g1", "g2"])
        with pytest.raises(ContractError, match="n_hvg must be >= 1"):
            preprocess(ds, min_spots=1, n_hvg=n_hvg)

    def test_no_all_zero_columns(self):
        rng = np.random.default_rng(2)
        counts = (rng.random((6, 9)) < 0.3) * rng.poisson(5.0, size=(6, 9))
        counts = counts.astype(float)
        counts[:, 0] = 0.0
        ds = Dataset(counts=counts, coords=np.zeros((6, 2)),
                     spot_ids=[f"s{i}" for i in range(6)],
                     gene_ids=[f"g{j}" for j in range(9)])
        out = preprocess(ds, min_spots=1, n_hvg=9)
        assert (np.abs(out.preprocessed).sum(axis=0) > 0).all()


class TestGenerateSynthetic:
    def test_full_dropout_gives_all_zeros(self):
        ds = generate_synthetic(8, 2, 10, seed=0, dropout=1.0, dispersion=2.0)
        np.testing.assert_array_equal(ds.counts, np.zeros_like(ds.counts))

    def test_law_of_large_numbers_mean(self):
        ds = generate_synthetic(80, 4, 40, seed=3, dropout=0.0, dispersion=1e6)
        from stmfg.data import SYNTHETIC_BASE_MEAN, SYNTHETIC_MARKER_MEAN

        markers_per_domain = 40 // 8
        program = np.full((ds.n_spots, 40), SYNTHETIC_BASE_MEAN)
        for d in range(4):
            block = slice(d * markers_per_domain, (d + 1) * markers_per_domain)
            program[ds.truth_labels == d, block] = SYNTHETIC_MARKER_MEAN
        rel = np.abs(ds.counts.mean(axis=0) - program.mean(axis=0)) / program.mean(axis=0)
        assert rel.max() < 0.05

    def test_seed_reproducibility(self):
        a = generate_synthetic(10, 3, 15, seed=7, dropout=0.3, dispersion=2.0)
        b = generate_synthetic(10, 3, 15, seed=7, dropout=0.3, dispersion=2.0)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_bands_partition_all_spots(self):
        ds = generate_synthetic(12, 5, 20, seed=1, dropout=0.2, dispersion=2.0)
        counts = np.bincount(ds.truth_labels, minlength=5)
        assert (counts > 0).all()
        assert counts.sum() == ds.n_spots
        # bands are contiguous in y
        for d in range(5):
            ys = ds.coords[ds.truth_labels == d, 1]
            others = ds.coords[ds.truth_labels != d, 1]
            assert not ((others > ys.min()) & (others < ys.max())).any()

    def test_contract_checks(self):
        with pytest.raises(ContractError):
            generate_synthetic(8, 1, 10, 0, 0.1, 1.0)
        with pytest.raises(ContractError):
            generate_synthetic(3, 2, 10, 0, 0.1, 1.0)
        with pytest.raises(ContractError):
            generate_synthetic(8, 2, 10, 0, 1.5, 1.0)
        with pytest.raises(ContractError, match="seed must be >= 0"):
            generate_synthetic(8, 2, 10, -2, 0.1, 1.0)


class TestPersistence:
    def test_dataset_files_round_trip(self, tmp_path):
        ds = generate_synthetic(8, 2, 12, seed=5, dropout=0.4, dispersion=2.0)
        write_expression_csv(ds, tmp_path / "expr.csv")
        write_coords_csv(ds, tmp_path / "coords.csv")
        write_labels_csv(ds, tmp_path / "labels.csv")
        back = load_dataset(tmp_path / "expr.csv", tmp_path / "coords.csv",
                            tmp_path / "labels.csv")
        np.testing.assert_array_equal(back.counts, ds.counts)
        np.testing.assert_array_equal(back.coords, ds.coords)
        np.testing.assert_array_equal(back.truth_labels, ds.truth_labels)
        assert back.spot_ids == ds.spot_ids

        # second round trip is byte-identical (idempotent)
        write_expression_csv(back, tmp_path / "expr2.csv")
        assert (tmp_path / "expr2.csv").read_text() == (tmp_path / "expr.csv").read_text()

    def test_embeddings_full_precision(self, tmp_path):
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(5, 3))
        ids = [f"s{i}" for i in range(5)]
        save_embeddings(emb, ids, tmp_path / "emb.csv")
        back_ids, back = load_embeddings(tmp_path / "emb.csv")
        assert back_ids == ids
        np.testing.assert_array_equal(back, emb)

    def test_labels_and_metrics_files(self, tmp_path):
        save_labels(np.array([1, 0, 1]), ["a", "b", "c"], tmp_path / "labels.csv")
        assert (tmp_path / "labels.csv").read_text() == "spot_id,label\na,1\nb,0\nc,1\n"
        save_metrics([("synth", 0, "ari", 0.5)], tmp_path / "metrics.csv")
        text = (tmp_path / "metrics.csv").read_text()
        assert text.startswith("dataset,seed,metric,value\n")
        assert "synth,0,ari,0.5" in text
