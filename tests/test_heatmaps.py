import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import edge_set
from routedp import (Heatmap, SparseGraph, cost_heatmap, euclidean_cost_matrix,
                     read_heatmap, sparsify_knn, sparsify_threshold, symmetrize,
                     write_heatmap)
from routedp.heatmaps import HeatmapFormatError


def random_heatmap(rng, n, directed=False):
    v = rng.random((n, n)) * 0.999
    np.fill_diagonal(v, 0.0)
    if not directed:
        v = np.triu(v) + np.triu(v, 1).T
    return Heatmap(v, directed=directed)


class TestHeatmapType:
    def test_rejects_values_at_or_above_one(self):
        v = np.zeros((2, 2))
        v[0, 1] = v[1, 0] = 1.0
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            Heatmap(v)

    def test_rejects_negative_values(self):
        v = np.zeros((2, 2))
        v[0, 1] = v[1, 0] = -0.1
        with pytest.raises(ValueError):
            Heatmap(v)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, directed, bad):
        v = np.zeros((3, 3))
        v[0, 1] = v[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Heatmap(v, directed=directed)

    def test_rejects_nonzero_diagonal(self):
        v = np.eye(3) * 0.5
        with pytest.raises(ValueError, match="diagonal"):
            Heatmap(v)

    def test_undirected_must_be_symmetric(self):
        v = np.zeros((2, 2))
        v[0, 1] = 0.3
        with pytest.raises(ValueError, match="symmetric"):
            Heatmap(v, directed=False)
        Heatmap(v, directed=True)  # fine when directed


class TestSymmetrize:
    def test_entrywise_max(self):
        v = np.zeros((2, 2))
        v[0, 1], v[1, 0] = 0.2, 0.7
        out = symmetrize(Heatmap(v, directed=True))
        assert out.values[0, 1] == 0.7
        assert out.values[1, 0] == 0.7
        assert not out.directed

    def test_idempotent_on_symmetric_input(self):
        rng = np.random.default_rng(0)
        h = random_heatmap(rng, 6)
        out = symmetrize(Heatmap(h.values, directed=True))
        assert np.array_equal(out.values, h.values)

    def test_all_zero(self):
        out = symmetrize(Heatmap(np.zeros((4, 4)), directed=True))
        assert np.all(out.values == 0)


class TestCostHeatmap:
    def test_row_normalization(self):
        costs = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
        h = cost_heatmap(costs)
        assert h.directed
        np.testing.assert_allclose(h.values[0], [0.0, 0.5, 1.0 - 1e-9])

    def test_equilateral_triangle_uniform(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        h = cost_heatmap(euclidean_cost_matrix(coords))
        off = h.values[~np.eye(3, dtype=bool)]
        assert np.allclose(off, off[0])

    def test_inversion(self):
        costs = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
        h = cost_heatmap(costs, invert=True)
        np.testing.assert_allclose(h.values[0], [0.0, 0.5, 1e-9])
        assert np.all(np.diag(h.values) == 0)

    def test_coincident_points_give_zero_heat(self):
        assert not cost_heatmap(np.zeros((3, 3))).values.any()
        inverted = cost_heatmap(np.zeros((3, 3)), invert=True).values
        assert np.array_equal(inverted > 0, ~np.eye(3, dtype=bool))
        assert inverted.max() < 1


class TestThresholdSparsification:
    def test_threshold_zero_gives_complete_digraph(self):
        rng = np.random.default_rng(1)
        g = sparsify_threshold(random_heatmap(rng, 6), 0.0)
        assert len(edge_set(g)) == 6 * 5

    def test_threshold_above_all_entries_gives_empty_graph(self):
        rng = np.random.default_rng(2)
        h = random_heatmap(rng, 5)
        t = h.values.max() + 1e-9
        assert edge_set(sparsify_threshold(h, t)) == set()

    def test_boundary_is_inclusive(self):
        v = np.zeros((2, 2))
        v[0, 1] = v[1, 0] = 1e-5
        g = sparsify_threshold(Heatmap(v), 1e-5)
        assert (0, 1) in edge_set(g)

    def test_vrp_forces_depot_edges(self):
        rng = np.random.default_rng(3)
        h = random_heatmap(rng, 6)
        g = sparsify_threshold(h, 0.999, vrp=True)
        for i in range(1, 6):
            assert (0, i) in edge_set(g)
            assert (i, 0) in edge_set(g)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        h = random_heatmap(rng, 8)
        e_low = edge_set(sparsify_threshold(h, 0.2))
        e_high = edge_set(sparsify_threshold(h, 0.6))
        assert e_high <= e_low

    def test_invalid_threshold_rejected(self):
        rng = np.random.default_rng(5)
        h = random_heatmap(rng, 3)
        for t in (-0.1, 1.0):
            with pytest.raises(ValueError):
                sparsify_threshold(h, t)


class TestKnnSparsification:
    def test_full_k_gives_complete_graph(self):
        coords = np.random.default_rng(6).random((7, 2))
        g = sparsify_knn(euclidean_cost_matrix(coords), 6)
        assert len(edge_set(g)) == 7 * 6

    def test_collinear_points_k1(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        g = sparsify_knn(euclidean_cost_matrix(coords), 1)
        # 0 and 3 pick their only neighbors; 1 and 2 break the distance tie
        # toward the lower index; all picked edges are made bidirectional.
        assert edge_set(g) == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
        assert g.adj.any(axis=1).all()

    def test_vrp_forces_depot_edges(self):
        coords = np.random.default_rng(7).random((8, 2))
        g = sparsify_knn(euclidean_cost_matrix(coords), 1, vrp=True)
        for i in range(1, 8):
            assert (0, i) in edge_set(g)
            assert (i, 0) in edge_set(g)

    @pytest.mark.parametrize("layout", ["random", "collinear", "coincident"])
    def test_matches_per_node_sort(self, layout):
        """Each node's k cheapest other nodes, ties to the lower index."""
        rng = np.random.default_rng(10)
        for n in range(2, 12):
            coords = {"random": rng.random((n, 2)),
                      "collinear": np.column_stack([rng.integers(0, 4, n), np.zeros(n)]),
                      "coincident": rng.integers(0, 2, (n, 2))}[layout].astype(float)
            costs = euclidean_cost_matrix(coords)
            for k in range(1, n):
                want = np.zeros((n, n), dtype=bool)
                for i in range(n):
                    nearest = sorted((j for j in range(n) if j != i),
                                     key=lambda j: (costs[i, j], j))[:k]
                    want[i, nearest] = want[nearest, i] = True
                assert np.array_equal(sparsify_knn(costs, k).adj, want)

    def test_invalid_k_rejected(self):
        costs = euclidean_cost_matrix(np.random.default_rng(8).random((5, 2)))
        for k in (0, 5):
            with pytest.raises(ValueError):
                sparsify_knn(costs, k)


class TestSparseGraph:
    def test_adjacency_round_trip(self):
        rng = np.random.default_rng(9)
        adj = rng.random((6, 6)) < 0.4
        np.fill_diagonal(adj, False)
        g = SparseGraph.from_adjacency(adj)
        assert np.array_equal(g.adj, adj)
        assert not g.adj.flags.writeable

    def test_rejects_self_loop(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[1, 1] = True
        with pytest.raises(ValueError, match="self-loop at node 1"):
            SparseGraph(adj)
        assert not SparseGraph.from_adjacency(adj).adj.any()

    def test_rejects_non_square_adjacency(self):
        with pytest.raises(ValueError, match="square"):
            SparseGraph(np.zeros((2, 3), dtype=bool))


class TestHeatmapIO:
    def test_dense_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        h = random_heatmap(rng, 5)
        path = tmp_path / "h.heat"
        write_heatmap(h, path)
        back = read_heatmap(path, 5)
        assert np.array_equal(back.values, h.values)
        assert back.directed == h.directed

    def test_sparse_round_trip_fills_zeros(self, tmp_path):
        path = tmp_path / "h.heat"
        path.write_text("sparse 3\n0 1 0.25\n1 0 0.25\n")
        h = read_heatmap(path, 3)
        assert h.values[0, 1] == 0.25
        assert h.values[2, 0] == 0.0

    def test_sparse_writer_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        h = random_heatmap(rng, 4, directed=True)
        path = tmp_path / "h.heat"
        write_heatmap(h, path, sparse=True)
        back = read_heatmap(path, 4)
        assert np.array_equal(back.values, h.values)
        assert back.directed

    def test_out_of_range_value_names_entry(self, tmp_path):
        path = tmp_path / "h.heat"
        path.write_text("sparse 3\n0 2 1.3\n")
        with pytest.raises(HeatmapFormatError, match=r"\(0, 2\) = 1.3"):
            read_heatmap(path, 3)

    @pytest.mark.parametrize("header", ["sparse 3", "sparse 3 directed"])
    def test_nan_value_names_entry(self, tmp_path, header):
        path = tmp_path / "h.heat"
        path.write_text(f"{header}\n0 2 nan\n2 0 nan\n")
        with pytest.raises(HeatmapFormatError, match=r"\(0, 2\) = nan"):
            read_heatmap(path, 3)

    def test_dense_rows_beyond_n_name_the_line(self, tmp_path):
        path = tmp_path / "h.heat"
        path.write_text("dense 3\n0 0.5 0.5\n0.5 0 0.5\n0.5 0.5 0\n"
                        "0.9 0.9 0.9\ngarbage here\n")
        with pytest.raises(HeatmapFormatError, match="line 5: content after the 3 rows"):
            read_heatmap(path, 3)
        path.write_text("dense 3\n0 0.5 0.5\n0.5 0 0.5\n0.5 0.5 0\n\n\ngarbage here\n")
        with pytest.raises(HeatmapFormatError, match="line 7: content after the 3 rows"):
            read_heatmap(path, 3)

    def test_sparse_repeated_entry_names_both_lines(self, tmp_path):
        path = tmp_path / "h.heat"
        path.write_text("sparse 3\n0 1 0.25\n1 0 0.25\n0 1 0.75\n")
        with pytest.raises(HeatmapFormatError, match=r"line 4: entry \(0, 1\) repeats line 2"):
            read_heatmap(path, 3)

    @pytest.mark.parametrize("body", ["dense 3\n0 0.5 0\n0.5 0 0\n0 0 0\n\n\n",
                                      "sparse 3\n\n0 1 0.5\n\n1 0 0.5\n\n"])
    def test_blank_lines_are_tolerated(self, tmp_path, body):
        path = tmp_path / "h.heat"
        path.write_text(body)
        h = read_heatmap(path, 3)
        assert h.values[0, 1] == h.values[1, 0] == 0.5
        assert np.count_nonzero(h.values) == 2

    def test_non_utf8_file_is_reported_with_its_path(self, tmp_path):
        path = tmp_path / "h.heat"
        path.write_bytes(b"dense 2\n0 0.5\n0.5 0 \xff\n")
        with pytest.raises(HeatmapFormatError, match="not UTF-8 text") as err:
            read_heatmap(path, 2)
        assert str(path) in str(err.value)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "h.heat"
        path.write_text("sparse 3\n")
        with pytest.raises(HeatmapFormatError, match="dimension 3"):
            read_heatmap(path, 4)

    def test_value_of_exactly_one_is_clamped(self, tmp_path):
        path = tmp_path / "h.heat"
        path.write_text("sparse 2\n0 1 1.0\n1 0 1.0\n")
        h = read_heatmap(path, 2)
        assert h.values[0, 1] == 1.0 - 1e-9

    def test_asymmetric_file_must_be_marked_directed(self, tmp_path):
        path = tmp_path / "h.heat"
        path.write_text("sparse 2\n0 1 0.5\n")
        with pytest.raises(HeatmapFormatError, match="directed"):
            read_heatmap(path, 2)

    @pytest.mark.parametrize("header", ["dense 3 directd", "dense 3 directed junk",
                                        "sparse 3 undirected", "sparse 3 directed directed",
                                        "dense 3 Directed", "dense", "heat 3"])
    def test_malformed_header_names_line_1(self, tmp_path, header):
        # A misspelled or extra token must not load as an undirected heatmap.
        path = tmp_path / "h.heat"
        body = "0 0.5 0\n0.5 0 0\n0 0 0\n" if header.startswith("dense") else "0 1 0.5\n"
        path.write_text(f"{header}\n{body}")
        with pytest.raises(HeatmapFormatError, match=r"line 1: expected 'dense\|sparse n"):
            read_heatmap(path, 3)

    @pytest.mark.parametrize("header, directed", [("dense 3", False), ("dense 3 directed", True),
                                                  ("  sparse   3\tdirected ", True)])
    def test_well_formed_header_accepted(self, tmp_path, header, directed):
        path = tmp_path / "h.heat"
        body = "0 0.5 0\n0.5 0 0\n0 0 0\n" if "dense" in header else "0 1 0.5\n1 0 0.5\n"
        path.write_text(f"{header}\n{body}")
        assert read_heatmap(path, 3).directed == directed


# A header line and body lines of tokens, valid and not, so that drawn files
# reach every check; or any bytes.
TOKENS = (st.sampled_from(["dense", "sparse", "directed", "0", "1", "2", "-1", "0.5", "1.0",
                           "1e400", "nan", "inf"])
          | st.integers().map(str) | st.floats().map(str) | st.text(max_size=3))
HEADERS = st.tuples(st.sampled_from(["dense", "sparse"]), st.sampled_from(["2", "3"]),
                    st.sampled_from(["", "directed"])).map(" ".join)
HEATMAP_BYTES = st.binary(max_size=40) | st.tuples(
    HEADERS | st.lists(TOKENS, max_size=4).map(" ".join),
    st.lists(st.lists(TOKENS, max_size=4).map(" ".join), max_size=5)).map(
    lambda lines: "\n".join([lines[0], *lines[1]]).encode("utf-8", "surrogatepass"))


@pytest.fixture(scope="module")
def heatmap_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "h.heat"


@settings(max_examples=600, deadline=None)
@given(HEATMAP_BYTES, st.integers(0, 4) | st.sampled_from([2, 3]))
def test_any_bytes_load_or_raise_the_format_error(heatmap_file, data, n):
    heatmap_file.write_bytes(data)
    try:
        assert read_heatmap(heatmap_file, n).n == n
    except HeatmapFormatError:
        pass
