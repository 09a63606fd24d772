"""Round-trip tests for tiled-structure serialization."""

import numpy as np
import pytest

from repro.errors import IOFormatError
from repro.formats import COOMatrix
from repro.semiring import MAX_TIMES, MIN_PLUS, OR_AND, PLUS_TIMES
from repro.tiles import (BitTiledMatrix, TiledMatrix, TiledVector,
                         load_tiled, load_tiled_mmap, read_mmap_manifest,
                         save_tiled, save_tiled_mmap,
                         split_very_sparse_tiles)

from ..conftest import random_dense


@pytest.fixture
def coo():
    return COOMatrix.from_dense(random_dense(50, 50, 0.1, seed=1))


class TestRoundTrips:
    def test_tiled_matrix(self, coo, tmp_path):
        tm = TiledMatrix.from_coo(coo, 16)
        p = tmp_path / "m.npz"
        save_tiled(tm, p)
        back = load_tiled(p)
        assert isinstance(back, TiledMatrix)
        assert back.nt == 16
        assert np.allclose(back.to_dense(), tm.to_dense())

    def test_tiled_vector_with_fill(self, tmp_path):
        tv = TiledVector.from_sparse(np.array([3]), np.array([2.0]), 12,
                                     4, fill=np.inf)
        p = tmp_path / "v.npz"
        save_tiled(tv, p)
        back = load_tiled(p)
        assert isinstance(back, TiledVector)
        assert back.fill == np.inf
        assert np.array_equal(back.to_dense(), tv.to_dense())

    @pytest.mark.parametrize("orientation", ["csc", "csr"])
    def test_bit_tiled_matrix(self, coo, tmp_path, orientation):
        bm = BitTiledMatrix.from_coo(coo, 16, orientation)
        p = tmp_path / "b.npz"
        save_tiled(bm, p)
        back = load_tiled(p)
        assert isinstance(back, BitTiledMatrix)
        assert back.orientation == orientation
        assert np.array_equal(back.words, bm.words)

    def test_hybrid(self, coo, tmp_path):
        hy = split_very_sparse_tiles(coo, 16, 3)
        p = tmp_path / "h.npz"
        save_tiled(hy, p)
        back = load_tiled(p)
        assert back.threshold == 3
        assert np.allclose(back.to_coo().to_dense(),
                           hy.to_coo().to_dense())

    def test_loaded_matrix_usable_in_spmspv(self, coo, tmp_path):
        from repro.core import TileSpMSpV
        from repro.vectors import random_sparse_vector

        hy = split_very_sparse_tiles(coo, 16, 2)
        p = tmp_path / "h.npz"
        save_tiled(hy, p)
        op = TileSpMSpV(load_tiled(p))
        x = random_sparse_vector(50, 0.2)
        assert np.allclose(op.multiply(x).to_dense(),
                           coo.to_dense() @ x.to_dense())


class TestErrors:
    def test_unsupported_object(self, tmp_path):
        with pytest.raises(IOFormatError):
            save_tiled({"not": "tiled"}, tmp_path / "x.npz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOFormatError):
            load_tiled(tmp_path / "missing.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        p = tmp_path / "foreign.npz"
        np.savez(p, a=np.zeros(3))
        with pytest.raises(IOFormatError):
            load_tiled(p)

    def test_future_version_rejected(self, tmp_path):
        p = tmp_path / "future.npz"
        np.savez(p, kind="tiled_matrix", version=999)
        with pytest.raises(IOFormatError):
            load_tiled(p)


class TestDtypePreservation:
    """Satellite: save/load must preserve tile dtypes *exactly* — a
    uint64 or_and matrix that silently came back float64 would corrupt
    every bit-pattern value in it."""

    @pytest.mark.parametrize(
        "sr", [PLUS_TIMES, OR_AND, MIN_PLUS, MAX_TIMES],
        ids=lambda s: s.name)
    def test_round_trip_preserves_semiring_dtype(self, tmp_path, sr):
        rng = np.random.default_rng(11)
        nnz = 80
        row = rng.integers(0, 48, nnz).astype(np.int64)
        col = rng.integers(0, 48, nnz).astype(np.int64)
        if sr.dtype.kind == "u":
            val = rng.integers(1, 2 ** 63, nnz).astype(sr.dtype)
        else:
            val = rng.standard_normal(nnz).astype(sr.dtype)
            val[::7] = -0.0          # signed zero must survive intact
        tm = TiledMatrix.from_coo(COOMatrix((48, 48), row, col, val), 16)
        p = tmp_path / f"{sr.name}.npz"
        save_tiled(tm, p)
        back = load_tiled(p)
        assert back.values.dtype == tm.values.dtype == sr.dtype
        # bit-level comparison: array_equal would equate -0.0 and 0.0
        assert np.array_equal(back.values.view(np.uint64),
                              tm.values.view(np.uint64))

    def test_dtype_tag_mismatch_rejected(self, coo, tmp_path):
        tm = TiledMatrix.from_coo(coo, 16)
        p = tmp_path / "m.npz"
        save_tiled(tm, p)
        with np.load(p, allow_pickle=False) as z:
            payload = {k: z[k] for k in z.files}
        payload["values_dtype"] = np.asarray("float32")
        bad = tmp_path / "bad.npz"
        np.savez(bad, **payload)
        with pytest.raises(IOFormatError):
            load_tiled(bad)


#: The stored column entry index: file name -> EntryIndex field.
INDEX_FILES = {"column_order": "order", "column_slot_ptr": "slot_ptr",
               "column_out": "out", "column_vals": "vals"}
INDEX_FIELDS = ("slot_base", "slot_ptr", "out", "vals", "order")


class TestMmapRoundTrip:
    def test_round_trip_bit_exact(self, coo, tmp_path):
        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "shard")
        manifest = read_mmap_manifest(d)
        assert manifest["nnz"] == tm.nnz
        assert manifest["nbytes"] == tm.nbytes()
        back = load_tiled_mmap(d)

        def mmap_backed(a):
            while a is not None:
                if isinstance(a, np.memmap):
                    return True
                a = a.base
            return False

        assert mmap_backed(back.values)
        assert back.values.dtype == tm.values.dtype
        assert np.array_equal(np.asarray(back.values), tm.values)
        assert np.allclose(back.to_dense(), tm.to_dense())

    def test_mmap_arrays_usable_in_kernel(self, coo, tmp_path):
        from repro.core.spmspv import as_tiled_vector
        from repro.core.spmspv_kernels import tiled_kernel
        from repro.vectors import random_sparse_vector

        tm = TiledMatrix.from_coo(coo, 16)
        back = load_tiled_mmap(save_tiled_mmap(tm, tmp_path / "s"))
        x = random_sparse_vector(50, 0.2)
        xt = as_tiled_vector(x, 16, 0.0)
        y_mmap, _ = tiled_kernel(back, xt)
        y_ref, _ = tiled_kernel(tm, xt)
        assert np.array_equal(y_mmap, y_ref)

    def test_column_order_stored_with_the_tiling(self, coo, tmp_path,
                                                 monkeypatch):
        """A load builds the entry index from the stored column order:
        a shard fault does not sort.  A directory without the order
        still loads and sorts."""
        import repro.tiles.tiled_matrix as tiled_matrix

        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "s")
        want = tm.column_entries()

        def no_sort(keys):
            raise AssertionError("sorted on load")

        monkeypatch.setattr(tiled_matrix, "radix_argsort", no_sort)
        got = load_tiled_mmap(d).column_entries()
        for name in ("slot_base", "slot_ptr", "out", "vals", "order"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert read_mmap_manifest(d)["nbytes"] == tm.nbytes()
        monkeypatch.undo()
        (d / "column_order.npy").unlink()
        legacy = load_tiled_mmap(d).column_entries()
        assert np.array_equal(legacy.order, want.order)
        np.save(d / "column_order.npy", want.order[:-1])
        with pytest.raises(IOFormatError):
            load_tiled_mmap(d)

    def test_save_writes_the_index_without_caching_it(self, coo,
                                                      tmp_path):
        """Saving builds the column entry index once, writes its
        arrays, and leaves the saved tiling without a cached index."""
        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "s")
        assert getattr(tm, "_column_entries", None) is None
        want = tm.column_entries()
        for name, field in INDEX_FILES.items():
            assert np.array_equal(np.load(d / f"{name}.npy"),
                                  getattr(want, field))
        assert tm.column_order() is tm.column_entries().order

    def test_manifest_dtype_mismatch_rejected(self, coo, tmp_path):
        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "shard")
        np.save(d / "values.npy",
                np.zeros(tm.values.shape, dtype=np.float32))
        with pytest.raises(IOFormatError):
            load_tiled_mmap(d)

    def test_non_directory_rejected(self, tmp_path):
        with pytest.raises(IOFormatError):
            read_mmap_manifest(tmp_path / "nope")


class TestStoredIndex:
    """A load maps the column entry index written with the tiling."""

    @pytest.mark.parametrize("nt", [4, 16])
    @pytest.mark.parametrize("sr", [PLUS_TIMES, OR_AND],
                             ids=lambda s: s.name)
    def test_mapped_index_is_the_rebuilt_one(self, coo, tmp_path, nt, sr):
        if sr.dtype.kind == "u":
            coo = COOMatrix(coo.shape, coo.row, coo.col,
                            coo.val.view(np.uint64))
        tm = TiledMatrix.from_coo(coo, nt)
        got = load_tiled_mmap(save_tiled_mmap(tm, tmp_path / "s")
                              ).column_entries()
        want = tm.column_entries()
        assert got.nt == want.nt
        for name in INDEX_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert isinstance(got.out.base, np.memmap)

    def test_fault_builds_no_index(self, coo, tmp_path, monkeypatch):
        """Neither a load nor a counters-off sharded multiply over a
        stored matrix stacks or sorts an index; the manifest's bytes,
        and so the modeled shard loads, are the format arrays'."""
        import repro.tiles.tiled_matrix as tiled_matrix
        from repro.shards import ShardedSpMSpV, ShardedTiledMatrix
        from repro.vectors import random_sparse_vector

        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "s")
        assert read_mmap_manifest(d)["nbytes"] == tm.nbytes()
        sm = ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=4,
                                         store_dir=tmp_path / "shards")
        x = random_sparse_vector(50, 0.3, seed=2)
        want = sm.to_coo().to_dense() @ x.to_dense()

        def built(*args, **kwargs):
            raise AssertionError("index built on load")

        monkeypatch.setattr(tiled_matrix.EntryIndex, "stack", built)
        monkeypatch.setattr(tiled_matrix, "radix_argsort", built)
        load_tiled_mmap(d).column_entries()
        op = ShardedSpMSpV(ShardedTiledMatrix.open(tmp_path / "shards",
                                                   budget_bytes=1),
                           parallel=1)
        for _ in range(2):
            y = op.multiply(x, output="dense")
            assert np.allclose(y, want, rtol=1e-12, atol=0.0)
        assert op.stats()["loads"] == 2 * sm.n_shards == 8
        assert op.stats()["loaded_bytes"] == 2 * sum(
            sm.store.nbytes(s) for s in range(sm.n_shards))

    @pytest.mark.parametrize("name", sorted(INDEX_FILES))
    def test_short_index_file_rejected(self, coo, tmp_path, name):
        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "s")
        arr = np.load(d / f"{name}.npy")
        np.save(d / f"{name}.npy", arr[:-1])
        with pytest.raises(IOFormatError):
            load_tiled_mmap(d)

    def test_truncated_index_file_rejected(self, coo, tmp_path):
        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "s")
        path = d / "column_out.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(IOFormatError):
            load_tiled_mmap(d)

    def test_index_dtype_mismatch_rejected(self, coo, tmp_path):
        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "s")
        vals = np.load(d / "column_vals.npy")
        np.save(d / "column_vals.npy", vals.astype(np.float32))
        with pytest.raises(IOFormatError):
            load_tiled_mmap(d)

    @pytest.mark.parametrize("keep_order", [True, False])
    def test_directory_without_the_index_loads(self, coo, tmp_path,
                                               keep_order):
        tm = TiledMatrix.from_coo(coo, 16)
        d = save_tiled_mmap(tm, tmp_path / "s")
        for name in INDEX_FILES:
            if name != "column_order" or not keep_order:
                (d / f"{name}.npy").unlink()
        back = load_tiled_mmap(d)
        assert getattr(back, "_column_entries", None) is None
        got, want = back.column_entries(), tm.column_entries()
        for name in INDEX_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert read_mmap_manifest(d)["nbytes"] == tm.nbytes()
