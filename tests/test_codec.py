"""Tests for the PQ / OPQ / scalar / PCA codecs and their file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listalign import codec
from listalign.errors import ConfigError, CorruptFile, DegenerateInput, ShapeMismatch
from listalign.linalg import kmeans_fit, kmeans_refine, procrustes

from conftest import assert_every_prefix_corrupt


def _f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _clustered(seed, n=400, d=8, k=16, noise=0.05):
    """Points drawn around k shared centers."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, d))
    idx = rng.integers(k, size=n)
    return centers[idx] + noise * rng.normal(size=(n, d))


def rotated_subspace_clusters(seed, n=2048, m=4, sub_dim=4, k=16, noise=0.05):
    """Independent per-subspace clusterings, then a planted random rotation.

    Under the right rotation the data quantizes almost exactly; under the
    identity rotation each subspace sees a mixture of all of them.
    """
    rng = np.random.default_rng(seed)
    d = m * sub_dim
    parts = []
    for _ in range(m):
        centers = rng.normal(size=(k, sub_dim))
        parts.append(centers[rng.integers(k, size=n)])
    x = np.concatenate(parts, axis=1) + noise * rng.normal(size=(n, d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return x @ q


# ---------------------------------------------------------------------------
# product quantization
# ---------------------------------------------------------------------------

class TestPq:
    def test_round_trip_on_exact_centroids(self):
        '''Vectors that sit on centroid concatenations decode exactly.'''
        cb = codec.pq_train(_clustered(0, n=300, d=8), m=2, k=8, iters=30, seed=0)
        picks = np.array([[0, 3], [7, 1], [5, 5]])
        x = np.concatenate(
            [cb.codebooks[j][picks[:, j]] for j in range(cb.m)], axis=1
        )
        block = codec.encode(cb, x)
        np.testing.assert_array_equal(block.codes, picks)
        np.testing.assert_array_equal(codec.decode(cb, block), x)

    def test_matches_per_slice_kmeans_oracle(self):
        '''Each subspace codebook is exactly k-means on its own slice with seed + j.'''
        x = _clustered(1, n=500, d=12)
        m, k, iters, seed = 3, 16, 20, 7
        cb = codec.pq_train(x, m=m, k=k, iters=iters, seed=seed)
        sub = x.shape[1] // m
        for j in range(m):
            sl = x[:, j * sub : (j + 1) * sub]
            oracle = _f32(kmeans_fit(sl, k, iters=iters, seed=seed + j).centroids)
            np.testing.assert_array_equal(cb.codebooks[j], oracle)

    def test_pads_when_m_does_not_divide_d(self):
        x = _clustered(2, n=200, d=7)
        cb = codec.pq_train(x, m=2, k=8, iters=10, seed=0)
        assert cb.sub_dim == 4 and cb.padded_dim == 8
        block = codec.encode(cb, x)
        assert block.bytes_per_vector == 2
        assert codec.decode(cb, block).shape == x.shape

    def test_codes_fit_one_byte(self):
        x = _clustered(3, n=300, d=4)
        cb = codec.pq_train(x, m=2, k=256, iters=5, seed=0)
        block = codec.encode(cb, x)
        assert block.codes.dtype == np.uint8
        with pytest.raises(DegenerateInput):
            codec.pq_train(x, m=2, k=257, iters=5, seed=0)

    def test_requires_enough_rows(self):
        with pytest.raises(DegenerateInput):
            codec.pq_train(np.zeros((5, 4)), m=2, k=8)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=20, max_value=80),
        d=st.integers(min_value=2, max_value=12),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_encode_decode_shapes(self, n, d, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        cb = codec.pq_train(x, m=m, k=min(8, n), iters=3, seed=seed)
        block = codec.encode(cb, x)
        assert block.codes.shape == (n, m)
        assert np.all(block.codes < cb.k)
        recon = codec.decode(cb, block)
        assert recon.shape == (n, d)
        # Quantizing a reconstruction is a fixed point.
        again = codec.encode(cb, recon)
        np.testing.assert_array_equal(block.codes, again.codes)


    @pytest.mark.parametrize("kind", ["pq", "opq"])
    def test_row_codes_independent_of_batch(self, kind):
        '''A row encodes the same alone and in batches of 1, 7, 64 and 1300 rows.

        With m=20 and k=256, encoding stacks all 20 subspaces per call at 1
        and 7 rows, groups of 8, 8 and 4 at 64 rows, and one at a time at 1300.
        '''
        rng = np.random.default_rng(21)
        m, k, sub_dim = 20, 256, 3
        books = _f32(rng.normal(size=(m, k, sub_dim)))
        trained = pq = codec.PqCodebook(dim=58, m=m, k=k, sub_dim=sub_dim, codebooks=books)
        if kind == "opq":
            q, _ = np.linalg.qr(rng.normal(size=(60, 60)))
            pq = codec.PqCodebook(dim=60, m=m, k=k, sub_dim=sub_dim, codebooks=books)
            trained = codec.OpqCodec(input_dim=58, rotated_dim=60, rotation=_f32(q), pq=pq)
        x = rng.normal(size=(1300, 58))
        full = trained.encode(x).codes
        for size in (1, 7, 64, 1300):
            rows = 70 if size < 64 else 1300
            parts = [trained.encode(x[lo : lo + size]).codes for lo in range(0, rows, size)]
            np.testing.assert_array_equal(np.concatenate(parts)[:rows], full[:rows])
        if kind == "opq":
            # Decoding rotates 256 rows at a time. BLAS may run a short last
            # block (20 rows here) through another kernel, so compare the
            # whole-batch product up to rounding.
            block = codec.CodeBlock(n=1300, bytes_per_vector=m, codes=full)
            whole = codec.decode(pq, block) @ trained.rotation.T
            np.testing.assert_allclose(trained.decode(block), whole[:, :58], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# rotated product quantization
# ---------------------------------------------------------------------------

class TestOpq:
    def test_zero_outer_iters_equals_plain_pq(self):
        x = _clustered(4, n=300, d=8)
        pq = codec.pq_train(x, m=4, k=16, iters=15, seed=3)
        opq = codec.opq_train(x, m=4, k=16, outer_iters=0, seed=3, kmeans_iters=15)
        np.testing.assert_array_equal(opq.rotation, np.eye(8))
        np.testing.assert_array_equal(opq.pq.codebooks, pq.codebooks)
        np.testing.assert_array_equal(
            codec.encode(opq, x).codes, codec.encode(pq, x).codes
        )

    @pytest.mark.parametrize("outer_iters", [0, 1, 2, 3])
    def test_matches_two_encodes_per_iteration_reference(self, outer_iters):
        '''Reusing each reconstruction leaves the codec and objective unchanged.'''
        x = rotated_subspace_clusters(10, n=300)[:, :14]  # padded to 16 columns
        m, k, seed, iters = 4, 8, 3, 6
        opq = codec.opq_train(x, m=m, k=k, outer_iters=outer_iters, seed=seed, kmeans_iters=iters)

        def recon(cb, xr):
            return codec.decode(cb, codec.encode(cb, xr))

        xp = np.zeros((x.shape[0], 16))
        xp[:, :14] = x
        xr, rotation = xp, np.eye(16)
        cb = codec.pq_train(xr, m=m, k=k, iters=iters, seed=seed)
        history = [float(np.sum((xr - recon(cb, xr)) ** 2))]
        for _ in range(outer_iters):
            rotation = _f32(procrustes(xp, recon(cb, xr)))
            xr = xp @ rotation
            s = cb.sub_dim
            books = [
                kmeans_refine(xr[:, j * s : (j + 1) * s], cb.codebooks[j], iters=iters).centroids
                for j in range(m)
            ]
            cb = codec.PqCodebook(dim=16, m=m, k=k, sub_dim=s, codebooks=_f32(np.stack(books)))
            history.append(float(np.sum((xr - recon(cb, xr)) ** 2)))

        np.testing.assert_array_equal(opq.objective_history, history)
        np.testing.assert_array_equal(opq.rotation, rotation)
        np.testing.assert_array_equal(opq.pq.codebooks, cb.codebooks)

    def test_objective_monotone_non_increasing(self):
        x = rotated_subspace_clusters(5, n=600)
        opq = codec.opq_train(x, m=4, k=16, outer_iters=8, seed=0, kmeans_iters=10)
        h = opq.objective_history
        assert len(h) == 9
        assert np.all(h[1:] <= h[:-1] * (1 + 1e-9) + 1e-9)

    def test_never_worse_than_identity_rotation(self):
        x = rotated_subspace_clusters(6, n=600)
        opq = codec.opq_train(x, m=4, k=16, outer_iters=6, seed=1, kmeans_iters=10)
        recon = codec.decode(opq, codec.encode(opq, x))
        final_err = np.sum((x - recon) ** 2)
        identity_err = opq.objective_history[0]
        assert final_err <= identity_err * (1 + 1e-9)

    def test_beats_pq_on_rotated_subspace_clusters(self):
        x = rotated_subspace_clusters(7)
        pq = codec.pq_train(x, m=4, k=16, iters=20, seed=0)
        opq = codec.opq_train(x, m=4, k=16, outer_iters=12, seed=0, kmeans_iters=20)
        pq_err = np.median(np.linalg.norm(x - codec.decode(pq, codec.encode(pq, x)), axis=1))
        opq_err = np.median(
            np.linalg.norm(x - codec.decode(opq, codec.encode(opq, x)), axis=1)
        )
        assert opq_err < pq_err

    def test_rotation_orthogonal(self):
        x = rotated_subspace_clusters(8, n=400)
        opq = codec.opq_train(x, m=4, k=8, outer_iters=4, seed=2, kmeans_iters=8)
        rd = opq.rotated_dim
        np.testing.assert_allclose(opq.rotation @ opq.rotation.T, np.eye(rd), atol=1e-6)

    def test_pads_input_dim_to_rotated_dim(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 10))
        opq = codec.opq_train(x, m=4, k=8, rotated_dim=12, outer_iters=2, seed=0, kmeans_iters=5)
        assert opq.input_dim == 10 and opq.rotated_dim == 12
        recon = codec.decode(opq, codec.encode(opq, x))
        assert recon.shape == x.shape

    def test_rejects_bad_rotated_dim(self):
        x = np.zeros((50, 10))
        with pytest.raises(DegenerateInput):
            codec.opq_train(x, m=4, k=4, rotated_dim=9, outer_iters=0)
        with pytest.raises(DegenerateInput):
            codec.opq_train(x, m=3, k=4, rotated_dim=10, outer_iters=0)


# ---------------------------------------------------------------------------
# scalar quantization
# ---------------------------------------------------------------------------

class TestScalar:
    def test_endpoints_map_to_grid_ends(self):
        x = np.array([[-1.0], [0.0], [1.0]])
        q = codec.scalar_train(x)
        block = codec.scalar_encode(q, x)
        assert block.codes[0, 0] == 0 and block.codes[2, 0] == 255

    def test_max_error_half_step(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-3, 5, size=(500, 6))
        q = codec.scalar_train(x)
        recon = codec.scalar_decode(q, codec.scalar_encode(q, x))
        half_step = q.scales / 2.0
        assert np.all(np.abs(x - recon) <= half_step + 1e-7)

    def test_constant_dimension_decodes_exactly(self):
        x = np.column_stack([np.full(20, 3.25), np.linspace(0, 1, 20)])
        q = codec.scalar_train(x)
        assert q.scales[0] == 1.0
        recon = codec.scalar_decode(q, codec.scalar_encode(q, x))
        np.testing.assert_array_equal(recon[:, 0], x[:, 0])

    def test_step_below_float32_decodes_to_min(self, tmp_path):
        x = np.array([[0.0, 1.0], [1e-44, 2.0]])  # 1e-44 / 255 is 0 in float32
        q = codec.scalar_train(x)
        assert q.scales[0] == 1.0
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(codec.scalar_decode(q, codec.scalar_encode(q, x))[:, 0], 0.0)
        path = str(tmp_path / "tiny.codec")
        codec.save_codec(path, q)
        np.testing.assert_array_equal(codec.load_codec(path).scales, q.scales)

    def test_round_half_to_even(self):
        # Grid step 1.0 over [0, 255]: values at .5 round to the even neighbor.
        q = codec.ScalarQuantizer(mins=np.array([0.0]), scales=np.array([1.0]))
        block = codec.scalar_encode(q, np.array([[0.5], [1.5], [2.5]]))
        assert block.codes.ravel().tolist() == [0, 2, 2]

    def test_bytes_per_vector_is_dim(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 9))
        q = codec.scalar_train(x)
        assert codec.scalar_encode(q, x).bytes_per_vector == 9


# ---------------------------------------------------------------------------
# PCA codec
# ---------------------------------------------------------------------------

class TestPcaCodec:
    def test_bytes_per_vector_is_out_dim(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(200, 64))
        pc = codec.pca_codec_train(x, out_dim=40)
        assert codec.encode(pc, x).bytes_per_vector == 40

    def test_low_rank_data_reconstructs_well(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 32))
        pc = codec.pca_codec_train(x, out_dim=8)
        recon = codec.decode(pc, codec.encode(pc, x))
        rel = np.linalg.norm(x - recon) / np.linalg.norm(x)
        assert rel < 0.01


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

class TestCompressionReport:
    def test_exact_reconstruction_gives_zero(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(50, 4))
        rep = codec.compression_report(x, x.copy())
        assert np.all(np.asarray(rep.values) == 0.0)
        assert rep.mean_error == 0.0

    def test_known_constant_offsets(self):
        x = np.zeros((4, 3))
        x_hat = np.zeros((4, 3))
        x_hat[:, 0] = 2.0  # every vector off by exactly 2
        rep = codec.compression_report(x, x_hat, levels=(0.5,))
        assert rep.values[0] == pytest.approx(2.0)
        assert rep.mean_error == pytest.approx(2.0)

    def test_reduction_row_arithmetic(self):
        base = codec.CompressionReport(
            levels=(0.5,), values=np.array([20.93]), mean_error=20.93, mean_relative_error=0.1
        )
        better = codec.CompressionReport(
            levels=(0.5,), values=np.array([9.49]), mean_error=9.49, mean_relative_error=0.05
        )
        red = codec.error_reduction(base, better)
        assert red[0] == pytest.approx((20.93 - 9.49) / 20.93 * 100.0)
        assert red[0] == pytest.approx(54.66, abs=0.01)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

class TestPersistence:
    @pytest.mark.parametrize("kind", list(codec.KINDS))
    def test_save_load_codes_bit_exact(self, kind, tmp_path):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(300, 16))
        probe = rng.normal(size=(64, 16))
        settings = codec.CodecSettings(
            kind, m=4, k=16, iters=10, outer_iters=3, kmeans_iters=8, seed=0, out_dim=8
        )
        c = codec.train_codec(settings, x)
        path = str(tmp_path / f"{kind}.codec")
        codec.save_codec(path, c)
        loaded = codec.load_codec(path)
        np.testing.assert_array_equal(
            codec.encode(c, probe).codes, codec.encode(loaded, probe).codes
        )
        np.testing.assert_array_equal(
            codec.decode(c, codec.encode(c, probe)),
            codec.decode(loaded, codec.encode(loaded, probe)),
        )

    def test_kind_byte_is_position_in_kinds(self, tmp_path):
        x = np.random.default_rng(19).normal(size=(100, 8))
        assert list(codec.KINDS) == ["pq", "opq", "scalar", "pca"]
        for kind, tag in [("pq", 0), ("opq", 1), ("scalar", 2), ("pca", 3)]:
            path = tmp_path / f"{kind}.codec"
            codec.save_codec(str(path), codec.train_codec(codec.CodecSettings(kind, k=8, out_dim=4), x))
            assert path.read_bytes()[8] == tag

    @pytest.mark.parametrize("kind", list(codec.KINDS))
    def test_every_truncated_codec_file_is_corrupt(self, kind, tmp_path):
        x = np.random.default_rng(20).normal(size=(60, 6))
        settings = codec.CodecSettings(
            kind, m=2, k=4, iters=2, outer_iters=1, kmeans_iters=2, out_dim=3
        )
        path = tmp_path / f"{kind}.codec"
        codec.save_codec(str(path), codec.train_codec(settings, x))
        assert_every_prefix_corrupt(path, codec.load_codec)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_every_truncated_embedding_file_is_corrupt(self, dtype, tmp_path):
        path = tmp_path / "x.emb"
        codec.save_embeddings(str(path), np.arange(15).reshape(5, 3).astype(dtype))
        assert_every_prefix_corrupt(path, codec.load_embeddings)

    def test_unknown_tags_are_corrupt(self, tmp_path):
        path = tmp_path / "x.codec"
        path.write_bytes(b"BLCODEC1" + bytes([len(codec.KINDS)]))
        with pytest.raises(CorruptFile, match="unknown codec kind 4"):
            codec.load_codec(str(path))
        codec.save_embeddings(str(path), np.zeros((2, 3), dtype=np.uint8))
        data = bytearray(path.read_bytes())
        data[20] = 2  # the dtype byte
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFile, match="unknown embedding dtype tag 2"):
            codec.load_embeddings(str(path))

    @pytest.mark.parametrize("kind", list(codec.KINDS))
    def test_trailing_bytes_in_codec_file_are_corrupt(self, kind, tmp_path):
        x = np.random.default_rng(21).normal(size=(60, 6))
        settings = codec.CodecSettings(kind, m=2, k=4, iters=2, outer_iters=1, kmeans_iters=2, out_dim=3)
        path = tmp_path / f"{kind}.codec"
        codec.save_codec(str(path), codec.train_codec(settings, x))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptFile, match="2 trailing bytes"):
            codec.load_codec(str(path))

    # (kind, field, offset of the field's first float32): the header is the
    # magic, the kind byte and the kind's u32 dims; inputs are 6-d, out_dim 3
    POISONED = {
        "scalar scale": ("scalar", lambda c: c.scales[0], 8 + 1 + 4 + 4 * 6),
        "pca scale": ("pca", lambda c: c.quantizer.scales[0], 8 + 1 + 8 + 4 * (6 + 3 * 6 + 3 + 3)),
        "opq rotation": ("opq", lambda c: c.rotation[0, 0], 8 + 1 + 20),
        "pq codebook": ("pq", lambda c: c.codebooks[0, 0, 0], 8 + 1 + 16),
    }

    @pytest.mark.parametrize("field, value", [
        ("scalar scale", np.nan), ("scalar scale", np.inf), ("scalar scale", -1.0),
        ("scalar scale", 0.0), ("pca scale", np.nan), ("pca scale", np.inf), ("pca scale", -1.0),
        ("opq rotation", np.nan), ("pq codebook", np.nan), ("pq codebook", -np.inf),
    ])
    def test_payload_that_only_looks_valid_is_corrupt(self, field, value, tmp_path):
        kind, read_field, offset = self.POISONED[field]
        x = np.random.default_rng(22).normal(size=(60, 6))
        settings = codec.CodecSettings(kind, m=2, k=4, iters=2, outer_iters=1, kmeans_iters=2, out_dim=3)
        trained = codec.train_codec(settings, x)
        path = tmp_path / f"{kind}.codec"
        codec.save_codec(str(path), trained)
        raw = bytearray(path.read_bytes())
        assert np.frombuffer(raw, "<f4", 1, offset)[0] == read_field(trained)
        loaded = codec.load_codec(str(path))  # the valid file round-trips
        assert codec.encode(loaded, x).codes.tobytes() == codec.encode(trained, x).codes.tobytes()
        raw[offset : offset + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="non-finite|not above 0"):
            codec.load_codec(str(path))

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_trailing_bytes_in_embedding_file_are_corrupt(self, dtype, tmp_path):
        path = tmp_path / "x.emb"
        codec.save_embeddings(str(path), np.arange(15).reshape(5, 3).astype(dtype))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptFile, match="2 trailing bytes"):
            codec.load_embeddings(str(path))

    def test_train_codec_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="pq, opq, scalar, pca"):
            codec.train_codec(codec.CodecSettings("zstd"), np.zeros((4, 2)))

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(200, 12))
        c = codec.opq_train(x, m=3, k=8, outer_iters=2, seed=1, kmeans_iters=5)
        p1, p2 = str(tmp_path / "a.codec"), str(tmp_path / "b.codec")
        codec.save_codec(p1, c)
        codec.save_codec(p2, codec.load_codec(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_embedding_round_trip_f32(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(40, 7)).astype(np.float32)
        path = str(tmp_path / "x.emb")
        codec.save_embeddings(path, x)
        out = codec.load_embeddings(path)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, x.astype(np.float64))

    def test_embedding_round_trip_u8(self, tmp_path):
        rng = np.random.default_rng(18)
        x = rng.integers(0, 256, size=(9, 5), dtype=np.uint8)
        path = str(tmp_path / "codes.emb")
        codec.save_embeddings(path, x)
        out = codec.load_embeddings(path)
        np.testing.assert_array_equal(out, x)
        assert out.flags.writeable  # a copy, not a view of the file buffer

    def test_embedding_file_layout(self, tmp_path):
        '''Header is 21 bytes: magic + n(u64) + d(u32) + dtype(u8).'''
        path = str(tmp_path / "layout.emb")
        codec.save_embeddings(path, np.zeros((3, 2), dtype=np.uint8))
        raw = open(path, "rb").read()
        assert raw[:8] == b"BLEMB001"
        assert len(raw) == 8 + 8 + 4 + 1 + 3 * 2

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.codec")
        open(path, "wb").write(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            codec.load_codec(path)
        with pytest.raises(ValueError):
            codec.load_embeddings(path)
