"""Tests for the PCA / k-means / Procrustes / percentile kernels."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import listalign
from listalign.errors import DegenerateInput, ShapeMismatch
from listalign.linalg import (
    KmeansModel,
    _cdf_draw,
    _nearest,
    _openblas_threads,
    _score_table,
    _sq_dists,
    _with_ones,
    blas_threads,
    kmeans_fit,
    kmeans_pp_seeds,
    kmeans_refine,
    pca_fit,
    percentiles,
    procrustes,
)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

class TestPca:
    def test_single_direction_data(self):
        '''Data on one line: first component is that direction, rest capture ~0.'''
        rng = np.random.default_rng(0)
        direction = np.array([3.0, 4.0]) / 5.0
        x = rng.normal(size=(200, 1)) * 2.5 @ direction[None, :]
        model = pca_fit(x, 2)
        # Component sign is normalized, compare up to sign anyway.
        dot = abs(float(model.components[0] @ direction))
        assert dot == pytest.approx(1.0, abs=1e-12)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-18)

    def test_matches_covariance_eigendecomposition(self):
        '''Oracle: eigenvalues of the sample covariance matrix.'''
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 6)) @ rng.normal(size=(6, 6))
        model = pca_fit(x, 6)
        cov = np.cov(x, rowvar=False)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(model.explained_variance, eig, rtol=1e-10)

    def test_projection_reduces_reconstruction_error_monotonically(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 10)) @ rng.normal(size=(10, 10))
        errs = []
        for k in (1, 3, 6, 10):
            m = pca_fit(x, k)
            recon = m.reconstruct(m.project(x))
            errs.append(np.mean((x - recon) ** 2))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] == pytest.approx(0.0, abs=1e-18)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 8))
        m = pca_fit(x, 5)
        gram = m.components @ m.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_variances_non_increasing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 7))
        m = pca_fit(x, 7)
        assert np.all(np.diff(m.explained_variance) <= 1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            pca_fit(np.zeros((1, 4)), 1)
        with pytest.raises(DegenerateInput):
            pca_fit(np.zeros((5, 4)), 5)
        with pytest.raises(DegenerateInput):
            pca_fit(np.zeros((5, 4)), 0)
        with pytest.raises(DegenerateInput):
            pca_fit(np.full((5, 4), np.nan), 2)
        with pytest.raises(ShapeMismatch):
            pca_fit(np.zeros(4), 1)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _blobs(seed, k=4, per=50, d=5, spread=8.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=spread, size=(k, d))
    points = np.concatenate([c + rng.normal(size=(per, d)) for c in centers])
    return points, centers


class TestKmeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        m = kmeans_fit(x, 1, iters=5, seed=0)
        np.testing.assert_allclose(m.centroids[0], x.mean(axis=0), rtol=1e-12)
        expected = float(((x - x.mean(axis=0)) ** 2).sum())
        assert m.inertia == pytest.approx(expected, rel=1e-12)

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 4))
        m = kmeans_fit(x, 12, iters=10, seed=0)
        assert m.inertia == pytest.approx(0.0, abs=1e-18)

    def test_recovers_separated_blobs(self):
        x, centers = _blobs(7)
        m = kmeans_fit(x, 4, iters=50, seed=3)
        # Each true center should have a learned centroid within the blob noise.
        d = np.linalg.norm(centers[:, None, :] - m.centroids[None, :, :], axis=2)
        assert d.min(axis=1).max() < 1.0

    def test_inertia_non_increasing(self):
        x, _ = _blobs(8, spread=2.0)
        m = kmeans_fit(x, 6, iters=30, seed=1)
        assert np.all(np.diff(m.inertia_history) <= 1e-9)

    def test_deterministic_for_seed(self):
        x, _ = _blobs(9)
        a = kmeans_fit(x, 4, iters=20, seed=11)
        b = kmeans_fit(x, 4, iters=20, seed=11)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_assign_ties_take_lowest_index(self):
        model = KmeansModel(centroids=np.array([[1.0, 0.0], [-1.0, 0.0]]), inertia=0.0)
        labels = model.assign(np.array([[0.0, 5.0]]))  # equidistant
        assert labels[0] == 0

    def test_refine_never_worse_than_start(self):
        x, _ = _blobs(10)
        start = kmeans_fit(x, 4, iters=2, seed=0)
        refined = kmeans_refine(x, start.centroids, iters=20)
        assert refined.inertia <= start.inertia + 1e-9

    def test_rejects_bad_sizes(self):
        with pytest.raises(DegenerateInput):
            kmeans_fit(np.zeros((3, 2)), 4)
        with pytest.raises(DegenerateInput):
            kmeans_fit(np.zeros((3, 2)), 0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=30),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_inertia_monotone_and_centroid_count(self, n, k, seed):
        if k > n:
            k = n
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        m = kmeans_fit(x, k, iters=15, seed=seed)
        assert m.centroids.shape == (k, 3)
        assert np.all(np.diff(m.inertia_history) <= 1e-9)
        assert np.isfinite(m.centroids).all()


class TestNearest:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=12),
        s=st.integers(min_value=1, max_value=6),
        grid=st.booleans(),
        duplicates=st.booleans(),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # Integer grid: exact ties between distinct centroids and points on centroids.
    @example(n=30, k=12, s=2, grid=True, duplicates=False, scale=1.0, seed=0)
    @example(n=20, k=8, s=3, grid=False, duplicates=True, scale=1.0, seed=1)
    @example(n=1, k=9, s=1, grid=True, duplicates=True, scale=1e-6, seed=0)
    def test_property_agrees_with_squared_distances(self, n, k, s, grid, duplicates, scale, seed):
        '''The folded score picks a nearest centroid up to rounding, ties to the lowest index.'''
        rng = np.random.default_rng(seed)
        def draw(size):
            return rng.integers(-2, 3, size=size).astype(float) if grid else rng.normal(size=size)

        x, c = draw((n, s)) * scale, draw((k, s)) * scale
        if duplicates:  # every centroid appears twice, the copies after the originals
            c = np.concatenate([c, c])
        picked = _nearest(_with_ones(x), _score_table(c))
        ref = np.argmin(_sq_dists(x, c, np.sum(x * x, axis=1)), axis=1)
        assert picked.shape == (n,)
        direct = np.sum((x[:, None, :] - c[None, :, :]) ** 2, axis=2)
        rows = np.arange(n)
        for i in np.flatnonzero(picked != ref):
            bound = 1e-12 * (x[i] @ x[i] + max(c[picked[i]] @ c[picked[i]], c[ref[i]] @ c[ref[i]]))
            assert abs(direct[i, picked[i]] - direct[i, ref[i]]) <= bound
        if grid and scale == 1.0:  # small integers: scores are exact, so ties go to the lowest index
            best = direct.min(axis=1)
            np.testing.assert_array_equal(picked, np.argmax(direct == best[:, None], axis=1))
            np.testing.assert_array_equal(direct[rows, picked], best)

    def test_stacked_matches_each_slice(self):
        rng = np.random.default_rng(3)
        x, c = rng.normal(size=(4, 9, 3)), rng.normal(size=(4, 5, 3))
        stacked = _nearest(_with_ones(x), _score_table(c))
        for j in range(4):
            np.testing.assert_array_equal(stacked[j], _nearest(_with_ones(x[j]), _score_table(c[j])))


class TestCdfDraw:
    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=40),
        zero_frac=st.floats(min_value=0.0, max_value=0.9),
        dead_rows=st.lists(st.booleans(), min_size=5, max_size=5),
        hit=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(m=3, n=12, zero_frac=0.6, dead_rows=[False, True, False, False, False],
             hit=True, seed=0)
    @example(m=1, n=1, zero_frac=0.0, dead_rows=[False] * 5, hit=True, seed=1)
    def test_property_matches_normalised_count(self, m, n, zero_frac, dead_rows, hit, seed):
        '''Binary search equals counting the normalised CDF, exact hits and flat runs included.'''
        rng = np.random.default_rng(seed)
        d2 = rng.exponential(size=(m, n)) * (rng.random((m, n)) >= zero_frac)
        d2[np.arange(m), rng.integers(n, size=m)] += 1.0  # every live row has mass
        d2[np.asarray(dead_rows[:m])] = 0.0  # an all-zero block: NaN CDF
        total = d2.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = np.cumsum(d2 / total[:, None], axis=1)
            normalised = cdf / cdf[:, -1:]
        u = rng.random(m)
        if hit:  # u equal to a CDF value, often one repeated along a flat run
            pick = normalised[np.arange(m), rng.integers(n, size=m)]
            u = np.where(np.isfinite(pick) & (pick < 1.0), pick, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cdf_draw(cdf, u)
        with np.errstate(invalid="ignore"):
            want = np.count_nonzero(normalised <= u[:, None], axis=1)
        np.testing.assert_array_equal(got, want)


def _sequential_plus_plus(x, k, seed):
    """Reference k-means++: one block, one distance pass and rng.choice draw per seed."""

    def sq_dists(c):
        d2 = np.sum(x * x, axis=1)[:, None] - 2.0 * (x @ c.T) + np.sum(c * c, axis=1)[None, :]
        return np.maximum(d2, 0.0)

    rng = np.random.default_rng(seed)
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = sq_dists(centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        d2 = np.minimum(d2, sq_dists(centroids[j : j + 1])[:, 0])
    return centroids


class TestKmeansPpSeeds:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=40),
        s=st.integers(min_value=1, max_value=6),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        grid=st.booleans(),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        zero_blocks=st.lists(st.booleans(), min_size=4, max_size=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # k == n with an all-zero block; k == 1; duplicate points at a tiny scale.
    @example(m=3, n=12, s=2, k_frac=1.0, grid=False, scale=1.0,
             zero_blocks=[False, True, False, False], seed=0)
    @example(m=2, n=9, s=3, k_frac=0.0, grid=False, scale=1.0,
             zero_blocks=[False] * 4, seed=1)
    @example(m=2, n=20, s=4, k_frac=1.0, grid=True, scale=1e-6,
             zero_blocks=[True, True, False, False], seed=2)
    def test_property_matches_sequential_choice(self, m, n, s, k_frac, grid, scale, zero_blocks, seed):
        '''Every block gets the seeds of a lone rng.choice run with its own seed.'''
        rng = np.random.default_rng(seed)
        # A coarse integer grid repeats points, so totals reach zero before k seeds.
        blocks = rng.integers(-1, 2, size=(m, n, s)).astype(float) if grid else rng.normal(size=(m, n, s))
        blocks *= scale
        blocks[np.asarray(zero_blocks[:m])] = 0.0
        k = 1 + int(k_frac * (n - 1))
        seeds = [seed + 7 * j for j in range(m)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kmeans_pp_seeds(blocks, k, seeds)
            for j in range(m):
                np.testing.assert_array_equal(out[j], _sequential_plus_plus(blocks[j], k, seeds[j]))

    def test_rejects_bad_arguments(self):
        blocks = np.zeros((2, 5, 3))
        with pytest.raises(ShapeMismatch):
            kmeans_pp_seeds(np.zeros((5, 3)), 2, [0])
        with pytest.raises(ShapeMismatch):
            kmeans_pp_seeds(blocks, 2, [0])
        with pytest.raises(DegenerateInput):
            kmeans_pp_seeds(blocks, 6, [0, 1])
        with pytest.raises(DegenerateInput):
            kmeans_pp_seeds(blocks, 0, [0, 1])


# ---------------------------------------------------------------------------
# Procrustes
# ---------------------------------------------------------------------------

# Scripts run in a fresh process, because OpenBLAS reads OPENBLAS_NUM_THREADS
# when numpy loads; each prints the sha256 of what it computed.
CASES = {
    "procrustes": """
        import hashlib
        import numpy as np
        from listalign.linalg import procrustes
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(1300, 1280)), rng.normal(size=(1300, 1280))
        print(hashlib.sha256(procrustes(a, b).tobytes()).hexdigest())
    """,
    "quantize": """
        import hashlib, json
        import numpy as np
        from listalign import cli, codec
        x = np.random.default_rng(7).normal(size=(400, 120))
        codec.save_embeddings("table.emb", x)
        with open("codec.json", "w") as fh:
            json.dump({"codec": {"kind": "opq", "m": 16, "k": 32, "rotated_dim": 128,
                                 "outer_iters": 2, "kmeans_iters": 3}}, fh)
        assert cli.main(["quantize", "--config", "codec.json", "--emb", "table.emb",
                         "--out", "q", "--quiet"]) == 0
        for name in ("codec.blc", "codes.emb", "percentiles.json"):
            with open("q/" + name, "rb") as fh:
                print(name, hashlib.sha256(fh.read()).hexdigest())
    """,
}


def _run_hashed(script, workdir, threads):
    workdir.mkdir()
    package_root = str(Path(listalign.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, cwd=workdir, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestProcrustes:
    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(100, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        r = procrustes(a, a @ q)
        np.testing.assert_allclose(r, q, atol=1e-10)

    def test_result_is_orthogonal(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(30, 5))
        b = rng.normal(size=(30, 5))
        r = procrustes(a, b)
        np.testing.assert_allclose(r @ r.T, np.eye(5), atol=1e-10)

    def test_minimizes_against_random_orthogonal_candidates(self):
        '''No random orthogonal matrix should beat the closed-form solution.'''
        rng = np.random.default_rng(13)
        a = rng.normal(size=(40, 4))
        b = rng.normal(size=(40, 4))
        r = procrustes(a, b)
        best = np.linalg.norm(a @ r - b)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            assert best <= np.linalg.norm(a @ q - b) + 1e-9

    def test_blas_threads_pins_then_restores(self):
        fns = _openblas_threads()
        if fns is None:
            pytest.skip("numpy does not bundle scipy-openblas; blas_threads is a no-op")
        get, _ = fns
        before = get()
        with pytest.raises(RuntimeError):
            with blas_threads(1):
                assert get() == 1
                raise RuntimeError
        assert get() == before

    @pytest.mark.parametrize("case", ["procrustes", "quantize"])
    def test_bytes_independent_of_blas_thread_count(self, tmp_path, case):
        '''A 1300x1280 Procrustes solve and an OPQ quantize hash the same at 1 and 2 threads.'''
        digests = [_run_hashed(CASES[case], tmp_path / f"t{t}", t) for t in (1, 2)]
        assert digests[0] == digests[1]

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatch):
            procrustes(np.zeros((5, 3)), np.zeros((5, 4)))
        with pytest.raises(DegenerateInput):
            procrustes(np.zeros((2, 3)), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

class TestPercentiles:
    def test_median_of_1_to_100(self):
        values = np.arange(1, 101, dtype=float)
        assert percentiles(values, 0.5)[0] == pytest.approx(50.5, abs=1e-12)

    def test_interpolated_quartile(self):
        assert percentiles([0.0, 10.0], 0.25)[0] == pytest.approx(2.5, abs=1e-12)

    def test_multiple_levels_sorted_input_invariance(self):
        rng = np.random.default_rng(14)
        v = rng.normal(size=301)
        ps = [0.05, 0.25, 0.5, 0.75, 0.9, 0.99]
        np.testing.assert_array_equal(percentiles(v, ps), percentiles(np.sort(v), ps))

    def test_output_within_data_range_and_monotone(self):
        rng = np.random.default_rng(15)
        v = rng.normal(size=57)
        ps = np.linspace(0, 1, 11)
        out = percentiles(v, ps)
        assert out[0] == v.min() and out[-1] == v.max()
        assert np.all(np.diff(out) >= 0)

    def test_rejects_bad_input(self):
        with pytest.raises(DegenerateInput):
            percentiles([], [0.5])
        with pytest.raises(DegenerateInput):
            percentiles([1.0], [1.5])
        with pytest.raises(DegenerateInput):
            percentiles([np.inf], [0.5])
