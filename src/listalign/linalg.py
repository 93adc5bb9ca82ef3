"""Dense linear-algebra kernels: PCA, k-means, orthogonal Procrustes, percentiles.

Matrices are 2-D float64 ndarrays throughout; 32-bit input is widened on entry.
Everything here is deterministic for a fixed seed.

The nearest centroid of a point x is argmin_j (||c_j||^2 - 2 x.c_j), ties to
the lowest index: ||x||^2 is the same for every centroid, so it is dropped,
and the score is one gemm of (x | 1) by the score table (-2c | ||c||^2)^T.
Lloyd, KmeansModel.assign and PQ encoding share that kernel (_nearest);
k-means++ keeps true distances (_sq_dists) because it samples from them.

procrustes runs with BLAS pinned to one thread (blas_threads), because the
summation order of a threaded gemm and SVD, and so the last bits of an OPQ
rotation, depend on the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, ShapeMismatch

__all__ = [
    "PcaModel",
    "KmeansModel",
    "as_matrix",
    "pca_fit",
    "kmeans_pp_seeds",
    "kmeans_fit",
    "kmeans_refine",
    "procrustes",
    "percentiles",
    "blas_threads",
]


def as_matrix(x, name: str = "x") -> np.ndarray:
    """Validate and widen an array to a finite 2-D float64 matrix."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name}: expected a 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DegenerateInput(f"{name}: contains NaN or Inf")
    return arr


@dataclass(frozen=True)
class PcaModel:
    """Principal components of a data matrix.

    mean: (d,) column means of the fitting data.
    components: (k, d) orthonormal rows, ordered by decreasing variance.
    explained_variance: (k,) variance captured by each component.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def project(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[1] != self.mean.shape[0]:
            raise ShapeMismatch(
                f"project: expected {self.mean.shape[0]} columns, got {x.shape[1]}"
            )
        return (x - self.mean) @ self.components.T

    def reconstruct(self, y) -> np.ndarray:
        y = as_matrix(y)
        if y.shape[1] != self.components.shape[0]:
            raise ShapeMismatch(
                f"reconstruct: expected {self.components.shape[0]} columns, got {y.shape[1]}"
            )
        return y @ self.components + self.mean


def pca_fit(x, k: int) -> PcaModel:
    """Fit a k-component PCA via SVD of the centered data matrix.

    Requires n >= 2 rows and 1 <= k <= min(n, d). Components use the sign
    convention that each row's largest-magnitude entry is non-negative.
    """
    x = as_matrix(x)
    n, d = x.shape
    if n < 2:
        raise DegenerateInput(f"pca_fit: need at least 2 rows, got {n}")
    if not 1 <= k <= min(n, d):
        raise DegenerateInput(f"pca_fit: k={k} outside [1, min(n={n}, d={d})]")

    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k]
    # Fix signs so repeated fits of equivalent data agree.
    pivot = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(k), pivot])
    signs[signs == 0] = 1.0
    components = components * signs[:, None]
    explained = (s[:k] ** 2) / (n - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


@dataclass(frozen=True)
class KmeansModel:
    """centroids: (k, d); inertia: final within-cluster sum of squared distances."""

    centroids: np.ndarray
    inertia: float
    inertia_history: np.ndarray = field(default_factory=lambda: np.empty(0))

    def assign(self, x) -> np.ndarray:
        """Index of the nearest centroid per row (ties go to the lowest index)."""
        x = as_matrix(x)
        if x.shape[1] != self.centroids.shape[1]:
            raise ShapeMismatch(
                f"assign: expected {self.centroids.shape[1]} columns, got {x.shape[1]}"
            )
        return _nearest(_with_ones(x), _score_table(self.centroids))


def _with_ones(x: np.ndarray) -> np.ndarray:
    """Points (..., n, s) with a column of ones appended, (..., n, s + 1)."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    out[..., -1] = 1.0
    return out


def _score_table(c: np.ndarray) -> np.ndarray:
    """Centroids (..., k, s) as the score table (-2c | ||c||^2)^T, (..., s + 1, k)."""
    out = np.empty(c.shape[:-2] + (c.shape[-1] + 1, c.shape[-2]))
    out[..., :-1, :] = np.swapaxes(-2.0 * c, -1, -2)
    out[..., -1, :] = np.sum(c * c, axis=-1)
    return out


def _nearest(xa: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Nearest centroid per row, ties to the lowest index, (..., n).

    xa is _with_ones(x) and table is _score_table(c). The score
    ||c||^2 - 2 x.c differs from ||x - c||^2 by ||x||^2, which is the same for
    every centroid of a row, so the argmin is that of the squared distance up
    to rounding: only centroids within rounding of each other can swap.
    """
    return np.argmin(xa @ table, axis=-1)


def _sq_dists(x: np.ndarray, c: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Pairwise squared euclidean distances, (..., n, k), given xx = ||x||^2 per row.

    x is (..., n, d) and c is (..., k, d); leading axes are a stack of
    independent problems.
    """
    # ||x-c||^2 expanded; clip tiny negatives from cancellation. Scaling c by -2
    # is exact, so this is xx - 2 x.c + ||c||^2 bit for bit.
    d2 = x @ np.swapaxes(-2.0 * c, -1, -2)
    d2 += xx[..., None]
    d2 += np.sum(c * c, axis=-1)[..., None, :]
    return np.maximum(d2, 0.0, out=d2)


def kmeans_pp_seeds(blocks, k: int, seeds) -> np.ndarray:
    """k-means++ seeds for m independent (n, s) blocks at once, (m, k, s).

    Block j draws from its own ``np.random.default_rng(seeds[j])`` with the
    arithmetic of ``Generator.choice(n, p=d2 / d2.sum())``, so its seeds are
    exactly those of a lone k-means++ run on that block with that seed. A block
    whose points all sit on chosen seeds (total distance 0, e.g. zero padding)
    draws its next seed uniformly. Requires 1 <= k <= n.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3:
        raise ShapeMismatch(f"kmeans_pp_seeds: expected an (m, n, s) stack, got shape {blocks.shape}")
    m, n, _ = blocks.shape
    if len(seeds) != m:
        raise ShapeMismatch(f"kmeans_pp_seeds: {len(seeds)} seeds for {m} blocks")
    if not 1 <= k <= n:
        raise DegenerateInput(f"kmeans_pp_seeds: k={k} outside [1, n={n}]")
    rngs = [np.random.default_rng(s) for s in seeds]
    rows = np.arange(m)
    xx = np.sum(blocks * blocks, axis=2)
    centroids = np.empty((m, k, blocks.shape[2]))
    centroids[:, 0] = blocks[rows, [int(rng.integers(n)) for rng in rngs]]
    d2 = _sq_dists(blocks, centroids[:, :1], xx)[:, :, 0]  # (m, n)
    u = np.empty(m)
    for t in range(1, k):
        total = d2.sum(axis=1)
        live = total > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            cdf = np.cumsum(d2 / total[:, None], axis=1)
        for j, ok in enumerate(live.tolist()):
            if ok:
                u[j] = rngs[j].random()
        idx = _cdf_draw(cdf, u)
        for j in np.flatnonzero(~live):
            idx[j] = rngs[j].integers(n)
        centroids[:, t] = blocks[rows, idx]
        np.minimum(d2, _sq_dists(blocks, centroids[:, t : t + 1], xx)[:, :, 0], out=d2)
    return centroids


def _cdf_draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the count of cdf[row] / cdf[row, -1] <= u[row], (m,).

    That is Generator.choice's searchsorted(cdf / cdf[-1], u, side="right"),
    found by binary search over the raw cumulative sums: they never decrease,
    and dividing by a positive last entry keeps their order, so probing
    cdf[row, mid] / last at about log2(n) points gives the same count as
    normalising and counting the whole row. A zero-mass row (all NaN) compares
    false everywhere and gets 0, as counting does.
    """
    m, n = cdf.shape
    rows = np.arange(m)
    last = cdf[:, -1]
    lo = np.zeros(m, dtype=np.intp)
    hi = np.full(m, n, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n.bit_length()):
            mid = (lo + hi) // 2
            le = cdf[rows, np.minimum(mid, n - 1)] / last <= u
            lo = np.where(le & (lo < hi), mid + 1, lo)
            hi = np.where(le, hi, mid)
    return lo


def _lloyd(x: np.ndarray, centroids: np.ndarray, iters: int):
    """Lloyd iterations with farthest-point reseeding of empty clusters.

    Returns (centroids, inertia_history). The history starts at the inertia of
    the incoming centroids and is non-increasing.
    """
    k = centroids.shape[0]
    centroids = centroids.copy()
    xa = _with_ones(x)
    labels = _nearest(xa, _score_table(centroids))
    # Direct differences for the cost: exact zero when a point sits on its centroid.
    point_cost = np.sum((x - centroids[labels]) ** 2, axis=1)
    history = [float(point_cost.sum())]

    for _ in range(iters):
        new_centroids = centroids.copy()
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, x)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            # Each empty cluster takes the point currently farthest from its
            # centroid; that point's cost is zeroed so the next empty cluster
            # picks a different one.
            cost = point_cost.copy()
            for j in np.flatnonzero(~nonempty):
                far = int(np.argmax(cost))
                new_centroids[j] = x[far]
                cost[far] = 0.0
        prev_labels = labels
        centroids = new_centroids
        labels = _nearest(xa, _score_table(centroids))
        point_cost = np.sum((x - centroids[labels]) ** 2, axis=1)
        history.append(float(point_cost.sum()))
        if np.array_equal(labels, prev_labels):
            break
    return centroids, np.asarray(history)


def kmeans_fit(x, k: int, iters: int = 25, seed: int = 0) -> KmeansModel:
    """k-means with kmeans++ init and Lloyd refinement.

    Deterministic for a fixed seed. Empty clusters are reseeded from the point
    farthest from its assigned centroid. Requires n >= k >= 1.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if k < 1:
        raise DegenerateInput(f"kmeans_fit: k must be >= 1, got {k}")
    if n < k:
        raise DegenerateInput(f"kmeans_fit: need n >= k, got n={n}, k={k}")
    if iters < 0:
        raise DegenerateInput(f"kmeans_fit: iters must be >= 0, got {iters}")
    return kmeans_refine(x, kmeans_pp_seeds(x[None], k, [seed])[0], iters)


def kmeans_refine(x, centroids, iters: int = 25) -> KmeansModel:
    """Continue Lloyd iterations from existing centroids (no re-initialization)."""
    x = as_matrix(x)
    centroids = as_matrix(centroids, "centroids")
    if x.shape[1] != centroids.shape[1]:
        raise ShapeMismatch(
            f"kmeans_refine: data has {x.shape[1]} columns, centroids {centroids.shape[1]}"
        )
    if x.shape[0] < centroids.shape[0]:
        raise DegenerateInput("kmeans_refine: need n >= k")
    out, history = _lloyd(x, centroids, iters)
    return KmeansModel(centroids=out, inertia=float(history[-1]), inertia_history=history)


def procrustes(a, b) -> np.ndarray:
    """Orthogonal (D, D) matrix R minimizing ||[A 0] R - B||_F.

    A is (n, d) and B is (n, D) with d <= D <= n; A stands for itself
    zero-padded to D columns. The padded cross-covariance [A 0]^T B has
    non-zero rows only where A has columns, so one SVD of the (d, D) matrix
    A^T B = U S V^T solves it: R = [U V^T[:d]; V^T[d:]]. With d == D that is
    the classical U V^T, bit for bit.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    (n, d), width = a.shape, b.shape[1]
    if b.shape[0] != n or width < d:
        raise ShapeMismatch(f"procrustes: a {a.shape} must have b's rows and at most its columns, "
                            f"b {b.shape}")
    if n < width:
        raise DegenerateInput(f"procrustes: need n >= D, got n={n}, D={width}")
    with blas_threads(1):
        c = a.T @ b
        del a, b  # a caller's temporary (OPQ's reconstruction) is freed before the SVD
        u, _, vt = np.linalg.svd(c)
        vt[:d] = u @ vt[:d]
        return vt


def _openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body with numpy's OpenBLAS on n threads, then restore the count.

    A no-op when numpy does not bundle scipy-openblas (the symbol is missing).
    """
    fns = _openblas_threads()
    if fns is None:
        yield
        return
    get, set_ = fns
    previous = get()
    set_(n)
    try:
        yield
    finally:
        set_(previous)


def percentiles(values, ps) -> np.ndarray:
    """Percentiles by linear interpolation between order statistics.

    ps are fractions in [0, 1]. Matches the convention where the p-th
    percentile of [1..100] at p=0.5 is 50.5.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise DegenerateInput("percentiles: empty values")
    if not np.isfinite(values).all():
        raise DegenerateInput("percentiles: values contain NaN or Inf")
    ps = np.atleast_1d(np.asarray(ps, dtype=np.float64))
    if ps.size == 0 or np.any(ps < 0.0) or np.any(ps > 1.0):
        raise DegenerateInput("percentiles: fractions must lie in [0, 1]")
    return np.quantile(values, ps, method="linear")
