"""Vector compression codecs and their on-disk formats.

Four codecs share one encode/decode shape: product quantization (PQ), rotated
product quantization (OPQ), per-dimension 8-bit scalar quantization, and a PCA
projection followed by scalar quantization. Encoded vectors are rows of uint8
codes (a CodeBlock); decode maps codes back to float vectors in the original
input space.

Each KINDS row names a codec class and its trainer. The class owns its
encode, decode and on-disk layout; train_codec(settings, x), encode(codec, x)
and decode(codec, block) are the kind-free front doors. The module functions
left beside the classes are the *_train trainers, which KINDS looks up when
called, and scalar_encode/scalar_decode: ScalarQuantizer's methods forward to
them because PcaCodec and eval.pca_dim_sweep quantize projected rows with
them, and perfbench/tracing.py times them by name.

Trained codec parameters are rounded to float32 before use so that the values in
memory equal the values on disk; encoding after a save/load round-trip is
bit-identical to encoding before it. A codec checks itself wherever it is built,
by its trainer, a caller or load_codec: dims its trainer does not write, an
array not of the shape its class's shapes (the rule read follows) gives for
those dims, a non-finite parameter or a scale not above 0 is DegenerateInput.

PQ encoding picks, per subspace, the centroid with the smallest
||c||^2 - 2 x.c (linalg._nearest; ties go to the lowest index) from a score
table built once per codebook. Consecutive subspaces are scored in groups
whose score array is about an L2 cache in size; each subspace is still its own
gemm, so the grouping changes no code.

File formats (little-endian):

    codec file      magic "BLCODEC1", kind u8, kind-specific u32 dims,
                    float32 parameter payload
    embedding file  magic "BLEMB001", n u64, d u32, dtype u8 (0=f32 1=u8),
                    row-major payload

The kind byte is the kind's position in KINDS: 0 pq, 1 opq, 2 scalar, 3 pca.
New kinds are appended and existing ones never reordered, so old files keep
loading.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from ._fileio import Reader, atomic_write_bytes, pack_f32, pack_u8, pack_u32, pack_u64
from .errors import ConfigError, CorruptFile, DegenerateInput, ShapeMismatch
from .linalg import (
    PcaModel,
    _nearest,
    _score_table,
    as_matrix,
    kmeans_fit,  # noqa: F401  unused here; perfbench/tracing.py patches codec.kmeans_fit
    kmeans_pp_seeds,
    kmeans_refine,
    pca_fit,
    percentiles,
    procrustes,
)

__all__ = [
    "CodeBlock",
    "PqCodebook",
    "OpqCodec",
    "ScalarQuantizer",
    "PcaCodec",
    "pq_train",
    "opq_train",
    "scalar_train",
    "scalar_encode",
    "scalar_decode",
    "pca_codec_train",
    "CodecSettings",
    "KINDS",
    "train_codec",
    "encode",
    "decode",
    "CompressionReport",
    "compression_report",
    "error_reduction",
    "save_codec",
    "load_codec",
    "save_embeddings",
    "load_embeddings",
]

CODEC_MAGIC = b"BLCODEC1"
EMB_MAGIC = b"BLEMB001"

DEFAULT_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.90, 0.99)


def _f32(a: np.ndarray) -> np.ndarray:
    """Round through float32, back to float64 (storage precision)."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


@dataclass(frozen=True)
class CodeBlock:
    """n encoded vectors, one row of uint8 codes each."""

    n: int
    bytes_per_vector: int
    codes: np.ndarray  # (n, bytes_per_vector) uint8

    def __post_init__(self):
        if self.codes.shape != (self.n, self.bytes_per_vector):
            raise ShapeMismatch(
                f"CodeBlock: codes shape {self.codes.shape} != "
                f"({self.n}, {self.bytes_per_vector})"
            )
        if self.codes.dtype != np.uint8:
            raise DegenerateInput("CodeBlock: codes must be uint8")


def _input(x, width: int, who: str) -> np.ndarray:
    """x as a float64 matrix of the given width; another width is ShapeMismatch."""
    x = as_matrix(x)
    if x.shape[1] != width:
        raise ShapeMismatch(f"{who}: expected {width} columns, got {x.shape[1]}")
    return x


def _codes(block: CodeBlock, width: int, who: str, k: int = 256) -> np.ndarray:
    """block's codes, which must be width bytes per vector, each below k."""
    if block.bytes_per_vector != width:
        raise ShapeMismatch(
            f"{who}: block has {block.bytes_per_vector} bytes/vector, expected {width}"
        )
    if k < 256 and (top := int(block.codes.max(initial=0))) >= k:
        raise DegenerateInput(f"{who}: code {top} is not below k={k}")
    return block.codes


def _check(codec, ok: bool) -> None:
    """DegenerateInput unless ok (dims its trainer writes), every saved array has
    the shape read gives it and every saved array is finite."""
    header, arrays = codec.layout()
    name = type(codec).__name__
    if not ok:
        raise DegenerateInput(f"{name}: dims {header} are not ones {codec.trainer} writes")
    shapes = tuple(np.shape(a) for a in arrays)
    if shapes != codec.shapes(*header):
        raise DegenerateInput(f"{name}: array shapes {shapes} are not ones {codec.trainer} writes "
                              f"for dims {header}")
    if not all(np.isfinite(a).all() for a in arrays):
        raise DegenerateInput(f"{name}: non-finite parameter")


def _read_parts(cls, r: Reader, n_dims: int) -> tuple[tuple, list]:
    """n_dims u32 dims, then the float32 arrays cls.shapes gives those dims."""
    header = tuple(r.u32() for _ in range(n_dims))
    return header, [r.f32(shape) for shape in cls.shapes(*header)]


# ---------------------------------------------------------------------------
# product quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PqCodebook:
    """Per-subspace centroid tables.

    dim is the original input dimensionality; inputs are zero-padded up to
    m * sub_dim internally, and decode truncates back to dim.
    """

    dim: int
    m: int
    k: int
    sub_dim: int
    codebooks: np.ndarray  # (m, k, sub_dim)
    trainer = "pq_train"

    def __post_init__(self):
        d, m, k, sub_dim = self.layout()[0]
        _check(self, d >= 1 and m >= 1 and 1 <= k <= 256 and sub_dim == -(-d // m))

    @property
    def padded_dim(self) -> int:
        return self.m * self.sub_dim

    @cached_property
    def score_tables(self) -> np.ndarray:
        """Per-subspace nearest-centroid score tables, (m, sub_dim + 1, k)."""
        return _score_table(self.codebooks)

    def encode(self, x) -> CodeBlock:
        """Encode rows of x (n x dim) to m bytes per vector."""
        x = _input(x, self.dim, "PqCodebook.encode")
        codes = _pq_encode_padded(self, _pad_columns(x, self.padded_dim))
        return CodeBlock(n=x.shape[0], bytes_per_vector=self.m, codes=codes)

    def decode(self, block: CodeBlock) -> np.ndarray:
        """Reconstruct vectors by concatenating the indexed centroids."""
        return _pq_decode_padded(self, _codes(block, self.m, "PqCodebook.decode", self.k))[:, : self.dim]

    def layout(self):
        return (self.dim, self.m, self.k, self.sub_dim), (self.codebooks,)

    @staticmethod
    def shapes(dim, m, k, sub_dim):
        return ((m, k, sub_dim),)

    @classmethod
    def read(cls, r: Reader) -> PqCodebook:
        header, (codebooks,) = _read_parts(cls, r, 4)
        return cls(*header, codebooks)


def _pad_columns(x: np.ndarray, width: int) -> np.ndarray:
    if x.shape[1] == width:
        return x
    out = np.zeros((x.shape[0], width))
    out[:, : x.shape[1]] = x
    return out


def _subspace_blocks(x: np.ndarray, m: int, sub_dim: int) -> np.ndarray:
    """Zero-pad x to m * sub_dim columns and stack its subspaces, (m, n, sub_dim)."""
    xp = _pad_columns(x, m * sub_dim)
    return np.ascontiguousarray(xp.reshape(x.shape[0], m, sub_dim).transpose(1, 0, 2))


def pq_train(x, m: int, k: int, iters: int = 25, seed: int = 0) -> PqCodebook:
    """Train an m-subspace, k-centroid product quantizer.

    The input is zero-padded so the width divides evenly into m subspaces of
    sub_dim = ceil(d / m) columns each. Subspace j runs k-means with seed
    seed + j, so per-slice results can be reproduced independently:
    codebooks[j] equals kmeans_fit(slice_j, k, iters, seed + j).centroids
    rounded to float32. All subspaces are seeded in one batched k-means++ pass.
    """
    x = as_matrix(x)
    n, d = x.shape
    if m < 1:
        raise DegenerateInput(f"pq_train: m must be >= 1, got {m}")
    if not 1 <= k <= 256:
        raise DegenerateInput(f"pq_train: k must be in [1, 256] (one byte per code), got {k}")
    if n < k:
        raise DegenerateInput(f"pq_train: need n >= k, got n={n}, k={k}")
    if iters < 0:
        raise DegenerateInput(f"pq_train: iters must be >= 0, got {iters}")
    sub_dim = -(-d // m)
    blocks = _subspace_blocks(x, m, sub_dim)
    seeds = kmeans_pp_seeds(blocks, k, [seed + j for j in range(m)])
    codebooks = np.stack(
        [kmeans_refine(blocks[j], seeds[j], iters=iters).centroids for j in range(m)]
    )
    return PqCodebook(dim=d, m=m, k=k, sub_dim=sub_dim, codebooks=_f32(codebooks))


# Bytes of nearest-centroid scores computed at once: about an L2 cache, so a
# group's scores are still cached when argmin reads them back.
_SCORE_BYTES = 1 << 20


def _pq_encode_padded(cb: PqCodebook, xp: np.ndarray) -> np.ndarray:
    """Codes of padded rows, nearest centroid per subspace (ties: lowest index).

    Consecutive subspaces are stacked in groups of g, one (g, n, sub_dim + 1)
    by (g, sub_dim + 1, k) matmul per group, which runs one gemm per subspace.
    """
    n, s = xp.shape[0], cb.sub_dim
    g = min(cb.m, max(1, _SCORE_BYTES // (8 * max(n, 1) * cb.k)))
    xa = np.empty((g, n, s + 1))
    xa[..., s] = 1.0
    codes = np.empty((n, cb.m), dtype=np.uint8)
    for lo in range(0, cb.m, g):
        hi = min(lo + g, cb.m)
        group = xa[: hi - lo]
        group[..., :s] = xp[:, lo * s : hi * s].reshape(n, hi - lo, s).transpose(1, 0, 2)
        codes[:, lo:hi] = _nearest(group, cb.score_tables[lo:hi]).T
    return codes


def _pq_decode_padded(cb: PqCodebook, codes: np.ndarray) -> np.ndarray:
    # One gather straight into the (n, m, sub_dim) result, viewed as (n, m * sub_dim).
    return cb.codebooks[np.arange(cb.m), codes].reshape(codes.shape[0], cb.padded_dim)


# ---------------------------------------------------------------------------
# rotated product quantization
# ---------------------------------------------------------------------------

# Rows rotated at once by OPQ encode and decode, so that their padded and
# rotated temporaries stay a few MB at any batch size. A large block gives a
# row the bits of a whole-batch product; BLAS may run a short last block of a
# small matrix through another kernel, which can move the last bits.
_ROW_BLOCK = 256


@dataclass(frozen=True)
class OpqCodec:
    """Orthogonal rotation composed with a product quantizer.

    The rotation acts on inputs zero-padded to rotated_dim; the inner PQ is
    trained in the rotated space, so pq.dim == rotated_dim.
    """

    input_dim: int
    rotated_dim: int
    rotation: np.ndarray  # (rotated_dim, rotated_dim)
    pq: PqCodebook
    objective_history: np.ndarray = field(default_factory=lambda: np.empty(0))
    trainer = "opq_train"

    def __post_init__(self):
        _check(self, 1 <= self.input_dim <= self.rotated_dim == self.pq.dim == self.pq.padded_dim)

    def encode(self, x) -> CodeBlock:
        x = _input(x, self.input_dim, "OpqCodec.encode")
        codes = np.empty((x.shape[0], self.pq.m), dtype=np.uint8)
        for lo in range(0, x.shape[0], _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            xr = _pad_columns(x[rows], self.rotated_dim) @ self.rotation
            codes[rows] = _pq_encode_padded(self.pq, xr)
        return CodeBlock(n=x.shape[0], bytes_per_vector=self.pq.m, codes=codes)

    def decode(self, block: CodeBlock) -> np.ndarray:
        codes = _codes(block, self.pq.m, "OpqCodec.decode", self.pq.k)
        out = np.empty((block.n, self.input_dim))
        for lo in range(0, block.n, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            xr = _pq_decode_padded(self.pq, codes[rows])
            out[rows] = xr @ self.rotation[: self.input_dim].T
        return out

    def layout(self):
        pq = self.pq
        header = (self.input_dim, self.rotated_dim, pq.m, pq.k, pq.sub_dim)
        return header, (self.rotation, pq.codebooks)

    @staticmethod
    def shapes(input_dim, rotated_dim, m, k, sub_dim):
        return (rotated_dim, rotated_dim), (m, k, sub_dim)

    @classmethod
    def read(cls, r: Reader) -> OpqCodec:
        (input_dim, rotated_dim, m, k, sub_dim), (rotation, codebooks) = _read_parts(cls, r, 5)
        pq = PqCodebook(m * sub_dim, m, k, sub_dim, codebooks)  # OPQ's rule judges rotated_dim
        return cls(input_dim, rotated_dim, rotation, pq)


def _reconstruct(cb: PqCodebook, xr: np.ndarray) -> np.ndarray:
    return _pq_decode_padded(cb, _pq_encode_padded(cb, xr))


def opq_train(
    x,
    m: int,
    k: int,
    rotated_dim: int | None = None,
    outer_iters: int = 10,
    seed: int = 0,
    kmeans_iters: int = 25,
) -> OpqCodec:
    """Alternate codebook and rotation updates to fit a rotated product quantizer.

    Starts from the identity rotation and a plain PQ fit, then loops: re-solve
    the rotation against the current reconstructions (orthogonal Procrustes),
    and refine each subspace codebook by warm-started Lloyd iterations. Each
    (codebook, rotation) pair is encoded and decoded once; that reconstruction
    gives both its recorded objective and the next Procrustes target. Both
    steps lower the total squared reconstruction error, so the recorded
    objective never increases. With outer_iters=0 the result is exactly the
    plain PQ fit.
    """
    x = as_matrix(x)
    n, d = x.shape
    if m < 1:
        raise DegenerateInput(f"opq_train: m must be >= 1, got {m}")
    if rotated_dim is None:
        rotated_dim = -(-d // m) * m
    if rotated_dim < d:
        raise DegenerateInput(f"opq_train: rotated_dim {rotated_dim} < input dim {d}")
    if rotated_dim % m != 0:
        raise DegenerateInput(f"opq_train: rotated_dim {rotated_dim} not divisible by m={m}")
    if outer_iters < 0:
        raise DegenerateInput("opq_train: outer_iters must be >= 0")
    if n < rotated_dim and outer_iters > 0:
        raise DegenerateInput(
            f"opq_train: rotation update needs n >= rotated_dim, got n={n}, rotated_dim={rotated_dim}"
        )

    xp = _pad_columns(x, rotated_dim)
    xr = xp
    cb = pq_train(xr, m, k, iters=kmeans_iters, seed=seed)
    xhat = _reconstruct(cb, xr)
    history = [float(np.sum((xr - xhat) ** 2))]

    for _ in range(outer_iters):
        rotation = _f32(procrustes(xp, xhat))
        xr = xp @ rotation
        blocks = _subspace_blocks(xr, m, cb.sub_dim)
        new_books = np.stack(
            [kmeans_refine(blocks[j], cb.codebooks[j], iters=kmeans_iters).centroids for j in range(m)]
        )
        cb = PqCodebook(dim=rotated_dim, m=m, k=k, sub_dim=cb.sub_dim, codebooks=_f32(new_books))
        xhat = _reconstruct(cb, xr)
        history.append(float(np.sum((xr - xhat) ** 2)))

    if outer_iters == 0:
        # Built only here: a rotated_dim-square identity held through the fit
        # would add to its memory peak, Procrustes' SVD.
        rotation = np.eye(rotated_dim)
    return OpqCodec(
        input_dim=d,
        rotated_dim=rotated_dim,
        rotation=rotation,
        pq=cb,
        objective_history=np.asarray(history),
    )


# ---------------------------------------------------------------------------
# scalar quantization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarQuantizer:
    """Per-dimension affine map onto the 8-bit grid [0, 255]."""

    mins: np.ndarray   # (d,)
    scales: np.ndarray  # (d,) strictly positive
    trainer = "scalar_train"

    def __post_init__(self):
        _check(self, self.dim >= 1)
        if not (self.scales > 0.0).all():
            raise DegenerateInput("ScalarQuantizer: scale not above 0")

    @property
    def dim(self) -> int:
        return self.mins.shape[0]

    def encode(self, x) -> CodeBlock:
        return scalar_encode(self, x)

    def decode(self, block: CodeBlock) -> np.ndarray:
        return scalar_decode(self, block)

    def layout(self):
        return (self.dim,), (self.mins, self.scales)

    @staticmethod
    def shapes(dim):
        return (dim,), (dim,)

    @classmethod
    def read(cls, r: Reader) -> ScalarQuantizer:
        return cls(*_read_parts(cls, r, 1)[1])


def scalar_train(x) -> ScalarQuantizer:
    """Fit per-dimension min/scale from the data range.

    Zero-range dimensions, and those whose step rounds to 0 in float32, get
    scale 1 so they decode to the stored min.
    """
    x = as_matrix(x)
    if x.shape[0] < 1:
        raise DegenerateInput("scalar_train: need at least one row")
    mins = x.min(axis=0)
    spread = x.max(axis=0) - mins
    scales = _f32(spread / 255.0)
    return ScalarQuantizer(mins=_f32(mins), scales=np.where(scales > 0.0, scales, 1.0))


def scalar_encode(q: ScalarQuantizer, x) -> CodeBlock:
    """Round-half-to-even onto the grid, clipping out-of-range values."""
    x = _input(x, q.dim, "scalar_encode")
    grid = np.rint((x - q.mins) / q.scales)
    codes = np.clip(grid, 0.0, 255.0).astype(np.uint8)
    return CodeBlock(n=x.shape[0], bytes_per_vector=q.dim, codes=codes)


def scalar_decode(q: ScalarQuantizer, block: CodeBlock) -> np.ndarray:
    return q.mins + _codes(block, q.dim, "scalar_decode").astype(np.float64) * q.scales


# ---------------------------------------------------------------------------
# PCA + scalar codec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaCodec:
    """Project to out_dim principal components, then 8-bit quantize each one."""

    input_dim: int
    out_dim: int
    pca: PcaModel
    quantizer: ScalarQuantizer
    trainer = "pca_codec_train"

    def __post_init__(self):
        _check(self, 1 <= self.out_dim <= self.input_dim)

    def encode(self, x) -> CodeBlock:
        x = _input(x, self.input_dim, "PcaCodec.encode")
        return scalar_encode(self.quantizer, self.pca.project(x))

    def decode(self, block: CodeBlock) -> np.ndarray:
        return self.pca.reconstruct(scalar_decode(self.quantizer, block))

    def layout(self):
        pca, q = self.pca, self.quantizer
        arrays = (pca.mean, pca.components, pca.explained_variance, q.mins, q.scales)
        return (self.input_dim, self.out_dim), arrays

    @staticmethod
    def shapes(input_dim, out_dim):
        return (input_dim,), (out_dim, input_dim), (out_dim,), (out_dim,), (out_dim,)

    @classmethod
    def read(cls, r: Reader) -> PcaCodec:
        (input_dim, out_dim), (mean, components, variance, mins, scales) = _read_parts(cls, r, 2)
        return cls(input_dim, out_dim, PcaModel(mean, components, variance), ScalarQuantizer(mins, scales))


def pca_codec_train(x, out_dim: int) -> PcaCodec:
    x = as_matrix(x)
    model = pca_fit(x, out_dim)
    model = PcaModel(
        mean=_f32(model.mean),
        components=_f32(model.components),
        explained_variance=_f32(model.explained_variance),
    )
    projected = model.project(x)
    return PcaCodec(
        input_dim=x.shape[1], out_dim=out_dim, pca=model, quantizer=scalar_train(projected)
    )


# ---------------------------------------------------------------------------
# kind-dispatched front door
# ---------------------------------------------------------------------------

Codec = PqCodebook | OpqCodec | ScalarQuantizer | PcaCodec

# Kind name -> (codec class, trainer reading CodecSettings). A kind's position
# is its BLCODEC1 tag byte: append new kinds, never reorder. The trainers look
# the *_train functions up when called, so rebinding those module attributes
# (as perfbench/tracing.py does) reaches them.
KINDS = {
    "pq": (PqCodebook, lambda s, x: pq_train(x, s.m, s.k, iters=s.iters, seed=s.seed)),
    "opq": (
        OpqCodec,
        lambda s, x: opq_train(
            x, s.m, s.k, rotated_dim=s.rotated_dim, outer_iters=s.outer_iters,
            seed=s.seed, kmeans_iters=s.kmeans_iters,
        ),
    ),
    "scalar": (ScalarQuantizer, lambda s, x: scalar_train(x)),
    "pca": (PcaCodec, lambda s, x: pca_codec_train(x, s.out_dim)),
}
_CLASSES = [cls for cls, _ in KINDS.values()]  # indexed by tag byte


@dataclass(frozen=True)
class CodecSettings:
    """The codec section of the pipeline config; each kind reads its own fields.

    Every field's range is checked on construction whichever kind reads it.
    What needs the data or combines fields (k <= rows, rotated_dim >= width,
    rotated_dim % m) is left to the trainers.
    """

    kind: str = "opq"
    m: int = 4
    k: int = 256
    rotated_dim: int | None = None
    outer_iters: int = 10
    kmeans_iters: int = 25
    iters: int = 25
    seed: int = 0
    out_dim: int = 40

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"codec.kind must be one of {', '.join(KINDS)}, got {self.kind!r}")
        if self.m < 1:
            raise ConfigError("codec.m must be >= 1")
        if not 1 <= self.k <= 256:
            raise ConfigError("codec.k must lie in [1, 256], one byte per code")
        for name in ("iters", "kmeans_iters", "outer_iters"):
            if getattr(self, name) < 0:
                raise ConfigError(f"codec.{name} must be >= 0")
        if self.out_dim < 1:
            raise ConfigError("codec.out_dim must be >= 1")
        if self.rotated_dim is not None and self.rotated_dim < 1:
            raise ConfigError("codec.rotated_dim must be >= 1")
        if self.seed < 0:
            raise ConfigError("codec.seed must be >= 0")


def train_codec(settings: CodecSettings, x) -> Codec:
    """Train a codec of settings.kind on the rows of x."""
    return KINDS[settings.kind][1](settings, x)


def encode(codec: Codec, x) -> CodeBlock:
    return codec.encode(x)


def decode(codec: Codec, block: CodeBlock) -> np.ndarray:
    return codec.decode(block)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressionReport:
    """Distribution of per-vector L2 reconstruction errors."""

    levels: tuple
    values: np.ndarray
    mean_error: float
    mean_relative_error: float

    def as_dict(self) -> dict:
        return {**asdict(self), "levels": list(self.levels), "values": [float(v) for v in self.values]}


def compression_report(x, x_hat, levels=DEFAULT_LEVELS) -> CompressionReport:
    """Percentiles of per-vector L2 error between originals and reconstructions.

    The relative mean divides each vector's error by its norm (zero-norm rows
    are skipped for the relative figure).
    """
    x = as_matrix(x)
    x_hat = as_matrix(x_hat, "x_hat")
    if x.shape != x_hat.shape:
        raise ShapeMismatch(f"compression_report: shapes differ, {x.shape} vs {x_hat.shape}")
    # Blocks of rows keep the temporaries small; a row's norm is the same either way.
    errs, norms = np.empty(len(x)), np.empty(len(x))
    for lo in range(0, len(x), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        errs[rows] = np.linalg.norm(x[rows] - x_hat[rows], axis=1)
        norms[rows] = np.linalg.norm(x[rows], axis=1)
    ok = norms > 0.0
    rel = float(np.mean(errs[ok] / norms[ok])) if ok.any() else 0.0
    return CompressionReport(
        levels=tuple(float(p) for p in levels),
        values=percentiles(errs, levels),
        mean_error=float(errs.mean()),
        mean_relative_error=rel,
    )


def error_reduction(base: CompressionReport, improved: CompressionReport) -> np.ndarray:
    """Percent reduction of each error percentile, improved relative to base."""
    if base.levels != improved.levels:
        raise ShapeMismatch("error_reduction: reports use different percentile levels")
    b = np.asarray(base.values)
    return (b - np.asarray(improved.values)) / b * 100.0


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_codec(path: str, codec: Codec) -> None:
    """Serialize any codec to the BLCODEC1 container."""
    header, arrays = codec.layout()
    parts = [CODEC_MAGIC, pack_u8(_CLASSES.index(type(codec)))]
    parts += [pack_u32(v) for v in header] + [pack_f32(a) for a in arrays]
    atomic_write_bytes(path, b"".join(parts))


def load_codec(path: str) -> Codec:
    """Read any codec; a file whose codec does not build is CorruptFile naming its kind's trainer."""
    r = Reader(path, CODEC_MAGIC)
    tag = r.u8()
    if tag >= len(_CLASSES):
        raise CorruptFile(f"{path}: unknown codec kind {tag}")
    try:
        codec = _CLASSES[tag].read(r)
    except DegenerateInput as err:  # a part's check may fire first, so name the kind's trainer
        raise CorruptFile(f"{path}: the codec is not one {_CLASSES[tag].trainer} writes: {err}") from None
    r.end()
    return codec


def save_embeddings(path: str, array: np.ndarray) -> None:
    """Write a 2-D float32 or uint8 array to the BLEMB001 container."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ShapeMismatch(f"save_embeddings: expected 2-D array, got shape {arr.shape}")
    if arr.dtype == np.uint8:
        dtype_tag, payload = 1, np.ascontiguousarray(arr).tobytes()
    else:
        dtype_tag, payload = 0, pack_f32(arr)
    header = EMB_MAGIC + pack_u64(arr.shape[0]) + pack_u32(arr.shape[1]) + pack_u8(dtype_tag)
    atomic_write_bytes(path, header + payload)


def load_embeddings(path: str) -> np.ndarray:
    """Read a BLEMB001 file: float32 widens to float64, uint8 stays uint8."""
    r = Reader(path, EMB_MAGIC)
    n, d, dtype_tag = r.u64(), r.u32(), r.u8()
    if dtype_tag == 0:
        array = r.f32((n, d))
    elif dtype_tag == 1:
        array = r.view("u1", (n, d)).copy()
    else:
        raise CorruptFile(f"{path}: unknown embedding dtype tag {dtype_tag}")
    r.end()
    return array
