"""Retrieval, probing, and ranking-quality metrics.

Everything here consumes plain embedding matrices; nothing depends on the
encoder internals. Ranks are pessimistic under ties: an item's rank counts
every candidate scoring greater than or equal to the true match, so tied
scores never flatter recall.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import codec as codecmod
from ._fileio import json_text
from .errors import CorruptFile, DegenerateInput, ShapeMismatch
from .linalg import pca_fit

__all__ = [
    "RetrievalMetrics",
    "retrieval_metrics",
    "knn_probe",
    "ndcg_binary",
    "sweep_basis",
    "pca_dim_sweep",
    "EvalReport",
]


def _unit_rows(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DegenerateInput(f"{name} contains NaN or Inf")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateInput(f"{name} has a zero row; cannot take cosines")
    return x / norms[:, None]


def _ranks(queries: np.ndarray, gallery: np.ndarray, true_idx: np.ndarray) -> np.ndarray:
    sims = queries @ gallery.T
    true_sims = sims[np.arange(len(true_idx)), true_idx]
    # counts the true item itself (always >= its own score), giving rank 1 + ties-or-better
    return (sims >= true_sims[:, None]).sum(axis=1)


@dataclass(frozen=True)
class RetrievalMetrics:
    recall_t2i: dict
    recall_i2t: dict
    mean_rank_t2i: float
    mean_rank_i2t: float
    median_rank_t2i: float
    median_rank_i2t: float
    n_queries: int
    n_gallery: int

    def as_dict(self) -> dict:
        """The fields, with the recall cutoffs as string keys as in JSON."""
        return {
            **asdict(self),
            "recall_t2i": {str(k): v for k, v in self.recall_t2i.items()},
            "recall_i2t": {str(k): v for k, v in self.recall_i2t.items()},
        }


def retrieval_metrics(text_emb, photo_emb, ks=(1, 5, 10), query_indices=None) -> RetrievalMetrics:
    """Bidirectional retrieval over aligned pairs (row i of each matrix matches).

    query_indices restricts which rows act as queries; the gallery always stays
    the full set. Rows are cosine-normalized internally.
    """
    text_n = _unit_rows(text_emb, "text embeddings")
    photo_n = _unit_rows(photo_emb, "photoset embeddings")
    if text_n.shape != photo_n.shape:
        raise ShapeMismatch(
            f"towers disagree: text {text_n.shape} vs photoset {photo_n.shape}"
        )
    n = text_n.shape[0]
    if n < 2:
        raise DegenerateInput("need at least 2 pairs to rank")
    if query_indices is None:
        q_idx = np.arange(n)
    else:
        q_idx = np.asarray(query_indices, dtype=np.int64)
        if q_idx.ndim != 1 or q_idx.size == 0:
            raise DegenerateInput("query_indices must be a non-empty 1-D index array")
        if q_idx.min() < 0 or q_idx.max() >= n:
            raise DegenerateInput("query_indices out of range")
    ks = tuple(int(k) for k in ks)
    if any(k < 1 or k > n for k in ks):
        raise DegenerateInput(f"each k must lie in [1, {n}]")

    ranks_t2i = _ranks(text_n[q_idx], photo_n, q_idx)
    ranks_i2t = _ranks(photo_n[q_idx], text_n, q_idx)
    return RetrievalMetrics(
        recall_t2i={k: float(np.mean(ranks_t2i <= k)) for k in ks},
        recall_i2t={k: float(np.mean(ranks_i2t <= k)) for k in ks},
        mean_rank_t2i=float(np.mean(ranks_t2i)),
        mean_rank_i2t=float(np.mean(ranks_i2t)),
        median_rank_t2i=float(np.median(ranks_t2i)),
        median_rank_i2t=float(np.median(ranks_i2t)),
        n_queries=int(q_idx.size),
        n_gallery=n,
    )


def _top_k(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) indices of each row's k largest entries, in row-major order.

    These are the columns np.argsort(-sims, axis=1, kind="stable")[:, :k]
    holds, found without a sort: every entry above the row's k-th largest,
    then the lowest-index entries equal to it (+0.0 equals -0.0, as in a sort).
    """
    kth = np.partition(sims, sims.shape[1] - k, axis=1)[:, -k, None]
    above = sims > kth
    tied = sims == kth
    tied &= np.cumsum(tied, axis=1) <= k - np.count_nonzero(above, axis=1)[:, None]
    return np.nonzero(above | tied)


def knn_probe(train_emb, train_labels, test_emb, test_labels, k: int = 10) -> float | list[float]:
    """Cosine k-nearest-neighbor majority-vote accuracy.

    Neighbor order breaks similarity ties by index; vote ties go to the
    smallest label. Labels may be arbitrary integers. 1-D labels give one
    float. (n, c) labels give a list of c floats: the neighbors are found
    once and each column votes on its own, as a 1-D call on it would.
    """
    train_n = _unit_rows(train_emb, "probe train embeddings")
    test_n = _unit_rows(test_emb, "probe test embeddings")
    if train_n.shape[1] != test_n.shape[1]:
        raise ShapeMismatch("probe train and test dimension differ")
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    columns = train_labels.shape[1:]
    if (train_labels.ndim not in (1, 2) or train_labels.shape != (train_n.shape[0], *columns)
            or test_labels.shape != (test_n.shape[0], *columns)):
        raise ShapeMismatch("labels must be 1-D or 2-D and match their embedding counts")
    if k < 1 or k > train_n.shape[0]:
        raise DegenerateInput(f"k must lie in [1, {train_n.shape[0]}]")

    if not columns:
        train_labels, test_labels = train_labels[:, None], test_labels[:, None]
    rows, neighbors = _top_k(test_n @ train_n.T, k)
    n_test = test_n.shape[0]
    accuracies = []
    for train_col, test_col in zip(train_labels.T, test_labels.T):
        uniq, inv = np.unique(train_col, return_inverse=True)
        # one bincount over (test row, label) cells; argmax takes the smallest label of a tie
        votes = np.bincount(rows * uniq.size + inv[neighbors], minlength=n_test * uniq.size)
        pred = uniq[votes.reshape(-1, uniq.size).argmax(axis=1)]
        accuracies.append(float(np.mean(pred == test_col)))
    return accuracies if columns else accuracies[0]


def ndcg_binary(ranking, relevant, depth: int | None = None) -> float:
    """Normalized DCG with binary gains.

    DCG sums 1/log2(position + 1) over relevant items within the depth cutoff;
    the ideal ranking packs all relevant items first. An empty relevant set
    scores 0; an empty ranking is an error.
    """
    ranking = list(ranking)
    if not ranking:
        raise DegenerateInput("ranking is empty")
    rel = set(relevant)
    if not rel:
        return 0.0
    if depth is None:
        depth = len(ranking)
    if depth < 1:
        raise DegenerateInput("depth must be >= 1")
    top = ranking[:depth]
    dcg = sum(1.0 / np.log2(p + 1.0) for p, item in enumerate(top, start=1) if item in rel)
    ideal_hits = min(depth, len(rel))
    idcg = sum(1.0 / np.log2(p + 1.0) for p in range(1, ideal_hits + 1))
    return float(dcg / idcg)


def sweep_basis(text_emb, photo_emb) -> np.ndarray:
    """The (min(2n, d), d) PCA basis of the pooled rows [text; photo].

    pca_fit's sign rule acts per row, so the first m rows have the bits of
    pca_fit(pooled, m).components. gallery.Gallery.basis stores it, so a
    warm pca_dim_sweep takes a prefix instead of refitting.
    """
    pooled = np.vstack([text_emb, photo_emb])
    return pca_fit(pooled, min(pooled.shape)).components


def pca_dim_sweep(
    text_emb,
    photo_emb,
    dims,
    ks=(1, 5, 10),
    query_indices=None,
    quantize: bool = False,
    basis=None,
) -> list:
    """Retrieval quality as a function of projected dimension.

    Projects onto the first m rows of the pooled PCA basis, sweep_basis of the
    two towers (fitted here when basis is None; ``eval`` passes the gallery's),
    applying the rotation only (no centering) so the full-rank projection is
    an isometry and reproduces the unprojected metrics. With quantize=True
    each projected matrix additionally round-trips through the 8-bit scalar
    codec before scoring. Returns one row dict per dimension.
    """
    text_emb = np.asarray(text_emb, dtype=np.float64)
    photo_emb = np.asarray(photo_emb, dtype=np.float64)
    if text_emb.shape != photo_emb.shape:
        raise ShapeMismatch("towers disagree on shape")
    d = text_emb.shape[1]
    dims = tuple(int(m) for m in dims)
    if not dims:
        raise DegenerateInput("a sweep needs at least one dim")
    if any(m < 1 or m > d for m in dims):
        raise DegenerateInput(f"each sweep dim must lie in [1, {d}]")
    if basis is None:
        basis = sweep_basis(text_emb, photo_emb)  # rows orthonormal
    if max(dims) > len(basis):  # fewer pooled rows than columns: pca_fit's own refusal
        raise DegenerateInput(f"pca_fit: k={max(dims)} outside [1, min(n={2 * len(text_emb)}, d={d})]")

    rows = []
    for m in dims:
        t_proj = text_emb @ basis[:m].T
        p_proj = photo_emb @ basis[:m].T
        if quantize:
            sq = codecmod.scalar_train(np.vstack([t_proj, p_proj]))
            t_proj = codecmod.scalar_decode(sq, codecmod.scalar_encode(sq, t_proj))
            p_proj = codecmod.scalar_decode(sq, codecmod.scalar_encode(sq, p_proj))
        metrics = retrieval_metrics(t_proj, p_proj, ks=ks, query_indices=query_indices)
        row = {"dim": m, "quantized": bool(quantize)}
        row.update(metrics.as_dict())
        rows.append(row)
    return rows


@dataclass
class EvalReport:
    """Bundle of evaluation outputs, serializable to stable JSON."""

    retrieval: dict
    probe: dict = field(default_factory=dict)
    sweep: list = field(default_factory=list)
    compression: dict | None = None

    def to_json(self) -> str:
        return json_text(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        """Parse a saved report; JSON not shaped like one raises CorruptFile."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise CorruptFile("report is not a JSON object")
        report = cls(raw.get("retrieval", {}), raw.get("probe", {}), raw.get("sweep", []), raw.get("compression"))
        if not (isinstance(report.retrieval, dict) and isinstance(report.probe, dict)
                and all(_real(v) for v in report.probe.values())):
            raise CorruptFile("report retrieval and probe must be objects, with numbers as probe values")
        for key, table in report.retrieval.items():
            if isinstance(table, dict) and not all(_int_text(k) and _real(v) for k, v in table.items()):
                raise CorruptFile(f"report retrieval {key!r} must map integer cutoffs to numbers")
        if not isinstance(report.sweep, list) or not all(
                isinstance(row, dict) and {"dim", "quantized", "mean_rank_t2i"} <= row.keys()
                and _real(row["mean_rank_t2i"]) for row in report.sweep):
            raise CorruptFile("report sweep must be a list of rows with dim, quantized and mean_rank_t2i")
        return report


def _int_text(key: str) -> bool:
    try:
        int(key)
    except ValueError:
        return False
    return True


def _real(value) -> bool:
    """True for a JSON number that formats as a float."""
    return isinstance(value, float) or (isinstance(value, int) and abs(value) <= sys.float_info.max)
