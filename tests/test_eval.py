"""Retrieval metrics, kNN probes, NDCG, and the dimension sweep."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listalign import eval as evalmod
from listalign.errors import DegenerateInput, ShapeMismatch


# ---------------------------------------------------------------------------
# ndcg
# ---------------------------------------------------------------------------

def test_ndcg_single_relevant_at_rank_two():
    value = evalmod.ndcg_binary(["x", "a", "y"], {"a"})
    assert abs(value - 1.0 / np.log2(3.0)) < 1e-12


def test_ndcg_two_relevant_split():
    value = evalmod.ndcg_binary(["a", "x", "b"], {"a", "b"})
    expected = (1.0 + 1.0 / np.log2(4.0)) / (1.0 + 1.0 / np.log2(3.0))
    assert abs(value - expected) < 1e-12


def test_ndcg_perfect_prefix_is_one():
    value = evalmod.ndcg_binary(["a", "b", "c", "junk"], {"a", "b", "c"})
    assert abs(value - 1.0) < 1e-12


def test_ndcg_depth_cuts_off_late_hits():
    assert evalmod.ndcg_binary(["x", "a"], {"a"}, depth=1) == 0.0


def test_ndcg_empty_relevant_scores_zero():
    assert evalmod.ndcg_binary(["x", "y"], set()) == 0.0


def test_ndcg_empty_ranking_rejected():
    with pytest.raises(DegenerateInput):
        evalmod.ndcg_binary([], {"a"})
    with pytest.raises(DegenerateInput):
        evalmod.ndcg_binary(["a"], {"a"}, depth=0)


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def test_retrieval_hand_example_with_ties():
    photos = np.eye(3)
    texts = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    m = evalmod.retrieval_metrics(texts, photos, ks=(1, 2, 3))
    # text 0 points at photo 1; its own photo scores 0, tied with photo 2
    assert m.mean_rank_t2i == pytest.approx((3 + 1 + 1) / 3)
    assert m.recall_t2i[1] == pytest.approx(2 / 3)
    assert m.recall_t2i[3] == 1.0
    # photo 0 is orthogonal to every text: all similarities tie at 0
    assert m.mean_rank_i2t == pytest.approx((3 + 2 + 1) / 3)
    assert m.recall_i2t[1] == pytest.approx(1 / 3)


def test_retrieval_duplicate_rows_rank_pessimistically():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    m = evalmod.retrieval_metrics(x, x, ks=(1, 2))
    assert m.recall_t2i[1] == 0.0
    assert m.mean_rank_t2i == 2.0


def test_retrieval_identity_towers_are_perfect():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 8))
    m = evalmod.retrieval_metrics(x, x, ks=(1,))
    assert m.recall_t2i[1] == 1.0 and m.recall_i2t[1] == 1.0
    assert m.mean_rank_t2i == 1.0 and m.median_rank_i2t == 1.0


def test_retrieval_random_towers_sit_at_chance():
    rng = np.random.default_rng(7)
    n = 200
    t = rng.normal(size=(n, 32))
    p = rng.normal(size=(n, 32))
    m = evalmod.retrieval_metrics(t, p, ks=(1,))
    assert m.recall_t2i[1] < 0.05
    assert 80.0 < m.mean_rank_t2i < 120.0


def test_retrieval_row_scale_invariance():
    rng = np.random.default_rng(3)
    t = rng.normal(size=(15, 6))
    p = rng.normal(size=(15, 6))
    scales = rng.uniform(0.1, 10.0, size=(15, 1))
    a = evalmod.retrieval_metrics(t, p, ks=(1, 5))
    b = evalmod.retrieval_metrics(t * scales, p * 2.0, ks=(1, 5))
    assert a.as_dict() == b.as_dict()


def test_retrieval_query_subset_matches_full_run():
    rng = np.random.default_rng(11)
    t = rng.normal(size=(12, 5))
    p = rng.normal(size=(12, 5))
    subset = np.array([2, 5, 7])
    m_sub = evalmod.retrieval_metrics(t, p, ks=(1,), query_indices=subset)
    assert m_sub.n_queries == 3 and m_sub.n_gallery == 12
    # recompute one query by hand against the full gallery
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    pn = p / np.linalg.norm(p, axis=1, keepdims=True)
    sims = tn[2] @ pn.T
    rank2 = int(np.sum(sims >= sims[2]))
    full = evalmod.retrieval_metrics(t, p, ks=(1,), query_indices=np.array([2]))
    assert full.mean_rank_t2i == rank2


def test_retrieval_input_validation():
    good = np.eye(3)
    with pytest.raises(ShapeMismatch):
        evalmod.retrieval_metrics(good, np.eye(4))
    with pytest.raises(DegenerateInput):
        evalmod.retrieval_metrics(good[:1], good[:1])
    with pytest.raises(DegenerateInput):
        evalmod.retrieval_metrics(good, good, ks=(4,))
    with pytest.raises(DegenerateInput):
        evalmod.retrieval_metrics(good, good, query_indices=np.array([3]))
    with pytest.raises(DegenerateInput):
        evalmod.retrieval_metrics(np.zeros((3, 3)), good)


# ---------------------------------------------------------------------------
# knn probe
# ---------------------------------------------------------------------------

def test_knn_probe_separable_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 6)) * 0.1 + np.array([4.0, 0, 0, 0, 0, 0])
    b = rng.normal(size=(40, 6)) * 0.1 + np.array([0, 4.0, 0, 0, 0, 0])
    train = np.vstack([a[:30], b[:30]])
    labels = np.array([-1] * 30 + [1] * 30)  # negative labels must work
    test = np.vstack([a[30:], b[30:]])
    test_labels = np.array([-1] * 10 + [1] * 10)
    acc = evalmod.knn_probe(train, labels, test, test_labels, k=5)
    assert acc == 1.0


def test_knn_probe_vote_tie_prefers_smallest_label():
    train = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([5, 3])
    test = np.array([[1.0, 1.0]])  # equidistant from both neighbors
    acc = evalmod.knn_probe(train, labels, test, np.array([3]), k=2)
    assert acc == 1.0
    # each label column breaks its own tie: 5 against 3 goes to 3, 7 against -2 to -2
    assert evalmod.knn_probe(train, [[5, 7], [3, -2]], test, [[3, -2]], k=2) == [1.0, 1.0]


def test_knn_probe_validation():
    x = np.eye(3)
    y = np.array([0, 1, 2])
    with pytest.raises(DegenerateInput):
        evalmod.knn_probe(x, y, x, y, k=4)
    with pytest.raises(DegenerateInput):
        evalmod.knn_probe(x, y, x, y, k=0)
    with pytest.raises(ShapeMismatch):
        evalmod.knn_probe(x, y[:2], x, y)
    columns = np.stack([y, y], axis=1)
    for train_labels, test_labels in ((columns, columns[:, :1]), (columns, y), (y, columns),
                                      (columns[:, :, None], columns[:, :, None])):
        with pytest.raises(ShapeMismatch):
            evalmod.knn_probe(x, train_labels, x, test_labels)


def _probe_one_row_at_a_time(train, train_labels, test, test_labels, k):
    """A kNN probe as written before columns shared one neighbor order: its own
    sort and one bincount per test row."""
    train = train / np.linalg.norm(train, axis=1)[:, None]
    test = test / np.linalg.norm(test, axis=1)[:, None]
    uniq, inv = np.unique(np.asarray(train_labels, dtype=np.int64), return_inverse=True)
    votes = inv[np.argsort(-(test @ train.T), axis=1, kind="stable")[:, :k]]
    pred = np.array([uniq[np.argmax(np.bincount(row, minlength=uniq.size))] for row in votes])
    return float(np.mean(pred == np.asarray(test_labels)))


# rows drawn from a few small integer vectors repeat, so similarities tie exactly;
# the leading 1 keeps every row nonzero
_rows = st.lists(st.tuples(st.just(1), st.integers(-1, 2), st.integers(-1, 1)), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), train=_rows, test=_rows, n_columns=st.integers(1, 4))
def test_probe_label_columns_share_one_neighbor_order(data, train, test, n_columns):
    k = data.draw(st.integers(1, len(train)))
    labels = st.integers(-3, 9)  # not starting at 0, with gaps, and few enough to tie votes
    train_labels = np.array(data.draw(st.lists(st.lists(labels, min_size=n_columns, max_size=n_columns),
                                               min_size=len(train), max_size=len(train))))
    test_labels = np.array(data.draw(st.lists(st.lists(labels, min_size=n_columns, max_size=n_columns),
                                              min_size=len(test), max_size=len(test))))
    train, test = np.array(train, dtype=np.float64), np.array(test, dtype=np.float64)
    together = evalmod.knn_probe(train, train_labels, test, test_labels, k=k)
    one_by_one = [evalmod.knn_probe(train, train_labels[:, j], test, test_labels[:, j], k=k)
                  for j in range(n_columns)]
    assert isinstance(together, list) and all(type(acc) is float for acc in one_by_one)
    assert together == one_by_one == [
        _probe_one_row_at_a_time(train, train_labels[:, j], test, test_labels[:, j], k)
        for j in range(n_columns)]


def test_top_k_keeps_the_stable_sort_set_under_signed_zero_ties():
    """A gemm of unit rows gives no -0.0, so the selection is checked on its own:
    +0.0 and -0.0 are equal, and the lower columns among them are kept."""
    sims = np.array([[0.5, -0.0, 0.0, -0.0, 0.0, -0.2],
                     [-0.0, -0.0, 0.0, 0.3, 0.0, 0.0],
                     [0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
                     [-0.2, -0.0, -0.1, 0.0, 0.7, -0.0]])
    rows, cols = evalmod._top_k(sims, 3)
    assert rows.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert cols.tolist() == [0, 1, 2, 0, 1, 3, 0, 1, 2, 1, 3, 4]
    for k in range(1, sims.shape[1] + 1):
        rows, cols = evalmod._top_k(sims, k)
        kept = np.sort(np.argsort(-sims, axis=1, kind="stable")[:, :k], axis=1)
        assert rows.tolist() == np.repeat(np.arange(len(sims)), k).tolist()
        assert cols.tolist() == kept.ravel().tolist()


def test_knn_probe_with_k_equal_to_the_train_count_polls_every_row():
    train = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]])
    test = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.array([[4, 2], [4, 9], [1, 2], [1, 9], [1, 9]])
    assert evalmod.knn_probe(train, labels, test, [[1, 9], [1, 2], [4, 9]], k=5) == [2 / 3, 2 / 3]
    for j in range(2):
        assert evalmod.knn_probe(train, labels[:, j], test, [1, 1, 4], k=5) == \
            _probe_one_row_at_a_time(train, labels[:, j], test, [1, 1, 4], 5)


# ---------------------------------------------------------------------------
# dimension sweep
# ---------------------------------------------------------------------------

def test_sweep_full_rank_reproduces_unprojected_metrics():
    rng = np.random.default_rng(21)
    t = rng.normal(size=(40, 12))
    p = rng.normal(size=(40, 12))
    base = evalmod.retrieval_metrics(t, p, ks=(1, 5))
    rows = evalmod.pca_dim_sweep(t, p, dims=(12, 4), ks=(1, 5))
    full = next(r for r in rows if r["dim"] == 12)
    assert abs(full["mean_rank_t2i"] - base.mean_rank_t2i) < 1e-9
    assert abs(full["recall_t2i"]["1"] - base.recall_t2i[1]) < 1e-9
    assert abs(full["mean_rank_i2t"] - base.mean_rank_i2t) < 1e-9
    low = next(r for r in rows if r["dim"] == 4)
    assert 1.0 <= low["mean_rank_t2i"] <= 40.0


def test_sweep_quantized_rows_are_flagged_and_sane():
    rng = np.random.default_rng(5)
    t = rng.normal(size=(30, 8))
    p = t + rng.normal(size=(30, 8)) * 0.05
    rows = evalmod.pca_dim_sweep(t, p, dims=(8,), ks=(1,), quantize=True)
    assert rows[0]["quantized"] is True
    assert 0.0 <= rows[0]["recall_t2i"]["1"] <= 1.0
    # near-identical towers survive 8-bit quantization almost unchanged
    assert rows[0]["recall_t2i"]["1"] > 0.9


def test_sweep_rejects_bad_dims():
    x = np.eye(5)
    with pytest.raises(DegenerateInput):
        evalmod.pca_dim_sweep(x, x, dims=(6,))
    with pytest.raises(DegenerateInput):
        evalmod.pca_dim_sweep(x, x, dims=(0,))
    with pytest.raises(DegenerateInput, match="at least one dim"):
        evalmod.pca_dim_sweep(x, x, dims=())


def test_sweep_on_a_given_basis_has_the_bits_of_a_fit():
    rng = np.random.default_rng(8)
    t, p = rng.normal(size=(6, 16)), rng.normal(size=(6, 16))
    basis = evalmod.sweep_basis(t, p)
    assert basis.shape == (12, 16)  # 2n pooled rows under d columns
    for dims in ((2, 5), (12,), (3, 12, 1)):
        for quantize in (False, True):
            fitted = evalmod.pca_dim_sweep(t, p, dims, ks=(1, 3), quantize=quantize)
            assert evalmod.pca_dim_sweep(t, p, dims, ks=(1, 3), quantize=quantize, basis=basis) == fitted
    for given in (None, basis):  # a dim above the basis's rows fails as pca_fit does
        with pytest.raises(DegenerateInput, match=r"^pca_fit: k=13 outside \[1, min\(n=12, d=16\)\]$"):
            evalmod.pca_dim_sweep(t, p, (2, 13), basis=given)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

def test_eval_report_json_round_trip():
    rng = np.random.default_rng(2)
    t = rng.normal(size=(10, 4))
    m = evalmod.retrieval_metrics(t, t, ks=(1, 5))
    report = evalmod.EvalReport(
        retrieval=m.as_dict(),
        probe={"capacity_bucket": 0.75},
        sweep=evalmod.pca_dim_sweep(t, t, dims=(4, 2), ks=(1,)),
    )
    text = report.to_json()
    back = evalmod.EvalReport.from_json(text)
    assert back.retrieval == report.retrieval
    assert back.probe == report.probe
    assert back.sweep == report.sweep
    assert back.compression is None
    assert json.loads(text) == json.loads(back.to_json())
    assert back.to_json() == text
