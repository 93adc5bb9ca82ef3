"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as they
happen; without -s they appear for failures. The heavyweight trained models
come from session fixtures in conftest.py and are shared across criteria.
"""

import os
import time

import numpy as np
import pytest

from listalign import align, autodiff as ad, codec as codecmod, eval as evalmod, model, synth
from listalign.cli import main as cli_main

from conftest import SEEDS, standard_towers
from gradcheck import per_tensor_fd_errors
from test_codec import rotated_subspace_clusters


def _verdict(num, label, ok, detail):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def _loss_only_errors(kind, seed):
    rng = np.random.default_rng(seed)
    logits = ad.param(rng.normal(size=(4, 4)))
    scalars = align.create_loss_params(align.LossConfig(kind=kind))

    def build():
        with ad.Tape() as tape:
            loss = align.compute_loss(kind, scalars, logits * 1.0)
        return loss, tape

    return per_tensor_fd_errors(build, {"logits": logits, **scalars}, h=1e-5)


def _full_path_errors(seed):
    scfg = model.SetEncoderConfig(d_in=5, d_model=8, n_layers=2, n_heads=2, d_out=8, p_max=3)
    tcfg = model.TextTowerConfig(dims=(4, 8, 8))
    ps = model.init_set_encoder(scfg, seed=seed)
    te = model.init_text_tower(tcfg, seed=seed + 50)
    # Check at a generic unit-scale point in parameter space. The training
    # init is small-gain, which leaves pre-normalization activations around
    # 1e-3; a 1e-5 finite-difference step is then a sizable relative kick and
    # truncation error swamps the comparison long before any real defect would.
    mix = np.random.default_rng(seed + 200)
    for var in [*ps.tensors.values(), *te.tensors.values()]:
        var.value = mix.normal(scale=0.7, size=var.value.shape)
    scalars = align.create_loss_params(align.LossConfig(kind="infonce"))
    rng = np.random.default_rng(seed + 100)
    counts = rng.integers(1, 4, size=4)
    photos = np.zeros((4, 3, 5))
    for i, c in enumerate(counts):
        photos[i, :c] = rng.normal(size=(c, 5))
    texts = rng.normal(size=(4, 4))

    def build():
        logits, tape = model.forward_batch(ps, te, photos, counts, texts)
        with tape:
            loss = align.compute_loss("infonce", scalars, logits)
        return loss, tape

    return per_tensor_fd_errors(build, {**ps.tensors, **te.tensors, **scalars}, h=1e-5)


def test_criterion_01_gradient_correctness():
    started = time.time()
    worst = 0.0
    for seed in SEEDS:
        for kind in align.LOSS_HEADS:
            worst = max(worst, max(_loss_only_errors(kind, seed).values()))
        worst = max(worst, max(_full_path_errors(seed).values()))
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(1, "gradient-correctness", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. alignment recovery
# ---------------------------------------------------------------------------

def test_criterion_02_alignment_recovery(trained_runs):
    details = []
    ok = True
    total_seconds = 0.0
    for seed, run in trained_runs.items():
        m = evalmod.retrieval_metrics(
            run.tx_emb, run.ps_emb, ks=(1,), query_indices=run.holdout_rows
        )
        untrained = evalmod.retrieval_metrics(run.untrained_tx_emb, run.untrained_ps_emb, ks=(1,))
        lucky_hits = round(untrained.recall_t2i[1] * len(run.records))
        total_seconds += run.train_seconds
        seed_ok = (
            m.recall_t2i[1] >= 0.90
            and m.mean_rank_t2i <= 2.0
            and lucky_hits <= 3
        )
        ok = ok and seed_ok
        details.append(
            f"seed {seed}: r@1={m.recall_t2i[1]:.3f} rank={m.mean_rank_t2i:.2f} "
            f"untrained {lucky_hits}/512"
        )
    ok = ok and total_seconds < 600.0
    _verdict(2, "alignment-recovery", ok, "; ".join(details) + f"; {total_seconds:.0f}s total")


# ---------------------------------------------------------------------------
# 3. two-stage vs single-stage
# ---------------------------------------------------------------------------

def test_criterion_03_coarse_then_fine(trained_runs, single_stage_mean_ranks):
    two = []
    for seed, run in trained_runs.items():
        m = evalmod.retrieval_metrics(
            run.tx_emb, run.ps_emb, ks=(1,), query_indices=run.holdout_rows
        )
        two.append(m.mean_rank_t2i)
    one = [single_stage_mean_ranks[seed] for seed in SEEDS]
    mean_two, mean_one = float(np.mean(two)), float(np.mean(one))
    ok = mean_two <= mean_one * 1.05
    _verdict(3, "coarse-then-fine", ok, f"two-stage {mean_two:.3f} vs single {mean_one:.3f}")


# ---------------------------------------------------------------------------
# 4. opq beats pq on rotated clusters
# ---------------------------------------------------------------------------

def test_criterion_04_opq_beats_pq():
    started = time.time()
    x = rotated_subspace_clusters(42, n=2048, m=4, sub_dim=4, k=16, noise=0.05)
    pq = codecmod.pq_train(x, m=4, k=16, iters=20, seed=7)
    opq = codecmod.opq_train(x, m=4, k=16, outer_iters=12, kmeans_iters=20, seed=7)
    pq_rep = codecmod.compression_report(x, codecmod.decode(pq, codecmod.encode(pq, x)))
    opq_rep = codecmod.compression_report(x, codecmod.decode(opq, codecmod.encode(opq, x)))
    p50 = pq_rep.levels.index(0.50)
    reduction = (pq_rep.values[p50] - opq_rep.values[p50]) / pq_rep.values[p50] * 100.0
    history = np.asarray(opq.objective_history)
    monotone = bool(np.all(np.diff(history) <= 1e-9))
    elapsed = time.time() - started
    ok = reduction >= 20.0 and monotone and elapsed < 120.0
    _verdict(
        4, "opq-beats-pq", ok,
        f"p50 reduction {reduction:.1f}%, monotone={monotone}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. 8-bit quantization fidelity at pca-40
# ---------------------------------------------------------------------------

def test_criterion_05_quantization_fidelity(trained_runs):
    deltas = []
    for run in trained_runs.values():
        kwargs = dict(dims=(40,), ks=(10,), query_indices=run.holdout_rows)
        f40 = evalmod.pca_dim_sweep(run.tx_emb, run.ps_emb, **kwargs)[0]
        q40 = evalmod.pca_dim_sweep(run.tx_emb, run.ps_emb, quantize=True, **kwargs)[0]
        deltas.append(abs(f40["recall_t2i"]["10"] - q40["recall_t2i"]["10"]))
    worst = max(deltas)
    ok = worst <= 0.01 + 1e-12
    _verdict(5, "8bit-fidelity", ok, f"recall@10 deltas {[round(d, 4) for d in deltas]}")


# ---------------------------------------------------------------------------
# 6. pca diminishing returns
# ---------------------------------------------------------------------------

def test_criterion_06_pca_diminishing_returns(trained_runs):
    low_gains, high_gains = [], []
    for run in trained_runs.values():
        rows = evalmod.pca_dim_sweep(
            run.tx_emb, run.ps_emb, dims=(2, 8, 32, 64), ks=(10,),
            query_indices=run.holdout_rows,
        )
        r10 = {r["dim"]: r["recall_t2i"]["10"] for r in rows}
        low_gains.append(r10[8] - r10[2])
        high_gains.append(r10[64] - r10[32])
    low, high = float(np.mean(low_gains)), float(np.mean(high_gains))
    ok = high < low
    _verdict(6, "pca-diminishing-returns", ok, f"gain 2->8 {low:.3f} vs 32->full {high:.3f}")


# ---------------------------------------------------------------------------
# 7. metric exactness
# ---------------------------------------------------------------------------

def test_criterion_07_metric_exactness():
    checks = []
    checks.append(bool(abs(evalmod.ndcg_binary(["x", "a", "y"], {"a"}) - 1.0 / np.log2(3.0)) < 1e-9))
    expected = (1.0 + 1.0 / np.log2(4.0)) / (1.0 + 1.0 / np.log2(3.0))
    checks.append(bool(abs(evalmod.ndcg_binary(["a", "x", "b"], {"a", "b"}) - expected) < 1e-9))
    checks.append(bool(abs(evalmod.ndcg_binary(["a", "b", "junk"], {"a", "b"}) - 1.0) < 1e-9))

    photos = np.eye(2)
    texts = np.array([[0.6, 0.8], [0.0, 1.0]])
    m = evalmod.retrieval_metrics(texts, photos, ks=(1, 2))
    checks.append(m.mean_rank_t2i == 1.5 and m.recall_t2i[1] == 0.5 and m.recall_t2i[2] == 1.0)

    uniform_ok = all(
        abs(float(align.infonce_loss(np.full((b, b), 0.4)).value) - np.log(b)) < 1e-12
        for b in (2, 5, 8)
    )
    checks.append(uniform_ok)
    _verdict(7, "metric-exactness", all(checks), f"checks={checks}")


# ---------------------------------------------------------------------------
# 8. code layout conformance
# ---------------------------------------------------------------------------

def test_criterion_08_code_layout(tmp_path):
    started = time.time()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1300, 1024))
    opq = codecmod.opq_train(x, m=256, k=256, rotated_dim=1280, outer_iters=1, kmeans_iters=2, seed=0)
    block = codecmod.encode(opq, x)
    path = tmp_path / "opq_codes.emb"
    codecmod.save_embeddings(str(path), block.codes)
    opq_ok = block.bytes_per_vector == 256 and os.path.getsize(path) == 21 + 1300 * 256

    y = rng.normal(size=(200, 64))
    pca = codecmod.pca_codec_train(y, out_dim=40)
    pblock = codecmod.encode(pca, y)
    ppath = tmp_path / "pca_codes.emb"
    codecmod.save_embeddings(str(ppath), pblock.codes)
    pca_ok = pblock.bytes_per_vector == 40 and os.path.getsize(ppath) == 21 + 200 * 40
    elapsed = time.time() - started
    _verdict(
        8, "code-layout", opq_ok and pca_ok,
        f"opq 256 B/vec={opq_ok}, pca 40 B/vec={pca_ok}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. determinism and persistence
# ---------------------------------------------------------------------------

def _run_pipeline(root):
    import json

    root.mkdir(parents=True, exist_ok=True)
    cfg = {
        "generator": {
            "n_listings": 48, "d_latent": 3, "d_photo": 6, "d_text": 5,
            "p_max": 4, "photo_noise": 0.02, "text_noise": 0.02, "seed": 11,
        },
        "filters": {"min_photos": 1, "min_text_len": 10},
        "split": {"holdout_fraction": 0.2, "seed": 2},
        "set_encoder": {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_out": 8},
        "text_tower": {"hidden": [8]},
        "schedule": {
            "stages": [{"epochs": 2, "lr": 3e-3, "unfreeze_text_layers": [0, 1]}],
            "batch_size": 8, "warmup_steps": 2, "eval_ks": [1, 2],
        },
        "codec": {"kind": "pq", "m": 4, "k": 8, "iters": 8},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    data, run, quant = root / "data", root / "run", root / "quant"
    report = root / "report.json"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data), "--quiet"]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--data", str(data), "--out", str(run), "--quiet"]) == 0
    assert cli_main([
        "quantize", "--config", str(cfg_path), "--emb", str(data / "train" / "text.emb"),
        "--out", str(quant), "--quiet",
    ]) == 0
    assert cli_main([
        "eval", "--data", str(data), "--model", str(run / "checkpoint.blm"),
        "--out", str(report), "--ks", "1,2", "--quiet",
    ]) == 0
    files = [
        data / "train" / "dataset.jsonl", data / "train" / "photos.emb",
        data / "train" / "text.emb", data / "filter_stats.json",
        run / "checkpoint.blm", run / "trainlog.jsonl", run / "epochs.csv", run / "gallery.blg",
        quant / "codec.blc", quant / "codes.emb", quant / "percentiles.json",
        report,
    ]
    return {str(f.relative_to(root)): f.read_bytes() for f in files}


def test_criterion_09_determinism_and_persistence(tmp_path):
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    rerun_ok = first.keys() == second.keys() and all(first[k] == second[k] for k in first)

    # save -> load -> save byte-identity for every artifact writer
    ckpt_a = tmp_path / "a" / "run" / "checkpoint.blm"
    ps, te, extra = model.load_checkpoint(str(ckpt_a))
    ckpt_b = tmp_path / "ckpt_again.blm"
    model.save_checkpoint(str(ckpt_b), ps, te, extra={k: v for k, v in extra.items()})
    ckpt_ok = ckpt_a.read_bytes() == ckpt_b.read_bytes()

    codec_a = tmp_path / "a" / "quant" / "codec.blc"
    codec_b = tmp_path / "codec_again.blc"
    codecmod.save_codec(str(codec_b), codecmod.load_codec(str(codec_a)))
    codec_ok = codec_a.read_bytes() == codec_b.read_bytes()

    emb_a = tmp_path / "a" / "quant" / "codes.emb"
    emb_b = tmp_path / "codes_again.emb"
    codecmod.save_embeddings(str(emb_b), codecmod.load_embeddings(str(emb_a)))
    emb_ok = emb_a.read_bytes() == emb_b.read_bytes()

    ok = rerun_ok and ckpt_ok and codec_ok and emb_ok
    _verdict(
        9, "determinism-persistence", ok,
        f"rerun={rerun_ok} checkpoint={ckpt_ok} codec={codec_ok} embeddings={emb_ok}",
    )


# ---------------------------------------------------------------------------
# 10. masking and order sensitivity
# ---------------------------------------------------------------------------

def test_criterion_10_masking_and_order():
    ps, _ = standard_towers(0)
    ps_mean, _ = standard_towers(0, pool="mean")
    rng = np.random.default_rng(4)
    count = 3
    base = np.zeros((8, 16))
    base[:count] = rng.normal(size=(count, 16))
    garbage = base.copy()
    garbage[count:] = rng.normal(size=(8 - count, 16)) * 100.0
    a = model.encode_photoset(ps, base, count)
    b = model.encode_photoset(ps, garbage, count)
    padding_ok = np.array_equal(a, b)

    permuted = base.copy()
    permuted[[0, 1, 2]] = base[[2, 0, 1]]
    order_gap = float(np.linalg.norm(model.encode_photoset(ps, base, count)
                                     - model.encode_photoset(ps, permuted, count)))
    mean_gap = float(np.linalg.norm(model.encode_photoset(ps_mean, base, count)
                                    - model.encode_photoset(ps_mean, permuted, count)))
    ok = padding_ok and order_gap > 1e-6 and mean_gap <= 1e-6
    _verdict(
        10, "masking-and-order", ok,
        f"padding bit-exact={padding_ok}, last-pool gap {order_gap:.2e}, mean-pool gap {mean_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# supplementary invariant: probes prefer trained embeddings
# ---------------------------------------------------------------------------

def test_probes_prefer_trained_embeddings(trained_runs):
    trained_accs, untrained_accs = [], []
    for run in trained_runs.values():
        n_train = len(run.train_records)
        tr_labels = {a: [r.attributes[a] for r in run.train_records] for a in synth.ATTRIBUTE_NAMES}
        ho_labels = {a: [r.attributes[a] for r in run.holdout_records] for a in synth.ATTRIBUTE_NAMES}
        for attr in synth.ATTRIBUTE_NAMES:
            trained_accs.append(evalmod.knn_probe(
                run.ps_emb[:n_train], tr_labels[attr], run.ps_emb[n_train:], ho_labels[attr], k=10,
            ))
            untrained_accs.append(evalmod.knn_probe(
                run.untrained_ps_emb[:n_train], tr_labels[attr],
                run.untrained_ps_emb[n_train:], ho_labels[attr], k=10,
            ))
    assert float(np.mean(trained_accs)) > float(np.mean(untrained_accs)), (
        trained_accs, untrained_accs,
    )
