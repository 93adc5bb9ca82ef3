"""Tests for the set encoder, text tower, forward_batch, and checkpoints."""

import dataclasses
import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from gradcheck import per_tensor_fd_errors
from hypothesis import given, settings
from hypothesis import strategies as st

import listalign
from listalign import autodiff as ad
from listalign import align, model, synth
from listalign.config import PipelineConfig
from listalign.errors import ConfigError, CorruptFile, DegenerateInput, ListalignError, ShapeMismatch

from conftest import assert_every_prefix_corrupt
from test_autodiff import composite_layer_norm, composite_logsumexp


def tiny_setup(seed=0, pool="last", p_max=3, n_layers=2):
    cfg = model.SetEncoderConfig(
        d_in=6, d_model=8, n_layers=n_layers, n_heads=2, d_out=8, p_max=p_max, pool=pool
    )
    ps = model.init_set_encoder(cfg, seed=seed)
    te = model.init_text_tower(model.TextTowerConfig(dims=(5, 8, 8)), seed=seed + 100)
    return cfg, ps, te


def random_batch(cfg, b, seed=0, counts=None):
    rng = np.random.default_rng(seed)
    photos = rng.normal(size=(b, cfg.p_max, cfg.d_in))
    drawn = rng.integers(1, cfg.p_max + 1, size=b)
    counts = drawn if counts is None else np.asarray(counts)
    for i in range(b):
        photos[i, counts[i] :] = 0.0
    texts = rng.normal(size=(b, 5))
    return photos, counts, texts


class TestEncoding:
    def test_output_is_unit_norm(self):
        cfg, ps, te = tiny_setup()
        photos, counts, texts = random_batch(cfg, 6, seed=1)
        out = model.encode_photoset_batch(ps, photos, counts)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(6), rtol=1e-12)
        tout = model.encode_text(te, texts)
        np.testing.assert_allclose(np.linalg.norm(tout, axis=1), np.ones(6), rtol=1e-12)

    def test_single_encode_matches_batch_row_bitwise(self):
        cfg, ps, _ = tiny_setup()
        photos, counts, _ = random_batch(cfg, 5, seed=2)
        batch_out = model.encode_photoset_batch(ps, photos, counts)
        for i in range(5):
            alone = model.encode_photoset(ps, photos[i], int(counts[i]))
            np.testing.assert_array_equal(alone, batch_out[i])

    def test_padding_content_cannot_leak(self):
        '''Garbage in rows at or past photo_count leaves the output bit-identical.'''
        cfg, ps, _ = tiny_setup()
        rng = np.random.default_rng(3)
        photos = rng.normal(size=(cfg.p_max, cfg.d_in))
        count = 2
        clean = photos.copy()
        clean[count:] = 0.0
        dirty = photos.copy()
        dirty[count:] = 1e6
        a = model.encode_photoset(ps, clean, count)
        # encode_photoset zeroes past-count rows itself, so feed the dirty buffer
        # through the batch path where the buffer is used as given.
        b = model.encode_photoset_batch(ps, dirty[None], np.array([count]))[0]
        np.testing.assert_array_equal(a, b)

    def test_appending_a_photo_changes_output(self):
        cfg, ps, _ = tiny_setup()
        rng = np.random.default_rng(4)
        photos = np.zeros((cfg.p_max, cfg.d_in))
        photos[:3] = rng.normal(size=(3, cfg.d_in))
        two = model.encode_photoset(ps, photos, 2)
        three = model.encode_photoset(ps, photos, 3)
        assert np.linalg.norm(two - three) > 1e-6

    def test_permutation_sensitivity_last_pool(self):
        '''Positional embeddings make photo order matter.'''
        cfg, ps, _ = tiny_setup(seed=7)
        rng = np.random.default_rng(5)
        photos = np.zeros((cfg.p_max, cfg.d_in))
        photos[:3] = rng.normal(size=(3, cfg.d_in))
        permuted = photos.copy()
        permuted[[0, 1, 2]] = photos[[2, 0, 1]]
        a = model.encode_photoset(ps, photos, 3)
        b = model.encode_photoset(ps, permuted, 3)
        assert np.linalg.norm(a - b) > 1e-6

    def test_mean_pool_is_permutation_invariant(self):
        # mean pooling skips the positional table entirely
        cfg, ps, _ = tiny_setup(pool="mean", seed=8)
        rng = np.random.default_rng(6)
        photos = np.zeros((cfg.p_max, cfg.d_in))
        photos[:3] = rng.normal(size=(3, cfg.d_in))
        permuted = photos.copy()
        permuted[[0, 1, 2]] = photos[[2, 0, 1]]
        a = model.encode_photoset(ps, photos, 3)
        b = model.encode_photoset(ps, permuted, 3)
        assert np.linalg.norm(a - b) <= 1e-6

    def test_norm_guard_returns_first_basis_vector(self):
        cfg, ps, _ = tiny_setup()
        ps.tensors["w_out"].value = np.zeros_like(ps.tensors["w_out"].value)
        ps.tensors["b_out"].value = np.zeros_like(ps.tensors["b_out"].value)
        photos, counts, _ = random_batch(cfg, 2, seed=9)
        out = model.encode_photoset_batch(ps, photos, counts)
        expected = np.zeros((2, cfg.d_out))
        expected[:, 0] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_input_validation(self):
        cfg, ps, te = tiny_setup()
        with pytest.raises(DegenerateInput):
            model.encode_photoset(ps, np.zeros((3, cfg.d_in)), 0)
        with pytest.raises(ShapeMismatch):
            model.encode_photoset(ps, np.zeros((3, cfg.d_in + 1)), 2)
        with pytest.raises(DegenerateInput):
            model.encode_photoset_batch(
                ps, np.full((1, cfg.p_max, cfg.d_in), np.nan), np.array([2])
            )
        with pytest.raises(ShapeMismatch):
            model.encode_text(te, np.zeros((4, 99)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            model.SetEncoderConfig(d_in=4, d_model=10, n_heads=4).validate()
        with pytest.raises(ConfigError):
            model.SetEncoderConfig(d_in=4, pool="max").validate()
        with pytest.raises(ConfigError):
            model.TextTowerConfig(dims=(8,)).validate()


@functools.cache
def stability_towers(p_max, pool):
    return tiny_setup(seed=p_max, pool=pool, p_max=p_max)


def assert_rows_stable(ps, te, photos, counts, texts, lo, hi):
    """Each row alone, and the sub-batch [lo, hi), match the full batch bitwise."""
    full = model.encode_photoset_batch(ps, photos, counts)
    full_text = model.encode_text(te, texts)
    for i in range(len(counts)):
        np.testing.assert_array_equal(
            model.encode_photoset(ps, photos[i], int(counts[i])), full[i]
        )
        np.testing.assert_array_equal(model.encode_text(te, texts[i]), full_text[i])
    np.testing.assert_array_equal(
        model.encode_photoset_batch(ps, photos[lo:hi], counts[lo:hi]), full[lo:hi]
    )
    np.testing.assert_array_equal(model.encode_text(te, texts[lo:hi]), full_text[lo:hi])


class TestRowStability:
    """A listing's embedding has the same bits alone or in any batch.

    matmul's fixed 8-row tiles make this hold, but that a BLAS gemm computes a
    row the same way in every tile position is observed, not promised by
    numpy, so the property also runs at one and two BLAS threads.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        b=st.integers(min_value=1, max_value=70),
        p_max=st.sampled_from([1, 3, 5, 8, 11, 16]),
        pool=st.sampled_from(["last", "mean"]),
        span=st.tuples(st.integers(0, 70), st.integers(0, 70)),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_single_rows_and_sub_batches_match_batch(self, b, p_max, pool, span, seed):
        cfg, ps, te = stability_towers(p_max, pool)
        photos, counts, texts = random_batch(cfg, b, seed=seed)
        lo = span[0] % b
        assert_rows_stable(ps, te, photos, counts, texts, lo, lo + 1 + span[1] % (b - lo))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_stable_at_blas_thread_count(self, tmp_path, threads):
        package_root = str(Path(listalign.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, str(Path(__file__).parent), env.get("PYTHONPATH")])
        )
        script = textwrap.dedent("""
            import numpy as np
            from conftest import standard_towers
            from test_model import assert_rows_stable, random_batch, stability_towers
            for p_max in (3, 8, 11):
                for pool in ("last", "mean"):
                    cfg, ps, te = stability_towers(p_max, pool)
                    for b in (1, 9, 37):
                        photos, counts, texts = random_batch(cfg, b, seed=b)
                        assert_rows_stable(ps, te, photos, counts, texts, b // 3, b)
            ps, te = standard_towers(0)  # the fixtures' widths
            photos, counts, _ = random_batch(ps.config, 37, seed=5)
            texts = np.random.default_rng(5).normal(size=(37, te.config.dims[0]))
            assert_rows_stable(ps, te, photos, counts, texts, 5, 30)
            print("stable")
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "stable"


def dense_attention(x, mask, p, i):
    """The set encoder's attention as it ran on every padded slot."""
    t = p.tensors
    B, P, dm = x.value.shape
    H = p.config.n_heads
    dh = dm // H
    pre = f"layer{i}."

    def heads(v):
        return ad.transpose(v.reshape(B, P, H, dh), (0, 2, 1, 3))

    q = heads(x @ t[pre + "w_q"] + t[pre + "b_q"])
    k = heads(x @ t[pre + "w_k"] + t[pre + "b_k"])
    v = heads(x @ t[pre + "w_v"] + t[pre + "b_v"])
    scores = q @ ad.transpose(k, (0, 1, 3, 2)) * (1.0 / np.sqrt(dh))
    scores = scores + ad.constant(mask)
    attn = ad.exp(scores - composite_logsumexp(scores, -1))  # primitive nodes only
    ctx = ad.transpose(attn @ v, (0, 2, 1, 3)).reshape(B, P, dm)
    return ctx @ t[pre + "w_o"] + t[pre + "b_o"]


def dense_encode_graph(p, photos, counts):
    """Reference set encoder: every layer runs on all p_max slots, padding included."""
    cfg = p.config
    t = p.tensors
    B, P, _ = photos.shape
    x = ad.constant(photos) @ t["w_in"] + t["b_in"]
    if cfg.pool == "last":
        x = x + t["pos_emb"]
    key_mask = np.where(np.arange(P)[None, :] < counts[:, None], 0.0, -np.inf)
    mask4 = key_mask.reshape(B, 1, 1, P)
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        h = composite_layer_norm(x, t[pre + "ln1_g"], t[pre + "ln1_b"], model.LN_EPS)
        x = x + dense_attention(h, mask4, p, i)
        h = composite_layer_norm(x, t[pre + "ln2_g"], t[pre + "ln2_b"], model.LN_EPS)
        h = ad.gelu(h @ t[pre + "w_ff1"] + t[pre + "b_ff1"]) @ t[pre + "w_ff2"] + t[pre + "b_ff2"]
        x = x + h
    if cfg.pool == "last":
        pooled = x[np.arange(B), counts - 1, :]
    else:
        real = (np.arange(P)[None, :] < counts[:, None]).astype(np.float64)
        pooled = (x * ad.constant(real[:, :, None])).sum(axis=1) / ad.constant(
            counts.astype(np.float64)[:, None]
        )
    return model._l2_normalize_rows(pooled @ t["w_out"] + t["b_out"])


def logit_mix(b):
    """A fixed (b, b) weighting so the loss depends on every logit."""
    return ad.constant(np.random.default_rng(b).normal(size=(b, b)))


class TestRealSlotsOnly:
    """Per-slot layers skip padding, with the bits of the dense reference."""

    @settings(max_examples=25, deadline=None)
    @given(
        pool=st.sampled_from(["last", "mean"]),
        p_max=st.sampled_from([1, 3, 8]),
        fill=st.sampled_from(["one", "full", "mixed"]),
        b=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_dense_reference(self, pool, p_max, fill, b, seed):
        cfg, ps, te = stability_towers(p_max, pool)
        counts = {"one": np.ones(b, int), "full": np.full(b, p_max), "mixed": None}[fill]
        photos, counts, texts = random_batch(cfg, b, seed=seed, counts=counts)
        np.testing.assert_array_equal(
            model.encode_photoset_batch(ps, photos, counts),
            dense_encode_graph(ps, photos, counts).value,
        )

        ref_tape = ad.Tape()
        with ref_tape:
            ref_logits = dense_encode_graph(ps, photos, counts) @ ad.transpose(
                model._encode_text_graph(te, texts), (1, 0)
            )
            ref_loss = (ref_logits * logit_mix(b)).sum()
        ref_grads = model.backward(ref_tape, ref_loss, ps, te)
        logits, tape = model.forward_batch(ps, te, photos, counts, texts)
        with tape:
            loss = (logits * logit_mix(b)).sum()
        grads = model.backward(tape, loss, ps, te)
        np.testing.assert_array_equal(logits.value, ref_logits.value)
        # the attention key bias has an exactly-zero true gradient (softmax is
        # shift invariant), so its entries are rounding noise on both sides
        scale = max(np.abs(g).max() for g in ref_grads.values())
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                grads[name], ref, rtol=1e-10, atol=1e-10 * scale, err_msg=name
            )


class TestForwardBatch:
    def test_logits_are_pairwise_cosines(self):
        cfg, ps, te = tiny_setup()
        photos, counts, texts = random_batch(cfg, 4, seed=10)
        logits, _ = model.forward_batch(ps, te, photos, counts, texts)
        p_emb = model.encode_photoset_batch(ps, photos, counts)
        t_emb = model.encode_text(te, texts)
        np.testing.assert_allclose(logits.value, p_emb @ t_emb.T, atol=1e-12)
        assert np.all(np.abs(logits.value) <= 1.0 + 1e-12)

    def test_batch_of_one_rejected(self):
        cfg, ps, te = tiny_setup()
        photos, counts, texts = random_batch(cfg, 1, seed=11)
        with pytest.raises(DegenerateInput):
            model.forward_batch(ps, te, photos, counts, texts)

    def test_full_path_gradients_match_finite_differences(self):
        '''Every trainable parameter, through attention, pooling, and both towers,
        for drawn counts and for a batch where one listing has a single photo.'''
        cfg, ps, te = tiny_setup(seed=12)
        rng = np.random.default_rng(99)
        w = rng.normal(size=(4, 4))  # fixed mixing so every logit matters
        for counts in (None, [3, 1, 2, 3]):
            photos, counts, texts = random_batch(cfg, 4, seed=12, counts=counts)

            def loss_builder():
                logits, tape = model.forward_batch(ps, te, photos, counts, texts)
                with tape:
                    loss = (logits * ad.constant(w)).sum()
                return loss, tape

            errors = per_tensor_fd_errors(loss_builder, [ps, te])
            worst = max(errors.values())
            assert worst < 1e-4, {k: v for k, v in errors.items() if v >= 1e-4}

    def test_default_step_records_at_most_80_tape_nodes(self):
        # Default config, last pooling, InfoNCE: 73 nodes.
        #   input: linear, pos_emb row gather, add                           3
        #   layer 0: layer_norm, 3 x (linear, split_heads), q @ k^T, scale,
        #     mask add, softmax, @ v, merge_heads, linear, residual add,
        #     layer_norm, linear, gelu, linear, residual add                20
        #   layer 1: the same plus getitem of the pooled slots            21
        #   output: linear, then l2 normalize (mul, vsum, sqrt, div)        5
        #   text tower: 3 linear, 2 gelu, l2 normalize                      9
        #   logits: transpose, matmul                                       2
        #   loss: neg, exp, div, 2 x (log_softmax, getitem, vmean, neg),
        #     add, mul                                                      13
        pc = PipelineConfig()
        ps = model.init_set_encoder(pc.set_encoder_config(), seed=0)
        te = model.init_text_tower(pc.text_tower_config(), seed=1)
        records = synth.generate(dataclasses.replace(pc.generator, n_listings=64))
        photos, counts = synth.pack_photos(records)
        logits, tape = model.forward_batch(ps, te, photos, counts, synth.pack_texts(records))
        with tape:
            align.compute_loss(align.create_loss_params(pc.loss), logits)
        assert len(tape) <= 80

    def test_frozen_text_layers_get_zero_gradient(self):
        cfg, ps, te = tiny_setup()
        model.set_text_freeze(te, [1])  # layer 0 frozen
        photos, counts, texts = random_batch(cfg, 3, seed=13)
        logits, tape = model.forward_batch(ps, te, photos, counts, texts)
        with tape:
            loss = logits.sum()
        grads = model.backward(tape, loss, ps, te)
        assert not grads["text0.w"].any()
        assert not grads["text0.b"].any()
        assert grads["text1.w"].any()

    def test_unfreeze_out_of_range_rejected(self):
        _, _, te = tiny_setup()
        with pytest.raises(ConfigError):
            model.set_text_freeze(te, [5])


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        _, ps, te = tiny_setup(seed=20)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        model.save_checkpoint(p1, ps, te, extra={"temp": 2.639})
        ps2, te2, extra = model.load_checkpoint(p1)
        model.save_checkpoint(p2, ps2, te2, extra=extra)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_loaded_model_encodes_identically(self, tmp_path):
        cfg, ps, te = tiny_setup(seed=21)
        path = str(tmp_path / "m.ckpt")
        model.save_checkpoint(path, ps, te)
        ps2, te2, _ = model.load_checkpoint(path)
        photos, counts, texts = random_batch(cfg, 4, seed=21)
        # Storage rounds to float32; compare against the round-tripped params.
        for (_, a), (_, b) in zip(ps.named() + te.named(), ps2.named() + te2.named()):
            np.testing.assert_array_equal(a.value.astype(np.float32), b.value.astype(np.float32))
        out1 = model.encode_photoset_batch(ps2, photos, counts)
        ps3, te3, _ = model.load_checkpoint(path)
        np.testing.assert_array_equal(out1, model.encode_photoset_batch(ps3, photos, counts))
        np.testing.assert_array_equal(model.encode_text(te2, texts), model.encode_text(te3, texts))

    def test_every_truncated_checkpoint_is_corrupt(self, tmp_path):
        cfg = model.SetEncoderConfig(d_in=2, d_model=2, n_layers=1, n_heads=1, d_out=2, p_max=2)
        ps = model.init_set_encoder(cfg, seed=0)
        te = model.init_text_tower(model.TextTowerConfig(dims=(2, 2)), seed=1)
        path = tmp_path / "small.ckpt"
        model.save_checkpoint(str(path), ps, te, extra={"temp": 2.639})
        assert_every_prefix_corrupt(path, model.load_checkpoint)

    def test_freeze_flags_survive_round_trip(self, tmp_path):
        _, ps, te = tiny_setup()
        model.set_text_freeze(te, [1])
        path = str(tmp_path / "f.ckpt")
        model.save_checkpoint(path, ps, te)
        _, te2, _ = model.load_checkpoint(path)
        assert te2.frozen == [True, False]
        assert not te2.tensors["text0.w"].requires_grad
        assert te2.tensors["text1.w"].requires_grad

    def test_trailing_bytes_are_corrupt(self, tmp_path):
        _, ps, te = tiny_setup()
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(str(path), ps, te)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptFile, match="2 trailing bytes"):
            model.load_checkpoint(str(path))

    def test_every_header_bit_flip_is_typed(self, tmp_path):
        '''A flipped bit in the length or JSON header loads or raises ListalignError.'''
        cfg = model.SetEncoderConfig(d_in=2, d_model=2, n_layers=1, n_heads=1, d_out=2, p_max=2)
        ps = model.init_set_encoder(cfg, seed=0)
        te = model.init_text_tower(model.TextTowerConfig(dims=(2, 2)), seed=1)
        path = tmp_path / "small.ckpt"
        model.save_checkpoint(str(path), ps, te, extra={"temp": 2.639})
        data = path.read_bytes()
        header_end = 12 + int.from_bytes(data[8:12], "little")
        flipped = tmp_path / "flipped.ckpt"
        corrupt = 0
        for i in range(8, header_end):
            for bit in range(8):
                mutated = bytearray(data)
                mutated[i] ^= 1 << bit
                flipped.write_bytes(bytes(mutated))
                try:
                    model.load_checkpoint(str(flipped))
                except ListalignError:
                    corrupt += 1
        assert corrupt > 0.9 * 8 * (header_end - 8)

    @pytest.mark.parametrize("edit", [
        lambda h: "{not json",
        lambda h: {k: v for k, v in h.items() if k != "manifest"},
        lambda h: {**h, "set_encoder": {**h["set_encoder"], "d_in": "6"}},
        lambda h: {**h, "set_encoder": {**h["set_encoder"], "d_model": 9}},
        lambda h: {**h, "set_encoder": {**h["set_encoder"], "pool": "max"}},
        lambda h: {**h, "text_tower": {**h["text_tower"], "dims": [5, "8", 8]}},
        lambda h: {**h, "text_tower": {**h["text_tower"], "frozen": [0, 1]}},
        lambda h: {**h, "manifest": [[name, [2.5]] for name, _ in h["manifest"]]},
        lambda h: {**h, "manifest": h["manifest"][1:]},
        lambda h: {**h, "manifest": h["manifest"] + h["manifest"][:1]},
        lambda h: {**h, "manifest": [[n, s[::-1]] for n, s in h["manifest"]]},
        lambda h: [h],
    ], ids=[
        "not-json", "no-manifest", "str-size", "bad-heads", "bad-pool", "str-dim",
        "int-frozen", "float-shape", "missing-tensor", "repeated-tensor",
        "wrong-shape", "not-object",
    ])
    def test_malformed_header_is_corrupt(self, tmp_path, edit):
        _, ps, te = tiny_setup()
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(str(path), ps, te)
        data = path.read_bytes()
        header_end = 12 + int.from_bytes(data[8:12], "little")
        header = edit(json.loads(data[12:header_end]))
        blob = (header if isinstance(header, str) else json.dumps(header)).encode("utf-8")
        path.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[header_end:])
        with pytest.raises(CorruptFile):
            model.load_checkpoint(str(path))
