"""Tests for the synthetic listing generator, filters, split, and persistence."""

import numpy as np
import pytest

from listalign import synth
from listalign.errors import ConfigError, CorruptFile, DegenerateInput


def small_config(**overrides):
    base = dict(
        n_listings=60,
        d_latent=6,
        d_photo=10,
        d_text=8,
        p_max=8,
        photo_noise=0.05,
        text_noise=0.05,
        aspect_count=3,
        seed=123,
    )
    base.update(overrides)
    return synth.GeneratorConfig(**base)


class TestGenerate:
    def test_deterministic_for_seed(self):
        a = synth.generate(small_config())
        b = synth.generate(small_config())
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.photos, rb.photos)
            np.testing.assert_array_equal(ra.text_features, rb.text_features)
            assert ra.photo_count == rb.photo_count
            assert ra.attributes == rb.attributes

    def test_different_seeds_differ(self):
        a = synth.generate(small_config(seed=1))
        b = synth.generate(small_config(seed=2))
        assert not np.array_equal(a[0].photos, b[0].photos)

    def test_padding_rows_are_zero(self):
        for rec in synth.generate(small_config()):
            assert 1 <= rec.photo_count <= 8
            assert not np.any(rec.photos[rec.photo_count :])

    def test_attributes_are_pure_functions_of_latent(self):
        records = synth.generate(small_config())
        for rec in records:
            assert rec.attributes == synth._attributes(rec.latent)
        # All three attributes should take more than one value over a sample.
        for name in synth.ATTRIBUTE_NAMES:
            assert len({r.attributes[name] for r in records}) > 1

    def test_noiseless_single_aspect_matches_own_text_best(self):
        '''With no noise the generating maps align each text to its own photos.'''
        cfg = small_config(
            n_listings=40, photo_noise=0.0, text_noise=0.0, aspect_count=1, seed=9
        )
        records = synth.generate(cfg)
        model = synth.build_generator(cfg)
        pinv_photo = np.linalg.pinv(model.photo_map)
        pinv_text = np.linalg.pinv(model.text_map)

        def unit(v):
            return v / np.linalg.norm(v)

        z_text = np.stack([unit(pinv_text @ r.text_features) for r in records])
        z_photo = np.stack(
            [unit(pinv_photo @ r.photos[: r.photo_count].mean(axis=0)) for r in records]
        )
        sims = z_text @ z_photo.T
        assert np.all(np.argmax(sims, axis=1) == np.arange(len(records)))

    def test_build_generator_matches_generate_stream(self):
        '''The maps reconstructed from the config are the ones generate used.'''
        cfg = small_config(photo_noise=0.0, text_noise=0.0, aspect_count=1, seed=5)
        records = synth.generate(cfg)
        model = synth.build_generator(cfg)
        rec = records[0]
        # photo = map @ latent + decay^pos * aspect[0]; position 0 has weight 1.
        expected = model.photo_map @ rec.latent + model.aspect_basis[0]
        np.testing.assert_allclose(rec.photos[0], expected, atol=1e-12)

    def test_salience_decays_with_position(self):
        '''Later photos sit closer to the bare latent image (smaller offsets).'''
        cfg = small_config(n_listings=200, photo_noise=0.0, aspect_count=1, p_max=6, seed=3)
        records = synth.generate(cfg)
        model = synth.build_generator(cfg)
        by_pos = np.zeros(6)
        counts = np.zeros(6)
        for rec in records:
            base = model.photo_map @ rec.latent
            for p in range(rec.photo_count):
                by_pos[p] += np.linalg.norm(rec.photos[p] - base)
                counts[p] += 1
        mean_offset = by_pos[counts > 0] / counts[counts > 0]
        assert np.all(np.diff(mean_offset) < 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth.generate(small_config(n_listings=0))
        with pytest.raises(ConfigError):
            synth.generate(small_config(d_photo=2))  # smaller than d_latent
        with pytest.raises(ConfigError):
            synth.generate(small_config(photo_noise=-1.0))


class TestFilters:
    def test_photo_count_rule(self):
        records = synth.generate(small_config())
        kept, stats = synth.apply_filters(records, min_photos=5, min_text_len=0)
        assert all(r.photo_count >= 5 for r in kept)
        assert stats.dropped_photos == sum(1 for r in records if r.photo_count < 5)
        assert stats.dropped_text == 0

    def test_text_length_rule(self):
        records = synth.generate(small_config())
        kept, stats = synth.apply_filters(records, min_photos=0, min_text_len=50)
        assert all(r.text_length_proxy >= 50 for r in kept)
        assert stats.dropped_text == sum(1 for r in records if r.text_length_proxy < 50)

    def test_alignment_rule_with_generator_scorer(self):
        cfg = small_config(n_listings=100, seed=11)
        records = synth.generate(cfg)
        model = synth.build_generator(cfg)
        kept, stats = synth.apply_filters(
            records,
            min_photos=0,
            min_text_len=0,
            alignment_threshold=0.9,
            prelim_scorer=model.alignment_score,
        )
        assert stats.dropped_alignment > 0
        assert all(model.alignment_score(r) >= 0.9 for r in kept)

    def test_stats_accounting_identity(self):
        cfg = small_config(n_listings=150, seed=21)
        records = synth.generate(cfg)
        model = synth.build_generator(cfg)
        kept, stats = synth.apply_filters(
            records, min_photos=5, min_text_len=50, prelim_scorer=model.alignment_score
        )
        assert stats.n_input == len(records)
        assert stats.n_output == len(kept)
        assert (
            stats.n_input
            == stats.n_output + stats.dropped_photos + stats.dropped_text + stats.dropped_alignment
        )
        assert 0.0 <= stats.drop_fraction <= 1.0

    def test_first_failing_rule_attribution(self):
        '''A record with few photos AND short text counts against photos only.'''
        cfg = small_config(n_listings=80, seed=31)
        records = synth.generate(cfg)
        both = [r for r in records if r.photo_count < 5 and r.text_length_proxy < 50]
        assert both, "need at least one doubly-failing record for this seed"
        _, stats = synth.apply_filters(records, min_photos=5, min_text_len=50)
        short_only = sum(1 for r in records if r.photo_count >= 5 and r.text_length_proxy < 50)
        assert stats.dropped_text == short_only


class TestSplit:
    def test_partition_is_exact(self):
        records = synth.generate(small_config())
        train, holdout = synth.split(records, 0.2, seed=4)
        assert len(train) + len(holdout) == len(records)
        ids = sorted(r.id for r in train) + sorted(r.id for r in holdout)
        assert sorted(ids) == [r.id for r in records]
        assert len(holdout) == int(len(records) * 0.2)

    def test_deterministic_and_seed_sensitive(self):
        records = synth.generate(small_config())
        h1 = {r.id for r in synth.split(records, 0.25, seed=1)[1]}
        h2 = {r.id for r in synth.split(records, 0.25, seed=1)[1]}
        h3 = {r.id for r in synth.split(records, 0.25, seed=2)[1]}
        assert h1 == h2
        assert h1 != h3

    def test_minimum_holdout_of_one(self):
        records = synth.generate(small_config(n_listings=5))
        train, holdout = synth.split(records, 0.01, seed=0)
        assert len(holdout) == 1 and len(train) == 4

    def test_degenerate_sides_rejected(self):
        records = synth.generate(small_config(n_listings=2))
        with pytest.raises(DegenerateInput):
            synth.split(records[:1], 0.5, seed=0)
        with pytest.raises(DegenerateInput):
            synth.split(records, 0.0, seed=0)
        with pytest.raises(DegenerateInput):
            synth.split(records, 1.0, seed=0)


class TestPersistence:
    def test_round_trip_values_at_storage_precision(self, tmp_path):
        cfg = small_config(n_listings=25)
        records = synth.generate(cfg)
        synth.save_dataset(str(tmp_path), records, cfg)
        loaded = synth.load_dataset(str(tmp_path))
        assert len(loaded) == 25
        for orig, back in zip(records, loaded):
            assert back.id == orig.id
            assert back.photo_count == orig.photo_count
            assert back.attributes == orig.attributes
            np.testing.assert_array_equal(back.photos, orig.photos.astype(np.float32))
            np.testing.assert_array_equal(
                back.text_features, orig.text_features.astype(np.float32)
            )

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config(n_listings=30)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth.save_dataset(str(d1), synth.generate(cfg), cfg)
        synth.save_dataset(str(d2), synth.generate(cfg), cfg)
        for name in ["dataset.jsonl", "photos.emb", "text.emb", "latent.emb", "generator.json"]:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_config_round_trip(self, tmp_path):
        cfg = small_config()
        synth.save_dataset(str(tmp_path), synth.generate(cfg), cfg)
        assert synth.load_generator_config(str(tmp_path)) == cfg

    @pytest.mark.parametrize("listing_id, fits", [
        (2**63 - 1, True), (-(2**63), True), (2**63, False), (-(2**63) - 1, False),
    ])
    def test_ids_load_only_within_int64(self, tmp_path, listing_id, fits):
        records = synth.generate(small_config(n_listings=3))
        records[1].id = listing_id
        synth.save_dataset(str(tmp_path), records)
        if fits:
            assert [r.id for r in synth.load_dataset(str(tmp_path))] == [0, listing_id, 2]
        else:
            with pytest.raises(CorruptFile, match="outside int64"):
                synth.load_dataset(str(tmp_path))


class TestPacking:
    def test_pack_shapes(self):
        records = synth.generate(small_config(n_listings=10))
        photos, counts = synth.pack_photos(records)
        texts = synth.pack_texts(records)
        assert photos.shape == (10, 8, 10)
        assert counts.shape == (10,)
        assert texts.shape == (10, 8)


class TestSignal:
    def test_ridge_probe_recovers_latent_from_mean_photos(self):
        # before any training happens, the mean photo embedding must already
        # carry the latent almost losslessly at moderate noise
        cfg = synth.GeneratorConfig(
            n_listings=256, d_latent=6, d_photo=12, d_text=12, p_max=6,
            photo_noise=0.05, text_noise=0.05, seed=13,
        )
        records = synth.generate(cfg)
        means = np.stack([r.photos[: r.photo_count].mean(axis=0) for r in records])
        latents = np.stack([r.latent for r in records])
        x = np.hstack([means, np.ones((len(records), 1))])
        ridge = np.linalg.solve(x.T @ x + 1e-6 * np.eye(x.shape[1]), x.T @ latents)
        pred = x @ ridge
        ss_res = np.sum((latents - pred) ** 2)
        ss_tot = np.sum((latents - latents.mean(axis=0)) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.9
