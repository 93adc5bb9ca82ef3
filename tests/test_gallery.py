"""Encoded gallery: train writes gallery.blg, and search and eval reuse it only
when its content key matches their inputs, with the uncached path's exact
output otherwise; a hit reads no dataset file and refits no sweep basis."""

import builtins
import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np
import pytest

from listalign import cli, eval as evalmod, gallery, linalg, model, synth
from listalign._fileio import with_crc32
from listalign.errors import CorruptFile

TINY_CONFIG = {
    "generator": {
        "n_listings": 40, "d_latent": 3, "d_photo": 6, "d_text": 5,
        "p_max": 4, "photo_noise": 0.02, "text_noise": 0.02, "seed": 7,
    },
    "filters": {"min_photos": 1, "min_text_len": 10},
    "split": {"holdout_fraction": 0.2, "seed": 1},
    "set_encoder": {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_out": 8},
    "text_tower": {"hidden": [8]},
    "schedule": {
        "stages": [{"epochs": 2, "lr": 3e-3, "unfreeze_text_layers": [0, 1]}],
        "batch_size": 8, "warmup_steps": 2, "eval_ks": [1, 2],
    },
}

# 10 listings, 2-d embeddings: a 740-byte gallery, small enough to flip every bit
SMALL_CONFIG = {
    "generator": {"n_listings": 10, "d_latent": 2, "d_photo": 3, "d_text": 3, "p_max": 3, "seed": 3},
    "filters": {"min_photos": 1, "min_text_len": 10},
    "split": {"holdout_fraction": 0.2, "seed": 1},
    "set_encoder": {"d_model": 2, "n_layers": 1, "n_heads": 1, "d_out": 2},
    "text_tower": {"hidden": [2]},
    "schedule": {"stages": [{"epochs": 1, "lr": 3e-3}], "batch_size": 4, "warmup_steps": 1,
                 "eval_ks": [1]},
}

MODALITIES = ("photo", "text", "multimodal")


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _pipeline(root, config, seed=None):
    root.mkdir(parents=True)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    seed_args = [] if seed is None else ["--seed", seed]
    assert _cli("gen", "--config", cfg, "--out", root / "data", "--quiet")[0] == 0
    assert _cli("train", "--config", cfg, "--data", root / "data", "--out", root / "run",
                "--quiet", *seed_args)[0] == 0
    return root / "data", root / "run"


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    root = tmp_path_factory.mktemp("gallery")
    data, run = _pipeline(root / "main", TINY_CONFIG)
    _, other = _pipeline(root / "other", TINY_CONFIG, seed=5)
    records = synth.load_dataset(str(data / "train")) + synth.load_dataset(str(data / "holdout"))
    return {"data": data, "run": run, "other": other, "ids": [r.id for r in records]}


def _outcome(stage, data, ckpt, where, extra):
    """(exit code, stdout, stderr, files written) of one stage run, paths masked."""
    where.mkdir(parents=True)
    argv = [stage, "--data", data, "--model", ckpt]
    argv += [where / "sweep.csv" if a == "CSV" else a for a in extra]
    if stage == "eval":
        argv += ["--out", where / "report.json", "--quiet"]
    code, out, err = _cli(*argv)
    files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
    return code, out, err.replace(str(ckpt), "CKPT").replace(str(where), "OUT"), files


def _hit_and_miss(stage, data, run, where, *extra):
    """The stage against run/checkpoint.blm, and against a copy with no gallery beside it."""
    cold = where / "cold" / "checkpoint.blm"
    cold.parent.mkdir(parents=True)
    shutil.copyfile(run / "checkpoint.blm", cold)
    hit = _outcome(stage, data, run / "checkpoint.blm", where / "hit", extra)
    miss = _outcome(stage, data, cold, where / "miss", extra)
    return hit, miss


def _copy_layout(pipe, where):
    shutil.copytree(pipe["data"], where / "data")
    shutil.copytree(pipe["run"], where / "run")
    return where / "data", where / "run"


# ---------------------------------------------------------------------------
# what train writes
# ---------------------------------------------------------------------------

def test_train_writes_gallery_of_the_saved_checkpoint(pipe):
    data, run = pipe["data"], pipe["run"]
    key, stored = gallery.load_gallery(str(run / gallery.GALLERY_FILE))
    assert key == gallery.content_key(str(run / "checkpoint.blm"), str(data))
    train, holdout, _ = synth.load_split(str(data))
    ps, te, _ = model.load_checkpoint(str(run / "checkpoint.blm"))
    fresh = gallery.embed(ps, te, train, holdout)
    assert stored.ids.tolist() == fresh.ids.tolist() == pipe["ids"]
    assert stored.ids.dtype == fresh.ids.dtype == np.int64
    assert stored.n_train == fresh.n_train == len(train)
    labels = [[r.attributes[a] for a in synth.ATTRIBUTE_NAMES] for r in train + holdout]
    assert stored.labels.tolist() == fresh.labels.tolist() == labels
    assert stored.labels.dtype == fresh.labels.dtype == np.int64
    assert stored.photo.dtype == np.float64 and np.array_equal(stored.photo, fresh.photo)
    assert np.array_equal(stored.text, fresh.text)
    assert np.array_equal(stored.multimodal, fresh.multimodal)
    assert stored.basis.dtype == np.float64 and np.array_equal(stored.basis, fresh.basis)


def test_gallery_file_layout(pipe):
    raw = (pipe["run"] / gallery.GALLERY_FILE).read_bytes()
    train, holdout, _ = synth.load_split(str(pipe["data"]))
    n, d = len(pipe["ids"]), TINY_CONFIG["set_encoder"]["d_out"]
    a = len(synth.ATTRIBUTE_NAMES)
    assert 2 * n > d  # so the basis block holds d rows
    assert raw[:8] == b"BLGAL003"
    assert len(raw) == 8 + 32 + 24 + 8 * n + 8 * n * a + 2 * 8 * n * d + 8 * d * d + 4
    assert np.frombuffer(raw[40:64], dtype="<i8").tolist() == [n, d, len(train)]
    assert np.frombuffer(raw[64:64 + 8 * n], dtype="<i8").tolist() == pipe["ids"]
    labels = np.frombuffer(raw[64 + 8 * n:64 + 8 * n * (1 + a)], dtype="<i8").reshape(n, a)
    assert labels.tolist() == [[r.attributes[name] for name in synth.ATTRIBUTE_NAMES]
                               for r in train + holdout]
    rows = np.frombuffer(raw[64 + 8 * n * (1 + a):-4], dtype="<f8")
    photo, text, basis = rows[:n * d].reshape(n, d), rows[n * d:2 * n * d].reshape(n, d), rows[2 * n * d:]
    assert np.array_equal(basis.reshape(d, d), evalmod.sweep_basis(text, photo))


def test_basis_prefixes_are_pca_fits_of_their_width(pipe):
    g = gallery.load_gallery(str(pipe["run"] / gallery.GALLERY_FILE))[1]
    pooled = np.vstack([g.text, g.photo])
    assert g.basis.shape == (min(pooled.shape), g.text.shape[1])
    for m in range(1, len(g.basis) + 1):
        assert np.array_equal(g.basis[:m], linalg.pca_fit(pooled, m).components)


def test_basis_of_fewer_rows_than_columns(tmp_path):
    """With 2n < d the basis holds 2n rows, and a wider sweep dim fails as pca_fit did."""
    config = {**SMALL_CONFIG,
              "generator": {**SMALL_CONFIG["generator"], "n_listings": 4},
              "split": {"holdout_fraction": 0.25, "seed": 1},
              "set_encoder": {"d_model": 4, "n_layers": 1, "n_heads": 1, "d_out": 12},
              "schedule": {**SMALL_CONFIG["schedule"], "batch_size": 2}}
    data, run = _pipeline(tmp_path / "wide", config)
    g = gallery.cached(str(run / "checkpoint.blm"), str(data))
    assert g.basis.shape == (8, 12)
    hit, miss = _hit_and_miss("eval", data, run, tmp_path / "fits", "--sweep", "2,8")
    assert hit == miss and hit[0] == 0
    for dims, k in (("12", 12), ("2,9", 9)):
        hit, miss = _hit_and_miss("eval", data, run, tmp_path / dims, "--sweep", dims)
        assert hit == miss and hit[:3] == (5, "", f"evaluation failed: pca_fit: k={k} outside "
                                                 "[1, min(n=8, d=12)]\n")


# ---------------------------------------------------------------------------
# a hit gives the uncached output
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("modality", MODALITIES)
def test_search_hit_equals_uncached(pipe, tmp_path, modality):
    data, run, ids = pipe["data"], pipe["run"], pipe["ids"]
    assert gallery.cached(str(run / "checkpoint.blm"), str(data)) is not None
    cases = [(ids[0], 3), (ids[len(ids) // 2], 10), (ids[-1], len(ids) + 5)]
    for j, (query, top) in enumerate(cases):
        hit, miss = _hit_and_miss("search", data, run, tmp_path / str(j), "--query-id", query,
                                  "--modality", modality, "--top", top)
        assert hit[0] == 0 and hit[1].count("\n") == min(top, len(ids))
        assert hit == miss


@pytest.mark.parametrize("extra", [
    (),
    ("--sweep", "2,4,8"),
    ("--sweep", "2,4", "--quantize-sweep", "--sweep-csv", "CSV", "--ks", "1,3"),
])
def test_eval_hit_equals_uncached(pipe, tmp_path, extra):
    hit, miss = _hit_and_miss("eval", pipe["data"], pipe["run"], tmp_path, *extra)
    assert hit[0] == 0 and "report.json" in hit[3]
    assert hit == miss


def test_search_unknown_id_on_a_hit_exits_6(pipe, tmp_path):
    for query in (999999, 2**63, -(2**63) - 1):  # the last two lie outside int64
        hit, miss = _hit_and_miss("search", pipe["data"], pipe["run"], tmp_path / str(query),
                                  "--query-id", query)
        assert hit[0] == miss[0] == 6 and hit == miss
        assert hit[1] == "" and hit[2] == f"search failed: no listing with id {query}\n"


def test_checkpoint_that_does_not_fit_the_dataset_fails_before_the_id_lookup(pipe, tmp_path):
    _, small_run = _pipeline(tmp_path / "small", SMALL_CONFIG)
    ckpt = small_run / "checkpoint.blm"
    unfit = f"config error: cannot use checkpoint {ckpt} with dataset under {pipe['data']}"
    for query in (pipe["ids"][0], 999999):  # a miss checks the fit first, so both fail alike
        code, out, err = _cli("search", "--data", pipe["data"], "--model", ckpt, "--query-id", query)
        assert (code, out) == (2, "") and err.startswith(unfit)
    code, _, err = _cli("eval", "--data", pipe["data"], "--model", ckpt, "--out", tmp_path / "r.json")
    assert code == 2 and err.startswith(unfit)


def test_repeated_id_resolves_to_its_last_row(pipe, tmp_path):
    data, run = _copy_layout(pipe, tmp_path)
    index = data / "holdout" / "dataset.jsonl"
    lines = index.read_text().splitlines()
    first_id = json.loads(lines[0])["id"]
    lines[-1] = json.dumps({**json.loads(lines[-1]), "id": first_id}, sort_keys=True)
    index.write_text("\n".join(lines) + "\n")
    train, holdout, _ = synth.load_split(str(data))
    records = train + holdout
    gallery.write_beside(str(run / "checkpoint.blm"), str(data), train, holdout)
    g = gallery.cached(str(run / "checkpoint.blm"), str(data))
    assert g is not None
    for modality in MODALITIES:
        hit, miss = _hit_and_miss("search", data, run, tmp_path / modality, "--query-id", first_id,
                                  "--modality", modality)
        assert hit[0] == 0 and hit == miss
        scores = g.multimodal @ getattr(g, modality)[len(records) - 1]  # the id's last row
        top = np.lexsort((g.ids, -scores))[:10]
        assert hit[1] == "".join(f"{g.ids[i]} {scores[i]:.6f}\n" for i in top)
    # an id the repeated rows do not hold is still unknown
    hit, miss = _hit_and_miss("search", data, run, tmp_path / "unknown", "--query-id", 999999)
    assert hit[0] == miss[0] == 6 and hit == miss
    assert hit[2] == "search failed: no listing with id 999999\n"


def test_multimodal_keeps_the_photo_row_where_photo_and_text_cancel():
    photo = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 1.0]])
    text = np.array([[-0.6, -0.8], [0.0, 1.0], [0.0, 1.0]])
    g = gallery.Gallery(ids=np.arange(3), n_train=2, labels=np.zeros((3, 3), dtype=np.int64),
                        photo=photo, text=text)
    half = np.sqrt(0.5)
    np.testing.assert_array_equal(g.multimodal[0], photo[0])
    np.testing.assert_allclose(g.multimodal[1:], [[half, half], [0.0, 1.0]])
    assert g.multimodal is g.multimodal  # computed once per gallery


def test_hit_neither_parses_the_dataset_nor_encodes(pipe, tmp_path, monkeypatch):
    data, run = pipe["data"], pipe["run"]
    argv = ("--query-id", pipe["ids"][1], "--modality", "multimodal")
    expected_search = _hit_and_miss("search", data, run, tmp_path / "s", *argv)[1]
    expected_eval = _hit_and_miss("eval", data, run, tmp_path / "e", "--sweep", "2,4")[1]

    def refuse(*args, **kwargs):
        raise AssertionError("the gallery should have served this call")

    for name in ("load_checkpoint", "encode_photoset_batch", "encode_text"):
        monkeypatch.setattr(model, name, refuse)
    monkeypatch.setattr(synth, "load_dataset", refuse)
    # the gallery carries eval's split and probe labels, so neither stage loads the dataset
    assert _outcome("eval", data, run / "checkpoint.blm", tmp_path / "e2", ("--sweep", "2,4")) \
        == expected_eval
    assert _outcome("search", data, run / "checkpoint.blm", tmp_path / "s2", argv) == expected_search


def test_eval_hit_and_any_search_run_no_svd(pipe, tmp_path, monkeypatch):
    data, run = pipe["data"], pipe["run"]
    argv = ("--query-id", pipe["ids"][1], "--modality", "text")
    sweep = ("--sweep", "2,8", "--quantize-sweep")
    expected_search = _hit_and_miss("search", data, run, tmp_path / "s", *argv)[1]
    expected_eval = _hit_and_miss("eval", data, run, tmp_path / "e", *sweep)[1]

    def refuse(*args, **kwargs):
        raise AssertionError("no basis should be fitted here")

    monkeypatch.setattr(evalmod, "pca_fit", refuse)
    hit, miss = _hit_and_miss("search", data, run, tmp_path / "s2", *argv)
    assert hit == miss == expected_search and hit[0] == 0
    assert _outcome("eval", data, run / "checkpoint.blm", tmp_path / "e2", sweep) == expected_eval


# ---------------------------------------------------------------------------
# anything stale, corrupt or unreadable takes the uncached path
# ---------------------------------------------------------------------------

KEYED_FILES = ["run/checkpoint.blm"] + [f"data/{rel}" for rel in synth.SPLIT_FILES]


def test_keyed_files_are_the_files_the_cli_reads(pipe, monkeypatch):
    opened = []
    real_open = builtins.open

    def recording_open(path, *args, **kwargs):
        opened.append(os.path.relpath(path, pipe["data"]).replace(os.sep, "/"))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    synth.load_split(str(pipe["data"]))
    assert sorted(opened) == sorted(synth.SPLIT_FILES)
    assert len(KEYED_FILES) == 10


def _assert_uncached(data, run, where, query):
    assert gallery.cached(str(run / "checkpoint.blm"), str(data)) is None
    hit, miss = _hit_and_miss("search", data, run, where / "search", "--query-id", query, "--top", 40)
    assert hit == miss
    hit, miss = _hit_and_miss("eval", data, run, where / "eval", "--sweep", "2,4")
    assert hit == miss


@pytest.mark.parametrize("rel", KEYED_FILES)
def test_one_changed_byte_in_any_keyed_file_misses(pipe, tmp_path, rel):
    _copy_layout(pipe, tmp_path)
    path = tmp_path / rel
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    _assert_uncached(tmp_path / "data", tmp_path / "run", tmp_path, pipe["ids"][0])


def test_another_seeds_checkpoint_misses(pipe, tmp_path):
    data, run = _copy_layout(pipe, tmp_path)
    other = (pipe["other"] / "checkpoint.blm").read_bytes()
    assert other != (run / "checkpoint.blm").read_bytes()
    (run / "checkpoint.blm").write_bytes(other)
    _assert_uncached(data, run, tmp_path, pipe["ids"][0])


def test_bytes_moved_between_files_change_the_key(pipe, tmp_path):
    data, run = _copy_layout(pipe, tmp_path)
    photos, text = data / "train" / "photos.emb", data / "train" / "text.emb"
    a, b = photos.read_bytes(), text.read_bytes()
    photos.write_bytes(a[:-4])
    text.write_bytes(a[-4:] + b)
    assert gallery.content_key(str(run / "checkpoint.blm"), str(data)) != \
        gallery.content_key(str(pipe["run"] / "checkpoint.blm"), str(pipe["data"]))


@pytest.mark.parametrize("rel", ["run/gallery.blg", "data/holdout/latent.emb"])
def test_missing_or_unreadable_input_misses(pipe, tmp_path, rel):
    data, run = _copy_layout(pipe, tmp_path)
    (tmp_path / rel).unlink()
    (tmp_path / rel).mkdir()  # a directory: reading it is an OSError
    _assert_uncached(data, run, tmp_path, pipe["ids"][0])


def test_every_bit_flip_or_cut_of_a_small_gallery_misses(tmp_path):
    data, run = _pipeline(tmp_path / "small", SMALL_CONFIG)
    ckpt, path = run / "checkpoint.blm", run / gallery.GALLERY_FILE
    raw = path.read_bytes()
    assert len(raw) == 740 and gallery.cached(str(ckpt), str(data)) is not None
    expected = _hit_and_miss("search", data, run, tmp_path / "ref", "--query-id", 1)[1]
    misses = 0
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        misses += gallery.cached(str(ckpt), str(data)) is None
        if bit % 37 == 0:  # a spread of flips, through the whole command
            assert _outcome("search", data, ckpt, tmp_path / f"flip{bit}", ("--query-id", 1)) \
                == expected
    assert misses == 8 * len(raw)
    for n in range(len(raw)):  # and every truncation
        path.write_bytes(raw[:n])
        assert gallery.cached(str(ckpt), str(data)) is None


# ---------------------------------------------------------------------------
# the gallery is read in place, and its key is the documented hash
# ---------------------------------------------------------------------------

def test_hit_arrays_are_read_only_views_and_serve_unchanged(pipe, tmp_path):
    data, run = pipe["data"], pipe["run"]
    hit = gallery.cached(str(run / "checkpoint.blm"), str(data))
    for array in (hit.ids, hit.labels, hit.photo, hit.text, hit.basis):
        assert not array.flags.writeable and not array.flags.owndata
    # a stage that wrote into a view would fail on the hit and not on the miss
    for modality in MODALITIES:
        hit_out, miss_out = _hit_and_miss("search", data, run, tmp_path / modality,
                                          "--query-id", pipe["ids"][2], "--modality", modality)
        assert hit_out[0] == 0 and hit_out == miss_out
    hit_out, miss_out = _hit_and_miss("eval", data, run, tmp_path / "eval", "--sweep", "2,4",
                                      "--quantize-sweep")
    assert hit_out[0] == 0 and hit_out == miss_out


# (n, d, n_train) header values, None keeping the file's own and "n" meaning n:
# the shapes no file holds, then the n_train values save_gallery never writes
IMPOSSIBLE_HEADERS = [
    (2**63 - 1, None, None), (None, 2**63 - 1, None), (2**62, None, None), (None, 2**62, None),
    (0, 2**63 - 1, None), (-1, None, None), (None, -1, None), (-(2**63), None, None),
    (None, -(2**63), None),
    (None, None, 0), (None, None, -1), (None, None, "n"), (None, None, 2**63 - 1),
    (None, None, -(2**63)),
]


@pytest.mark.parametrize("n, d, n_train", IMPOSSIBLE_HEADERS, ids=[
    f"{n}-{d}" if n_train is None else f"n_train={n_train}" for n, d, n_train in IMPOSSIBLE_HEADERS])
def test_impossible_gallery_shape_is_a_miss(pipe, tmp_path, n, d, n_train):
    data, run = _copy_layout(pipe, tmp_path)
    path = run / gallery.GALLERY_FILE
    raw = path.read_bytes()[:-4]
    old = np.frombuffer(raw[40:64], dtype="<i8").tolist()
    header = [old[j] if value is None else old[0] if value == "n" else value
              for j, value in enumerate((n, d, n_train))]
    # a valid checksum, so only the header can make the file a miss
    path.write_bytes(with_crc32(raw[:40] + np.array(header, dtype="<i8").tobytes() + raw[64:]))
    with pytest.raises(CorruptFile):
        gallery.load_gallery(str(path))
    assert gallery.cached(str(run / "checkpoint.blm"), str(data)) is None
    hit, miss = _hit_and_miss("search", data, run, tmp_path / "s", "--query-id", pipe["ids"][0])
    assert hit[0] == 0 and hit == miss


def test_content_key_is_the_documented_sha256(pipe):
    data, ckpt = pipe["data"], pipe["run"] / "checkpoint.blm"
    digest = hashlib.sha256(b"listalign gallery %d\n" % gallery.GALLERY_VERSION)
    inputs = [("checkpoint", ckpt)]
    for rel in ("train/dataset.jsonl", "train/photos.emb", "train/text.emb", "train/latent.emb",
                "holdout/dataset.jsonl", "holdout/photos.emb", "holdout/text.emb",
                "holdout/latent.emb", "train/generator.json"):
        inputs.append((rel, data / rel))
    for name, path in inputs:
        blob = path.read_bytes()
        digest.update(f"{name} {len(blob)}\n".encode())
        digest.update(blob)
    assert gallery.content_key(str(ckpt), str(data)) == digest.digest()
    assert gallery.load_gallery(str(pipe["run"] / gallery.GALLERY_FILE))[0] == digest.digest()


# ---------------------------------------------------------------------------
# encoder bits belong to a gallery version
# ---------------------------------------------------------------------------

# sha256 of the encoders' output bits on a fixed tiny input, per GALLERY_VERSION.
# A change to those bits (a fused op, a new summation order) fails this test:
# bump GALLERY_VERSION, so that galleries written by older code stop matching,
# and pin the new hash under the new version. The pin was taken with numpy's
# bundled OpenBLAS on x86-64; another BLAS or CPU may round differently.
# Versions 2 and 3 changed only the file format, not the encoders, so their
# bits are version 1's.
ENCODER_BITS = {1: "381b94ea41f1899380ca1c00fe9e960aff8c5f50450b250301ce9a09491be343",
                2: "381b94ea41f1899380ca1c00fe9e960aff8c5f50450b250301ce9a09491be343",
                3: "381b94ea41f1899380ca1c00fe9e960aff8c5f50450b250301ce9a09491be343"}


def test_encoder_bits_are_pinned_to_the_gallery_version():
    rng = np.random.default_rng(5)
    counts = np.array([1, 2, 3, 4, 4, 2])
    photos = rng.normal(size=(6, 4, 6)) * (np.arange(4)[None, :, None] < counts[:, None, None])
    texts = rng.normal(size=(6, 5))
    digest = hashlib.sha256()
    for pool in ("last", "mean"):
        cfg = model.SetEncoderConfig(d_in=6, d_model=8, n_layers=2, n_heads=2, d_out=8, p_max=4,
                                     pool=pool)
        digest.update(model.encode_photoset_batch(model.init_set_encoder(cfg, seed=3), photos, counts)
                      .tobytes())
    te = model.init_text_tower(model.TextTowerConfig(dims=(5, 8, 8)), seed=4)
    digest.update(model.encode_text(te, texts).tobytes())
    assert digest.hexdigest() == ENCODER_BITS[gallery.GALLERY_VERSION]
