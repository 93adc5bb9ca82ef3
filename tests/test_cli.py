"""End-to-end command-line pipeline tests: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import listalign
from listalign import cli, codec as codecmod, config as configmod, gallery, model, synth
from listalign.cli import main
from listalign.errors import ConfigError

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
    "codec": {"kind": "pq", "m": 4, "k": 16, "iters": 10},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    data_dir = root / "data"
    run_dir = root / "run"
    assert main(["gen", "--config", str(cfg_path), "--out", str(data_dir), "--quiet"]) == 0
    assert main([
        "train", "--config", str(cfg_path), "--data", str(data_dir),
        "--out", str(run_dir), "--quiet",
    ]) == 0
    return {"root": root, "config": cfg_path, "data": data_dir, "run": run_dir}


def test_gen_writes_expected_artifacts(workspace):
    data = workspace["data"]
    for rel in (
        "train/dataset.jsonl", "train/photos.emb", "train/text.emb", "train/generator.json",
        "holdout/dataset.jsonl", "filter_stats.json", "config.json",
    ):
        assert (data / rel).exists(), rel
    stats = json.loads((data / "filter_stats.json").read_text())
    assert stats["n_input"] == 40
    assert stats["n_output"] == stats["n_input"] - stats["dropped_photos"] - stats["dropped_text"] - stats["dropped_alignment"]


def test_gen_config_snapshot_reloads_identically(workspace):
    snapshot = configmod.load_pipeline_config(str(workspace["data"] / "config.json"))
    original = configmod.load_pipeline_config(str(workspace["config"]))
    assert snapshot == original


def test_train_writes_checkpoint_and_logs(workspace):
    run = workspace["run"]
    assert (run / "checkpoint.blm").exists()
    lines = (run / "trainlog.jsonl").read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in lines}
    assert kinds == {"step", "epoch"}
    header = (run / "epochs.csv").read_text().splitlines()[0]
    assert "mean_rank_t2i" in header


def test_gen_is_byte_deterministic(workspace, tmp_path):
    again = tmp_path / "data2"
    assert main(["gen", "--config", str(workspace["config"]), "--out", str(again), "--quiet"]) == 0
    for rel in ("train/dataset.jsonl", "train/photos.emb", "train/text.emb",
                "holdout/text.emb", "filter_stats.json", "config.json"):
        a = (workspace["data"] / rel).read_bytes()
        b = (again / rel).read_bytes()
        assert a == b, rel


def test_train_is_byte_deterministic(workspace, tmp_path):
    again = tmp_path / "run2"
    assert main([
        "train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
        "--out", str(again), "--quiet",
    ]) == 0
    assert (again / "checkpoint.blm").read_bytes() == (workspace["run"] / "checkpoint.blm").read_bytes()
    assert (again / "trainlog.jsonl").read_bytes() == (workspace["run"] / "trainlog.jsonl").read_bytes()


def test_quantize_writes_codec_codes_and_percentiles(workspace, tmp_path):
    out = tmp_path / "q"
    emb = workspace["data"] / "train" / "text.emb"
    assert main([
        "quantize", "--config", str(workspace["config"]), "--emb", str(emb),
        "--out", str(out), "--quiet",
    ]) == 0
    codes = codecmod.load_embeddings(str(out / "codes.emb"))
    assert codes.dtype == np.uint8
    assert codes.shape[1] == 4  # m bytes per vector
    trained = codecmod.load_codec(str(out / "codec.blc"))
    decoded = codecmod.decode(trained, codecmod.CodeBlock(codes.shape[0], codes.shape[1], codes))
    x = codecmod.load_embeddings(str(emb))
    assert decoded.shape == x.shape
    levels = json.loads((out / "percentiles.json").read_text())
    assert "values" in levels and "mean_error" in levels

    again = tmp_path / "q2"
    assert main([
        "quantize", "--config", str(workspace["config"]), "--emb", str(emb),
        "--out", str(again), "--quiet",
    ]) == 0
    assert (again / "codec.blc").read_bytes() == (out / "codec.blc").read_bytes()
    assert (again / "codes.emb").read_bytes() == (out / "codes.emb").read_bytes()


def test_quantize_kind_flag_overrides_config(workspace, tmp_path):
    out = tmp_path / "scalar"
    emb = workspace["data"] / "train" / "text.emb"
    assert main([
        "quantize", "--config", str(workspace["config"]), "--emb", str(emb),
        "--kind", "scalar", "--out", str(out), "--quiet",
    ]) == 0
    codes = codecmod.load_embeddings(str(out / "codes.emb"))
    assert codes.shape[1] == 5  # one byte per dimension


def test_eval_writes_report_and_sweep(workspace, tmp_path):
    report_path = tmp_path / "report.json"
    sweep_csv = tmp_path / "sweep.csv"
    assert main([
        "eval", "--data", str(workspace["data"]), "--model", str(workspace["run"] / "checkpoint.blm"),
        "--out", str(report_path), "--ks", "1,2", "--sweep", "2,8",
        "--sweep-csv", str(sweep_csv), "--quiet",
    ]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["probe"]) == {"capacity_bucket", "density", "space_type"}
    stats = json.loads((workspace["data"] / "filter_stats.json").read_text())
    assert report["retrieval"]["n_gallery"] == stats["n_output"]
    assert report["retrieval"]["recall_t2i"]["1"] >= 0.0
    assert any(key.startswith("ndcg_t2i@") for key in report["retrieval"])
    rows = [r for r in report["sweep"]]
    assert {r["dim"] for r in rows} == {2, 8}
    lines = sweep_csv.read_text().splitlines()
    assert lines[0].startswith("dim,quantized,")
    assert len(lines) == 3


def test_ndcg_counts_each_query_once_when_ids_repeat(workspace, tmp_path):
    """Every listing sharing one id must not make each ranked row relevant."""
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    for split in ("train", "holdout"):
        index = data / split / "dataset.jsonl"
        lines = [json.dumps({**json.loads(line), "id": 7}) for line in index.read_text().splitlines()]
        index.write_text("\n".join(lines) + "\n")
    reports = {}
    for name, where in (("unique", workspace["data"]), ("repeated", data)):
        reports[name] = tmp_path / f"{name}.json"
        assert main(["eval", "--data", str(where), "--model", str(workspace["run"] / "checkpoint.blm"),
                     "--out", str(reports[name]), "--quiet"]) == 0
    retrieval = {name: json.loads(path.read_text())["retrieval"] for name, path in reports.items()}
    (key,) = [k for k in retrieval["repeated"] if k.startswith("ndcg_t2i@")]
    assert 0.0 <= retrieval["repeated"][key] <= 1.0
    assert retrieval["repeated"][key] == retrieval["unique"][key]  # no score ties: same rankings


def test_search_prints_ranked_ids(workspace, capsys):
    first_id = json.loads((workspace["data"] / "train" / "dataset.jsonl").read_text().splitlines()[0])["id"]
    code = main([
        "search", "--data", str(workspace["data"]), "--model", str(workspace["run"] / "checkpoint.blm"),
        "--query-id", str(first_id), "--modality", "multimodal", "--top", "5", "--quiet",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    top_id, top_score = lines[0].split()
    assert int(top_id) == first_id  # a listing is its own nearest multimodal match
    assert abs(float(top_score) - 1.0) < 1e-6
    scores = [float(line.split()[1]) for line in lines]
    assert scores == sorted(scores, reverse=True)


def test_search_photo_and_text_modalities(workspace, capsys):
    first_id = json.loads((workspace["data"] / "train" / "dataset.jsonl").read_text().splitlines()[0])["id"]
    for modality in ("photo", "text"):
        code = main([
            "search", "--data", str(workspace["data"]), "--model", str(workspace["run"] / "checkpoint.blm"),
            "--query-id", str(first_id), "--modality", modality, "--top", "3", "--quiet",
        ])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_report_pretty_prints(workspace, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main([
        "eval", "--data", str(workspace["data"]), "--model", str(workspace["run"] / "checkpoint.blm"),
        "--out", str(report_path), "--ks", "1", "--quiet",
    ]) == 0
    capsys.readouterr()
    assert main(["report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "mean_rank_t2i" in out and "probe capacity_bucket" in out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_invalid_json_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "x"), "--quiet"]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_config_key_exits_2_with_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schedule": {"warmup_stpes": 3}}))
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "x"), "--quiet"]) == 2
    assert "schedule.warmup_stpes" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["gen", "train"])
@pytest.mark.parametrize(
    "override, where",
    [
        ({"generator": {"photo_noise": float("nan")}}, "generator.photo_noise"),
        ({"schedule": {"stages": [{"epochs": 1, "lr": float("nan")}]}}, "schedule.stages[0].lr"),
    ],
)
def test_non_finite_config_number_exits_2(workspace, tmp_path, capsys, stage, override, where):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({**TINY_CONFIG, **override}))  # json writes a bare NaN
    out = tmp_path / "out"
    data = ["--data", str(workspace["data"])] if stage == "train" else []
    assert main([stage, "--config", str(bad), *data, "--out", str(out), "--quiet"]) == 2
    assert f"config key {where} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (lambda cfg: json.dumps({**cfg, "bogus": 1}), "unknown config key: generator.bogus"),
        (lambda cfg: json.dumps({**cfg, "p_max": "4"}), "generator.p_max must be an integer"),
        (lambda cfg: json.dumps({**cfg, "text_noise": float("inf")}), "generator.text_noise"),
        (lambda cfg: json.dumps({**cfg, "p_max": 0}), "generator: p_max must be >= 1"),
        (
            lambda cfg: json.dumps({k: v for k, v in cfg.items() if k != "n_listings"}),
            "missing config key: generator.n_listings",
        ),
        (lambda cfg: json.dumps([cfg]), "generator must be a JSON object"),
        (lambda cfg: "{not json", "invalid JSON"),
    ],
    ids=[
        "unknown-key", "wrong-type", "non-finite", "invalid-value",
        "missing-key", "non-object", "invalid-json",
    ],
)
def test_malformed_generator_json_exits_2(workspace, tmp_path, capsys, text, message):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    gen_json = data / "train" / synth.CONFIG_FILE
    gen_json.write_text(text(json.loads(gen_json.read_text())))
    with pytest.raises(ConfigError, match=re.escape(message)):
        synth.load_generator_config(str(data / "train"))
    model = str(workspace["run"] / "checkpoint.blm")
    for argv in (
        ["train", "--config", str(workspace["config"]), "--out", str(tmp_path / "run")],
        ["eval", "--model", model, "--out", str(tmp_path / "report.json")],
    ):
        capsys.readouterr()
        assert main([*argv, "--data", str(data), "--quiet"]) == 2, argv[0]
        assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "report.json").exists()


def test_train_batch_larger_than_dataset_exits_2(workspace, tmp_path):
    cfg = json.loads(workspace["config"].read_text())
    cfg["schedule"]["batch_size"] = 4000
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([
        "train", "--config", str(cfg_path), "--data", str(workspace["data"]),
        "--out", str(tmp_path / "r"), "--quiet",
    ]) == 2


def test_quantize_missing_embedding_file_exits_2(workspace, tmp_path):
    assert main([
        "quantize", "--emb", str(tmp_path / "nope.emb"), "--out", str(tmp_path / "q"), "--quiet",
    ]) == 2


def test_quantize_unknown_codec_kind_exits_2(workspace, tmp_path, capsys):
    cfg_path = tmp_path / "zstd.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, "codec": {"kind": "zstd"}}))
    out = tmp_path / "q"
    assert main([
        "quantize", "--config", str(cfg_path), "--emb", str(workspace["data"] / "train" / "text.emb"),
        "--out", str(out), "--quiet",
    ]) == 2
    assert "pq, opq, scalar, pca" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, flag, src, code", [
    ("quantize", "--emb", "data/train/photos.emb", 2),
    ("eval", "--model", "run/checkpoint.blm", 2),
    ("search", "--model", "run/checkpoint.blm", 6),
])
def test_truncated_input_file_exits_without_traceback(workspace, tmp_path, capsys, stage, flag, src, code):
    cut = tmp_path / "cut"
    cut.write_bytes((workspace["root"] / src).read_bytes()[:-3])
    argv = {
        "quantize": ["--out", str(tmp_path / "q")],
        "eval": ["--data", str(workspace["data"]), "--out", str(tmp_path / "r.json")],
        "search": ["--data", str(workspace["data"]), "--query-id", "0"],
    }[stage]
    assert main([stage, flag, str(cut), *argv, "--quiet"]) == code
    out, err = capsys.readouterr()
    assert "truncated file" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "q").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("stage, code", [("eval", 2), ("search", 6)])
@pytest.mark.parametrize("field", [b"{", b"manifest", b"d_in"])
def test_flipped_checkpoint_header_exits_without_traceback(workspace, tmp_path, capsys, stage, code, field):
    data = bytearray((workspace["run"] / "checkpoint.blm").read_bytes())
    data[data.index(field, 12)] ^= 0x01  # one bit: bad JSON, a missing key, an unknown key
    flipped = tmp_path / "flipped.blm"
    flipped.write_bytes(bytes(data))
    argv = {
        "eval": ["--out", str(tmp_path / "r.json")],
        "search": ["--query-id", "0"],
    }[stage]
    assert main([stage, "--model", str(flipped), "--data", str(workspace["data"]), *argv, "--quiet"]) == code
    out, err = capsys.readouterr()
    assert "malformed checkpoint header" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "r.json").exists()


def test_truncated_dataset_file_exits_2(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    photos = data / "train" / "photos.emb"
    photos.write_bytes(photos.read_bytes()[:30])
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--quiet"]) == 2
    assert "photos.emb: truncated file" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _edit_index_line(edit):
    """Rewrite the second line of the train split's index."""
    def apply(train_dir):
        path = train_dir / "dataset.jsonl"
        lines = path.read_text().splitlines()
        edited = edit(json.loads(lines[1]))
        lines[1] = edited if isinstance(edited, str) else json.dumps(edited)
        path.write_text("\n".join(lines) + "\n")
    return apply


def _drop_last_row(name):
    def apply(train_dir):
        path = str(train_dir / name)
        codecmod.save_embeddings(path, codecmod.load_embeddings(path)[:-1])
    return apply


def _widen(split, name):
    """Give a split's sidecar one more column than generator.json says."""
    def apply(train_dir):
        path = str(train_dir.parent / split / name)
        x = codecmod.load_embeddings(path)
        codecmod.save_embeddings(path, np.hstack([x, np.zeros((len(x), 1))]))
    return apply


def _raise_p_max(train_dir):
    """Set generator.json's p_max one above the sidecars' photo slots."""
    path = train_dir / "generator.json"
    config = json.loads(path.read_text())
    path.write_text(json.dumps({**config, "p_max": config["p_max"] + 1}))


MALFORMED_DATASETS = {
    "not-json": _edit_index_line(lambda m: "{not json"),
    "not-object": _edit_index_line(lambda m: [m]),
    "missing-key": _edit_index_line(lambda m: {k: v for k, v in m.items() if k != "text_length_proxy"}),
    "extra-key": _edit_index_line(lambda m: {**m, "note": 1}),
    "str-count": _edit_index_line(lambda m: {**m, "photo_count": str(m["photo_count"])}),
    "float-attribute": _edit_index_line(lambda m: {**m, "attributes": {**m["attributes"], "density": 0.5}}),
    "wrong-row": _edit_index_line(lambda m: {**m, "row": 0}),
    "wrong-offset": _edit_index_line(lambda m: {**m, "photo_row_offset": m["photo_row_offset"] + 1}),
    "zero-photos": _edit_index_line(lambda m: {**m, "photo_count": 0}),
    "too-many-photos": _edit_index_line(lambda m: {**m, "photo_count": TINY_CONFIG["generator"]["p_max"] + 1}),
    "empty-index": lambda train_dir: (train_dir / "dataset.jsonl").write_text("\n"),
    "not-utf8": lambda train_dir: (train_dir / "dataset.jsonl").write_bytes(b"\xff\n"),
    "photo-rows": _drop_last_row("photos.emb"),
    "text-rows": _drop_last_row("text.emb"),
    "latent-rows": _drop_last_row("latent.emb"),
    "id-beyond-int64": _edit_index_line(lambda m: {**m, "id": 2**63}),
    "wide-train-text": _widen("train", "text.emb"),
    "wide-holdout-photos": _widen("holdout", "photos.emb"),
    "p_max-above-sidecars": _raise_p_max,
}


@pytest.mark.parametrize("stage", ["train", "eval", "search"])
@pytest.mark.parametrize("case", list(MALFORMED_DATASETS))
def test_malformed_dataset_exits_2(workspace, tmp_path, capsys, stage, case):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    MALFORMED_DATASETS[case](data / "train")
    argv = {
        "train": ["--out", str(tmp_path / "run")],
        "eval": ["--model", str(workspace["run"] / "checkpoint.blm"), "--out", str(tmp_path / "r.json")],
        "search": ["--model", str(workspace["run"] / "checkpoint.blm"), "--query-id", "0"],
    }[stage]
    assert main([stage, "--data", str(data), *argv, "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert f"cannot read dataset under {data}" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "run").exists() and not (tmp_path / "r.json").exists()


def test_config_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["gen", "--config", str(tmp_path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config file {tmp_path}" in err
    assert "Traceback" not in err
    assert not out.exists()


DEEP_JSON = "[" * 100000  # nested past the recursion limit of Python's JSON parser


@pytest.mark.parametrize("case, code", [
    ("gen --config", 2), ("train index line", 2), ("eval header", 2), ("search header", 6),
])
def test_deeply_nested_json_exits_without_traceback(workspace, tmp_path, capsys, case, code):
    data, out_path = workspace["data"], tmp_path / "out"
    if case == "gen --config":
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        argv = ["gen", "--config", str(deep), "--out", str(out_path)]
    elif case == "train index line":
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        _edit_index_line(lambda m: DEEP_JSON)(data / "train")
        argv = ["train", "--data", str(data), "--out", str(out_path)]
    else:  # a checkpoint whose JSON header is the deep nest
        ckpt = tmp_path / "deep.blm"
        ckpt.write_bytes(b"BLMODEL1" + len(DEEP_JSON).to_bytes(4, "little") + DEEP_JSON.encode())
        stage = case.split()[0]
        tail = ["--out", str(out_path)] if stage == "eval" else ["--query-id", "0"]
        argv = [stage, "--data", str(data), "--model", str(ckpt), *tail]
    assert main([*argv, "--quiet"]) == code
    out, err = capsys.readouterr()
    assert "maximum recursion depth" in err
    assert "Traceback" not in err
    assert out == ""
    assert not out_path.exists()


def test_quantize_infeasible_codebook_exits_4(workspace, tmp_path):
    cfg = json.loads(workspace["config"].read_text())
    cfg["codec"] = {"kind": "pq", "m": 4, "k": 256, "iters": 5}  # k > n rows
    cfg_path = tmp_path / "big_k.json"
    cfg_path.write_text(json.dumps(cfg))
    emb = workspace["data"] / "train" / "text.emb"
    assert main([
        "quantize", "--config", str(cfg_path), "--emb", str(emb),
        "--out", str(tmp_path / "q"), "--quiet",
    ]) == 4


def test_search_unknown_id_exits_6(workspace):
    assert main([
        "search", "--data", str(workspace["data"]), "--model", str(workspace["run"] / "checkpoint.blm"),
        "--query-id", "999999", "--quiet",
    ]) == 6


@pytest.mark.parametrize("top", [0, -2])
def test_search_top_below_one_exits_2(workspace, capsys, top):
    first_id = json.loads((workspace["data"] / "train" / "dataset.jsonl").read_text().splitlines()[0])["id"]
    assert main([
        "search", "--data", str(workspace["data"]), "--model", str(workspace["run"] / "checkpoint.blm"),
        "--query-id", str(first_id), "--top", str(top), "--quiet",
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--top" in err


@pytest.mark.parametrize("stage, extra", [("search", ["--query-id", "0"]), ("eval", ["--out", "OUT"])])
@pytest.mark.parametrize("width", ["d_in", "p_max", "d_text"])
def test_checkpoint_that_does_not_fit_the_dataset_exits_2(workspace, tmp_path, capsys, stage, extra, width):
    gen = TINY_CONFIG["generator"]
    widths = {"d_in": gen["d_photo"], "p_max": gen["p_max"], "d_text": gen["d_text"]}
    widths[width] += 1
    cfg = model.SetEncoderConfig(d_in=widths["d_in"], d_model=8, n_layers=1, n_heads=2, d_out=8,
                                 p_max=widths["p_max"])
    ckpt = tmp_path / "other.blm"  # no gallery beside it: the stage must encode
    model.save_checkpoint(str(ckpt), model.init_set_encoder(cfg),
                          model.init_text_tower(model.TextTowerConfig(dims=(widths["d_text"], 8))))
    argv = [stage, "--data", workspace["data"], "--model", ckpt]
    argv += [tmp_path / "r.json" if a == "OUT" else a for a in extra]
    assert main([str(a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: cannot use checkpoint {ckpt} with dataset under {workspace['data']}")
    assert not (tmp_path / "r.json").exists()


def test_eval_missing_checkpoint_exits_2(workspace, tmp_path):
    assert main([
        "eval", "--data", str(workspace["data"]), "--model", str(tmp_path / "nope.blm"),
        "--out", str(tmp_path / "r.json"), "--quiet",
    ]) == 2


def test_report_missing_file_exits_5(tmp_path):
    assert main(["report", str(tmp_path / "missing.json")]) == 5


@pytest.mark.parametrize("case", [
    "quantize --emb dir", "eval --model dir", "search --model dir", "search --model missing",
    "train index dir", "eval index dir", "search index dir", "eval --out dir",
])
def test_directory_or_missing_path_exits_2(workspace, tmp_path, capsys, case):
    data, ckpt = str(workspace["data"]), str(workspace["run"] / "checkpoint.blm")
    if case.endswith("index dir"):
        data = str(tmp_path / "data")
        shutil.copytree(workspace["data"], data)
        bad = tmp_path / "data" / "train" / "dataset.jsonl"
        bad.unlink()
        bad.mkdir()
    else:
        bad = tmp_path / ("nope.blm" if case.endswith("missing") else "dir")
        if not case.endswith("missing"):
            bad.mkdir()
    argv = {
        "quantize --emb dir": ["quantize", "--emb", str(bad), "--out", str(tmp_path / "q")],
        "eval --model dir": ["eval", "--data", data, "--model", str(bad), "--out", str(tmp_path / "r.json")],
        "search --model dir": ["search", "--data", data, "--model", str(bad), "--query-id", "0"],
        "search --model missing": ["search", "--data", data, "--model", str(bad), "--query-id", "0"],
        "train index dir": ["train", "--data", data, "--out", str(tmp_path / "run")],
        "eval index dir": ["eval", "--data", data, "--model", ckpt, "--out", str(tmp_path / "r.json")],
        "search index dir": ["search", "--data", data, "--model", ckpt, "--query-id", "0"],
        "eval --out dir": ["eval", "--data", data, "--model", ckpt, "--out", str(bad)],
    }[case]
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert str(bad) in err
    assert "Traceback" not in err
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("stage, flag", [
    ("eval", "--config"), ("eval", "--seed"), ("search", "--config"), ("search", "--seed"),
])
def test_eval_and_search_take_no_config_or_seed(workspace, tmp_path, stage, flag):
    argv = {
        "eval": ["--out", str(tmp_path / "r.json")],
        "search": ["--query-id", "0"],
    }[stage]
    value = str(workspace["config"]) if flag == "--config" else "1"
    with pytest.raises(SystemExit) as info:
        main([stage, "--data", str(workspace["data"]), "--model", str(workspace["run"] / "checkpoint.blm"),
              *argv, flag, value, "--quiet"])
    assert info.value.code == 2


def _write_report(path, content):
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    return path


BAD_REPORTS = {
    "list": [],
    "string-retrieval": {"retrieval": "abc"},
    "int-sweep-row": {"sweep": [1]},
    "not-utf8": b"\xff\xfe{}",
    "list-probe": {"probe": [0.5]},
    "string-probe-value": {"probe": {"capacity_bucket": "high"}},
    "non-integer-cutoff": {"retrieval": {"recall_t2i": {"top": 0.5}}},
    "string-recall": {"retrieval": {"recall_t2i": {"1": "all"}}},
    "huge-recall": {"retrieval": {"recall_t2i": {"1": 10 ** 400}}},
    "sweep-object": {"sweep": {"dim": 2}},
    "sweep-row-without-rank": {"sweep": [{"dim": 2, "quantized": False}]},
    "deep-nesting": b"[" * 100_000,
}


@pytest.mark.parametrize("case", list(BAD_REPORTS))
def test_malformed_report_exits_5(tmp_path, capsys, case):
    path = _write_report(tmp_path / "r.json", BAD_REPORTS[case])
    assert main(["report", str(path)]) == 5
    out, err = capsys.readouterr()
    assert f"report failed: cannot read report {path}" in err
    assert "Traceback" not in err
    assert out == ""


def test_report_directory_exits_5(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 5
    assert "report failed: cannot read report" in capsys.readouterr().err


REPORT_WORDS = st.sampled_from(
    ["retrieval", "probe", "sweep", "compression", "recall_t2i", "dim", "quantized", "mean_rank_t2i", "1", "05"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | REPORT_WORDS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(REPORT_WORDS | st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_report_on_any_json_exits_0_or_5(tmp_path_factory, value):
    path = _write_report(tmp_path_factory.mktemp("report") / "r.json", value)
    assert main(["report", str(path)]) in (0, 5)


def test_module_entry_point_help(tmp_path):
    # The child runs from a neutral directory and imports the same package this
    # process imported, whatever the checkout path or install state.
    package_root = str(Path(listalign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "listalign", "--help"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0
    for name in ("gen", "train", "quantize", "eval", "search", "report"):
        assert name in proc.stdout


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _captured(argv):
    """(exit code, stdout, stderr) of main(argv), an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_like_a_fresh_one(workspace, tmp_path, monkeypatch):
    data, ckpt = str(workspace["data"]), str(workspace["run"] / "checkpoint.blm")
    first_id = json.loads((workspace["data"] / "train" / "dataset.jsonl").read_text().splitlines()[0])["id"]
    search = ["search", "--data", data, "--model", ckpt, "--query-id", str(first_id)]
    calls = [
        search + ["--top", "3", "--modality", "text"],
        search,
        search + ["--top", "many"],
        ["eval", "--data", data, "--model", ckpt, "--out", str(tmp_path / "r.json"), "--sweep", "2,4"],
    ]
    reused = [_captured(argv) for argv in calls]
    assert cli._parser() is cli._parser()
    defaults = cli._parser().parse_args(calls[1])
    assert (defaults.top, defaults.modality) == (10, "multimodal")

    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser for every call
    fresh = [_captured(argv) for argv in calls]
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 2, 0]
    assert reused[0][1].count("\n") == 3 and reused[1][1].count("\n") == 10
    assert "invalid int value: 'many'" in reused[2][2]


def test_module_entry_point_search_prints_the_in_process_bytes(workspace, tmp_path):
    data, ckpt = str(workspace["data"]), str(workspace["run"] / "checkpoint.blm")
    assert gallery.cached(ckpt, data) is not None
    first_id = json.loads((workspace["data"] / "holdout" / "dataset.jsonl").read_text().splitlines()[0])["id"]
    argv = ["search", "--data", data, "--model", ckpt, "--query-id", str(first_id), "--modality", "photo"]
    package_root = str(Path(listalign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "listalign", *argv],
                          capture_output=True, cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == _captured(argv)
