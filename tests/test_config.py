"""Strict pipeline-config parsing: defaults, overrides, and rejection paths."""

import re
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from listalign import codec, config as configmod
from listalign.align import AdamHyper, LossConfig, TrainSchedule, TrainStage
from listalign.errors import ConfigError
from listalign.model import SetEncoderConfig, TextTowerConfig
from listalign.synth import GeneratorConfig


def test_empty_object_is_a_complete_config():
    pc = configmod.parse_pipeline_config({})
    # the default construction runs every section's checks and the cross-section ones
    assert pc == configmod.PipelineConfig()


def test_resolved_dict_round_trips():
    pc = configmod.parse_pipeline_config(
        {
            "generator": {"n_listings": 64, "seed": 3},
            "text_tower": {"hidden": [24]},
            "schedule": {
                "stages": [
                    {"epochs": 4, "lr": 0.001},
                    {"epochs": 2, "lr": 0.0005, "unfreeze_text_layers": [0, 1]},
                ],
                "batch_size": 16,
                "adam": {"weight_decay": 0.01},
                "cosine_horizon": 50,
            },
            "codec": {"kind": "pca", "out_dim": 8},
        }
    )
    again = configmod.parse_pipeline_config(configmod.resolved_dict(pc))
    assert again == pc
    assert pc.schedule.stages[1].unfreeze_text_layers == (0, 1)
    assert pc.schedule.adam.weight_decay == 0.01
    assert pc.text_tower.hidden == (24,)


def test_unknown_top_level_key_names_itself():
    with pytest.raises(ConfigError, match="bogus"):
        configmod.parse_pipeline_config({"bogus": 1})


def test_unknown_nested_key_reports_dotted_path():
    with pytest.raises(ConfigError, match="codec.m_subq"):
        configmod.parse_pipeline_config({"codec": {"m_subq": 4}})
    with pytest.raises(ConfigError, match=r"schedule.stages\[1\].epoch"):
        configmod.parse_pipeline_config(
            {"schedule": {"stages": [{"epochs": 1, "lr": 0.1}, {"epoch": 2}]}}
        )


def test_unknown_codec_kind_names_every_kind():
    with pytest.raises(ConfigError, match="codec.kind must be one of pq, opq, scalar, pca, got 'zstd'"):
        configmod.parse_pipeline_config({"codec": {"kind": "zstd"}})


def test_wrong_value_types_rejected():
    with pytest.raises(ConfigError, match="generator.n_listings"):
        configmod.parse_pipeline_config({"generator": {"n_listings": "many"}})
    with pytest.raises(ConfigError, match="generator.n_listings"):
        configmod.parse_pipeline_config({"generator": {"n_listings": True}})
    with pytest.raises(ConfigError, match=r"schedule\.eval_ks\[1\] must be an integer"):
        configmod.parse_pipeline_config({"schedule": {"eval_ks": [1, "5"]}})
    with pytest.raises(ConfigError, match=r"schedule\.eval_ks must be a list"):
        configmod.parse_pipeline_config({"schedule": {"eval_ks": 5}})
    with pytest.raises(ConfigError, match=r"schedule\.stages\[0\]\.unfreeze_text_layers\[0\]"):
        configmod.parse_pipeline_config({"schedule": {"stages": [{"unfreeze_text_layers": [1.5]}]}})
    with pytest.raises(ConfigError, match=r"schedule\.stages\[1\] must be a JSON object"):
        configmod.parse_pipeline_config({"schedule": {"stages": [{}, 3]}})
    with pytest.raises(ConfigError, match=r"text_tower\.hidden\[0\]"):
        configmod.parse_pipeline_config({"text_tower": {"hidden": [None]}})
    with pytest.raises(ConfigError, match="generator.seed must be an integer"):
        configmod.parse_pipeline_config({"generator": {"seed": None}})
    with pytest.raises(ConfigError, match="split.holdout_fraction must be a finite number"):
        configmod.parse_pipeline_config({"split": {"holdout_fraction": "0.1"}})
    with pytest.raises(ConfigError, match="filters.use_alignment must be a boolean"):
        configmod.parse_pipeline_config({"filters": {"use_alignment": 1}})
    with pytest.raises(ConfigError, match="loss must be a JSON object"):
        configmod.parse_pipeline_config({"loss": []})
    with pytest.raises(ConfigError):
        configmod.parse_pipeline_config({"schedule": {"stages": "two"}})
    with pytest.raises(ConfigError):
        configmod.parse_pipeline_config([])


def test_semantic_validation_still_applies():
    with pytest.raises(ConfigError):
        configmod.parse_pipeline_config({"set_encoder": {"pool": "max"}})
    with pytest.raises(ConfigError):
        configmod.parse_pipeline_config({"split": {"holdout_fraction": 1.5}})
    with pytest.raises(ConfigError):
        configmod.parse_pipeline_config({"loss": {"kind": "triplet"}})
    # heads must divide the model width
    with pytest.raises(ConfigError):
        configmod.parse_pipeline_config({"set_encoder": {"d_model": 30, "n_heads": 4}})


@pytest.mark.parametrize("raw, where", [
    ({"generator": {"seed": -1}}, "generator: seed"),
    ({"split": {"seed": -1}}, "split.seed"),
    ({"init_seed": -1}, "init_seed"),
    ({"schedule": {"seed": -1}}, "schedule seed"),
    ({"codec": {"seed": -1}}, "codec.seed"),
])
def test_negative_seeds_rejected(raw, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        configmod.parse_pipeline_config(raw)


@pytest.mark.parametrize("make, message", [
    (lambda: replace(GeneratorConfig(n_listings=8), d_photo=2), "photo/text dims must be >= d_latent"),
    (lambda: replace(configmod.FilterSettings(), min_text_len=-1), "filter thresholds must be >= 0"),
    (lambda: replace(configmod.SplitSettings(), holdout_fraction=1.5), "split.holdout_fraction"),
    (lambda: replace(SetEncoderConfig(d_in=4), n_heads=3), "not divisible by n_heads 3"),
    (lambda: replace(TextTowerConfig(dims=(4, 8)), dims=(4, 0)), "text tower: all dims must be >= 1"),
    (lambda: replace(LossConfig(), init_t=0.0), "loss temperature initializers must be positive"),
    (lambda: replace(AdamHyper(), beta2=1.0), "adam betas must lie in [0, 1)"),
    (lambda: replace(TrainStage(), epochs=0), "each stage needs epochs >= 1"),
    (lambda: replace(TrainSchedule(), batch_size=1), "batch_size must be >= 2"),
    (lambda: replace(codec.CodecSettings(), k=300), "codec.k must lie in [1, 256]"),
    (lambda: replace(configmod.PipelineConfig(), init_seed=-1), "init_seed must be >= 0"),
    (lambda: replace(configmod.PipelineConfig(), set_encoder=configmod.SetEncoderSettings(d_model=30)),
     "d_model 30 not divisible by n_heads 4"),
], ids=["generator", "filters", "split", "set-encoder", "text-tower", "loss", "adam", "stage",
        "schedule", "codec", "pipeline", "pipeline-cross-section"])
def test_config_objects_check_themselves(make, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        make()


def test_nullable_fields_accept_null():
    pc = configmod.parse_pipeline_config(
        {"schedule": {"cosine_horizon": None}, "codec": {"rotated_dim": None}}
    )
    assert pc.schedule.cosine_horizon is None
    assert pc.codec.rotated_dim is None
    pc = configmod.parse_pipeline_config({"codec": {"rotated_dim": 32}})
    assert pc.codec.rotated_dim == 32


def test_empty_hidden_stack_is_a_single_linear_tower():
    pc = configmod.parse_pipeline_config({"text_tower": {"hidden": []}})
    dims = pc.text_tower_config().dims
    assert dims == (pc.generator.d_text, pc.set_encoder.d_out)


@pytest.mark.parametrize(
    "raw, where",
    [
        ({"generator": {"photo_noise": float("nan")}}, "generator.photo_noise"),
        ({"schedule": {"stages": [{"lr": float("nan")}]}}, "schedule.stages[0].lr"),
        ({"loss": {"init_b": float("-inf")}}, "loss.init_b"),
        ({"schedule": {"adam": {"eps": float("inf")}}}, "schedule.adam.eps"),
        ({"filters": {"alignment_threshold": 10**400}}, "filters.alignment_threshold"),
    ],
)
def test_non_finite_numbers_rejected(raw, where):
    with pytest.raises(ConfigError, match=re.escape(f"config key {where} must be a finite number")):
        configmod.parse_pipeline_config(raw)


def test_stage_entry_keys_default():
    pc = configmod.parse_pipeline_config({"schedule": {"stages": [{}, {"lr": 2}]}})
    assert pc.schedule.stages == (
        TrainStage(epochs=1, lr=1e-3),
        TrainStage(epochs=1, lr=2.0),
    )
    assert isinstance(pc.schedule.stages[1].lr, float)


# ---------------------------------------------------------------------------
# property: any valid override round-trips, any unknown key names its path
# ---------------------------------------------------------------------------

def _finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


def _positive():
    return st.one_of(_finite(1e-6, 1e3), st.integers(1, 100))


_SEED = st.integers(0, 2**40)
_INT_LIST = st.lists(st.integers(0, 8), max_size=4)

# every field of every section, each drawn only from values the config classes accept:
# photo and text dims never fall below the largest d_latent, and every d_model
# drawn is divisible by every n_heads drawn
_SECTIONS = {
    "generator": {
        "n_listings": st.integers(1, 10**6),
        "d_latent": st.integers(1, 12),
        "d_photo": st.integers(12, 64),
        "d_text": st.integers(12, 64),
        "p_max": st.integers(1, 64),
        "photo_noise": st.one_of(_finite(0.0, 10.0), st.integers(0, 3)),
        "text_noise": _finite(0.0, 10.0),
        "aspect_count": st.integers(1, 16),
        "seed": _SEED,
    },
    "filters": {
        "min_photos": st.integers(0, 64),
        "min_text_len": st.integers(0, 100),
        "alignment_threshold": _finite(),
        "use_alignment": st.booleans(),
    },
    "split": {
        "holdout_fraction": _finite(0.0, 1.0, exclude_min=True, exclude_max=True),
        "seed": _SEED,
    },
    "set_encoder": {
        "d_model": st.sampled_from([8, 16, 32, 64]),
        "n_layers": st.integers(1, 4),
        "n_heads": st.sampled_from([1, 2, 4, 8]),
        "d_out": st.integers(1, 128),
        "pool": st.sampled_from(["last", "mean"]),
    },
    "text_tower": {"hidden": st.lists(st.integers(1, 128), max_size=4)},
    "loss": {
        "kind": st.sampled_from(["infonce", "siglip"]),
        "init_inv_temp": _positive(),
        "init_t": _positive(),
        "init_b": _finite(-1e6, 1e6),
    },
    "schedule": {
        "stages": st.lists(
            st.fixed_dictionaries(
                {},
                optional={
                    "epochs": st.integers(1, 100),
                    "lr": _positive(),
                    "unfreeze_text_layers": _INT_LIST,
                },
            ),
            max_size=3,
        ),
        "batch_size": st.integers(2, 512),
        "seed": _SEED,
        "warmup_steps": st.integers(0, 1000),
        "cosine_horizon": st.one_of(st.none(), st.integers(1, 10**6)),
        "adam": st.fixed_dictionaries(
            {},
            optional={
                "beta1": _finite(0.0, 1.0, exclude_max=True),
                "beta2": _finite(0.0, 1.0, exclude_max=True),
                "eps": _positive(),
                "weight_decay": st.one_of(_finite(0.0, 1.0), st.just(0)),
            },
        ),
        "grad_accum": st.integers(1, 8),
        "eval_ks": _INT_LIST,
    },
    "codec": {
        "kind": st.sampled_from(list(codec.KINDS)),
        "m": st.integers(1, 64),
        "k": st.integers(1, 256),
        "rotated_dim": st.one_of(st.none(), st.integers(1, 1024)),
        "outer_iters": st.integers(0, 20),
        "kmeans_iters": st.integers(0, 50),
        "iters": st.integers(0, 50),
        "seed": _SEED,
        "out_dim": st.integers(1, 256),
    },
}

_OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        **{name: st.fixed_dictionaries({}, optional=fields) for name, fields in _SECTIONS.items()},
        "init_seed": _SEED,
    },
)


def test_override_strategy_covers_every_field():
    resolved = configmod.resolved_dict(configmod.PipelineConfig())
    assert set(resolved) == set(_SECTIONS) | {"init_seed"}
    for name, fields in _SECTIONS.items():
        assert set(resolved[name]) == set(fields), name


# what a stage entry resolves to when it sets no key
_STAGE_DEFAULT = {"epochs": 1, "lr": 1e-3, "unfreeze_text_layers": []}


def _laid_over(base, override):
    """The resolved dict expected from laying override over base."""
    if isinstance(override, dict):
        return {**base, **{key: _laid_over(base[key], value) for key, value in override.items()}}
    if isinstance(override, list):
        return [_laid_over(_STAGE_DEFAULT, v) if isinstance(v, dict) else v for v in override]
    return override


def _objects(raw, path=""):
    """Every JSON object inside raw, with the dotted path that names it."""
    if isinstance(raw, dict):
        yield path, raw
        for key, value in raw.items():
            yield from _objects(value, f"{path}.{key}" if path else key)
    elif isinstance(raw, list):
        for i, value in enumerate(raw):
            yield from _objects(value, f"{path}[{i}]")


@settings(max_examples=150, deadline=None)
@given(overrides=_OVERRIDES, data=st.data())
def test_property_valid_overrides_round_trip_and_unknown_keys_name_their_path(overrides, data):
    pc = configmod.parse_pipeline_config(overrides)
    resolved = configmod.resolved_dict(pc)
    assert resolved == _laid_over(configmod.resolved_dict(configmod.PipelineConfig()), overrides)
    assert configmod.parse_pipeline_config(resolved) == pc

    path, node = data.draw(st.sampled_from(list(_objects(resolved))))
    key = data.draw(st.sampled_from(["bogus", "epoch", "Seed", "warmup_stpes", "n_listing"]))
    assume(key not in node)
    node[key] = 1
    where = f"{path}.{key}" if path else key
    with pytest.raises(ConfigError, match=re.escape(f"unknown config key: {where}")):
        configmod.parse_pipeline_config(resolved)
