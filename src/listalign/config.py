"""Pipeline configuration: one strict JSON file drives every CLI stage.

Unknown keys are rejected with their dotted path rather than silently ignored,
so a typo like "warmup_stpes" fails loudly. Every field has a default; an empty
object {} is a complete, runnable configuration.

_schema checks keys and types; each section class checks its own ranges in
__post_init__, so a config object that exists is valid, whether it came from
a file, a constructor or dataclasses.replace. PipelineConfig itself checks
only what spans sections: the tower configs built from the generator's widths
and init_seed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ._schema import load_json, parse_dataclass
from .align import LossConfig, TrainSchedule, TrainStage
from .codec import CodecSettings
from .errors import ConfigError
from .model import SetEncoderConfig, TextTowerConfig
from .synth import GeneratorConfig

__all__ = [
    "FilterSettings",
    "SplitSettings",
    "SetEncoderSettings",
    "TextTowerSettings",
    "PipelineConfig",
    "load_pipeline_config",
    "parse_pipeline_config",
    "resolved_dict",
]


@dataclass(frozen=True)
class FilterSettings:
    min_photos: int = 1
    min_text_len: int = 10
    alignment_threshold: float = 0.3
    use_alignment: bool = False  # score against the generator's own maps

    def __post_init__(self) -> None:
        if self.min_photos < 0 or self.min_text_len < 0:
            raise ConfigError("filter thresholds must be >= 0")


@dataclass(frozen=True)
class SplitSettings:
    holdout_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("split.holdout_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("split.seed must be >= 0")


@dataclass(frozen=True)
class SetEncoderSettings:
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_out: int = 64
    pool: str = "last"


@dataclass(frozen=True)
class TextTowerSettings:
    hidden: tuple[int, ...] = (48, 48)


@dataclass(frozen=True)
class PipelineConfig:
    generator: GeneratorConfig = field(
        default_factory=lambda: GeneratorConfig(n_listings=512, p_max=8)
    )
    filters: FilterSettings = field(default_factory=FilterSettings)
    split: SplitSettings = field(default_factory=SplitSettings)
    set_encoder: SetEncoderSettings = field(default_factory=SetEncoderSettings)
    text_tower: TextTowerSettings = field(default_factory=TextTowerSettings)
    loss: LossConfig = field(default_factory=LossConfig)
    schedule: TrainSchedule = field(
        default_factory=lambda: TrainSchedule(
            stages=(
                TrainStage(epochs=30, lr=3e-3),
                TrainStage(epochs=15, lr=6e-4, unfreeze_text_layers=(1, 2)),
            ),
            batch_size=64,
            warmup_steps=20,
        )
    )
    codec: CodecSettings = field(default_factory=CodecSettings)
    init_seed: int = 0

    def set_encoder_config(self) -> SetEncoderConfig:
        s = self.set_encoder
        return SetEncoderConfig(
            d_in=self.generator.d_photo,
            d_model=s.d_model,
            n_layers=s.n_layers,
            n_heads=s.n_heads,
            d_out=s.d_out,
            p_max=self.generator.p_max,
            pool=s.pool,
        )

    def text_tower_config(self) -> TextTowerConfig:
        dims = (self.generator.d_text, *self.text_tower.hidden, self.set_encoder.d_out)
        return TextTowerConfig(dims=dims)

    def __post_init__(self) -> None:
        # building the tower configs checks the widths they take from other sections
        self.set_encoder_config()
        self.text_tower_config()
        if self.init_seed < 0:
            raise ConfigError("init_seed must be >= 0")


def parse_pipeline_config(raw: dict) -> PipelineConfig:
    """Build a PipelineConfig from a parsed JSON object."""
    return parse_dataclass(PipelineConfig, raw, base=PipelineConfig())


def load_pipeline_config(path: str) -> PipelineConfig:
    return parse_pipeline_config(load_json(path))


def resolved_dict(pc: PipelineConfig) -> dict:
    """The fully resolved configuration, shaped so it reloads through
    parse_pipeline_config unchanged."""
    # normalize tuples to lists, exactly as the JSON file will hold them
    return json.loads(json.dumps(dataclasses.asdict(pc)))
