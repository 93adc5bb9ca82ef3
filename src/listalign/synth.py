"""Synthetic listing generator with known ground truth.

Each listing owns a latent vector. Photo embeddings are a fixed linear map of
the latent plus a per-photo subject offset whose weight decays with position
(most salient content first) plus Gaussian noise; the text embedding is a
different linear map of the same latent plus noise. Categorical attributes are
pure functions of the latent, so probes have a learnable target. Everything is
a deterministic function of the config, including its seed.

Datasets persist as a JSONL index plus binary embedding sidecars; floats are
stored as float32. A directory ``gen`` writes holds a ``train`` and a
``holdout`` dataset; SPLIT_FILES lists every file ``load_split`` reads from it.
Both splits carry a ``generator.json``, but only ``train/generator.json`` is read.
Listing ids and attribute values are int64: an index line with either outside
that range is corrupt.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from ._fileio import write_json, write_jsonl
from ._schema import load_json, parse_dataclass
from .codec import load_embeddings, save_embeddings
from .errors import ConfigError, CorruptFile, DegenerateInput
from .linalg import as_matrix

__all__ = [
    "GeneratorConfig",
    "ListingRecord",
    "GeneratorModel",
    "FilterStats",
    "build_generator",
    "generate",
    "apply_filters",
    "split",
    "save_dataset",
    "load_dataset",
    "SPLIT_FILES",
    "load_split",
    "pack_photos",
    "pack_texts",
]

ATTRIBUTE_NAMES = ("capacity_bucket", "density", "space_type")

# Position weight of the subject offset: photo 0 carries the strongest one.
SALIENCE_DECAY = 0.8
ASPECT_SCALE = 0.6


@dataclass(frozen=True)
class GeneratorConfig:
    n_listings: int
    d_latent: int = 12
    d_photo: int = 16
    d_text: int = 16
    p_max: int = 64
    photo_noise: float = 0.05
    text_noise: float = 0.05
    aspect_count: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_listings < 1:
            raise ConfigError("generator: n_listings must be >= 1")
        if self.d_latent < 1 or self.d_photo < 1 or self.d_text < 1:
            raise ConfigError("generator: dimensions must be >= 1")
        if self.d_photo < self.d_latent or self.d_text < self.d_latent:
            raise ConfigError(
                "generator: photo/text dims must be >= d_latent so the maps are injective"
            )
        if self.p_max < 1:
            raise ConfigError("generator: p_max must be >= 1")
        if self.photo_noise < 0 or self.text_noise < 0:
            raise ConfigError("generator: noise levels must be >= 0")
        if self.aspect_count < 1:
            raise ConfigError("generator: aspect_count must be >= 1")
        if self.seed < 0:
            raise ConfigError("generator: seed must be >= 0")


@dataclass
class ListingRecord:
    """One listing. photos is a fixed (p_max, d_photo) buffer; rows at or past
    photo_count are zero and treated as padding everywhere downstream."""

    id: int
    latent: np.ndarray
    photos: np.ndarray
    photo_count: int
    text_features: np.ndarray
    text_length_proxy: int
    attributes: dict


@dataclass(frozen=True)
class GeneratorModel:
    """The fixed linear maps behind a config, plus the scorer built from them."""

    config: GeneratorConfig
    photo_map: np.ndarray   # (d_photo, d_latent)
    text_map: np.ndarray    # (d_text, d_latent)
    aspect_basis: np.ndarray  # (aspect_count, d_photo)

    def alignment_score(self, record: ListingRecord) -> float:
        """Cosine between the latent estimates implied by text and mean photo."""
        mean_photo = record.photos[: record.photo_count].mean(axis=0)
        z_photo = np.linalg.pinv(self.photo_map) @ mean_photo
        z_text = np.linalg.pinv(self.text_map) @ record.text_features
        denom = np.linalg.norm(z_photo) * np.linalg.norm(z_text)
        if denom < 1e-30:
            return 0.0
        return float(z_photo @ z_text / denom)


def _draw_maps(config: GeneratorConfig, rng: np.random.Generator) -> GeneratorModel:
    photo_map = rng.normal(scale=1.0 / np.sqrt(config.d_latent), size=(config.d_photo, config.d_latent))
    text_map = rng.normal(scale=1.0 / np.sqrt(config.d_latent), size=(config.d_text, config.d_latent))
    aspect_basis = rng.normal(
        scale=ASPECT_SCALE / np.sqrt(config.d_photo), size=(config.aspect_count, config.d_photo)
    )
    return GeneratorModel(config=config, photo_map=photo_map, text_map=text_map, aspect_basis=aspect_basis)


def build_generator(config: GeneratorConfig) -> GeneratorModel:
    """Reconstruct the fixed maps for a config (same seed, same maps)."""
    return _draw_maps(config, np.random.default_rng(config.seed))


def _attributes(latent: np.ndarray) -> dict:
    capacity = int(np.searchsorted([-0.6745, 0.0, 0.6745], latent[0], side="right"))
    density = int(latent[1] > 0.0)
    k = min(3, latent.shape[0] - 2)
    space = int(np.argmax(latent[2 : 2 + k])) if k > 0 else 0
    return {"capacity_bucket": capacity, "density": density, "space_type": space}


def generate(config: GeneratorConfig) -> list[ListingRecord]:
    """Generate n_listings records, deterministically from config.seed."""
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    model = _draw_maps(cfg, rng)  # maps come first on the stream; see build_generator

    weights = SALIENCE_DECAY ** np.arange(cfg.p_max)
    records = []
    for i in range(cfg.n_listings):
        latent = rng.normal(size=cfg.d_latent)
        count = int(rng.integers(1, cfg.p_max + 1))
        aspects = rng.integers(cfg.aspect_count, size=count)
        base = model.photo_map @ latent
        photos = np.zeros((cfg.p_max, cfg.d_photo))
        photos[:count] = (
            base[None, :]
            + weights[:count, None] * model.aspect_basis[aspects]
            + cfg.photo_noise * rng.normal(size=(count, cfg.d_photo))
        )
        text = model.text_map @ latent + cfg.text_noise * rng.normal(size=cfg.d_text)
        text_len = int(rng.integers(10, 301))
        records.append(
            ListingRecord(
                id=i,
                latent=latent,
                photos=photos,
                photo_count=count,
                text_features=text,
                text_length_proxy=text_len,
                attributes=_attributes(latent),
            )
        )
    return records


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterStats:
    """Per-rule drop accounting. A record counts against the first rule it
    fails, in the order photos -> text length -> alignment, so the per-rule
    counts sum to the total."""

    n_input: int
    dropped_photos: int
    dropped_text: int
    dropped_alignment: int

    @property
    def n_output(self) -> int:
        return self.n_input - self.dropped_photos - self.dropped_text - self.dropped_alignment

    @property
    def drop_fraction(self) -> float:
        return (self.n_input - self.n_output) / self.n_input if self.n_input else 0.0

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), "n_output": self.n_output, "drop_fraction": self.drop_fraction}


def apply_filters(
    records,
    min_photos: int = 5,
    min_text_len: int = 50,
    alignment_threshold: float = 0.3,
    prelim_scorer=None,
) -> tuple[list[ListingRecord], FilterStats]:
    """Drop records with too few photos, short text, or weak photo/text agreement.

    prelim_scorer maps a record to an alignment score; None disables the
    alignment rule (use GeneratorModel.alignment_score for the generator's own
    ground-truth scorer).
    """
    kept = []
    d_photos = d_text = d_align = 0
    for rec in records:
        if rec.photo_count < min_photos:
            d_photos += 1
        elif rec.text_length_proxy < min_text_len:
            d_text += 1
        elif prelim_scorer is not None and prelim_scorer(rec) < alignment_threshold:
            d_align += 1
        else:
            kept.append(rec)
    stats = FilterStats(
        n_input=len(records),
        dropped_photos=d_photos,
        dropped_text=d_text,
        dropped_alignment=d_align,
    )
    return kept, stats


def split(records, holdout_fraction: float, seed: int = 0):
    """Shuffle by seed and split off a holdout of floor(n * fraction), min 1."""
    n = len(records)
    if n < 2:
        raise DegenerateInput(f"split: need at least 2 records, got {n}")
    if not 0.0 < holdout_fraction < 1.0:
        raise DegenerateInput(f"split: holdout_fraction must be in (0, 1), got {holdout_fraction}")
    n_holdout = max(1, int(n * holdout_fraction))
    if n_holdout >= n:
        raise DegenerateInput("split: holdout would leave an empty training side")
    order = np.random.default_rng(seed).permutation(n)
    holdout_idx = set(order[:n_holdout].tolist())
    train = [records[i] for i in range(n) if i not in holdout_idx]
    holdout = [records[i] for i in range(n) if i in holdout_idx]
    return train, holdout


# ---------------------------------------------------------------------------
# batching helpers
# ---------------------------------------------------------------------------

def pack_photos(records) -> tuple[np.ndarray, np.ndarray]:
    """Stack photo buffers: (n, p_max, d_photo) plus the (n,) counts."""
    photos = np.stack([r.photos for r in records]).astype(np.float64)
    counts = np.array([r.photo_count for r in records], dtype=np.int64)
    return photos, counts


def pack_texts(records) -> np.ndarray:
    return as_matrix(np.stack([r.text_features for r in records]))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

INDEX_FILE = "dataset.jsonl"
PHOTOS_FILE = "photos.emb"
TEXT_FILE = "text.emb"
LATENT_FILE = "latent.emb"
CONFIG_FILE = "generator.json"
# every file load_split reads, relative to the directory gen writes; this order
# is part of the gallery's content key, so it never changes
SPLIT_FILES = tuple(
    f"{split}/{name}"
    for split in ("train", "holdout")
    for name in (INDEX_FILE, PHOTOS_FILE, TEXT_FILE, LATENT_FILE)
) + (f"train/{CONFIG_FILE}",)


def _index_row(row: int, p_max: int, id, photo_count, text_length_proxy, attributes) -> dict:
    """The dataset.jsonl object of the listing in the given row."""
    return {
        "id": id,
        "row": row,
        "photo_row_offset": row * p_max,
        "photo_count": photo_count,
        "text_length_proxy": text_length_proxy,
        "attributes": attributes,
    }


def save_dataset(directory: str, records, config: GeneratorConfig | None = None) -> None:
    """Write the JSONL index plus float32 embedding sidecars."""
    if not records:
        raise DegenerateInput("save_dataset: no records")
    p_max = records[0].photos.shape[0]
    if any(rec.photos.shape != records[0].photos.shape for rec in records):
        raise DegenerateInput("save_dataset: records disagree on photo buffer shape")
    os.makedirs(directory, exist_ok=True)
    write_jsonl(os.path.join(directory, INDEX_FILE), [
        _index_row(row, p_max, rec.id, rec.photo_count, rec.text_length_proxy, rec.attributes)
        for row, rec in enumerate(records)
    ])
    photos = np.concatenate([r.photos for r in records], axis=0)
    save_embeddings(os.path.join(directory, PHOTOS_FILE), photos)
    save_embeddings(os.path.join(directory, TEXT_FILE), np.stack([r.text_features for r in records]))
    save_embeddings(os.path.join(directory, LATENT_FILE), np.stack([r.latent for r in records]))
    if config is not None:
        write_json(os.path.join(directory, CONFIG_FILE), dataclasses.asdict(config))


def _index_entry(line: str, row: int, p_max: int, where: str) -> dict:
    """One JSONL line, checked to be the object save_dataset writes for row:
    the same dict as _index_row rebuilds from its own values, all of them ints."""
    try:
        meta = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CorruptFile(f"{where}: not JSON: {exc}") from None
    attrs = meta.get("attributes") if isinstance(meta, dict) else None
    if not isinstance(attrs, dict):
        raise CorruptFile(f"{where}: not an index object with an attributes object")
    expected = _index_row(row, p_max, meta.get("id"), meta.get("photo_count"), meta.get("text_length_proxy"),
                          {name: attrs.get(name) for name in ATTRIBUTE_NAMES})
    # == takes 1.0 and true for 1, so every value must also be an int
    values = [*attrs.values(), *(v for v in meta.values() if v is not attrs)]
    if meta != expected or not all(type(v) is int for v in values):
        raise CorruptFile(f"{where}: not the index line save_dataset writes for row {row}")
    for name, value in (("id", meta["id"]), *meta["attributes"].items()):
        if not -(2**63) <= value < 2**63:
            raise CorruptFile(f"{where}: {name} {value} outside int64")
    if not 1 <= meta["photo_count"] <= p_max:
        raise CorruptFile(f"{where}: photo_count {meta['photo_count']} outside [1, {p_max}]")
    return meta


def load_dataset(directory: str) -> list[ListingRecord]:
    """Read records back; float32 sidecars widen to float64.

    An index line or sidecar that disagrees with what save_dataset writes
    raises CorruptFile.
    """
    index_path = os.path.join(directory, INDEX_FILE)
    try:
        with open(index_path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{index_path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise CorruptFile(f"{index_path}: empty dataset index")
    n = len(lines)
    photos = load_embeddings(os.path.join(directory, PHOTOS_FILE))
    texts = load_embeddings(os.path.join(directory, TEXT_FILE))
    latents = load_embeddings(os.path.join(directory, LATENT_FILE))
    if photos.shape[0] % n:
        raise CorruptFile(f"{directory}: {photos.shape[0]} photo rows for {n} listings")
    for name, arr in ((TEXT_FILE, texts), (LATENT_FILE, latents)):
        if arr.shape[0] != n:
            raise CorruptFile(f"{directory}: {name} has {arr.shape[0]} rows for {n} listings")
    p_max = photos.shape[0] // n
    records = []
    for row, line in enumerate(lines):
        meta = _index_entry(line, row, p_max, f"{index_path} line {row + 1}")
        records.append(
            ListingRecord(
                id=meta["id"],
                latent=latents[row],
                photos=photos[row * p_max : (row + 1) * p_max],
                photo_count=meta["photo_count"],
                text_features=texts[row],
                text_length_proxy=meta["text_length_proxy"],
                attributes=meta["attributes"],
            )
        )
    return records


def load_generator_config(directory: str) -> GeneratorConfig:
    """Read a dataset's generator.json as strictly as a pipeline config."""
    path = os.path.join(directory, CONFIG_FILE)
    raw = load_json(path)
    try:
        config = parse_dataclass(GeneratorConfig, raw, "generator")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


def load_split(data_dir: str):
    """(train records, holdout records, generator config) of a directory gen wrote.

    Both splits must have train/generator.json's geometry: p_max photo slots
    per listing and d_photo, d_text and d_latent columns. A sidecar that
    disagrees raises CorruptFile naming it.
    """
    train_dir = os.path.join(data_dir, "train")
    splits = [load_dataset(os.path.join(data_dir, name)) for name in ("train", "holdout")]
    config = load_generator_config(train_dir)
    for name, records in zip(("train", "holdout"), splits):
        r = records[0]
        for file, got, what, key in (
            (PHOTOS_FILE, r.photos.shape[0], "photo slots per listing", "p_max"),
            (PHOTOS_FILE, r.photos.shape[1], "columns", "d_photo"),
            (TEXT_FILE, r.text_features.shape[0], "columns", "d_text"),
            (LATENT_FILE, r.latent.shape[0], "columns", "d_latent"),
        ):
            want = getattr(config, key)
            if got != want:
                raise CorruptFile(f"{os.path.join(data_dir, name, file)}: {got} {what}, but "
                                  f"{os.path.join(train_dir, CONFIG_FILE)} has {key} {want}")
    return (*splits, config)
