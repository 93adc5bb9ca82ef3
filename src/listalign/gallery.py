"""Encoded gallery: every listing's photo-set and text embedding, saved once.

``train`` encodes its dataset with the checkpoint it has just written and saves
the result as ``gallery.blg`` beside that checkpoint. ``search`` and ``eval``
use the gallery only when its content key equals a fresh hash of their own
inputs, so an absent, stale or corrupt gallery simply means encoding again:
the cache can change speed, never a result or an error.

The content key is a sha256 over GALLERY_VERSION and, for the checkpoint and
each dataset file the CLI reads (in a fixed order), its name, its length and
its bytes. Names and lengths are hashed so that bytes moved from one file to
the next cannot keep the key.

Format: magic "BLGAL001", the 32-byte key, i64 n and d, n i64 ids, the (n, d)
photo-set and text embeddings as float64, then a u32 zlib.crc32 of every byte
before it, little-endian. Float64, unlike every other container, because a
gallery must give ``search`` and ``eval`` the exact bits of a fresh encode.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from . import model, synth
from ._fileio import Reader, atomic_write_bytes, with_crc32
from .errors import CorruptFile

__all__ = ["GALLERY_FILE", "GALLERY_VERSION", "Gallery", "encode_records", "content_key",
           "save_gallery", "load_gallery", "write_beside", "cached"]

GALLERY_MAGIC = b"BLGAL001"
GALLERY_FILE = "gallery.blg"
# Bump whenever the encoders' output bits change, so that galleries encoded by
# older code stop matching; tests/test_gallery.py pins those bits per version.
GALLERY_VERSION = 1

# the dataset files the CLI reads, relative to its --data directory
DATA_FILES = tuple(
    f"{split}/{name}"
    for split in ("train", "holdout")
    for name in (synth.INDEX_FILE, synth.PHOTOS_FILE, synth.TEXT_FILE, synth.LATENT_FILE)
) + (f"train/{synth.CONFIG_FILE}",)


@dataclass(frozen=True)
class Gallery:
    ids: np.ndarray    # (n,) int64, train rows then holdout rows
    photo: np.ndarray  # (n, d) photo-set embeddings
    text: np.ndarray   # (n, d) text embeddings


def encode_records(ps, te, records):
    """(photo-set, text) embeddings of records, one row each."""
    photos, counts = synth.pack_photos(records)
    ps_emb = model.encode_photoset_batch(ps, photos, counts)
    tx_emb = model.encode_text(te, synth.pack_texts(records))
    return ps_emb, tx_emb


def content_key(model_path: str, data_dir: str) -> bytes:
    """sha256 of the gallery version and every input file's name, length and bytes."""
    digest = hashlib.sha256(b"listalign gallery %d\n" % GALLERY_VERSION)
    inputs = [("checkpoint", model_path)]
    inputs += [(rel, os.path.join(data_dir, *rel.split("/"))) for rel in DATA_FILES]
    for name, path in inputs:
        with open(path, "rb") as fh:
            blob = fh.read()
        digest.update(b"%s %d\n" % (name.encode(), len(blob)))
        digest.update(blob)
    return digest.digest()


def save_gallery(path: str, key: bytes, gallery: Gallery) -> None:
    n, d = gallery.photo.shape
    head = np.array([n, d], dtype="<i8").tobytes() + np.asarray(gallery.ids, dtype="<i8").tobytes()
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (gallery.photo, gallery.text))
    atomic_write_bytes(path, with_crc32(GALLERY_MAGIC + key + head + body))


def load_gallery(path: str) -> tuple[bytes, Gallery]:
    """(content key, gallery); anything save_gallery would not write is CorruptFile."""
    r = Reader(path, GALLERY_MAGIC, checksum=True)
    key = r.raw(32)
    n, d = (int(v) for v in r.i64(2))
    if n < 0 or d < 0:
        raise CorruptFile(f"{path}: negative gallery shape ({n}, {d})")
    gallery = Gallery(ids=r.i64(n), photo=r.f64((n, d)), text=r.f64((n, d)))
    r.end()
    return key, gallery


def write_beside(model_path: str, data_dir: str, records) -> None:
    """Encode records with the checkpoint as saved and write the gallery beside it.

    Ids beyond int64 cannot be stored; such a dataset gets no gallery.
    """
    try:
        ids = np.array([r.id for r in records], dtype=np.int64)
    except OverflowError:
        return
    ps, te, _extra = model.load_checkpoint(model_path)
    photo, text = encode_records(ps, te, records)
    gallery = Gallery(ids=ids, photo=photo, text=text)
    path = os.path.join(os.path.dirname(model_path), GALLERY_FILE)
    save_gallery(path, content_key(model_path, data_dir), gallery)


def cached(model_path: str, data_dir: str) -> Gallery | None:
    """The gallery beside model_path if it was encoded from exactly these inputs.

    Any failure to read the gallery or to hash an input is a miss (None).
    """
    try:
        key, gallery = load_gallery(os.path.join(os.path.dirname(model_path), GALLERY_FILE))
        if key == content_key(model_path, data_dir):
            return gallery
    except (OSError, ValueError):  # CorruptFile is a ValueError
        pass
    return None
