"""Encoded gallery: every listing's photo-set and text embedding, saved once.

A Gallery holds a dataset's int64 listing ids, where its train split ends,
its attribute labels, its photo-set, text and multimodal rows and the PCA
basis of its pooled text and photo rows: all that ``search`` ranks by and all
that ``eval`` scores and sweeps. ``embed`` encodes one from
a checkpoint and the two splits' records; ``train`` saves it as
``gallery.blg`` beside the checkpoint it has just written. ``search`` and
``eval`` use the saved gallery only when its content key equals a fresh hash
of their own inputs, so an absent, stale or corrupt gallery simply means
calling ``embed`` again: the cache can change speed, never a result or an
error.

A hit reads no dataset file at all: it trusts that the inputs with this key
passed the dataset validation ``train`` ran before writing the gallery. So
any tightening of that validation (a line ``synth.load_split`` used to accept
and now rejects) must bump GALLERY_VERSION, or a gallery of a dataset that no
longer loads would still serve ``search`` and ``eval``.

The content key is a sha256 over GALLERY_VERSION and, for the checkpoint and
each file in synth.SPLIT_FILES (in that order), its name, its length and
its bytes. Names and lengths are hashed so that bytes moved from one file to
the next cannot keep the key.

Format: magic "BLGAL003", the 32-byte key, i64 n, d and n_train, n i64 ids,
the (n, len(synth.ATTRIBUTE_NAMES)) i64 labels in ATTRIBUTE_NAMES order, the
(n, d) photo-set and text embeddings as float64, the (min(2n, d), d) float64
eval.sweep_basis of the text and photo rows, then a u32 zlib.crc32 of every
byte before it, little-endian. Rows [0, n_train) are the train split and the
rest the holdout, with 1 <= n_train < n. Float64, unlike every other
container, because a gallery must give ``search`` and ``eval`` the exact bits
of a fresh encode. The basis is stored because it is an SVD that every
``eval --sweep`` would otherwise redo on the same rows; ``search`` never
needs it, so a gallery built on a miss computes it only when ``eval`` asks.
The multimodal rows are not stored: building them costs little more than
reading and checksumming them would.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from . import eval as evalmod, model, synth
from ._fileio import Reader, atomic_write_bytes, with_crc32
from .errors import CorruptFile

__all__ = ["GALLERY_FILE", "GALLERY_VERSION", "Gallery", "embed", "content_key",
           "save_gallery", "load_gallery", "write_beside", "cached"]

GALLERY_MAGIC = b"BLGAL003"
GALLERY_FILE = "gallery.blg"
# Bump whenever the encoders' output bits, the format or the dataset validation
# change, so that galleries written by older code stop matching;
# tests/test_gallery.py pins the encoder bits per version.
GALLERY_VERSION = 3

@dataclass(frozen=True)
class Gallery:
    ids: np.ndarray     # (n,) int64, train rows then holdout rows
    n_train: int        # rows [0, n_train) are the train split
    labels: np.ndarray  # (n, len(synth.ATTRIBUTE_NAMES)) int64 attributes
    photo: np.ndarray   # (n, d) photo-set embeddings
    text: np.ndarray    # (n, d) text embeddings

    @functools.cached_property
    def multimodal(self) -> np.ndarray:
        """(n, d) unit rows along photo + text; the photo row where they cancel."""
        mixed = self.photo + self.text
        norms = np.linalg.norm(mixed, axis=1)
        safe = norms > 1e-12
        return np.where(safe[:, None], mixed / np.where(safe, norms, 1.0)[:, None], self.photo)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """(min(2n, d), d) eval.sweep_basis of the text and photo rows; load_gallery reads it."""
        return evalmod.sweep_basis(self.text, self.photo)


def embed(ps, te, train, holdout) -> Gallery:
    """Every record's id, labels and photo-set and text embedding, train rows first."""
    records = [*train, *holdout]
    photos, counts = synth.pack_photos(records)
    return Gallery(ids=np.array([r.id for r in records], dtype=np.int64),
                   n_train=len(train),
                   labels=np.array([[r.attributes[a] for a in synth.ATTRIBUTE_NAMES] for r in records],
                                   dtype=np.int64),
                   photo=model.encode_photoset_batch(ps, photos, counts),
                   text=model.encode_text(te, synth.pack_texts(records)))


def content_key(model_path: str, data_dir: str) -> bytes:
    """sha256 of the gallery version and every input file's name, length and bytes."""
    digest = hashlib.sha256(b"listalign gallery %d\n" % GALLERY_VERSION)
    inputs = [("checkpoint", model_path)]
    inputs += [(rel, os.path.join(data_dir, *rel.split("/"))) for rel in synth.SPLIT_FILES]
    for name, path in inputs:
        with open(path, "rb") as fh:
            blob = fh.read()
        digest.update(b"%s %d\n" % (name.encode(), len(blob)))
        digest.update(blob)
    return digest.digest()


def save_gallery(path: str, key: bytes, gallery: Gallery) -> None:
    n, d = gallery.photo.shape
    head = b"".join(np.asarray(a, dtype="<i8").tobytes()
                    for a in ([n, d, gallery.n_train], gallery.ids, gallery.labels))
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for a in (gallery.photo, gallery.text, gallery.basis))
    atomic_write_bytes(path, with_crc32(GALLERY_MAGIC + key + head + body))


def load_gallery(path: str) -> tuple[bytes, Gallery]:
    """(content key, gallery); anything save_gallery would not write is CorruptFile."""
    r = Reader(path, GALLERY_MAGIC, checksum=True)
    key = r.raw(32)
    n, d, n_train = (int(v) for v in r.i64(3))
    if not 1 <= n_train < n:
        raise CorruptFile(f"{path}: n_train {n_train} outside [1, {n})")
    gallery = Gallery(ids=r.i64(n), n_train=n_train,
                      labels=r.view("<i8", (n, len(synth.ATTRIBUTE_NAMES))),
                      photo=r.f64((n, d)), text=r.f64((n, d)))
    vars(gallery)["basis"] = r.f64((min(2 * n, d), d))  # where the cached property keeps its value
    r.end()
    return key, gallery


def write_beside(model_path: str, data_dir: str, train, holdout) -> None:
    """Encode both splits with the checkpoint as saved and write the gallery beside it."""
    ps, te, _extra = model.load_checkpoint(model_path)
    path = os.path.join(os.path.dirname(model_path), GALLERY_FILE)
    save_gallery(path, content_key(model_path, data_dir), embed(ps, te, train, holdout))


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
