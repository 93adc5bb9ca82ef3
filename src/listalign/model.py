"""Photo-set transformer encoder and text projection tower.

The set encoder embeds each photo, adds a learned per-position embedding,
runs pre-norm transformer layers whose attention masks padded positions, pools
at the last real photo (or mean-pools over real photos as an ablation), projects
to the output width, and L2-normalizes. The text tower is a stack of affine +
GELU layers with a linear head, also L2-normalized. Both towers produce unit
vectors in the same space; forward_batch pairs them into a cosine logit matrix.

All math runs in float64 through autodiff ops. forward_batch records them on a
tape; the encode_* functions run without one, so their ops record nothing and
each intermediate is freed once used. Affine maps, layer norms, the attention
softmax and the attention head split and merge are fused autodiff ops, one tape
node each; a fused op's forward replays its composite's numpy operations
exactly, so the encoders' output bits are those of the composite graph. Every
per-slot layer, the input projection included, runs on real photo slots only.
Layer statistics are always per example, and padded photo rows cannot
influence real positions, so encoding a listing alone or inside any batch is
bit-identical.

Checkpoint format: magic "BLMODEL1", u32 header length, canonical-JSON header
(architecture, freeze flags, parameter manifest), float32 payload in manifest
order, little-endian.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from ._fileio import Reader, atomic_write_bytes, pack_f32, pack_u32
from ._schema import parse_dataclass
from .autodiff import Tape, Var
from .errors import ConfigError, CorruptFile, DegenerateInput, ShapeMismatch

__all__ = [
    "SetEncoderConfig",
    "SetEncoderParams",
    "TextTowerConfig",
    "TextTowerParams",
    "init_set_encoder",
    "init_text_tower",
    "set_text_freeze",
    "encode_photoset",
    "encode_photoset_batch",
    "encode_text",
    "forward_batch",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]

CKPT_MAGIC = b"BLMODEL1"
LN_EPS = 1e-5
NORM_GUARD = 1e-12
INIT_STD = 0.02
POS_INIT_STD = 0.1


# ---------------------------------------------------------------------------
# configs and parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetEncoderConfig:
    d_in: int
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 4
    d_out: int = 64
    p_max: int = 8
    pool: str = "last"  # "last" or "mean"

    def validate(self) -> None:
        if min(self.d_in, self.d_model, self.n_layers, self.n_heads, self.d_out, self.p_max) < 1:
            raise ConfigError("set encoder: all sizes must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"set encoder: d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.pool not in ("last", "mean"):
            raise ConfigError(f"set encoder: unknown pooling {self.pool!r}")


@dataclass
class SetEncoderParams:
    config: SetEncoderConfig
    tensors: dict[str, Var]  # name -> trainable Var, in manifest order

    def named(self):
        return list(self.tensors.items())


@dataclass(frozen=True)
class TextTowerConfig:
    dims: tuple  # (d_text, hidden..., d_out)

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def validate(self) -> None:
        if len(self.dims) < 2:
            raise ConfigError("text tower: need at least input and output dims")
        if min(self.dims) < 1:
            raise ConfigError("text tower: all dims must be >= 1")


@dataclass
class TextTowerParams:
    config: TextTowerConfig
    tensors: dict[str, Var]

    @property
    def frozen(self) -> list[bool]:
        """Per layer: whether set_text_freeze has stopped its gradients."""
        return [not self.tensors[f"text{i}.w"].requires_grad for i in range(self.config.n_layers)]

    def named(self):
        return list(self.tensors.items())


_LAYER_TENSORS = (  # name, shape in d_model units, init kind
    ("ln1_g", (1,), "gain"), ("ln1_b", (1,), "bias"),
    ("w_q", (1, 1), "weight"), ("b_q", (1,), "bias"),
    ("w_k", (1, 1), "weight"), ("b_k", (1,), "bias"),
    ("w_v", (1, 1), "weight"), ("b_v", (1,), "bias"),
    ("w_o", (1, 1), "weight"), ("b_o", (1,), "bias"),
    ("ln2_g", (1,), "gain"), ("ln2_b", (1,), "bias"),
    ("w_ff1", (1, 4), "weight"), ("b_ff1", (4,), "bias"),
    ("w_ff2", (4, 1), "weight"), ("b_ff2", (1,), "bias"),
)
_INIT_STD = {"weight": INIT_STD, "pos": POS_INIT_STD}


def _set_encoder_layout(config: SetEncoderConfig) -> list:
    """(name, shape, init kind) of every set-encoder tensor, in manifest order."""
    config.validate()
    dm = config.d_model
    layout = [("w_in", (config.d_in, dm), "weight"), ("b_in", (dm,), "bias"),
              ("pos_emb", (config.p_max, dm), "pos")]
    for i in range(config.n_layers):
        layout += [(f"layer{i}.{name}", tuple(dm * u for u in units), kind)
                   for name, units, kind in _LAYER_TENSORS]
    return layout + [("w_out", (dm, config.d_out), "weight"), ("b_out", (config.d_out,), "bias")]


def _text_layout(config: TextTowerConfig) -> list:
    """(name, shape, init kind) of every text-tower tensor, in manifest order."""
    config.validate()
    layout = []
    for i in range(config.n_layers):
        layout += [(f"text{i}.w", (config.dims[i], config.dims[i + 1]), "weight"),
                   (f"text{i}.b", (config.dims[i + 1],), "bias")]
    return layout


def _tensors(layout, rng) -> dict[str, Var]:
    """One trainable Var per layout entry: weights drawn from rng in layout
    order, zero biases and unit gains; all zeros when rng is None."""
    t: dict[str, Var] = {}
    for name, shape, kind in layout:
        if rng is None or kind == "bias":
            value = np.zeros(shape)
        elif kind == "gain":
            value = np.ones(shape)
        else:
            value = rng.normal(scale=_INIT_STD[kind], size=shape)
        t[name] = ad.param(value)
    return t


def init_set_encoder(config: SetEncoderConfig, seed: int = 0) -> SetEncoderParams:
    """Normal(0, 0.02) weights, zero biases, unit layer-norm gains."""
    layout = _set_encoder_layout(config)
    return SetEncoderParams(config=config, tensors=_tensors(layout, np.random.default_rng(seed)))


def init_text_tower(config: TextTowerConfig, seed: int = 0) -> TextTowerParams:
    layout = _text_layout(config)
    return TextTowerParams(config=config, tensors=_tensors(layout, np.random.default_rng(seed)))


def set_text_freeze(params: TextTowerParams, unfrozen_layers) -> None:
    """Freeze every text layer except the given indices.

    Frozen tensors stop requiring gradients; the optimizer leaves them (and
    their state) untouched, bit for bit.
    """
    n = params.config.n_layers
    unfrozen = set(unfrozen_layers)
    for i in unfrozen:
        if not 0 <= i < n:
            raise ConfigError(f"text tower has {n} layers, cannot unfreeze layer {i}")
    for i in range(n):
        live = i in unfrozen
        params.tensors[f"text{i}.w"].requires_grad = live
        params.tensors[f"text{i}.b"].requires_grad = live


# ---------------------------------------------------------------------------
# graph builders
# ---------------------------------------------------------------------------

def _l2_normalize_rows(y: Var) -> Var:
    """Unit-normalize rows; rows with norm < 1e-12 become the first basis vector."""
    norms = ad.sqrt((y * y).sum(axis=-1, keepdims=True))
    safe = norms.value >= NORM_GUARD
    if safe.all():
        return y / norms
    denom = norms + ad.constant(np.where(safe, 0.0, 1.0))
    fallback = np.zeros(y.value.shape)
    fallback[..., 0] = 1.0
    mask = safe.astype(np.float64)
    return (y / denom) * mask + ad.constant(fallback * (1.0 - mask))


def _attention(h: Var, slots: np.ndarray, out_slots: np.ndarray, mask: np.ndarray,
               p: SetEncoderParams, i: int) -> Var:
    """Layer i's masked self-attention over the real slot rows h (R, d_model).

    slots and out_slots are flat (listing * p_max + position) indices: the
    slots h holds, and the slots whose outputs are wanted. Only the attention
    core runs in the padded (B, H, P, d_h) layout, with zero Q/K/V rows at
    padded slots; a padded key's -inf mask gives it a softmax weight of
    exactly 0, so real rows keep the bits of a fully padded computation.
    """
    cfg = p.config
    t = p.tensors
    B, _, _, P = mask.shape
    H = cfg.n_heads
    shape = (B, P, H, cfg.d_model // H)
    pre = f"layer{i}."

    def heads(name: str, axes=(0, 2, 1, 3)) -> Var:
        rows = ad.linear(h, t[pre + "w_" + name], t[pre + "b_" + name])
        return ad.split_heads(rows, slots, shape, axes)

    q = heads("q")
    k_t = heads("k", (0, 2, 3, 1))  # (B, H, d_h, P): already transposed for q @ k^T
    v = heads("v")
    scores = q @ k_t * (1.0 / np.sqrt(shape[-1]))
    scores = scores + ad.constant(mask)  # -inf on padded key positions
    ctx = ad.merge_heads(ad.softmax(scores, axis=-1) @ v, out_slots)
    return ad.linear(ctx, t[pre + "w_o"], t[pre + "b_o"])


def _encode_photoset_graph(p: SetEncoderParams, photos: np.ndarray, counts: np.ndarray) -> Var:
    """(B, p_max, d_in) padded photo buffers -> (B, d_out) unit rows.

    The residual stream holds real photo slots only, (R, d_model) for
    R = counts.sum(), from the input projection on, so per-slot layers do no
    work on padding. With last pooling the final layer's output projection
    and FFN run on the pooled slot alone.
    """
    cfg = p.config
    t = p.tensors
    B, P, d_in = photos.shape
    real = np.arange(P)[None, :] < counts[:, None]
    slots = np.flatnonzero(real)
    mask4 = np.where(real, 0.0, -np.inf).reshape(B, 1, 1, P)
    x = ad.linear(photos.reshape(-1, d_in)[slots], t["w_in"], t["b_in"])
    if cfg.pool == "last":
        # mean pooling is the order-free ablation: no positional table, so the
        # encoder sees the photos as a pure set
        x = x + t["pos_emb"][slots % P]
    last_rows = np.cumsum(counts) - 1  # each listing's last real slot, as a row of x
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        h = ad.layer_norm(x, t[pre + "ln1_g"], t[pre + "ln1_b"], LN_EPS)
        if cfg.pool == "last" and i == cfg.n_layers - 1:
            x = x[last_rows] + _attention(h, slots, slots[last_rows], mask4, p, i)
        else:
            x = x + _attention(h, slots, slots, mask4, p, i)
        h = ad.layer_norm(x, t[pre + "ln2_g"], t[pre + "ln2_b"], LN_EPS)
        h = ad.gelu(ad.linear(h, t[pre + "w_ff1"], t[pre + "b_ff1"]))
        x = x + ad.linear(h, t[pre + "w_ff2"], t[pre + "b_ff2"])
    if cfg.pool == "last":
        pooled = x
    else:
        padded = ad.put_rows(x, slots, (B, P, cfg.d_model))  # padded slots are 0
        pooled = padded.sum(axis=1) / ad.constant(counts.astype(np.float64)[:, None])
    return _l2_normalize_rows(ad.linear(pooled, t["w_out"], t["b_out"]))


def _encode_text_graph(p: TextTowerParams, texts: np.ndarray) -> Var:
    t = p.tensors
    x = texts
    n = p.config.n_layers
    for i in range(n):
        x = ad.linear(x, t[f"text{i}.w"], t[f"text{i}.b"])
        if i < n - 1:
            x = ad.gelu(x)
    return _l2_normalize_rows(x)


def _check_photo_batch(cfg: SetEncoderConfig, photos: np.ndarray, counts: np.ndarray) -> None:
    if photos.ndim != 3 or photos.shape[1] != cfg.p_max or photos.shape[2] != cfg.d_in:
        raise ShapeMismatch(
            f"photos must be (B, {cfg.p_max}, {cfg.d_in}) buffers, got {photos.shape}"
        )
    if counts.shape != (photos.shape[0],):
        raise ShapeMismatch("counts must be one int per photo set")
    if np.any(counts < 1) or np.any(counts > cfg.p_max):
        raise DegenerateInput(f"photo counts must lie in [1, {cfg.p_max}]")
    if not np.isfinite(photos).all():
        raise DegenerateInput("photos contain NaN or Inf")


# ---------------------------------------------------------------------------
# public encoders
# ---------------------------------------------------------------------------

def encode_photoset_batch(p: SetEncoderParams, photos, counts) -> np.ndarray:
    """Encode padded photo buffers (B, p_max, d_in) to unit rows (B, d_out)."""
    photos = np.asarray(photos, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    _check_photo_batch(p.config, photos, counts)
    return _encode_photoset_graph(p, photos, counts).value


def encode_photoset(p: SetEncoderParams, photos, count: int) -> np.ndarray:
    """Encode one photo set. Rows at or past count are ignored; shorter inputs
    are zero-padded up to p_max."""
    photos = np.asarray(photos, dtype=np.float64)
    if photos.ndim != 2 or photos.shape[1] != p.config.d_in:
        raise ShapeMismatch(f"photos must be (P, {p.config.d_in}), got {photos.shape}")
    if not 1 <= count <= min(photos.shape[0], p.config.p_max):
        raise DegenerateInput(
            f"count {count} outside [1, min(rows={photos.shape[0]}, p_max={p.config.p_max})]"
        )
    buf = np.zeros((p.config.p_max, p.config.d_in))
    buf[:count] = photos[:count]
    return encode_photoset_batch(p, buf[None], np.array([count]))[0]


def encode_text(p: TextTowerParams, texts) -> np.ndarray:
    """Encode text feature rows (n, d_text) -> unit rows (n, d_out)."""
    texts = np.asarray(texts, dtype=np.float64)
    single = texts.ndim == 1
    if single:
        texts = texts[None]
    if texts.ndim != 2 or texts.shape[1] != p.config.dims[0]:
        raise ShapeMismatch(f"texts must have {p.config.dims[0]} columns, got {texts.shape}")
    if not np.isfinite(texts).all():
        raise DegenerateInput("texts contain NaN or Inf")
    out = _encode_text_graph(p, texts).value
    return out[0] if single else out


def forward_batch(ps: SetEncoderParams, te: TextTowerParams, photos, counts, texts):
    """Build the paired forward graph for one training batch.

    Returns (logits, tape): logits is a (B, B) Var of cosine similarities,
    logits[i, j] = photoset_i . text_j, recorded on a fresh tape that is still
    open for loss construction (enter it again with ``with tape:``).
    """
    photos = np.asarray(photos, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    texts = np.asarray(texts, dtype=np.float64)
    _check_photo_batch(ps.config, photos, counts)
    if photos.shape[0] < 2:
        raise DegenerateInput("forward_batch: need at least 2 listings")
    if texts.shape[0] != photos.shape[0]:
        raise ShapeMismatch("forward_batch: photos and texts disagree on batch size")
    tape = Tape()
    with tape:
        ps_emb = _encode_photoset_graph(ps, photos, counts)
        text_emb = _encode_text_graph(te, texts)
        logits = ps_emb @ ad.transpose(text_emb, (1, 0))
    return logits, tape


def backward(tape: Tape, loss: Var, *param_groups) -> dict[str, np.ndarray]:
    """Gradients for every tensor in the given parameter groups.

    Frozen or unreached tensors get exact zeros. Consumes the tape.
    """
    raw = ad.backward(tape, loss)
    out: dict[str, np.ndarray] = {}
    for group in param_groups:
        for name, var in group.named():
            if name in out:
                raise ConfigError(f"duplicate parameter name {name!r} across groups")
            grad = raw.get(id(var))
            out[name] = np.zeros_like(var.value) if grad is None else grad
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _manifest(params: SetEncoderParams | TextTowerParams) -> list:
    return [[name, list(var.value.shape)] for name, var in params.named()]


def save_checkpoint(path: str, ps: SetEncoderParams, te: TextTowerParams, extra=None) -> None:
    """Write both towers (and any extra named scalars) as one BLMODEL1 file."""
    extra = extra or {}
    header = {
        "set_encoder": asdict(ps.config),
        "text_tower": {"dims": list(te.config.dims), "frozen": list(te.frozen)},
        "manifest": _manifest(ps) + _manifest(te) + [[k, list(np.shape(v))] for k, v in extra.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = [pack_f32(var.value) for _, var in ps.named() + te.named()]
    payload += [pack_f32(v) for v in extra.values()]
    atomic_write_bytes(path, CKPT_MAGIC + pack_u32(len(blob)) + blob + b"".join(payload))


def _int_list(value, what: str) -> list:
    if not (isinstance(value, list) and all(type(v) is int and v >= 0 for v in value)):
        raise ConfigError(f"{what} must be a list of non-negative integers")
    return value


def _read_header(r: Reader):
    """Parse the JSON header into zero-filled towers, freeze flags and manifest.

    Anything that is not the header save_checkpoint writes is CorruptFile.
    """
    try:
        header = json.loads(r.raw(r.u32()).decode("utf-8"))
        se = parse_dataclass(SetEncoderConfig, header["set_encoder"], "set_encoder")
        ps = SetEncoderParams(config=se, tensors=_tensors(_set_encoder_layout(se), None))
        text = header["text_tower"]
        tc = TextTowerConfig(dims=tuple(_int_list(text["dims"], "text_tower.dims")))
        te = TextTowerParams(config=tc, tensors=_tensors(_text_layout(tc), None))
        frozen = text["frozen"]
        if not (
            isinstance(frozen, list)
            and len(frozen) == te.config.n_layers
            and all(type(f) is bool for f in frozen)
        ):
            raise ConfigError("text_tower.frozen must be one boolean per text layer")
        manifest = []
        for name, shape in header["manifest"]:
            if type(name) is not str:
                raise ConfigError("manifest names must be strings")
            manifest.append((name, tuple(_int_list(shape, f"shape of {name}"))))
    except (ValueError, KeyError, TypeError, RecursionError, ConfigError) as exc:
        raise CorruptFile(f"{r.path}: malformed checkpoint header: {exc}") from None
    return ps, te, frozen, manifest


def load_checkpoint(path: str):
    """Read a checkpoint: (set encoder params, text tower params, extra dict)."""
    r = Reader(path, CKPT_MAGIC)
    ps, te, frozen, manifest = _read_header(r)
    known = dict(ps.named() + te.named())
    names = [name for name, _ in manifest]
    if len(set(names)) != len(names):
        raise CorruptFile(f"{path}: repeated tensor name in the manifest")
    missing = sorted(set(known) - set(names))
    if missing:
        raise CorruptFile(f"{path}: manifest lacks tensors {missing}")
    extra = {}
    for name, shape in manifest:
        if name in known and shape != known[name].value.shape:
            raise CorruptFile(
                f"{path}: {name} has shape {list(shape)}, the architecture needs "
                f"{list(known[name].value.shape)}"
            )
        arr = r.f32(shape)
        if name in known:
            known[name].value = arr
        else:
            extra[name] = arr
    r.end()
    set_text_freeze(te, [i for i, f in enumerate(frozen) if not f])
    return ps, te, extra
