"""Contrastive alignment training: losses, optimizer, and the two-stage driver.

LOSS_HEADS maps each LossConfig.kind to its initial "loss.*" scalars and its
loss. The softmax head ("infonce") scales the cosine logit matrix by a
learnable inverse temperature (initialized to 14) and averages row-wise and
column-wise cross-entropy against the diagonal. The sigmoid head ("siglip")
scores every pair independently: mean over all B^2 entries of
log(1 + exp(-z_ij * (t * logit_ij + b))) with z = +1 on the diagonal and -1 off
it, t initialized to 10 and b to -10. Each head's first scalar is the log of
its logit multiplier, keeping it positive; temperature() reads that scalar.

Training runs staged: each stage sets its own learning rate and its own set of
unfrozen text-tower layers (the set encoder always trains). Adam uses decoupled
weight decay, linear warmup, and cosine decay over a shared step counter.
Everything is deterministic for a fixed schedule seed.

A parameter set is one ordered dict[str, Var]. train builds it once from the
set encoder's tensors, the text tower's, then the loss scalars, and trains it
in place; model.backward, init_adam_state and adam_step all take it, so
gradients, moments and updates follow that one order.

init_adam_state packs the set into one contiguous float64 arena and rebinds
each Var.value to its view; Adam's moments and a gradient buffer are flat
arrays with the same offsets, so the state alone owns the layout. adam_step
copies model.backward's gradients into that buffer and updates each run of
consecutive trainable tensors in one pass of in-place arithmetic, skipping
frozen ranges. IEEE arithmetic rounds each element the same way into a new
array or an out= buffer, and the pass keeps the per-tensor formula's
operation order, so the bits are those of one update per tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import eval as evalmod
from . import model as modelmod
from ._fileio import write_csv, write_jsonl
from .autodiff import Var
from .errors import ConfigError, DegenerateInput, DetachedParameter, ShapeMismatch
from .synth import pack_photos, pack_texts

__all__ = [
    "LossConfig",
    "LOSS_HEADS",
    "create_loss_params",
    "temperature",
    "infonce_loss",
    "siglip_loss",
    "compute_loss",
    "AdamHyper",
    "AdamState",
    "init_adam_state",
    "adam_step",
    "learning_rate_at",
    "TrainStage",
    "TrainSchedule",
    "TrainLog",
    "TrainResult",
    "train",
]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossConfig:
    kind: str = "infonce"  # a LOSS_HEADS key
    init_inv_temp: float = 14.0  # softmax head: logits are multiplied by this
    init_t: float = 10.0         # sigmoid head multiplier
    init_b: float = -10.0        # sigmoid head bias

    def __post_init__(self) -> None:
        if self.kind not in LOSS_HEADS:
            kinds = " or ".join(repr(k) for k in LOSS_HEADS)
            raise ConfigError(f"loss kind must be {kinds}, got {self.kind!r}")
        if self.init_inv_temp <= 0 or self.init_t <= 0:
            raise ConfigError("loss temperature initializers must be positive")


def _check_logits(logits, min_b: int) -> Var:
    lv = logits if isinstance(logits, Var) else ad.constant(np.asarray(logits, dtype=np.float64))
    if lv.value.ndim != 2 or lv.value.shape[0] != lv.value.shape[1]:
        raise ShapeMismatch(f"logits must be square, got shape {lv.value.shape}")
    if lv.value.shape[0] < min_b:
        raise DegenerateInput(f"need a batch of at least {min_b}, got {lv.value.shape[0]}")
    if not np.isfinite(lv.value).all():
        raise DegenerateInput("logits contain NaN or Inf")
    return lv


def infonce_loss(logits, temperature=1.0) -> Var:
    """Symmetric cross-entropy against the diagonal.

    Rows treat photoset i against all texts, columns treat text j against all
    photosets; the two cross-entropies are averaged. temperature divides the
    logits and may be a Var for a learnable value.
    """
    lv = _check_logits(logits, min_b=2)
    b = lv.value.shape[0]
    scaled = lv / temperature
    diag = (np.arange(b), np.arange(b))
    loss_rows = -(ad.log_softmax(scaled, axis=1)[diag]).mean()
    loss_cols = -(ad.log_softmax(scaled, axis=0)[diag]).mean()
    return (loss_rows + loss_cols) * 0.5


def siglip_loss(logits, temperature=1.0, bias=0.0) -> Var:
    """Pairwise sigmoid loss over all B^2 pairs.

    Positive pairs sit on the diagonal (sign +1), every off-diagonal pair is a
    negative (sign -1); each contributes log(1 + exp(-sign * (t * logit + b))).
    """
    lv = _check_logits(logits, min_b=1)
    b = lv.value.shape[0]
    signs = ad.constant(2.0 * np.eye(b) - 1.0)
    scaled = lv * temperature + bias
    return (-ad.log_sigmoid(signs * scaled)).mean()


# kind -> (initial loss.* scalars from a LossConfig, loss of a logit matrix
# given those scalars as Vars); each head's first scalar is its log multiplier
LOSS_HEADS = {
    "infonce": (
        lambda c: {"loss.log_inv_temp": np.log(c.init_inv_temp)},
        lambda s, logits: infonce_loss(logits, temperature=ad.exp(-s["loss.log_inv_temp"])),
    ),
    "siglip": (
        lambda c: {"loss.log_t": np.log(c.init_t), "loss.bias": np.float64(c.init_b)},
        lambda s, logits: siglip_loss(logits, temperature=ad.exp(s["loss.log_t"]), bias=s["loss.bias"]),
    ),
}


def create_loss_params(config: LossConfig) -> dict[str, Var]:
    """The trainable loss scalars of config's head, in the head's order."""
    return {name: ad.param(value) for name, value in LOSS_HEADS[config.kind][0](config).items()}


def temperature(scalars: dict[str, Var]) -> float:
    """1 / the head's logit multiplier: the softmax divisor, or 1/t for sigmoid."""
    return float(np.exp(-next(iter(scalars.values())).value))


def compute_loss(kind: str, scalars: dict[str, Var], logits) -> Var:
    """Loss of a logit matrix under the kind's trainable loss scalars."""
    return LOSS_HEADS[kind][1](scalars, logits)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdamHyper:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("adam eps must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be >= 0")


@dataclass
class AdamState:
    """Adam's moments over one parameter arena.

    arena holds every tensor of a parameter set back to back in the set's
    order, and each Var.value is a view of it. m and v are the moments with
    the same offsets, and spans[name] is a tensor's (start, stop) in all
    three. work holds two rows of the arena's length, kept so that a step
    allocates nothing: the gradients in the same layout, which the update
    then overwrites, and a scratch row.
    """

    arena: np.ndarray
    spans: dict[str, tuple[int, int]]
    m: np.ndarray
    v: np.ndarray
    work: np.ndarray


def init_adam_state(params: dict[str, Var]) -> AdamState:
    """Pack params into one arena, rebinding each Var.value to its view, and
    start zero moments in the same layout. Values keep their bits."""
    spans = {}
    size = 0
    for name, var in params.items():
        spans[name] = (size, size + var.value.size)
        size += var.value.size
    arena = np.empty(size)
    for name, var in params.items():
        lo, hi = spans[name]
        shape = var.value.shape
        arena[lo:hi] = var.value.ravel()
        var.value = arena[lo:hi].reshape(shape)
    return AdamState(arena=arena, spans=spans, m=np.zeros(size), v=np.zeros(size),
                     work=np.empty((2, size)))


def learning_rate_at(step: int, base_lr: float, warmup_steps: int, horizon: int) -> float:
    """base_lr x linear warmup (step/warmup, capped at 1) x cosine decay."""
    warm = min(1.0, step / warmup_steps) if warmup_steps > 0 else 1.0
    progress = min(1.0, step / horizon) if horizon > 0 else 0.0
    return base_lr * warm * 0.5 * (1.0 + np.cos(np.pi * progress))


def _gather_gradients(params: dict[str, Var], grads: dict[str, np.ndarray],
                      state: AdamState) -> list[list[int]]:
    """Copy each trainable tensor's gradient to its span of state.work[0] and
    return the [start, stop) ranges of consecutive trainable tensors, in order."""
    runs: list[list[int]] = []
    for name, var in params.items():
        if not var.requires_grad:
            continue
        if var.value.base is not state.arena:
            raise DetachedParameter(
                f"{name}: its value was rebound after init_adam_state and is no longer a view "
                "of the parameter arena, so an update would not reach it"
            )
        g = grads[name]
        if np.shape(g) != var.value.shape:
            raise ShapeMismatch(f"{name}: gradient shape {np.shape(g)} is not the tensor's "
                                f"{var.value.shape}")
        lo, hi = state.spans[name]
        state.work[0, lo:hi].reshape(var.value.shape)[...] = g
        if runs and runs[-1][1] == lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return runs


def adam_step(params: dict[str, Var], grads: dict[str, np.ndarray], state: AdamState,
              hyper: AdamHyper, step_index: int, lr: float) -> None:
    """One Adam update with bias correction and decoupled weight decay.

    The trainable tensors' gradients are copied into the arena's layout, and
    the update is one pass of in-place arithmetic over each run of
    consecutive trainable tensors, in the order of the per-tensor formula, so
    each element gets the same bits. Frozen tensors (requires_grad False) are
    skipped entirely: neither their values nor their moments change. A
    trainable tensor whose value is no longer an arena view raises
    DetachedParameter, and a gradient not shaped as its tensor ShapeMismatch.
    """
    runs = _gather_gradients(params, grads, state)
    t = step_index + 1
    bc1 = 1.0 - hyper.beta1**t
    bc2 = 1.0 - hyper.beta2**t
    for lo, hi in runs:
        g, tmp = state.work[:, lo:hi]
        m, v, x = state.m[lo:hi], state.v[lo:hi], state.arena[lo:hi]
        # m = beta1 * m + (1 - beta1) * g
        m *= hyper.beta1
        np.multiply(g, 1.0 - hyper.beta1, out=tmp)
        m += tmp
        # v = beta2 * v + (1 - beta2) * (g * g)
        v *= hyper.beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - hyper.beta2
        v += tmp
        # update = (m / bc1) / (sqrt(v / bc2) + eps), in g's row
        update = np.divide(m, bc1, out=g)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += hyper.eps
        update /= tmp
        # x = x - lr * (update + weight_decay * x)
        np.multiply(x, hyper.weight_decay, out=tmp)
        tmp += update
        tmp *= lr
        x -= tmp


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainStage:
    epochs: int = 1
    lr: float = 1e-3
    unfreeze_text_layers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("each stage needs epochs >= 1")
        if self.lr <= 0:
            raise ConfigError("stage learning rate must be positive")


@dataclass(frozen=True)
class TrainSchedule:
    stages: tuple[TrainStage, ...] = ()
    batch_size: int = 64
    seed: int = 0
    warmup_steps: int = 0
    cosine_horizon: int | None = None  # None: total optimizer steps
    adam: AdamHyper = field(default_factory=AdamHyper)
    grad_accum: int = 1
    eval_ks: tuple[int, ...] = (1, 5, 10)

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
        if self.cosine_horizon is not None and self.cosine_horizon < 1:
            raise ConfigError("cosine_horizon must be >= 1")
        if self.grad_accum < 1:
            raise ConfigError("grad_accum must be >= 1")
        if self.seed < 0:
            raise ConfigError("schedule seed must be >= 0")


# ---------------------------------------------------------------------------
# training log
# ---------------------------------------------------------------------------

@dataclass
class TrainLog:
    steps: list = field(default_factory=list)
    epochs: list = field(default_factory=list)

    def save_jsonl(self, path: str) -> None:
        write_jsonl(path, [{"kind": "step", **s} for s in self.steps]
                    + [{"kind": "epoch", **e} for e in self.epochs])

    def save_epoch_csv(self, path: str) -> None:
        write_csv(path, self.epochs)


@dataclass
class TrainResult:
    loss: dict[str, Var]  # the trained loss scalars; the towers train in place
    log: TrainLog


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _epoch_metrics(ps, te, photos, counts, texts, query_indices, ks):
    ps_emb = modelmod.encode_photoset_batch(ps, photos, counts)
    text_emb = modelmod.encode_text(te, texts)
    metrics = evalmod.retrieval_metrics(text_emb, ps_emb, ks=ks, query_indices=query_indices)
    row = {
        "mean_rank_t2i": metrics.mean_rank_t2i,
        "mean_rank_i2t": metrics.mean_rank_i2t,
    }
    for k in ks:
        row[f"recall_t2i@{k}"] = metrics.recall_t2i[k]
        row[f"recall_i2t@{k}"] = metrics.recall_i2t[k]
    return row


def train(
    train_records,
    holdout_records,
    ps: modelmod.SetEncoderParams,
    te: modelmod.TextTowerParams,
    loss_config: LossConfig,
    schedule: TrainSchedule,
) -> TrainResult:
    """Run the staged schedule, training ps and te in place; returns the trained
    loss scalars and the log.

    Per optimizer step the log records loss, learning rate, and gradient norm;
    per epoch it records holdout retrieval metrics (holdout queries ranked
    against the full train+holdout gallery). An empty schedule leaves the
    parameters untouched.
    """
    n = len(train_records)
    if n < 2:
        raise DegenerateInput("train: need at least 2 training records")
    if schedule.batch_size > n:
        raise ConfigError(f"batch_size {schedule.batch_size} exceeds dataset size {n}")
    for stage in schedule.stages:  # fail fast on bad layer indices
        modelmod.set_text_freeze(te, stage.unfreeze_text_layers)

    scalars = create_loss_params(loss_config)
    params = {**ps.tensors, **te.tensors, **scalars}
    state = init_adam_state(params)
    log = TrainLog()

    photos, counts = pack_photos(train_records)
    texts = pack_texts(train_records)
    everything = list(train_records) + list(holdout_records or [])
    if holdout_records:
        all_photos, all_counts = pack_photos(everything)
        all_texts = pack_texts(everything)
        query_indices = np.arange(n, len(everything))

    batches_per_epoch = n // schedule.batch_size
    steps_per_epoch = -(-batches_per_epoch // schedule.grad_accum)
    total_epochs = sum(s.epochs for s in schedule.stages)
    total_steps = total_epochs * steps_per_epoch
    horizon = schedule.cosine_horizon if schedule.cosine_horizon is not None else total_steps

    step = 0
    epoch = 0
    for stage_idx, stage in enumerate(schedule.stages):
        modelmod.set_text_freeze(te, stage.unfreeze_text_layers)
        for _ in range(stage.epochs):
            order = np.random.default_rng((schedule.seed, epoch)).permutation(n)
            losses = []
            for lo in range(0, batches_per_epoch, schedule.grad_accum):
                group = range(lo, min(lo + schedule.grad_accum, batches_per_epoch))
                grads = None
                for b in group:  # one optimizer step's micro-batches
                    idx = order[b * schedule.batch_size : (b + 1) * schedule.batch_size]
                    logits, tape = modelmod.forward_batch(ps, te, photos[idx], counts[idx], texts[idx])
                    with tape:
                        loss = compute_loss(loss_config.kind, scalars, logits)
                    batch_grads = modelmod.backward(tape, loss, params)
                    losses.append(float(loss.value))
                    grads = batch_grads if grads is None else {
                        name: grads[name] + batch_grads[name] for name in grads}
                if len(group) > 1:  # g / 1.0 == g bit for bit: skip that pass
                    grads = {name: g / len(group) for name, g in grads.items()}
                lr = learning_rate_at(step, stage.lr, schedule.warmup_steps, horizon)
                adam_step(params, grads, state, schedule.adam, step, lr)
                gnorm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
                log.steps.append(
                    {
                        "step": step,
                        "stage": stage_idx,
                        "epoch": epoch,
                        "loss": float(np.mean(losses[-len(group):])),
                        "lr": float(lr),
                        "grad_norm": gnorm,
                    }
                )
                step += 1
            epoch_row = {"epoch": epoch, "stage": stage_idx, "train_loss": float(np.mean(losses))}
            if holdout_records:
                epoch_row.update(
                    _epoch_metrics(ps, te, all_photos, all_counts, all_texts, query_indices, schedule.eval_ks)
                )
            log.epochs.append(epoch_row)
            epoch += 1
    return TrainResult(loss=scalars, log=log)
