"""Session fixtures: desk-scale reference training runs shared across tests.

The standard setup is 512 synthetic listings (12-d latent, 16-d photo and text
features, up to 8 photos), a 2-layer/4-head set encoder at width 32 projecting
to 64 dims, and a 3-layer text tower. Training is the two-stage recipe: set
encoder against a frozen text tower first, then the last two text layers
unfreeze at a fifth of the learning rate. Three seeds are trained once per
session and reused by every test that needs a real trained model.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from listalign import align, eval as evalmod, gallery, model, synth
from listalign.errors import CorruptFile

SEEDS = (0, 1, 2)
HOLDOUT_FRACTION = 0.1

GENERATOR = dict(
    n_listings=512, d_latent=12, d_photo=16, d_text=16, p_max=8,
    photo_noise=0.05, text_noise=0.05,
)
ENCODER = dict(d_in=16, d_model=32, n_layers=2, n_heads=4, d_out=64, p_max=8)
TEXT_DIMS = (16, 48, 48, 64)


def assert_every_prefix_corrupt(path, load):
    """Every strict prefix of the file at path makes load raise CorruptFile."""
    data = path.read_bytes()
    cut = path.with_name("cut-" + path.name)
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(CorruptFile):
            load(str(cut))


def standard_dataset(seed):
    cfg = synth.GeneratorConfig(seed=seed, **GENERATOR)
    records = synth.generate(cfg)
    return synth.split(records, HOLDOUT_FRACTION, seed=seed)


def standard_towers(seed, pool="last"):
    ps = model.init_set_encoder(model.SetEncoderConfig(pool=pool, **ENCODER), seed=seed)
    te = model.init_text_tower(model.TextTowerConfig(dims=TEXT_DIMS), seed=seed + 1)
    return ps, te


def two_stage_schedule(seed):
    return align.TrainSchedule(
        stages=(
            align.TrainStage(epochs=30, lr=3e-3),
            align.TrainStage(epochs=15, lr=6e-4, unfreeze_text_layers=(1, 2)),
        ),
        batch_size=64, seed=seed, warmup_steps=20, eval_ks=(1, 5, 10),
    )


def single_stage_schedule(seed):
    """Equal total epochs, everything trainable from the first step."""
    return align.TrainSchedule(
        stages=(align.TrainStage(epochs=45, lr=3e-3, unfreeze_text_layers=(0, 1, 2)),),
        batch_size=64, seed=seed, warmup_steps=20, eval_ks=(1,),
    )


@dataclass
class TrainedRun:
    seed: int
    train_records: list
    holdout_records: list
    ps: object
    te: object
    result: object
    ps_emb: np.ndarray         # all records, train rows first
    tx_emb: np.ndarray
    untrained_ps_emb: np.ndarray
    untrained_tx_emb: np.ndarray
    train_seconds: float

    @property
    def records(self):
        return self.train_records + self.holdout_records

    @property
    def holdout_rows(self):
        return np.arange(len(self.train_records), len(self.records))


@pytest.fixture(scope="session")
def trained_runs():
    runs = {}
    for seed in SEEDS:
        train_recs, holdout_recs = standard_dataset(seed)
        ps0, te0 = standard_towers(seed)
        untrained = gallery.embed(ps0, te0, train_recs, holdout_recs)
        ps, te = standard_towers(seed)
        started = time.time()
        result = align.train(
            train_recs, holdout_recs, ps, te,
            align.LossConfig(kind="infonce"), two_stage_schedule(seed),
        )
        elapsed = time.time() - started
        trained = gallery.embed(ps, te, train_recs, holdout_recs)
        runs[seed] = TrainedRun(
            seed=seed, train_records=train_recs, holdout_records=holdout_recs,
            ps=ps, te=te, result=result, ps_emb=trained.photo, tx_emb=trained.text,
            untrained_ps_emb=untrained.photo, untrained_tx_emb=untrained.text,
            train_seconds=elapsed,
        )
    return runs


@pytest.fixture(scope="session")
def single_stage_mean_ranks():
    """Final holdout mean rank (text to photoset) for the one-stage baseline."""
    ranks = {}
    for seed in SEEDS:
        train_recs, holdout_recs = standard_dataset(seed)
        ps, te = standard_towers(seed)
        align.train(
            train_recs, holdout_recs, ps, te,
            align.LossConfig(kind="infonce"), single_stage_schedule(seed),
        )
        embedded = gallery.embed(ps, te, train_recs, holdout_recs)
        q = np.arange(len(train_recs), len(train_recs) + len(holdout_recs))
        m = evalmod.retrieval_metrics(embedded.text, embedded.photo, ks=(1,), query_indices=q)
        ranks[seed] = m.mean_rank_t2i
    return ranks
