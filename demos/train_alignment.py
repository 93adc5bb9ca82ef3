# Train the two-tower model end to end on a small synthetic dataset and
# watch text-to-photoset retrieval sharpen.
#
# Each listing has a hidden latent vector; its photos and its text are both
# noisy views of that latent. The photo-set transformer pools a variable
# number of photo embeddings into one vector, the text tower maps the text
# features into the same space, and the contrastive loss pulls matching
# pairs together. The text tower stays frozen for the first stage (coarse
# alignment) and its upper layers thaw at a lower learning rate afterwards.

import numpy as np

from listalign import align, eval as evaluation, gallery, model, synth

gen = synth.GeneratorConfig(
    n_listings=256, d_latent=10, d_photo=14, d_text=14,
    p_max=6, photo_noise=0.05, text_noise=0.05, seed=42,
)
records = synth.generate(gen)
train_records, holdout_records = synth.split(records, holdout_fraction=0.1, seed=0)
print(f"{len(train_records)} train listings, {len(holdout_records)} holdout")

ps = model.init_set_encoder(model.SetEncoderConfig(
    d_in=gen.d_photo, d_model=32, n_layers=2, n_heads=4, d_out=48, p_max=gen.p_max,
), seed=0)
te = model.init_text_tower(model.TextTowerConfig(dims=(gen.d_text, 48, 48)), seed=1)

schedule = align.TrainSchedule(
    stages=(
        align.TrainStage(epochs=20, lr=3e-3),
        align.TrainStage(epochs=10, lr=6e-4, unfreeze_text_layers=(1,)),
    ),
    batch_size=64, seed=0, warmup_steps=20, eval_ks=(1, 5, 10),
)

def snapshot(tag):
    embedded = gallery.embed(ps, te, train_records, holdout_records)
    holdout_rows = np.arange(embedded.n_train, len(embedded.ids))
    m = evaluation.retrieval_metrics(embedded.text, embedded.photo, ks=(1, 5),
                                     query_indices=holdout_rows)
    print(f"{tag}: recall@1 {m.recall_t2i[1]:.3f}  recall@5 {m.recall_t2i[5]:.3f}"
          f"  mean rank {m.mean_rank_t2i:.2f} of {m.n_gallery}")

# align.LOSS_HEADS holds the contrastive heads; this run takes the softmax one.
# train updates ps and te in place and returns TrainResult(loss, log): the
# head's learned loss scalars and the per-step and per-epoch log.
print(f"loss heads: {', '.join(align.LOSS_HEADS)}; training with infonce")
snapshot("before training")
result = align.train(train_records, holdout_records, ps, te,
                     align.LossConfig(kind="infonce"), schedule)
snapshot("after training ")

print()
print("per-epoch holdout mean rank:")
for row in result.log.epochs:
    if row["epoch"] % 5 == 0 or row["epoch"] == len(result.log.epochs) - 1:
        print(f"  epoch {row['epoch']:2d} (stage {row['stage']}):"
              f" loss {row['train_loss']:.3f}  mean rank {row['mean_rank_t2i']:.2f}")

temp = align.temperature(result.loss)
print()
print(f"learned softmax temperature: {temp:.4f} (started at {1 / 14:.4f})")
