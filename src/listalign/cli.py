"""Command-line pipeline: gen, train, quantize, eval, search, report.

Exit codes follow one rule, applied in ``main`` alone: 0 success; 2 for a
ConfigError or any OSError (a bad config, argument, or input or output path,
including a corrupt or truncated input file, a missing --model, and a
checkpoint whose input widths do not fit the dataset); otherwise
the failing stage's own code: 3 train, 4 quantize, 5 eval and report, 6 search
(an unknown listing id, or a corrupt or truncated search --model), 1 gen. A
stage that runs out of memory fails with its own code too.
Artifacts are written atomically and contain no timestamps, so a rerun with
the same inputs produces byte-identical files. ``train`` also writes the
encoded gallery beside its checkpoint. ``search`` and ``eval`` take their
embeddings, and ``eval`` its split, probe labels and sweep basis, from one
gallery.Gallery: the saved one when its content key matches their inputs,
otherwise a fresh ``gallery.embed`` (see gallery.py). So a hit reads no
dataset file and loads no checkpoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import align, codec as codecmod, eval as evalmod, gallery as gallerymod, model as modelmod, synth
from ._fileio import write_csv, write_json
from .config import PipelineConfig, load_pipeline_config, resolved_dict
from .errors import ConfigError, CorruptFile, ListalignError, UnknownId

__all__ = ["main"]


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load_cfg(args) -> PipelineConfig:
    if args.config:
        return load_pipeline_config(args.config)
    return PipelineConfig()


def _read_input(load, path: str, what: str):
    """load(path), with an unreadable or corrupt file reported as a ConfigError."""
    try:
        return load(path)
    except (OSError, CorruptFile) as exc:
        raise ConfigError(f"cannot read {what}: {exc}")


def _gallery(args, load_checkpoint) -> gallerymod.Gallery:
    """The gallery of args.model and args.data: the saved one on a hit, else a
    fresh gallery.embed, or a ConfigError naming both paths when the
    checkpoint's input widths are not the dataset's. load_checkpoint reads
    args.model on a miss, so each stage picks how a corrupt one fails."""
    g = gallerymod.cached(args.model, args.data)
    if g is not None:
        return g
    train_recs, holdout_recs, gcfg = _read_input(synth.load_split, args.data, f"dataset under {args.data}")
    ps, te, _extra = load_checkpoint(args.model)
    takes = (ps.config.d_in, ps.config.p_max, te.config.dims[0])
    data = (gcfg.d_photo, gcfg.p_max, gcfg.d_text)
    if takes != data:
        raise ConfigError(
            f"cannot use checkpoint {args.model} with dataset under {args.data}: the checkpoint "
            f"takes (d_photo, p_max, d_text) = {takes}, the dataset has {data}"
        )
    return gallerymod.embed(ps, te, train_recs, holdout_recs)


def _clamp_ks(ks, n: int):
    kept = tuple(k for k in ks if 1 <= k <= n)
    return kept if kept else (1,)


def _parse_int_list(text: str, flag: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated integer list, got {text!r}")
    if not values:
        raise ConfigError(f"{flag} expects at least one integer")
    if min(values) < 1:
        raise ConfigError(f"{flag} values must be at least 1, got {min(values)}")
    return values


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, generator=dataclasses.replace(cfg.generator, seed=args.seed)
        )
    records = synth.generate(cfg.generator)
    scorer = None
    if cfg.filters.use_alignment:
        scorer = synth.build_generator(cfg.generator).alignment_score
    kept, stats = synth.apply_filters(
        records,
        min_photos=cfg.filters.min_photos,
        min_text_len=cfg.filters.min_text_len,
        alignment_threshold=cfg.filters.alignment_threshold,
        prelim_scorer=scorer,
    )
    train_recs, holdout_recs = synth.split(kept, cfg.split.holdout_fraction, cfg.split.seed)
    os.makedirs(args.out, exist_ok=True)
    synth.save_dataset(os.path.join(args.out, "train"), train_recs, cfg.generator)
    synth.save_dataset(os.path.join(args.out, "holdout"), holdout_recs, cfg.generator)
    write_json(os.path.join(args.out, "filter_stats.json"), stats.as_dict())
    write_json(os.path.join(args.out, "config.json"), resolved_dict(cfg))
    _say(
        args,
        f"generated {stats.n_input} listings, kept {stats.n_output} "
        f"({len(train_recs)} train / {len(holdout_recs)} holdout) -> {args.out}",
    )
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg,
            init_seed=args.seed,
            schedule=dataclasses.replace(cfg.schedule, seed=args.seed),
        )
    train_recs, holdout_recs, gcfg = _read_input(synth.load_split, args.data, f"dataset under {args.data}")
    # the dataset's own geometry wins over whatever the config file says
    cfg = dataclasses.replace(cfg, generator=gcfg)
    n_total = len(train_recs) + len(holdout_recs)
    ks = _clamp_ks(cfg.schedule.eval_ks, n_total)
    if ks != tuple(cfg.schedule.eval_ks):
        _say(args, f"eval ks clamped to {ks} for a gallery of {n_total}")
    schedule = dataclasses.replace(cfg.schedule, eval_ks=ks)

    ps = modelmod.init_set_encoder(cfg.set_encoder_config(), seed=cfg.init_seed)
    te = modelmod.init_text_tower(cfg.text_tower_config(), seed=cfg.init_seed + 1)
    result = align.train(train_recs, holdout_recs, ps, te, cfg.loss, schedule)

    os.makedirs(args.out, exist_ok=True)
    # the loss scalars ride along in the checkpoint payload under their own names
    loss_extra = {name: var.value for name, var in result.loss.items()}
    checkpoint = os.path.join(args.out, "checkpoint.blm")
    modelmod.save_checkpoint(checkpoint, ps, te, extra=loss_extra)
    result.log.save_jsonl(os.path.join(args.out, "trainlog.jsonl"))
    result.log.save_epoch_csv(os.path.join(args.out, "epochs.csv"))
    gallerymod.write_beside(checkpoint, args.data, train_recs, holdout_recs)
    if result.log.epochs:
        last = result.log.epochs[-1]
        summary = " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in last.items())
        _say(args, f"final epoch: {summary}")
    _say(args, f"checkpoint and logs -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------

def cmd_quantize(args) -> int:
    cfg = _load_cfg(args)
    settings = cfg.codec
    if args.kind:
        settings = dataclasses.replace(settings, kind=args.kind)
    if args.seed is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    x = _read_input(codecmod.load_embeddings, args.emb, "embeddings")
    if settings.kind == "pca" and settings.out_dim > x.shape[1]:
        _say(args, f"codec out_dim clamped to {x.shape[1]}, the width of {args.emb}")
        settings = dataclasses.replace(settings, out_dim=x.shape[1])
    trained = codecmod.train_codec(settings, x)
    block = codecmod.encode(trained, x)
    x_hat = codecmod.decode(trained, block)
    report = codecmod.compression_report(x, x_hat)

    os.makedirs(args.out, exist_ok=True)
    codecmod.save_codec(os.path.join(args.out, "codec.blc"), trained)
    codecmod.save_embeddings(os.path.join(args.out, "codes.emb"), block.codes)
    write_json(os.path.join(args.out, "percentiles.json"), report.as_dict())
    _say(args, f"{settings.kind}: {block.bytes_per_vector} bytes/vector over {block.n} vectors")
    for level, value in zip(report.levels, report.values):
        _say(args, f"  p{int(round(level * 100)):02d} error {value:.6f}")
    _say(args, f"mean error {report.mean_error:.6f} (relative {report.mean_relative_error:.6f})")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _mean_ndcg(tx_emb, ps_emb, ids, query_rows, depth: int) -> float:
    """Mean binary NDCG of each query's own row, ranked with ties broken by id.

    The row's 1-based position in np.lexsort((ids, -scores)) is 1 plus the
    rows with a higher score, or an equal score and a lower id, or an equal
    score and id and a lower index; with one relevant row the ideal DCG is 1,
    so the query scores what evalmod.ndcg_binary gives that order, without
    sorting it.
    """
    scores = []
    for i in query_rows:
        s = tx_emb[i] @ ps_emb.T
        tied = np.flatnonzero(s == s[i])  # row i and every row with its exact score
        pos = 1 + np.count_nonzero(s > s[i]) + np.count_nonzero(
            (ids[tied] < ids[i]) | ((ids[tied] == ids[i]) & (tied < i)))
        scores.append(1.0 / np.log2(pos + 1.0) if pos <= depth else 0.0)
    return float(np.mean(scores))


def cmd_eval(args) -> int:
    ks = _parse_int_list(args.ks, "--ks") if args.ks else (1, 5, 10)
    dims = _parse_int_list(args.sweep, "--sweep") if args.sweep else ()
    if args.sweep_csv and not dims:
        raise ConfigError("--sweep-csv needs --sweep")
    if args.quantize_sweep and not dims:
        raise ConfigError("--quantize-sweep needs --sweep")
    g = _gallery(args, lambda path: _read_input(modelmod.load_checkpoint, path, "checkpoint"))
    ps_emb, tx_emb, n_train = g.photo, g.text, g.n_train
    width = tx_emb.shape[1]
    if dims and max(dims) > width:
        raise ConfigError(f"--sweep dims must be at most {width}, the gallery's embedding width, got {max(dims)}")
    n = len(g.ids)
    query_rows = np.arange(n_train, n)
    ks = _clamp_ks(ks, n)
    metrics = evalmod.retrieval_metrics(tx_emb, ps_emb, ks=ks, query_indices=query_rows)
    depth = min(10, n)
    retrieval = dict(metrics.as_dict())
    retrieval[f"ndcg_t2i@{depth}"] = _mean_ndcg(tx_emb, ps_emb, g.ids, query_rows, depth)

    accuracies = evalmod.knn_probe(ps_emb[:n_train], g.labels[:n_train], ps_emb[n_train:],
                                   g.labels[n_train:], k=min(10, n_train))
    probe = dict(zip(synth.ATTRIBUTE_NAMES, accuracies))

    sweep = []
    if dims:
        sweep = evalmod.pca_dim_sweep(
            tx_emb, ps_emb, dims=dims, ks=ks,
            query_indices=query_rows, quantize=args.quantize_sweep, basis=g.basis,
        )

    write_json(args.out, dataclasses.asdict(evalmod.EvalReport(retrieval=retrieval, probe=probe, sweep=sweep)))
    if args.sweep_csv:
        write_csv(args.sweep_csv, [
            {**{key: row[key] for key in ("dim", "quantized", "mean_rank_t2i", "mean_rank_i2t")},
             **{f"recall_t2i@{k}": row["recall_t2i"][str(k)] for k in ks}}
            for row in sweep
        ])
    _say(args, f"mean rank t2i {metrics.mean_rank_t2i:.3f}, recall@{ks[0]} "
               f"{metrics.recall_t2i[ks[0]]:.4f} over {metrics.n_queries} holdout queries")
    _say(args, f"report -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args) -> int:
    if args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    # a missing --model is an OSError (exit 2), a corrupt one a search failure
    g = _gallery(args, modelmod.load_checkpoint)
    # an id outside int64 equals no row; a repeated id resolves to its last row
    rows = np.flatnonzero(g.ids == args.query_id)
    if rows.size == 0:
        raise UnknownId(f"no listing with id {args.query_id}")
    # --modality's choices are the three Gallery attributes search can rank by
    scores = g.multimodal @ getattr(g, args.modality)[rows[-1]]
    order = np.lexsort((g.ids, -scores))

    for i in order[: args.top]:
        print(f"{g.ids[i]} {scores[i]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = evalmod.EvalReport.from_json(fh.read())
        except (OSError, ValueError, RecursionError) as exc:  # deep nesting: RecursionError
            raise ListalignError(f"cannot read report {path}: {exc}")
        print(f"== {path} ==")
        for key in sorted(report.retrieval):
            value = report.retrieval[key]
            if isinstance(value, dict):
                inner = ", ".join(f"@{k}={value[k]:.4f}" for k in sorted(value, key=int))
                print(f"  {key}: {inner}")
            elif isinstance(value, float):
                print(f"  {key}: {value:.4f}")
            else:
                print(f"  {key}: {value}")
        for attr in sorted(report.probe):
            print(f"  probe {attr}: {report.probe[attr]:.4f}")
        for row in report.sweep:
            print(
                f"  sweep dim={row['dim']} quantized={row['quantized']} "
                f"mean_rank_t2i={row['mean_rank_t2i']:.3f}"
            )
        if report.compression:
            print(f"  compression: {json.dumps(report.compression, sort_keys=True)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp, out_required: bool = True, config: bool = True):
    if config:
        sp.add_argument("--config", help="pipeline config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override the stage seed")
    sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    if out_required:
        sp.add_argument("--out", required=True, help="output directory or file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listalign",
        description="listing photo-set/text alignment pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate, filter, and split a synthetic dataset")
    _add_common(p)
    p.set_defaults(func=cmd_gen, failed=("error", 1))

    p = sub.add_parser("train", help="train the two towers on a generated dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="directory produced by gen")
    p.set_defaults(func=cmd_train, failed=("training failed", 3))

    p = sub.add_parser("quantize", help="fit a codec to an embedding file")
    _add_common(p)
    p.add_argument("--emb", required=True, help="embedding file to compress")
    p.add_argument("--kind", choices=tuple(codecmod.KINDS), help="codec family")
    p.set_defaults(func=cmd_quantize, failed=("quantization failed", 4))

    p = sub.add_parser("eval", help="retrieval metrics, probes, and sweeps")
    _add_common(p, config=False)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--ks", help="comma-separated recall cutoffs, default 1,5,10")
    p.add_argument("--sweep", help="comma-separated projection dims")
    p.add_argument("--sweep-csv", help="also write the sweep as CSV here")
    p.add_argument("--quantize-sweep", action="store_true",
                   help="round-trip sweep projections through the 8-bit codec")
    p.set_defaults(func=cmd_eval, failed=("evaluation failed", 5))

    p = sub.add_parser("search", help="nearest listings for a query listing")
    _add_common(p, out_required=False, config=False)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--query-id", type=int, required=True)
    p.add_argument("--modality", choices=("photo", "text", "multimodal"), default="multimodal")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_search, failed=("search failed", 6))

    p = sub.add_parser("report", help="pretty-print saved evaluation reports")
    p.add_argument("paths", nargs="+", help="report JSON files")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_report, failed=("report failed", 5))

    return parser


# One parser per process: parse_args keeps no state between calls, and the
# defaults it sets are functions and tuples, so every call starts afresh.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"path error: {exc}", file=sys.stderr)
        return 2
    except (ListalignError, MemoryError) as exc:
        label, code = args.failed
        cause = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"{label}: {cause}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
