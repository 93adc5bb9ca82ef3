"""The benchmark's three workloads: train, compress and query.

Each workload drives the package in-process, through ``listalign.cli.main``
with its output captured, and through the modules' public functions. A
workload has four parts:

* ``warm``: an untimed pass over a tiny input, so one-time costs (imports,
  the first LAPACK call) land in set-up and not in the timed phase;
* ``prepare``: the inputs the timed phase needs, made from the seed;
  ``warm`` plus ``prepare`` is one set-up, repeated ``setup_repeats`` times
  (more for the sub-second set-ups, whose times scatter more);
* ``phase``: the timed operations, one closed-loop client, until both a
  minimum count and the run length are reached;
* ``verify``: one output check per timed operation, run after the phase.

Sizes come in two presets: ``full`` is what the benchmark measures and
``smoke`` is a tiny input for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time

import numpy as np

import listalign.align as align
import listalign.cli as cli
import listalign.codec as codec
import listalign.eval as evaluation
import listalign.model as model
import listalign.synth as synth

# Quality gates, fixed from runs of the parent commit with a margin over the
# worst seed, so that a speed-up cannot train a worse model or fit a worse
# codec. Worst of seeds 0-19 (0-6 for the full-size codec): holdout mean rank
# 1.98, relative error 0.2299, held-out batch error 0.427; smoke size 20.5,
# 0.695, 0.839.
TRAIN_RANK_GATE = {"full": 2.5, "smoke": 24.0}
CODEC_ERROR_GATE = {"full": 0.25, "smoke": 0.75}
HELDOUT_ERROR_GATE = {"full": 0.45, "smoke": 0.90}

MODALITIES = ("photo", "text", "multimodal")

# End-to-end metrics and their units. Every workload reports each of them, for
# its own timed stage and its own repeated client call (see README.md).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stage_s": "s",
    "items_per_s": "1/s",
    "call_mean_ms": "ms",
    "call_p90_ms": "ms",
}


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _p90(values) -> float:
    return float(np.percentile(values, 90))


class Run:
    """State of one workload run: where it writes, its seed, and its checks."""

    def __init__(self, workdir: str, seed: int, size: str):
        self.dir = workdir
        self.seed = seed
        self.size = size
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.figures: dict = {}

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def write_json(self, name: str, payload: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        return path

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Mark a benchmark operation; traced runs open a ``bench.*`` span for it."""
        if self.tracer is None:
            yield
            return
        previous, self.tracer.op = self.tracer.op, op_id
        try:
            with self.tracer.span("bench." + op_id.split("#", 1)[0]):
                yield
        finally:
            self.tracer.op = previous

    def cli(self, *argv: str):
        """Run one CLI stage with stdout and stderr captured: (code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli." + argv[0]) if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, op_id: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{op_id}: {detail}")


class _StepClock:
    """Timestamps each optimizer step: entry of ``model.forward_batch`` to exit
    of ``align.adam_step``. Two clock reads per step of tens of milliseconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def __enter__(self):
        fb, adam = model.forward_batch, align.adam_step
        self._saved = (fb, adam)

        def forward_batch(*args, **kwargs):
            self.starts.append(time.perf_counter())
            return fb(*args, **kwargs)

        def adam_step(*args, **kwargs):
            out = adam(*args, **kwargs)
            self.ends.append(time.perf_counter())
            return out

        model.forward_batch, align.adam_step = forward_batch, adam_step
        return self

    def __exit__(self, *exc):
        model.forward_batch, align.adam_step = self._saved
        return False


def _train_config(listings: int, epochs: tuple, batch: int, warmup: int) -> dict:
    """The pipeline's default recipe with the stage epochs given (2:1 shape)."""
    return {
        "generator": {"n_listings": listings, "p_max": 8},
        "schedule": {
            "stages": [
                {"epochs": epochs[0], "lr": 3e-3},
                {"epochs": epochs[1], "lr": 6e-4, "unfreeze_text_layers": [1, 2]},
            ],
            "batch_size": batch,
            "warmup_steps": warmup,
        },
    }


def _trainlog(path: str):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    steps = [r for r in rows if r["kind"] == "step"]
    epochs = [r for r in rows if r["kind"] == "epoch"]
    return steps, epochs


def sha256_files(*paths: str) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    """``gen`` then ``train`` with the default recipe, stage epochs shortened."""

    setup_repeats = 7

    SIZES = {
        "full": dict(listings=512, epochs=(6, 3), batch=64, warmup=20, min_calls=2,
                     warm_listings=160),
        "smoke": dict(listings=48, epochs=(2, 1), batch=16, warmup=2, min_calls=1,
                      warm_listings=48),
    }

    def __init__(self, run: Run):
        self.run = run
        self.size = self.SIZES[run.size]

    def warm(self) -> None:
        r, s = self.run, self.size
        cfg = r.write_json("warm.json", _train_config(s["warm_listings"], (1, 1), s["batch"], 2))
        r.cli("gen", "--config", cfg, "--out", r.path("warm"), "--seed", str(r.seed), "--quiet")
        r.cli("train", "--config", cfg, "--data", r.path("warm"), "--out", r.path("warm", "run"),
              "--seed", str(r.seed), "--quiet")

    def prepare(self) -> list:
        r, s = self.run, self.size
        self.cfg = r.write_json(
            "train.json", _train_config(s["listings"], s["epochs"], s["batch"], s["warmup"])
        )
        with r.op("gen#0"):
            r.cli("gen", "--config", self.cfg, "--out", r.path("data"), "--seed", str(r.seed),
                  "--quiet")
        return [r.path("data", split, name) for split in ("train", "holdout")
                for name in ("dataset.jsonl", "photos.emb", "text.emb")]

    def phase(self, seconds: float) -> dict:
        r, s = self.run, self.size
        calls = []
        begin = time.perf_counter()
        while len(calls) < s["min_calls"] or time.perf_counter() - begin < seconds:
            k = len(calls)
            clock = _StepClock() if r.tracer is None else contextlib.nullcontext()
            with r.op(f"train#{k}"), clock:
                t0 = time.perf_counter()
                code, _, err = r.cli("train", "--config", self.cfg, "--data", r.path("data"),
                                     "--out", r.path("run"), "--seed", str(r.seed), "--quiet")
                wall = time.perf_counter() - t0
            steps, epochs = _trainlog(r.path("run", "trainlog.jsonl")) if code == 0 else ([], [])
            call = dict(code=code, err=err, wall=wall, pairs=len(steps) * s["batch"],
                        rank=epochs[-1]["mean_rank_t2i"] if epochs else float("inf"),
                        checkpoint=sha256_files(r.path("run", "checkpoint.blm")) if code == 0 else "")
            if r.tracer is None:
                # The first step of each epoch follows the call start or an
                # epoch eval and pays for re-mapping the memory that freed, a
                # cost that swings with the host; it counts in stage_s and
                # items_per_s, not in the step percentiles.
                per_epoch = max(len(steps) // max(len(epochs), 1), 1)
                call["steps"] = [e - b for i, (b, e) in enumerate(zip(clock.starts, clock.ends))
                                 if i % per_epoch]
                call["first_epoch"] = (clock.starts[per_epoch] - t0
                                       if len(clock.starts) > per_epoch else wall)
            calls.append(call)
        return {"calls": calls}

    def verify(self, out: dict) -> None:
        r = self.run
        gate = TRAIN_RANK_GATE[r.size]
        first = out["calls"][0]["checkpoint"]
        for k, call in enumerate(out["calls"]):
            ok = call["code"] == 0 and call["rank"] <= gate and call["checkpoint"] == first
            r.check(f"train#{k}", ok, f"exit {call['code']}, holdout mean rank {call['rank']} "
                    f"(gate {gate}), checkpoint identical to first: {call['checkpoint'] == first}"
                    f" {call['err'].strip()}")
        r.figures["holdout_mean_rank_t2i"] = out["calls"][-1]["rank"]

    def e2e(self, out: dict) -> dict:
        calls = out["calls"]
        steps = [t for call in calls for t in call["steps"]]
        pairs_per_s = sum(c["pairs"] for c in calls) / sum(c["wall"] for c in calls)
        self.run.figures.update(
            train_samples_per_s=pairs_per_s, train_calls=len(calls), optimizer_steps=len(steps),
            first_epoch_ms=_ms(statistics.median(c["first_epoch"] for c in calls)),
            step_p50_ms=_ms(statistics.median(steps)),
        )
        return {
            "stage_s": statistics.fmean(c["wall"] for c in calls),
            "items_per_s": pairs_per_s,
            "call_mean_ms": _ms(statistics.fmean(steps)),
            "call_p90_ms": _ms(_p90(steps)),
        }


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------

class Compress:
    """``quantize --kind opq`` at 256 B/vector, then bulk encoding with the
    codec reloaded from ``codec.blc``."""

    setup_repeats = 7

    SIZES = {
        "full": dict(rows=1300, dim=1024, heldout=4096, m=256, k=256, rotated_dim=1280,
                     batch=64, min_calls=100, colds=9),
        "smoke": dict(rows=300, dim=64, heldout=256, m=8, k=16, rotated_dim=64,
                      batch=16, min_calls=5, colds=2),
    }

    def __init__(self, run: Run):
        self.run = run
        self.size = self.SIZES[run.size]

    @staticmethod
    def _config(s: dict) -> dict:
        return {"codec": {"kind": "opq", "m": s["m"], "k": s["k"], "rotated_dim": s["rotated_dim"],
                          "outer_iters": 1, "kmeans_iters": 2}}

    def warm(self) -> None:
        r, s = self.run, self.SIZES["smoke"]
        x = np.random.default_rng(r.seed).normal(size=(s["rows"], s["dim"]))
        codec.save_embeddings(r.path("warm.emb"), x)
        cfg = r.write_json("warm.json", self._config(s))
        r.cli("quantize", "--config", cfg, "--emb", r.path("warm.emb"), "--out", r.path("warm"),
              "--kind", "opq", "--seed", str(r.seed), "--quiet")
        trained = codec.load_codec(r.path("warm", "codec.blc"))
        codec.decode(trained, codec.encode(trained, x[: s["batch"]]))

    def prepare(self) -> list:
        r, s = self.run, self.size
        rng = np.random.default_rng(r.seed)
        with r.op("tables#0"):
            codec.save_embeddings(r.path("table.emb"), rng.normal(size=(s["rows"], s["dim"])))
            codec.save_embeddings(r.path("heldout.emb"), rng.normal(size=(s["heldout"], s["dim"])))
            self.heldout = codec.load_embeddings(r.path("heldout.emb"))
        self.cfg = r.write_json("codec.json", self._config(s))
        return [r.path("table.emb"), r.path("heldout.emb")]

    def phase(self, seconds: float) -> dict:
        r, s = self.run, self.size
        begin = time.perf_counter()
        with r.op("quantize#0"):
            code, _, err = r.cli("quantize", "--config", self.cfg, "--emb", r.path("table.emb"),
                                 "--out", r.path("quant"), "--kind", "opq",
                                 "--seed", str(r.seed), "--quiet")
        quantize_wall = time.perf_counter() - begin
        colds, cold_codes = [], []
        for j in range(s["colds"]):  # a fresh codec object each time
            with r.op(f"load#{j}"):
                t0 = time.perf_counter()
                trained = codec.load_codec(r.path("quant", "codec.blc"))
                block = codec.encode(trained, self.heldout[: s["batch"]])
                colds.append(time.perf_counter() - t0)
            cold_codes.append(block.codes)
        batches, times, codes = s["heldout"] // s["batch"], [], []
        while len(times) < s["min_calls"] or time.perf_counter() - begin < seconds:
            k = len(times)
            lo = (k % batches) * s["batch"]
            with r.op(f"encode#{k}"):
                t0 = time.perf_counter()
                block = codec.encode(trained, self.heldout[lo : lo + s["batch"]])
                times.append(time.perf_counter() - t0)
            codes.append(block.codes)
        return {"code": code, "err": err, "quantize_wall": quantize_wall, "colds": colds,
                "cold_codes": cold_codes, "times": times, "codes": codes}

    def verify(self, out: dict) -> None:
        r, s = self.run, self.size
        ok, detail = out["code"] == 0, f"exit {out['code']} {out['err'].strip()}"
        rel = float("inf")
        if ok:
            size = os.path.getsize(r.path("quant", "codes.emb"))
            with open(r.path("quant", "percentiles.json"), encoding="utf-8") as fh:
                reported = json.load(fh)["mean_relative_error"]
            trained = codec.load_codec(r.path("quant", "codec.blc"))
            x = codec.load_embeddings(r.path("table.emb"))
            rel = codec.compression_report(x, codec.decode(trained, codec.encode(trained, x))) \
                .mean_relative_error
            gate = CODEC_ERROR_GATE[r.size]
            ok = size == 21 + s["rows"] * s["m"] and rel == reported and rel <= gate
            detail = (f"codes.emb {size} bytes (want {21 + s['rows'] * s['m']}), reloaded error "
                      f"{rel!r} vs reported {reported!r}, gate {gate}")
        r.check("quantize#0", ok, detail)
        r.figures["codec_relative_error"] = rel

        batches = s["heldout"] // s["batch"]
        gate = HELDOUT_ERROR_GATE[r.size]
        heldout_errors = []
        trained = codec.load_codec(r.path("quant", "codec.blc"))
        for j, block_codes in enumerate(out["cold_codes"]):
            r.check(f"load#{j}", np.array_equal(block_codes, out["codes"][0]),
                    "a reloaded codec encodes the first batch differently")
        for k, block_codes in enumerate(out["codes"]):
            rows = self.heldout[(k % batches) * s["batch"] :][: s["batch"]]
            if k >= batches:  # a repeated batch must encode to the same codes
                same = np.array_equal(block_codes, out["codes"][k - batches])
                r.check(f"encode#{k}", same, "codes differ from the first pass over this batch")
                continue
            block = codec.CodeBlock(n=len(rows), bytes_per_vector=s["m"], codes=block_codes)
            err = codec.compression_report(rows, codec.decode(trained, block)).mean_relative_error
            heldout_errors.append(err)
            r.check(f"encode#{k}", block_codes.shape == (len(rows), s["m"]) and err <= gate,
                    f"shape {block_codes.shape}, held-out relative error {err} (gate {gate})")
        r.figures["heldout_relative_error_max"] = max(heldout_errors, default=float("inf"))

    def e2e(self, out: dict) -> dict:
        s, times, colds = self.size, out["times"], out["colds"]
        per_s = (len(times) + len(colds)) * s["batch"] / (sum(colds) + sum(times))
        self.run.figures.update(quantize_s=out["quantize_wall"], codec_encode_vectors_per_s=per_s,
                                encode_calls=len(times), codec_cold_ms=_ms(statistics.median(colds)),
                                encode_p50_ms=_ms(statistics.median(times)))
        return {
            "stage_s": out["quantize_wall"],
            "items_per_s": per_s,
            "call_mean_ms": _ms(statistics.fmean(times)),
            "call_p90_ms": _ms(_p90(times)),
        }


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def _multimodal_rows(ps_emb: np.ndarray, tx_emb: np.ndarray) -> np.ndarray:
    """Gallery rows as the CLI builds them: the normalized sum of both towers."""
    mixed = ps_emb + tx_emb
    norms = np.linalg.norm(mixed, axis=1)
    safe = norms > 1e-12
    return np.where(safe[:, None], mixed / np.where(safe, norms, 1.0)[:, None], ps_emb)


class Query:
    """Cold searches, then closed-loop ``search`` calls with an ``eval`` (with
    the sweep) before every ``eval_every``-th one, against a checkpoint trained
    in set-up."""

    setup_repeats = 3

    SIZES = {
        "full": dict(listings=512, epochs=(2, 1), batch=64, warmup=20, min_calls=100, top=10,
                     sweep="2,8,32,64", eval_every=12, colds=9, warm_listings=160),
        "smoke": dict(listings=48, epochs=(1, 1), batch=16, warmup=2, min_calls=5, top=10,
                      sweep="2,8", eval_every=5, colds=2, warm_listings=48),
    }

    def __init__(self, run: Run):
        self.run = run
        self.size = self.SIZES[run.size]

    def _pipeline(self, name: str, listings: int, epochs: tuple, warmup: int) -> None:
        r, s = self.run, self.size
        cfg = r.write_json(f"{name}.json", _train_config(listings, epochs, s["batch"], warmup))
        with r.op("gen#0"):
            r.cli("gen", "--config", cfg, "--out", r.path(name), "--seed", str(r.seed), "--quiet")
        with r.op("train#0"):
            r.cli("train", "--config", cfg, "--data", r.path(name), "--out",
                  r.path(name, "run"), "--seed", str(r.seed), "--quiet")

    def warm(self) -> None:
        r, s = self.run, self.size
        self._pipeline("warm", s["warm_listings"], (1, 1), 2)
        ckpt = r.path("warm", "run", "checkpoint.blm")
        r.cli("eval", "--data", r.path("warm"), "--model", ckpt, "--out", r.path("warm", "report.json"),
              "--sweep", s["sweep"], "--quantize-sweep", "--quiet")
        r.cli("search", "--data", r.path("warm"), "--model", ckpt, "--query-id", "0")

    def prepare(self) -> list:
        s = self.size
        self._pipeline("data", s["listings"], s["epochs"], s["warmup"])
        ids = []
        for split in ("train", "holdout"):
            with open(self.run.path("data", split, "dataset.jsonl"), encoding="utf-8") as fh:
                ids += [json.loads(line)["id"] for line in fh if line.strip()]
        self.ids = ids
        for j in range(s["colds"]):  # freshly written checkpoints for the cold searches
            shutil.copyfile(self.run.path("data", "run", "checkpoint.blm"), self.run.path(f"cold{j}.blm"))
        return [self.run.path("data", split, name) for split in ("train", "holdout")
                for name in ("dataset.jsonl", "photos.emb", "text.emb")]

    def queries(self):
        """The seed's endless stream of (listing id, modality) queries."""
        rng = np.random.default_rng([self.run.seed, 1])
        while True:
            yield int(self.ids[rng.integers(len(self.ids))]), MODALITIES[rng.integers(3)]

    def _search(self, op_id: str, query, checkpoint: str) -> dict:
        r = self.run
        with r.op(op_id):
            t0 = time.perf_counter()
            code, stdout, err = r.cli(
                "search", "--data", r.path("data"), "--model", checkpoint,
                "--query-id", str(query[0]), "--modality", query[1], "--top", str(self.size["top"]),
            )
            wall = time.perf_counter() - t0
        return dict(op=op_id, query=query, code=code, stdout=stdout, err=err, wall=wall)

    def phase(self, seconds: float) -> dict:
        r, s = self.run, self.size
        stream = self.queries()
        begin = time.perf_counter()
        # cold searches come first, each against a checkpoint no call has read,
        # so a cache that eval could fill stays cold
        colds = [self._search(f"cold#{j}", next(stream), r.path(f"cold{j}.blm"))
                 for j in range(s["colds"])]
        # evals are spread over the whole phase, so their mean and the search
        # mean sample the same stretch of the host's fast and slow periods
        evals, searches = [], []
        while len(searches) < s["min_calls"] or time.perf_counter() - begin < seconds:
            if len(searches) % s["eval_every"] == 0:
                k = len(evals)
                with r.op(f"eval#{k}"):
                    t0 = time.perf_counter()
                    code, _, err = r.cli("eval", "--data", r.path("data"),
                                         "--model", r.path("data", "run", "checkpoint.blm"),
                                         "--out", r.path(f"report{k}.json"), "--sweep", s["sweep"],
                                         "--quantize-sweep", "--quiet")
                    evals.append(dict(code=code, err=err, wall=time.perf_counter() - t0))
            searches.append(self._search(f"search#{len(searches)}", next(stream),
                                         r.path("data", "run", "checkpoint.blm")))
        return {"colds": colds, "evals": evals, "searches": searches}

    def verify(self, out: dict) -> None:
        r, s = self.run, self.size
        ps, te, _ = model.load_checkpoint(r.path("data", "run", "checkpoint.blm"))
        train = synth.load_dataset(r.path("data", "train"))
        everything = train + synth.load_dataset(r.path("data", "holdout"))
        photos, counts = synth.pack_photos(everything)
        ps_emb = model.encode_photoset_batch(ps, photos, counts)
        tx_emb = model.encode_text(te, synth.pack_texts(everything))
        gallery = _multimodal_rows(ps_emb, tx_emb)
        ids = np.array([rec.id for rec in everything])
        row_of = {int(i): row for row, i in enumerate(ids)}
        by_modality = {"photo": ps_emb, "text": tx_emb, "multimodal": gallery}

        expected = {}
        for search in out["colds"] + out["searches"]:
            query = search["query"]
            if query not in expected:
                scores = gallery @ by_modality[query[1]][row_of[query[0]]]
                order = np.lexsort((ids, -scores))[: s["top"]]
                expected[query] = "".join(f"{ids[i]} {scores[i]:.6f}\n" for i in order)
            ok = search["code"] == 0 and search["stdout"] == expected[query]
            r.check(search["op"], ok, f"query {query}: exit {search['code']}, output "
                    f"{'matches' if ok else 'differs from'} the reference {search['err'].strip()}")

        holdout = np.arange(len(train), len(everything))
        ks = tuple(k for k in (1, 5, 10) if k <= len(everything))
        direct = json.loads(json.dumps(evaluation.retrieval_metrics(
            tx_emb, ps_emb, ks=ks, query_indices=holdout).as_dict()))
        ndcg = {f"ndcg_t2i@{min(10, len(everything))}"}
        for k, run_eval in enumerate(out["evals"]):
            ok, detail = run_eval["code"] == 0, f"exit {run_eval['code']} {run_eval['err']}"
            if ok:
                with open(r.path(f"report{k}.json"), encoding="utf-8") as fh:
                    text = fh.read()
                report = evaluation.EvalReport.from_json(text)
                ok = (report.to_json() + "\n" == text
                      and {key: report.retrieval.get(key) for key in direct} == direct
                      and set(report.retrieval) - set(direct) == ndcg)
                detail = "report round trip or retrieval block differs from retrieval_metrics"
                r.figures["eval_holdout_mean_rank_t2i"] = report.retrieval["mean_rank_t2i"]
            r.check(f"eval#{k}", ok, detail)
        _, epochs = _trainlog(r.path("data", "run", "trainlog.jsonl"))
        r.figures["holdout_mean_rank_t2i"] = epochs[-1]["mean_rank_t2i"]

    def e2e(self, out: dict) -> dict:
        times = [search["wall"] for search in out["searches"]]
        p50, p90 = _ms(statistics.median(times)), _ms(_p90(times))
        cold = _ms(statistics.median(c["wall"] for c in out["colds"]))
        eval_s = statistics.fmean(e["wall"] for e in out["evals"])
        self.run.figures.update(search_p50_ms=p50, search_p90_ms=p90, search_cold_ms=cold,
                                eval_s=eval_s, searches=len(times), evals=len(out["evals"]))
        return {
            "stage_s": eval_s,
            "items_per_s": len(times) / sum(times),
            "call_mean_ms": _ms(statistics.fmean(times)),
            "call_p90_ms": p90,
        }


WORKLOADS = {"train": Train, "compress": Compress, "query": Query}
