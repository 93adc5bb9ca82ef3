"""Span tracing from outside the program, and the per-layer metrics it yields.

The tracer replaces each traced public function at the name its caller looks
up (for example ``listalign.codec.kmeans_fit``, because codec imports it by
name) with a wrapper that records one span per call: name, start, end, parent
span and the benchmark operation it belongs to. Spans stay in memory until the
run ends. Nothing under ``src/`` changes; uninstalling restores every original.

``layer_metrics`` reduces a span list to the per-layer metrics named in
``PER_LAYER``; ``LAYER_MOVES`` records which end-to-end metric on which
workload each of them should move.
"""

from __future__ import annotations

import json
import os
import time

import listalign.align as align
import listalign.autodiff as autodiff
import listalign.codec as codec
import listalign.eval as evaluation
import listalign.model as model
import listalign.synth as synth

# Layers by the package's own module names. Spans the benchmark opens around
# its own operations belong to "bench".
MODULES = ("autodiff", "model", "align", "eval", "linalg", "codec", "synth", "cli")

# Forward op kinds reported per optimizer step; every other autodiff op is
# traced too and counts towards the module share.
REPORTED_OPS = (
    "matmul", "gelu", "log_softmax", "exp", "add", "mul", "div", "sqrt",
    "getitem", "transpose", "reshape", "vmean", "vsum",
)
TRACED_OPS = REPORTED_OPS + (
    "sub", "neg", "pow_const", "log", "tanh", "log_sigmoid", "logsumexp",
)

_STEP_FORWARD = ("model.forward_batch", "align.compute_loss")
_EPOCH_EVAL = ("model.encode_photoset_batch", "model.encode_text", "eval.retrieval_metrics")


def _value(x):
    return getattr(x, "value", x)


def _matmul_flops(args, kwargs, out):
    return 2 * out.value.size * _value(args[0]).shape[-1]


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _tape_nodes(args, kwargs, out):
    return len(args[0])


def _rows(args, kwargs, out):
    return out.shape[0] if out.ndim == 2 else 1


def _lloyd_iters(args, kwargs, out):
    return len(out.inertia_history) - 1


def _final_objective(args, kwargs, out):
    return float(out.objective_history[-1])


def _patch_table():
    """(module, attribute, span name, note) for every traced call site."""
    table = [(autodiff, op, f"autodiff.{op}", _matmul_flops if op == "matmul" else None)
             for op in TRACED_OPS]
    table += [
        (autodiff, "backward", "autodiff.backward", None),
        (model, "forward_batch", "model.forward_batch", None),
        (model, "backward", "model.backward", _tape_nodes),
        (model, "encode_photoset_batch", "model.encode_photoset_batch", _rows),
        (model, "encode_text", "model.encode_text", _rows),
        (model, "save_checkpoint", "model.save_checkpoint", None),
        (model, "load_checkpoint", "model.load_checkpoint", None),
        (align, "train", "align.train", None),
        (align, "compute_loss", "align.compute_loss", None),
        (align, "adam_step", "align.adam_step", None),
        (evaluation, "retrieval_metrics", "eval.retrieval_metrics", None),
        (evaluation, "knn_probe", "eval.knn_probe", None),
        (evaluation, "ndcg_binary", "eval.ndcg_binary", None),
        (evaluation, "pca_dim_sweep", "eval.pca_dim_sweep", None),
        (evaluation, "pca_fit", "linalg.pca_fit", None),
        (codec, "pca_fit", "linalg.pca_fit", None),
        (codec, "kmeans_fit", "linalg.kmeans_fit", _lloyd_iters),
        (codec, "kmeans_refine", "linalg.kmeans_refine", _lloyd_iters),
        (codec, "procrustes", "linalg.procrustes", None),
        (codec, "opq_train", "codec.opq_train", _final_objective),
        (codec, "pq_train", "codec.pq_train", None),
        (codec, "encode", "codec.encode", None),
        (codec, "decode", "codec.decode", None),
        (codec, "scalar_train", "codec.scalar_train", None),
        (codec, "scalar_encode", "codec.scalar_encode", None),
        (codec, "scalar_decode", "codec.scalar_decode", None),
        (codec, "compression_report", "codec.compression_report", None),
        (codec, "save_codec", "codec.save_codec", None),
        (codec, "load_codec", "codec.load_codec", None),
        (codec, "save_embeddings", "codec.save_embeddings", _file_bytes),
        (codec, "load_embeddings", "codec.load_embeddings", _file_bytes),
        (synth, "save_embeddings", "codec.save_embeddings", _file_bytes),
        (synth, "load_embeddings", "codec.load_embeddings", _file_bytes),
        (synth, "generate", "synth.generate", None),
        (synth, "save_dataset", "synth.save_dataset", None),
        (synth, "load_dataset", "synth.load_dataset", None),
    ]
    return table


class Tracer:
    """Records spans as ``[name, start_ns, end_ns, parent, op, note]`` lists.

    ``parent`` is the index of the enclosing span or -1; spans are appended at
    entry, so a parent always precedes its children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, name)

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[5] = note(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, note in _patch_table():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str, header: dict) -> None:
        """JSONL: a header line, then one ``[name, start, end, parent, op]`` per span."""
        base = self.spans[0][1] if self.spans else 0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, start - base, end - base, parent, op]) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.record = self.tracer._open(self.name)
        return self.record

    def __exit__(self, *exc):
        self.tracer._close(self.record)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _metric(unit: str, better: str, moves: str):
    return {"unit": unit, "better": better, "moves": moves}


_TRAIN = "items_per_s on train"
_SEARCH = "call_mean_ms and call_p90_ms on query"
_QUANT = "stage_s on compress"
_ENCODE = "items_per_s on compress"
_EVAL = "stage_s on query"

LAYER_MOVES: dict[str, dict] = {}
for _op in REPORTED_OPS:
    _moves = _TRAIN + ("; " + _SEARCH if _op in ("matmul", "gelu") else "")
    LAYER_MOVES[f"autodiff.{_op}.calls_per_step"] = _metric("count", "lower", _moves)
    LAYER_MOVES[f"autodiff.{_op}.ms_per_step"] = _metric("ms", "lower", _moves)
LAYER_MOVES.update({
    "autodiff.matmul.gflop_per_s": _metric("GFLOP/s", "higher", f"{_TRAIN}; {_SEARCH}"),
    "autodiff.tape_nodes_per_step": _metric("count", "lower", _TRAIN),
    "autodiff.backward_ms_per_step": _metric("ms", "lower", _TRAIN),
    "model.forward_batch_ms": _metric("ms", "lower", _TRAIN),
    "model.backward_ms": _metric("ms", "lower", _TRAIN),
    "model.encode_photoset_batch_ms": _metric("ms", "lower", f"{_SEARCH}; {_TRAIN}"),
    "model.encode_text_ms": _metric("ms", "lower", f"{_SEARCH}; {_TRAIN}"),
    "model.save_checkpoint_ms": _metric("ms", "lower", _TRAIN),
    "model.load_checkpoint_ms": _metric("ms", "lower", _SEARCH),
    "model.encode_rows_per_search": _metric("count", "lower", _SEARCH),
    "align.step_ms": _metric("ms", "lower", _TRAIN),
    "align.compute_loss_ms": _metric("ms", "lower", _TRAIN),
    "align.adam_step_ms": _metric("ms", "lower", _TRAIN),
    "align.epoch_eval_share": _metric("ratio", "lower", _TRAIN),
    "align.holdout_mean_rank_t2i": _metric("rank", "lower", "quality gate of train"),
    "eval.retrieval_metrics_ms": _metric("ms", "lower", f"{_EVAL}; {_TRAIN}"),
    "eval.knn_probe_ms": _metric("ms", "lower", _EVAL),
    "eval.ndcg_binary_calls": _metric("count", "lower", _EVAL),
    "eval.ndcg_binary_ms": _metric("ms", "lower", _EVAL),
    "eval.pca_dim_sweep_ms": _metric("ms", "lower", _EVAL),
    "linalg.kmeans_fit_ms": _metric("ms", "lower", _QUANT),
    "linalg.kmeans_fit.calls": _metric("count", "lower", _QUANT),
    "linalg.kmeans_refine_ms": _metric("ms", "lower", _QUANT),
    "linalg.lloyd_iters": _metric("count", "lower", _QUANT),
    "linalg.procrustes_ms": _metric("ms", "lower", _QUANT),
    "linalg.pca_fit_ms": _metric("ms", "lower", f"{_EVAL}; {_QUANT}"),
    "codec.opq_train_ms": _metric("ms", "lower", _QUANT),
    "codec.pq_train_ms": _metric("ms", "lower", _QUANT),
    "codec.encode_ms": _metric("ms", "lower", f"{_QUANT}; {_ENCODE}"),
    "codec.decode_ms": _metric("ms", "lower", _QUANT),
    "codec.compression_report_ms": _metric("ms", "lower", _QUANT),
    "codec.save_codec_ms": _metric("ms", "lower", _QUANT),
    "codec.load_codec_ms": _metric("ms", "lower", _ENCODE),
    "codec.save_embeddings_mb_per_s": _metric("MB/s", "higher", f"{_QUANT}; setup_s on all"),
    "codec.load_embeddings_mb_per_s": _metric("MB/s", "higher", f"{_QUANT}; {_SEARCH}"),
    "codec.opq_objective": _metric("sq_error", "lower", "quality of compress"),
    "codec.relative_error": _metric("ratio", "lower", "quality gate of compress"),
    "synth.generate_ms": _metric("ms", "lower", "setup_s on all"),
    "synth.save_dataset_ms": _metric("ms", "lower", "setup_s on all"),
    "synth.load_dataset_ms": _metric("ms", "lower", f"setup_s on all; {_SEARCH}"),
    "synth.load_dataset.calls_per_search": _metric("count", "lower", _SEARCH),
})
for _stage, _moves in (
    ("gen", "setup_s on all"), ("train", _TRAIN), ("quantize", _QUANT),
    ("eval", _EVAL), ("search", _SEARCH),
):
    LAYER_MOVES[f"cli.{_stage}.self_ms"] = _metric("ms", "lower", _moves)
for _module in MODULES + ("bench",):
    LAYER_MOVES[f"share.{_module}"] = _metric("ratio", "lower", "share of workload wall time")
LAYER_MOVES["trace.overhead_share"] = _metric("ratio", "lower", "tracing cost")
LAYER_MOVES["trace.spans"] = _metric("count", "lower", "tracing volume")

PER_LAYER = tuple(LAYER_MOVES)


def _flags(spans, names):
    """For each span: does it or an ancestor carry one of ``names``?"""
    out = []
    for name, _, _, parent, _, _ in spans:
        out.append(name in names or (parent >= 0 and out[parent]))
    return out


def layer_metrics(spans: list, wall_ns: int, figures: dict) -> dict:
    """Reduce spans to the PER_LAYER metrics (zero where a layer did no work).

    ``wall_ns`` is the traced wall time the shares divide; ``figures`` holds
    the values the workload itself measured (quality, tracing overhead).
    """
    n = len(spans)
    child = [0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns = [s[2] - s[1] - child[i] for i, s in enumerate(spans)]
    in_step = _flags(spans, _STEP_FORWARD)
    in_train = _flags(spans, ("align.train",))
    in_search = _flags(spans, ("cli.search",))

    def select(name, where=None):
        return [i for i, s in enumerate(spans) if s[0] == name and (where is None or where[i])]

    def ms(name, where=None):
        return sum(self_ns[i] for i in select(name, where)) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    steps = len(select("align.adam_step"))
    searches = len(select("cli.search"))
    m = {}
    for op in REPORTED_OPS:
        name = f"autodiff.{op}"
        m[f"{name}.calls_per_step"] = ratio(len(select(name, in_step)), steps)
        m[f"{name}.ms_per_step"] = ratio(ms(name, in_step), steps)
    mm = select("autodiff.matmul")
    m["autodiff.matmul.gflop_per_s"] = ratio(
        sum(spans[i][5] for i in mm), sum(self_ns[i] for i in mm)
    )  # flop per ns is GFLOP per s
    m["autodiff.tape_nodes_per_step"] = ratio(
        sum(spans[i][5] for i in select("model.backward")), steps
    )
    m["autodiff.backward_ms_per_step"] = ratio(ms("autodiff.backward"), steps)

    for fn in ("forward_batch", "backward", "encode_photoset_batch", "encode_text",
               "save_checkpoint", "load_checkpoint"):
        m[f"model.{fn}_ms"] = ms(f"model.{fn}")
    encoded = sum(
        spans[i][5]
        for name in ("model.encode_photoset_batch", "model.encode_text")
        for i in select(name, in_search)
    )
    m["model.encode_rows_per_search"] = ratio(encoded, searches)

    starts = [spans[i][1] for i in select("model.forward_batch", in_train)]
    ends = [spans[i][2] for i in select("align.adam_step")]
    m["align.step_ms"] = ratio(sum(e - s for s, e in zip(starts, ends)) / 1e6, len(ends))
    m["align.compute_loss_ms"] = ms("align.compute_loss")
    m["align.adam_step_ms"] = ms("align.adam_step")
    epoch_eval = [i for name in _EPOCH_EVAL for i in select(name, in_train) if not in_step[i]]
    m["align.epoch_eval_share"] = ratio(
        sum(spans[i][2] - spans[i][1] for i in epoch_eval),
        sum(spans[i][2] - spans[i][1] for i in select("cli.train")),
    )
    m["align.holdout_mean_rank_t2i"] = figures.get("holdout_mean_rank_t2i", 0.0)

    for fn in ("retrieval_metrics", "knn_probe", "ndcg_binary", "pca_dim_sweep"):
        m[f"eval.{fn}_ms"] = ms(f"eval.{fn}")
    m["eval.ndcg_binary_calls"] = float(len(select("eval.ndcg_binary")))

    m["linalg.kmeans_fit_ms"] = ms("linalg.kmeans_fit")
    m["linalg.kmeans_fit.calls"] = float(len(select("linalg.kmeans_fit")))
    m["linalg.kmeans_refine_ms"] = ms("linalg.kmeans_refine")
    m["linalg.lloyd_iters"] = float(sum(
        spans[i][5] for name in ("linalg.kmeans_fit", "linalg.kmeans_refine") for i in select(name)
    ))
    m["linalg.procrustes_ms"] = ms("linalg.procrustes")
    m["linalg.pca_fit_ms"] = ms("linalg.pca_fit")

    for fn in ("opq_train", "pq_train", "encode", "decode", "compression_report",
               "save_codec", "load_codec"):
        m[f"codec.{fn}_ms"] = ms(f"codec.{fn}")
    for io in ("save", "load"):
        picked = select(f"codec.{io}_embeddings")
        m[f"codec.{io}_embeddings_mb_per_s"] = ratio(
            sum(spans[i][5] for i in picked) * 1e3, sum(self_ns[i] for i in picked)
        )  # bytes per ns times 1e3 is MB per s
    fits = select("codec.opq_train")
    m["codec.opq_objective"] = spans[fits[-1]][5] if fits else 0.0
    m["codec.relative_error"] = figures.get("codec_relative_error", 0.0)

    for fn in ("generate", "save_dataset", "load_dataset"):
        m[f"synth.{fn}_ms"] = ms(f"synth.{fn}")
    m["synth.load_dataset.calls_per_search"] = ratio(
        len(select("synth.load_dataset", in_search)), searches
    )

    for stage in ("gen", "train", "quantize", "eval", "search"):
        m[f"cli.{stage}.self_ms"] = ms(f"cli.{stage}")

    shares = {module: 0 for module in MODULES}
    for i, s in enumerate(spans):
        module = s[0].split(".", 1)[0]
        if module in shares:
            shares[module] += self_ns[i]
    for module in MODULES:
        m[f"share.{module}"] = ratio(shares[module], wall_ns)
    m["share.bench"] = 1.0 - sum(m[f"share.{module}"] for module in MODULES)
    m["trace.overhead_share"] = figures.get("trace_overhead_share", 0.0)
    m["trace.spans"] = float(n)
    return {name: float(m[name]) for name in PER_LAYER}
