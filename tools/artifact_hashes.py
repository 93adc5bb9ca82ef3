"""Hash every artifact a fixed set of listalign commands writes.

    python3 tools/artifact_hashes.py                      # name sha256 per output
    python3 tools/artifact_hashes.py --against ../other   # names whose hash differs

The command set runs in a temporary directory with BLAS on one thread:
``gen``; ``train`` at the default config, ``set_encoder.pool: "mean"``,
``loss.kind: "siglip"`` and ``schedule.grad_accum: 2``; ``quantize`` for
every ``codec.KINDS`` entry, and once more as OPQ with ``rotated_dim`` 20 over
the 16-wide ``text.emb`` (``m`` 5, so its last subspace is all padding, and
``outer_iters`` 2); per trained checkpoint, on the saved gallery and
on a copy of the checkpoint without one, ``eval --sweep 2,8,16,64
--quantize-sweep --sweep-csv`` (64 being the default width, the last dim
projects onto every row of the sweep basis), ``report`` of that eval and
``search`` in all three modalities: 50 commands and 118 outputs with four
codec kinds. Each file written is one output, and so is each command's
stdout (``<name>.stdout``); a command that fails stops the run. A change
that must keep every artifact's bytes runs ``--against`` a checkout of its
parent: no line printed means no difference, and the exit code is 1 when
any output differs.

Exact hashes depend on the host's BLAS and CPU, so compare two trees on one
host; this is not a test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"
TRAIN_CONFIGS = {
    "default": {},
    "pool-mean": {"set_encoder": {"pool": "mean"}},
    "siglip": {"loss": {"kind": "siglip"}},
    "grad-accum-2": {"schedule": {"grad_accum": 2}},
}
MODALITIES = ("photo", "text", "multimodal")
PADDED_OPQ = {"codec": {"kind": "opq", "m": 5, "rotated_dim": 20, "outer_iters": 2}}


def _codec_kinds(tree: str) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", "from listalign import codec; print(' '.join(codec.KINDS))"],
        env=_env(tree), check=True, capture_output=True, text=True,
    )
    return out.stdout.split()


def _env(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _first_holdout_id(work: str) -> str:
    with open(os.path.join(work, "data", "holdout", "dataset.jsonl"), encoding="utf-8") as fh:
        return str(json.loads(fh.readline())["id"])


def run_commands(tree: str, work: str) -> dict[str, str]:
    """Run the command set from tree's src inside work; {output name: sha256}."""
    env = _env(tree)
    hashes: dict[str, str] = {}

    def cli(name: str, *argv: str) -> None:
        done = subprocess.run([sys.executable, "-m", "listalign", *argv], cwd=work, env=env,
                              capture_output=True)
        if done.returncode:
            raise SystemExit(f"{tree}: {name} exited {done.returncode}: {done.stderr.decode()}")
        hashes[f"{name}.stdout"] = hashlib.sha256(done.stdout).hexdigest()

    cli("gen", "gen", "--seed", SEED, "--out", "data", "--quiet")
    query_id = _first_holdout_id(work)
    for kind in _codec_kinds(tree):
        cli(f"quantize-{kind}", "quantize", "--kind", kind, "--emb", "data/train/text.emb",
            "--out", f"quantize-{kind}", "--quiet")
    with open(os.path.join(work, "opq-padded.json"), "w", encoding="utf-8") as fh:
        json.dump(PADDED_OPQ, fh)
    cli("quantize-opq-padded", "quantize", "--config", "opq-padded.json", "--emb",
        "data/train/text.emb", "--out", "quantize-opq-padded", "--quiet")
    for label, overrides in TRAIN_CONFIGS.items():
        config = os.path.join(work, f"{label}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(overrides, fh)
        out = f"train-{label}"
        cli(out, "train", "--config", config, "--seed", SEED, "--data", "data", "--out", out,
            "--quiet")
        miss = f"nogallery-{label}"
        os.makedirs(os.path.join(work, miss))
        shutil.copy(os.path.join(work, out, "checkpoint.blm"), os.path.join(work, miss))
        for name, where in ((label, out), (miss, miss)):
            cli(f"eval-{name}", "eval", "--data", "data", "--model", f"{where}/checkpoint.blm",
                "--sweep", "2,8,16,64", "--quantize-sweep", "--sweep-csv", f"eval-{name}.csv",
                "--out", f"eval-{name}.json", "--quiet")
            cli(f"report-{name}", "report", f"eval-{name}.json")
        for modality in MODALITIES:
            for where in (out, miss):
                cli(f"search-{modality}-{where}", "search", "--data", "data",
                    "--model", f"{where}/checkpoint.blm", "--query-id", query_id,
                    "--modality", modality)
    for base, _dirs, files in os.walk(work):
        for file in files:
            path = os.path.join(base, file)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, work)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def hashes_of(tree: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory(prefix="artifact-hashes-") as work:
        return run_commands(os.path.abspath(tree), work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="a second checkout; print only the outputs that differ")
    args = parser.parse_args(argv)
    ours = hashes_of(ROOT)
    if args.against is None:
        for name, digest in ours.items():
            print(f"{name} {digest}")
        return 0
    theirs = hashes_of(args.against)
    differ = sorted(name for name in ours.keys() | theirs.keys() if ours.get(name) != theirs.get(name))
    for name in differ:
        print(name)
    print(f"{len(ours)} outputs, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
