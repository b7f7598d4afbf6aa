"""SHA-256 of every output of two fixed runs, and one digest over them all.

Run it on two trees to see whether a change kept their outputs byte for byte:

    python tests/output_hashes.py

It imports the package from the `src` directory beside this file, so each
tree hashes its own code.  The runs:

- the determinism acceptance run (util.determinism_run, which
  test_acceptance.py::test_determinism_byte_identical runs twice):
  best.ckpt, last.ckpt and train_log.jsonl;
- a CLI sweep: gen-data (60 sentences), then for each model kind and
  extractor setting in SWEEP at max_tokens 120 and 16, with dropout 0.25:
  train 2 epochs, resume to 3, and predict the test split with best.ckpt
  and the dev split with last.ckpt.

Every path is relative to one work directory, so the files, which record
their paths, do not depend on where it is.  It prints one `sha256  path`
line per file, sorted by path, then `digest  <sha256 of those lines>`.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import yaml  # noqa: E402

from nuggetnet.cli import main  # noqa: E402

from util import determinism_run  # noqa: E402

# run name -> (kind, extractor settings) of each CLI run.  Between them they hold every fusion case: a
# gate two heads share (proposal-general), a gate per head (proposal-task_specific), one head's gate
# (iob-general, iob-task_specific), concat for two heads and for one, and a lone branch for two heads
# (proposal-chars) and for one (wordwise).
SWEEP = {
    "proposal-task_specific": ("proposal", {"hybrid_mode": "task_specific"}),
    "proposal-general": ("proposal", {"hybrid_mode": "general"}),
    "proposal-concat": ("proposal", {"hybrid_mode": "concat"}),
    "proposal-chars": ("proposal", {"hybrid_mode": "task_specific", "use_words": False}),
    "iob-task_specific": ("iob", {"hybrid_mode": "task_specific"}),
    "iob-general": ("iob", {"hybrid_mode": "general"}),
    "iob-concat": ("iob", {"hybrid_mode": "concat"}),
    "wordwise-task_specific": ("wordwise", {"hybrid_mode": "task_specific", "use_chars": False}),
}
MAX_TOKENS = (120, 16)
EXTRACTOR = {"token_emb_dim": 12, "pos_emb_dim": 3, "n_filters": 8, "window": 3, "lex_window": 1, "proj_dim": 12}


def cli(*args: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(list(args))
    if rc != 0:
        raise SystemExit(f"nuggetnet {' '.join(args)} exited with {rc}")


def cli_sweep() -> None:
    cli("gen-data", "--out", "data", "--n-sentences", "60")
    for name, (kind, settings) in SWEEP.items():
        for max_tokens in MAX_TOKENS:
            run = f"{name}-{max_tokens}"
            extractor = {**EXTRACTOR, **settings, "dropout": 0.25}
            config = {
                "model": {"kind": kind, "max_tokens": max_tokens, "extractor": extractor},
                "training": {"epochs": 2, "batch_size": 16, "rng_seed": 3},
                "data": {split: f"data/{split}.jsonl" for split in ("train", "dev", "test")},
                "out_dir": run,
            }
            path = f"{run}.yaml"
            for epochs, resume in ((2, []), (3, ["--resume"])):
                config["training"]["epochs"] = epochs
                Path(path).write_text(yaml.safe_dump(config), encoding="utf-8")
                cli("train", "--config", path, *resume)
            cli("predict", "--model", f"{run}/best.ckpt", "--input", "data/test.jsonl", "--out", f"{run}/test.pred.jsonl")
            cli("predict", "--model", f"{run}/last.ckpt", "--input", "data/dev.jsonl", "--out", f"{run}/dev.pred.jsonl")


def main_hashes() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            determinism_run("determinism")
            cli_sweep()
            lines = [
                f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}"
                for path in sorted(Path(".").rglob("*"))
                if path.is_file()
            ]
        finally:
            os.chdir(home)
    listing = "".join(f"{line}\n" for line in lines)
    print(listing, end="")
    print(f"digest  {hashlib.sha256(listing.encode()).hexdigest()}")


if __name__ == "__main__":
    main_hashes()
