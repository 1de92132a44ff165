"""Regenerate data/checkpoint.bin, the trained decoder the workloads start
from: eval-holdout evaluates it and the train workloads resume from it.

It trains the default configuration (200 scenes, 1000 steps) with the
``mp-all+noises`` variant at seed 0, as ``mpseg train`` would, and saves
the result. The file is kept as benchmark data so that every commit is
measured on the same weights; rerun this only when the checkpoint format
changes.

    python3 bench/make_checkpoint.py
"""

from __future__ import annotations

import sys

import environment

CHECKPOINT = environment.ROOT / "bench" / "data" / "checkpoint.bin"
VARIANT = "mp-all+noises"
SEED = 0


def main() -> int:
    environment.import_mpseg()
    from mpseg import config, decoder, trainer

    cfg = config.parse_run_config({"variant": VARIANT, "seed": SEED})
    config.apply_variant(cfg)
    params, report, synth_cfg = trainer.run_training(cfg, log=print)
    decoder.save_checkpoint(CHECKPOINT, params,
                            extra_meta={"feat_dim": synth_cfg.feat_dim,
                                        "variant": VARIANT, "seed": SEED})
    sys.stdout.write(report.to_text())
    print(f"wrote {CHECKPOINT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
