"""The benchmark's workloads: `fedmm train` config overrides plus the
outputs pinned at the default seed.

Each workload is a list of `--set` overrides of keys in fedmm's config
SCHEMA; the benchmark adds only `seed` and a fresh absolute `out_dir`.
`fl.rounds` sets the run length. `pinned` holds the sha256 of the three
deterministic outputs and the final eval value at DEFAULT_SEED; a change
that alters those bytes on purpose updates them here and says why.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
OUTPUT_FILES = ("runlog.jsonl", "server_state.bin", "model.bin")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: tuple[str, ...]
    reg_bypassed: bool  # every client aligned, so the proximal term never runs
    pinned: dict[str, object]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cross_reg",
            why="cross-modality clients: forward/backward, the proximal term and local Adam dominate; final macro-F1 stays below 1",
            overrides=(
                "scenario.kind=cross",
                "synth.samples_per_class=100",
                "synth.noise_scale=3.0",
                "synth.test_samples_per_class=50",
                "local.epochs=3",
                "fl.aggregator=adagrad",
                "fl.rounds=90",
                "fl.eval_every=10",
            ),
            reg_bypassed=False,
            pinned={
                "runlog.jsonl": "bfa4ea142cd575ac77b9be4d0b30b29eee200e1a1919bd0e5c0034d8c5c0e6bd",
                "server_state.bin": "9ca9518e42a17d2174bcd96c8fef6b6e5dc5be8888c86b0c9a56064eb1c80ebc",
                "model.bin": "2f582b10eeb8877d4dccb47b85675c252a28ab3c94d0b9e3fd892eac6075260b",
                "final_metric": 0.9101461840774957,
            },
        ),
        Workload(
            name="aligned_eval",
            why="aligned clients bypass the regularizer; evaluating 2,000 test rows every round makes forward-only model time dominate",
            overrides=(
                "scenario.kind=aligned",
                "synth.test_samples_per_class=500",
                "fl.rounds=100",
                "fl.eval_every=1",
            ),
            reg_bypassed=True,
            pinned={
                "runlog.jsonl": "4297d4c8558fe9adae874830073b66fac9f7ff9bc7be334bc7028322ed524e16",
                "server_state.bin": "d2517b49986b9023b57d7354a0a091e71f9ecfded529fa9f30aa05420f08c5d7",
                "model.bin": "e60c412b464eed8774a8800fe19f70f8191750b136f12d0640db8340596baca1",
                "final_metric": 1.0,
            },
        ),
        Workload(
            name="many_clients",
            why="100 hybrid clients, 50 per round, one local step each: per-client fixed cost and aggregation over 50 deltas dominate",
            overrides=(
                "scenario.kind=hybrid",
                "scenario.keep_prob=0.7",
                "scenario.clients=100",
                "fl.clients_per_round=50",
                "synth.samples_per_class=100",
                "fl.rounds=30",
                "fl.aggregator=yogi",
            ),
            reg_bypassed=False,
            pinned={
                "runlog.jsonl": "12d521942a13482fa51c74718dc4a977dbcede8f29fe8d768a8459e640f6362d",
                "server_state.bin": "c821a090090c710244ffb49b941c81f3556cf08cfb4b5d7864f7de5625e8034c",
                "model.bin": "c70653fa97d7bf4818f91568a3e6c6bb218502493a0440cdc8a805b9b304c470",
                "final_metric": 1.0,
            },
        ),
    )
}
