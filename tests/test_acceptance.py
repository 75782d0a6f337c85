"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
`[acceptance] N <name>: PASS|FAIL` line outside pytest's capture so the
verdicts are visible in any run mode. Tolerances and budgets are stated
inline next to each assertion.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import partition_of, shards, tiny_manifest
from fedmm import rng
from fedmm.client import (
    LocalTrainConfig,
    RegularizerConfig,
    build_train_set,
    make_reg_context,
    masked_depths,
    reg_value_and_grad,
)
from fedmm.cli import run as cli_run
from fedmm.data import Sample, SynthConfig, synth_generate
from fedmm.metrics import EvalSet, macro_f1, roc_auc
from fedmm.model import (
    AdapterDelta,
    ModelConfig,
    compose_updates,
    init_model,
    loss_and_grad,
    make_batch,
)
from fedmm.partitioner import (
    ScenarioSpec,
    build_scenario,
    dirichlet_partition,
)
from fedmm.server import (
    DEFAULT_SERVER_LR,
    FLRunConfig,
    init_server_state,
    local_baseline,
    run_rounds,
    server_step,
)
from fedmm.promptgen import HATEFUL_MEMES, format_record, serialize_record
from test_metrics import confusion_f1, pairwise_auc
from test_model import central_difference, relative_errors
from test_server import one_param_state, scalar_oracle

GOLDEN_DIR = Path(__file__).parent / "goldens"


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {num} {name}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"[acceptance] {num} {name}: PASS")


# ---------------------------------------------------------------- 1


def test_01_gradient_correctness(capsys):
    with criterion(capsys, 1, "gradient correctness"):
        started = time.perf_counter()
        shapes = [
            dict(modality_dims=(3, 2), hidden=4, encoder_depth=2, trunk_depth=2, class_count=3, rank=2),
            dict(modality_dims=(2, 2), hidden=3, encoder_depth=1, trunk_depth=0, class_count=2, rank=1),
            dict(modality_dims=(2, 3), hidden=4, encoder_depth=0, trunk_depth=1, class_count=4, rank=2),
            dict(modality_dims=(2, 2), hidden=3, encoder_depth=0, trunk_depth=0, class_count=2, rank=1),
            dict(modality_dims=(2, 2, 2), hidden=3, encoder_depth=1, trunk_depth=1, class_count=3, rank=1),
        ]
        worst = 0.0
        for i, shape in enumerate(shapes):
            cfg = ModelConfig(adapter_alpha=2.0, seed=100 + i, **shape)
            base, delta = init_model(cfg)
            gen = np.random.default_rng(200 + i)
            delta = replace(delta, flat=gen.normal(scale=0.3, size=delta.flat.size))
            target = replace(delta, flat=gen.normal(scale=0.2, size=delta.flat.size))
            # a margin that keeps at least one layer in the band, so the
            # proximal gradient is live in every config
            margin = 1 if cfg.depth >= 3 else 0
            ctx = make_reg_context(target, compose_updates(target), margin=margin, gamma=0.5)

            m = len(shape["modality_dims"])
            n = 6
            names = tuple(f"mod{j}" for j in range(m))
            from fedmm.data import DatasetManifest, ModalityDescriptor

            samples = []
            masks = []
            for row in range(n):
                keep = gen.random(m) < 0.7
                if not keep.any():
                    keep[gen.integers(m)] = True
                samples.append(
                    Sample(
                        id=f"r{row}",
                        label=int(gen.integers(0, shape["class_count"])),
                        features={
                            names[j]: gen.normal(size=shape["modality_dims"][j])
                            for j in range(m)
                            if keep[j]
                        },
                    )
                )
                masks.append(tuple(bool(k) for k in keep))
            manifest = DatasetManifest.from_records(
                modalities=tuple(
                    ModalityDescriptor(names[j], shape["modality_dims"][j]) for j in range(m)
                ),
                class_count=shape["class_count"],
                split="train",
                samples=samples,
            )
            batch = make_batch(manifest, range(len(samples)), masks)
            _, grad = loss_and_grad(base, delta, batch)
            reg_value_and_grad(delta, ctx, grad)

            def objective(vec):
                moved = replace(delta, flat=vec)
                return loss_and_grad(base, moved, batch)[0] + reg_value_and_grad(moved, ctx)[0]

            numeric = central_difference(objective, delta.flat)
            worst = max(worst, relative_errors(grad.flat, numeric).max())
        assert worst < 1e-4, f"worst relative error {worst:.2e}"
        assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------- 2


def test_02_optimizer_oracles(capsys):
    with criterion(capsys, 2, "optimizer oracle equivalence"):
        gen = np.random.default_rng(31)
        steps = gen.normal(scale=0.5, size=100)
        for kind in ("avgm", "adagrad", "adam", "yogi"):
            state, proto = one_param_state(kind)
            n = proto.flat.size
            got = []
            for d in steps:
                state = server_step(state, replace(proto, flat=np.full(n, d)))
                got.append(state.global_delta.flat[0])
            want = scalar_oracle(kind, steps, lr=DEFAULT_SERVER_LR[kind])
            assert np.allclose(got, want, rtol=0, atol=1e-12), kind

        # yogi == adam while sign(v - d^2) stays positive: feed steps with
        # d^2 = v/2 so both recurrences contract v identically
        adam, proto = one_param_state("adam")
        yogi, _ = one_param_state("yogi")
        n = proto.flat.size
        adam = replace(adam, second_moment=np.ones(n))
        yogi = replace(yogi, second_moment=np.ones(n))
        for _ in range(100):
            d = math.sqrt(yogi.second_moment[0] / 2.0)
            assert yogi.second_moment[0] - d * d > 0
            step = replace(proto, flat=np.full(n, d))
            adam = server_step(adam, step)
            yogi = server_step(yogi, step)
            assert np.allclose(adam.second_moment, yogi.second_moment, rtol=0, atol=1e-12)
        assert np.allclose(
            adam.global_delta.flat, yogi.global_delta.flat, rtol=0, atol=1e-12
        )


# ---------------------------------------------------------------- 3


def class_totals(manifest, partition):
    counts = np.zeros(manifest.class_count, dtype=int)
    for rows, _ in shards(partition):
        counts += np.bincount(manifest.labels[rows], minlength=manifest.class_count)
    return counts


def mean_tv(manifest, alpha, seeds):
    overall = np.bincount(
        [s.label for s in manifest.samples], minlength=manifest.class_count
    ) / len(manifest.samples)
    values = []
    for seed in seeds:
        partition = dirichlet_partition(manifest, 10, alpha, seed=seed)
        for rows, _ in shards(partition):
            if not len(rows):
                continue
            local = np.bincount(
                manifest.labels[rows],
                minlength=manifest.class_count,
            ) / len(rows)
            values.append(0.5 * np.abs(local - overall).sum())
    return float(np.mean(values))


def test_03_partition_laws(capsys):
    with criterion(capsys, 3, "partition laws"):
        manifest = tiny_manifest(class_count=4, per_class=50, seed=40)

        # (a) exact class-total conservation at every alpha
        want = class_totals(manifest, dirichlet_partition(manifest, 1, 1.0, seed=0))
        for alpha in (0.1, 0.5, 5.0, 100.0):
            partition = dirichlet_partition(manifest, 10, alpha, seed=41)
            assert np.array_equal(class_totals(manifest, partition), want)

        # (b) smaller alpha, larger mean TV distance (5 seeds)
        assert mean_tv(manifest, 0.5, range(5)) > mean_tv(manifest, 5.0, range(5))

        # (c) missing fraction 0.375 +- 0.02 per modality at beta=0.5, n=10000
        big = tiny_manifest(class_count=2, per_class=5000, seed=42)
        spec = ScenarioSpec(kind="missing", clients=1, alpha=1e6, seed=43, beta=0.5)
        partition = build_scenario(big, spec)
        masks = partition.masks
        assert masks.shape[0] == 10_000
        for m in range(2):
            fraction = 1.0 - masks[:, m].mean()
            assert abs(fraction - 0.375) <= 0.02, f"modality {m}: {fraction:.4f}"

        # (d) cross 3:7 puts exactly 3 clients on the image side
        spec = ScenarioSpec(kind="cross", clients=10, alpha=1.0, seed=44, image_only_clients=3)
        partition = build_scenario(manifest, spec)
        image_only = sum(
            1
            for rows, masks in shards(partition)
            if len(rows) and (masks == (True, False)).all()
        )
        text_only = sum(
            1
            for rows, masks in shards(partition)
            if len(rows) and (masks == (False, True)).all()
        )
        assert image_only == 3
        assert text_only == sum(1 for n in partition.sizes() if n) - image_only

        # (e) hybrid keep_prob=0.8: mean count of fully-moded clients 6.4 +- 0.5
        counts = []
        for seed in range(200):
            spec = ScenarioSpec(kind="hybrid", clients=10, alpha=1e6, seed=seed, keep_prob=0.8)
            partition = build_scenario(manifest, spec)
            full = sum(
                1
                for rows, masks in shards(partition)
                if len(rows) and masks.all()
            )
            counts.append(full)
        assert abs(np.mean(counts) - 6.4) <= 0.5, np.mean(counts)


# ---------------------------------------------------------------- 4


def test_04_gamma_and_mask_exactness(capsys):
    with criterion(capsys, 4, "gamma and mask exactness"):
        gamma_max = 0.1
        table = []
        # 6 aligned clients (both modalities everywhere)
        for i in range(6):
            masks = [(True, True)] * (4 + i)
            table.append((masks, 0.0))
        # 7 single-modality clients, image or text only
        for i in range(7):
            keep_image = i % 2 == 0
            masks = [(keep_image, not keep_image)] * (3 + i)
            table.append((masks, gamma_max))
        # 7 partial clients with known missing rates
        for i, (absent, total) in enumerate([(1, 4), (2, 4), (3, 4), (1, 8), (3, 8), (5, 8), (7, 8)]):
            masks = [(True, False)] * absent + [(True, True)] * (total - absent)
            beta = absent / (2 * total)
            table.append((masks, gamma_max * beta))
        assert len(table) == 20

        manifest = tiny_manifest(class_count=2, per_class=150, seed=45)
        start = np.cumsum([0, *(len(masks) for masks, _ in table)])
        parts = [(np.arange(a, b), np.array(masks)) for a, b, (masks, _) in zip(start, start[1:], table)]
        data = build_train_set(manifest, partition_of(parts), RegularizerConfig(gamma_max=gamma_max))
        for got, (masks, want) in zip(data.gamma, table):
            assert got == pytest.approx(want, abs=1e-15), masks

        assert masked_depths(8, 2) == range(2, 6)
        assert not masked_depths(4, 2)
        _, delta = init_model(ModelConfig(modality_dims=(2, 2), hidden=3, encoder_depth=1, trunk_depth=2, class_count=2, rank=1))
        with pytest.warns(UserWarning, match="^margin 2 masks out all 4 depths; regularizer is inert$"):
            assert make_reg_context(delta, compose_updates(delta), margin=2, gamma=0.5).slices == ()


# ---------------------------------------------------------------- 5


def test_05_metric_oracles(capsys):
    with criterion(capsys, 5, "metric oracles"):
        gen = np.random.default_rng(51)
        for _ in range(100):
            n = int(gen.integers(2, 201))
            labels = gen.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = gen.integers(0, 8, size=n).astype(float) / 7.0
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )
        for _ in range(50):
            class_count = int(gen.integers(2, 8))
            n = int(gen.integers(1, 150))
            labels = gen.integers(0, class_count, size=n)
            predictions = gen.integers(0, class_count, size=n)
            macro, per_class = macro_f1(predictions, labels, class_count)
            want_macro, want_per = confusion_f1(predictions, labels, class_count)
            assert macro == pytest.approx(want_macro, abs=1e-12)
            assert list(per_class) == pytest.approx(want_per, abs=1e-12)


# ---------------------------------------------------------------- 6


def fl_versus_local(seed):
    synth = SynthConfig(
        class_count=4, modalities=("image", "text"), dims=(16, 16),
        samples_per_class=100, centroid_scale=3.0, noise_scale=1.0, seed=seed,
    )
    train = synth_generate(synth, split="train")
    test = EvalSet(synth_generate(synth, split="test", samples_per_class=50))
    spec = ScenarioSpec(kind="aligned", clients=10, alpha=0.5, seed=seed)
    partition = build_scenario(train, spec)
    model_cfg = ModelConfig(
        modality_dims=(16, 16), hidden=32, encoder_depth=3, trunk_depth=4,
        class_count=4, rank=4, adapter_alpha=4.0, seed=seed,
    )
    fl_cfg = FLRunConfig(
        rounds=30, clients_per_round=2, aggregator="adam",
        local=LocalTrainConfig(epochs=1, batch_size=16, lr=1e-2),
        reg=RegularizerConfig(enabled=True), eval_every=10, seed=seed,
    )
    log, _, _ = run_rounds(fl_cfg, model_cfg, partition, train, test)
    baseline = local_baseline(
        model_cfg, partition, train, test,
        LocalTrainConfig(epochs=5, batch_size=16, lr=1e-2), seed=seed,
    )
    return log.final_eval()["accuracy"], baseline["mean_accuracy"]


def test_06_fl_beats_local(capsys):
    with criterion(capsys, 6, "federated beats isolated local training"):
        started = time.perf_counter()
        for seed in range(3):
            fl_acc, local_acc = fl_versus_local(seed)
            gap = fl_acc - local_acc
            assert gap >= 0.05, f"seed {seed}: FL {fl_acc:.3f} vs local {local_acc:.3f}"
        assert time.perf_counter() - started < 300.0


# ---------------------------------------------------------------- 7


def cross_run(seed, reg_enabled):
    synth = SynthConfig(
        class_count=4, modalities=("image", "text"), dims=(16, 16),
        samples_per_class=100, centroid_scale=3.0, noise_scale=3.0, seed=seed,
    )
    train = synth_generate(synth, split="train")
    test = EvalSet(synth_generate(synth, split="test", samples_per_class=50))
    spec = ScenarioSpec(kind="cross", clients=10, alpha=0.5, seed=seed, image_only_clients=5)
    partition = build_scenario(train, spec)
    model_cfg = ModelConfig(
        modality_dims=(16, 16), hidden=32, encoder_depth=3, trunk_depth=4,
        class_count=4, rank=4, adapter_alpha=4.0, seed=seed,
    )
    fl_cfg = FLRunConfig(
        rounds=30, clients_per_round=2, aggregator="adagrad",
        local=LocalTrainConfig(epochs=3, batch_size=16, lr=1e-2),
        reg=RegularizerConfig(enabled=reg_enabled, gamma_max=0.1, margin=2),
        eval_every=10, seed=seed,
    )
    log, _, _ = run_rounds(fl_cfg, model_cfg, partition, train, test)
    return log.final_eval()["value"]


def test_07_regularizer_helps_cross_modality(capsys):
    with criterion(capsys, 7, "regularizer helps under modality heterogeneity"):
        started = time.perf_counter()
        with_reg = np.mean([cross_run(seed, True) for seed in range(5)])
        without = np.mean([cross_run(seed, False) for seed in range(5)])
        assert with_reg >= without
        assert with_reg - without >= 0.005, f"gain {with_reg - without:+.4f}"
        assert time.perf_counter() - started < 900.0


# ---------------------------------------------------------------- 8


def test_08_prompt_golden_files(capsys):
    with criterion(capsys, 8, "prompt golden files"):
        sample = Sample(
            id="hm-00042", label=1,
            features={"image": np.zeros(4), "text": np.zeros(4)},
        )
        for agnostic, name in ((True, "hateful_memes_agnostic"), (False, "hateful_memes_plain")):
            record = format_record(
                sample, HATEFUL_MEMES, agnostic=agnostic, text="you deserve nothing"
            )
            got = (serialize_record(record) + "\n").encode("utf-8")
            assert got == (GOLDEN_DIR / f"{name}.jsonl").read_bytes(), name


# ---------------------------------------------------------------- 9


def test_09_train_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "byte-identical training reruns"):
        base_keys = [
            "synth.samples_per_class = 20",
            "synth.test_samples_per_class = 10",
            "synth.dims = 8,8",
            "scenario.clients = 4",
            "scenario.alpha = 0.5",
            "model.hidden = 8",
            "model.encoder_depth = 2",
            "model.trunk_depth = 2",
            "model.rank = 2",
            "fl.rounds = 4",
            "fl.eval_every = 2",
            "local.batch_size = 16",
            "seed = 21",
        ]
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            cfg_path = tmp_path / f"{tag}.cfg"
            cfg_path.write_text(
                "\n".join(base_keys + [f"out_dir = {out}"]) + "\n", encoding="utf-8"
            )
            assert cli_run(["train", "--config", str(cfg_path)]) == 0
            outs.append(out)
        for name in ("runlog.jsonl", "server_state.bin", "model.bin"):
            first = (outs[0] / name).read_bytes()
            second = (outs[1] / name).read_bytes()
            assert first == second, name
