import numpy as np
import pytest

from petseg import blas, discriminator
from petseg.discriminator import (
    DEFAULT_ARCH,
    DiscriminatorModel,
    LabeledMip,
    TrainConfig,
    Tracer,
    cross_validate,
    load_mip_dataset,
    predict_tracer,
    save_mip_dataset,
    stratified_folds,
    train_fold,
    write_history_csv,
)
from petseg.errors import DivergedLoss, EmptySplit, TooFewSamples, ValidationError
from petseg.nn import Conv2DSpec, LinearSpec, SigmoidSpec, infer_shapes
from petseg.preprocess import MipImage


def synthetic_mip(rng, bright_top: bool, case_id: str) -> LabeledMip:
    """Tiny stand-in images: FDG-like has a bright blob in the superior
    band, PSMA-like in the inferior band."""
    img = rng.uniform(0.0, 0.05, size=(224, 224))
    if bright_top:
        img[90:140, 180:210] += 0.8
    else:
        img[90:140, 20:50] += 0.8
    label = 0 if bright_top else 1
    return LabeledMip(MipImage(img, (3.0, 3.0)), label, case_id)


def toy_dataset(rng, n):
    return [synthetic_mip(rng, i % 2 == 0, f"toy_{i:03d}") for i in range(n)]


FAST = TrainConfig(max_epochs=12, patience=3, batch_size=8, seed=0)


class TestArchitecture:
    def test_six_convs_five_linears(self):
        convs = [s for s in DEFAULT_ARCH if isinstance(s, Conv2DSpec)]
        linears = [s for s in DEFAULT_ARCH if isinstance(s, LinearSpec)]
        assert len(convs) == 6
        assert len(linears) == 5
        assert isinstance(DEFAULT_ARCH[-1], SigmoidSpec)

    def test_input_flows_to_scalar(self):
        shapes = infer_shapes(DEFAULT_ARCH, (1, 224, 224))
        assert shapes[-1] == (1,)
        # six stride-2 convs: 224 -> 112 -> 56 -> 28 -> 14 -> 7 -> 4
        conv_hw = [s for s in shapes if len(s) == 3]
        assert conv_hw[-1] == (64, 4, 4)


class TestTrainFold:
    def test_separable_toy_set_trains(self, rng):
        data = toy_dataset(rng, 64)
        model, history = train_fold(data[:48], data[48:], FAST)
        assert history[-1].val_bce < history[0].val_bce
        x = np.stack([m.image.pixels for m in data[:48]])[:, None]
        p = model.network.forward(x)[:, 0]
        pred = (p >= 0.5).astype(int)
        labels = np.array([m.label for m in data[:48]])
        assert (pred == labels).mean() == 1.0

    def test_patience_zero_stops_at_first_plateau(self, rng):
        data = toy_dataset(rng, 16)
        # at lr=1e-12 no step moves the validation loss by 1e-6: epoch 2 cannot improve
        cfg = TrainConfig(lr=1e-12, max_epochs=50, patience=0, batch_size=8, seed=1)
        _, history = train_fold(data[:12], data[12:], cfg)
        assert len(history) == 2

    def test_empty_split_rejected(self, rng):
        data = toy_dataset(rng, 8)
        with pytest.raises(EmptySplit):
            train_fold([], data, FAST)
        with pytest.raises(EmptySplit):
            train_fold(data, [], FAST)

    def test_overlapping_case_ids_rejected(self, rng):
        data = toy_dataset(rng, 8)
        with pytest.raises(ValidationError):
            train_fold(data, data, FAST)

    def test_returns_best_epoch_parameters(self, rng):
        data = toy_dataset(rng, 32)
        model, history = train_fold(data[:24], data[24:], FAST)
        best = min(h.val_bce for h in history)
        x = np.stack([m.image.pixels for m in data[24:]])[:, None]
        y = np.array([[m.label] for m in data[24:]], dtype=float)
        from petseg.nn import bce_with_logits

        z = model.network.forward_logits(x)
        loss, _ = bce_with_logits(z, y)
        assert float(loss.mean()) == pytest.approx(best, abs=1e-12)

    def test_deterministic_with_seed(self, rng):
        data = toy_dataset(rng, 16)
        cfg = TrainConfig(max_epochs=3, batch_size=8, seed=11)
        m1, h1 = train_fold(data[:12], data[12:], cfg)
        m2, h2 = train_fold(data[:12], data[12:], cfg)
        assert h1 == h2
        for k, v in m1.network.parameters().items():
            assert np.array_equal(v, m2.network.parameters()[k])


    @pytest.mark.parametrize("batch", [1, 3, 16, 17])
    def test_sharded_gradients_match_the_full_batch(self, rng, batch):
        data = toy_dataset(rng, batch)
        labels = discriminator._labels(data)
        network = DiscriminatorModel.fresh(seed=3).network
        with discriminator._sharded(network) as run:  # batch 1 leaves the second shard empty
            loss, grads = discriminator._train_step(run, data, labels, np.arange(batch))
        x = np.stack([m.image.pixels for m in data])[:, None]
        full_loss, full_grads = network.loss_and_gradients(x, labels, batch)
        assert loss == pytest.approx(float(full_loss.sum()), rel=1e-12)
        for name, g in full_grads.items():
            assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name

    def test_blas_threads_pinned_and_restored(self, rng, monkeypatch):
        if blas.threads() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be reached here")
        data = toy_dataset(rng, 12)
        cfg = TrainConfig(max_epochs=1, batch_size=4)
        seen = []
        step_shard = discriminator._step_shard

        def recording_step(*args, **kwargs):
            seen.append(blas.threads())
            return step_shard(*args, **kwargs)

        monkeypatch.setattr(discriminator, "_step_shard", recording_step)
        with blas.pinned(2):
            train_fold(data[:8], data[8:], cfg)
            assert blas.threads() == 2
            monkeypatch.setattr(discriminator, "bce_with_logits",
                                lambda z, y: (np.full(z.shape, np.nan), np.zeros(z.shape)))
            with pytest.raises(DivergedLoss):
                train_fold(data[:8], data[8:], cfg)
            assert blas.threads() == 2
        assert seen and set(seen) == {1}


class TestCrossValidate:
    def test_fold_partition_10_samples(self, rng):
        data = toy_dataset(rng, 10)
        folds = stratified_folds(data, 5, seed=0)
        sizes = [len(f) for f in folds]
        assert sizes == [2, 2, 2, 2, 2]
        seen = sorted(i for f in folds for i in f)
        assert seen == list(range(10))
        for f in folds:
            labels = sorted(data[i].label for i in f)
            assert labels == [0, 1]  # stratified

    def test_stratification_within_one_sample(self, rng):
        data = toy_dataset(rng, 23)  # 12 FDG, 11 PSMA
        folds = stratified_folds(data, 5, seed=3)
        for f in folds:
            zeros = sum(1 for i in f if data[i].label == 0)
            ones = len(f) - zeros
            assert abs(zeros - ones) <= 1

    def test_too_few_samples(self, rng):
        with pytest.raises(TooFewSamples):
            cross_validate(toy_dataset(rng, 3), k=5, cfg=FAST)

    def test_empty_fold_rejected_before_training(self, rng, monkeypatch):
        monkeypatch.setattr(discriminator, "train_fold", None)  # must not be reached
        with pytest.raises(ValidationError, match=r"k=3 .* 2 FDG and 2 PSMA"):
            cross_validate(toy_dataset(rng, 4), k=3, cfg=FAST)

    def test_separable_toy_cv_perfect(self, rng):
        data = toy_dataset(rng, 40)
        result = cross_validate(data, k=4, cfg=FAST)
        assert len(result.fold_accuracies) == 4
        held = sorted(cid for fold in result.fold_case_ids for cid in fold)
        assert held == sorted(m.case_id for m in data)
        assert result.mean_accuracy >= 0.95


class TestPredictTracer:
    def test_zero_weights_tie_goes_to_psma(self, rng):
        model = DiscriminatorModel.fresh(seed=0)
        for params in model.network.parameters().values():
            params[...] = 0.0
        mip = MipImage(rng.uniform(0, 1, size=(224, 224)), (3.0, 3.0))
        pred = predict_tracer(model, mip)
        assert pred.probability == 0.5
        assert pred.tracer is Tracer.PSMA
        assert pred.wall_time_s > 0.0

    def test_trained_model_classifies_fdg_like(self, rng):
        data = toy_dataset(rng, 32)
        model, _ = train_fold(data[:24], data[24:], FAST)
        fdg_like = synthetic_mip(rng, True, "probe")
        pred = predict_tracer(model, fdg_like.image)
        assert pred.probability < 0.5
        assert pred.tracer is Tracer.FDG

    def test_bitwise_repeatable(self, rng):
        model = DiscriminatorModel.fresh(seed=4)
        mip = MipImage(rng.uniform(0, 1, size=(224, 224)), (3.0, 3.0))
        a = predict_tracer(model, mip)
        b = predict_tracer(model, mip)
        assert a.probability == b.probability


class TestModelAndDatasetIo:
    def test_model_save_load_predicts_identically(self, tmp_path, rng):
        model = DiscriminatorModel.fresh(seed=21)
        mip = MipImage(rng.uniform(0, 1, size=(224, 224)), (3.0, 3.0))
        expected = predict_tracer(model, mip).probability
        model.save(tmp_path / "disc.json")
        loaded = DiscriminatorModel.load(tmp_path / "disc.json")
        assert loaded.seed == 21
        assert predict_tracer(loaded, mip).probability == expected

    def test_mip_dataset_round_trip(self, tmp_path, rng):
        mips = toy_dataset(rng, 6)
        manifest = save_mip_dataset(tmp_path, mips)
        back = load_mip_dataset(manifest)
        assert len(back) == 6
        for orig, loaded in zip(mips, back):
            assert loaded.case_id == orig.case_id
            assert loaded.label == orig.label
            # written as float32 NIfTI
            assert np.allclose(loaded.image.pixels, orig.image.pixels, atol=1e-7)

    def test_raw_f32_mips_load(self, tmp_path, rng):
        img = rng.uniform(0, 1, size=(224, 224)).astype("<f4")
        (tmp_path / "m.f32").write_bytes(img.tobytes())
        (tmp_path / "manifest.json").write_text(
            '[{"case_id": "raw0", "mip_path": "m.f32", "label": 1}]'
        )
        back = load_mip_dataset(tmp_path / "manifest.json")
        assert back[0].label == 1
        assert np.allclose(back[0].image.pixels, img.astype(np.float64))

    def test_history_csv(self, tmp_path, rng):
        data = toy_dataset(rng, 16)
        _, history = train_fold(data[:12], data[12:], TrainConfig(max_epochs=2, batch_size=8))
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_bce,val_bce,val_acc,epoch_s"
        assert len(lines) == len(history) + 1
        for line, stats in zip(lines[1:], history):
            epoch_s = float(line.split(",")[4])
            assert epoch_s > 0.0 and epoch_s == pytest.approx(stats.epoch_s, abs=5e-4)
