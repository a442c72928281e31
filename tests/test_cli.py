import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from petseg import blas, cli, nifti
from petseg.discriminator import (
    CVResult,
    DiscriminatorModel,
    EpochStats,
    TrainConfig,
    save_mip_dataset,
    write_cv_csv,
    write_history_csv,
)
from petseg.errors import IoFailure
from petseg.manifest import manifest_path_for, write_run_manifest
from petseg.metrics import CaseMetrics, write_metrics_csv
from petseg.orchestrator import EnsembleConfig, SuvThresholdPredictor
from petseg.synthdata import Hotspot, PhantomSpec, TracerStyle, make_mip_dataset, make_phantom
from petseg.volume import Volume3D, VolumeKind


def write_phantom_files(tmp_path, style=TracerStyle.FDG_LIKE, seed=3, lesion_peak=16.0):
    extent = [(n - 1) * s for n, s in zip((96, 64, 160), (4.0, 4.0, 4.0))]
    spec = PhantomSpec(
        tracer_style=style,
        seed=seed,
        noise_sigma=0.02,
        hotspots=(Hotspot((extent[0] / 2, extent[1] / 2, extent[2] / 2), 30.0,
                          lesion_peak, is_lesion=True),),
    )
    pet, ct, lesion = make_phantom(spec)
    nifti.write_volume(pet, tmp_path / "pet.nii.gz")
    nifti.write_volume(ct, tmp_path / "ct.nii.gz")
    nifti.write_volume(lesion.to_label_volume(), tmp_path / "lesion.nii.gz")
    return pet, ct, lesion


def zero_model(tmp_path):
    model = DiscriminatorModel.fresh(seed=0)
    for arr in model.network.parameters().values():
        arr[...] = 0.0
    path = tmp_path / "zero_disc.json"
    model.save(path)
    return path


class TestBasicCommands:
    def test_inspect(self, tmp_path, capsys):
        vol = Volume3D(np.arange(24, dtype=np.float64).reshape(2, 3, 4), (1.5, 2.0, 2.5))
        nifti.write_volume(vol, tmp_path / "v.nii.gz")
        rc = cli.main(["inspect", str(tmp_path / "v.nii.gz")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(2, 3, 4)" in out
        assert "1.5" in out and "2.5" in out

    def test_resample_writes_output_and_manifest(self, tmp_path, capsys):
        vol = Volume3D(np.random.default_rng(0).random((10, 10, 10)), (2.0, 2.0, 2.0))
        nifti.write_volume(vol, tmp_path / "in.nii.gz")
        rc = cli.main(["resample", "--in", str(tmp_path / "in.nii.gz"),
                       "--out", str(tmp_path / "out.nii.gz"), "--spacing", "4,4,4"])
        assert rc == 0
        out = nifti.read_volume(tmp_path / "out.nii.gz")
        assert out.shape == (5, 5, 5)
        manifest = json.loads((tmp_path / "out.nii.gz.manifest.json").read_text())
        assert manifest["subcommand"] == "resample"
        assert manifest["config"]["spacing"] == [4, 4, 4]
        assert len(manifest["inputs"]) == 1

    def test_resample_nearest_labels(self, tmp_path):
        labels = Volume3D((np.arange(64) % 3).reshape(4, 4, 4).astype(np.int32),
                          (2.0, 2.0, 2.0), VolumeKind.LABEL)
        nifti.write_volume(labels, tmp_path / "l.nii.gz")
        rc = cli.main(["resample", "--in", str(tmp_path / "l.nii.gz"),
                       "--out", str(tmp_path / "l2.nii.gz"), "--spacing", "1",
                       "--mode", "nearest"])
        assert rc == 0
        out = nifti.read_volume(tmp_path / "l2.nii.gz")
        assert set(np.unique(out.data)) <= {0, 1, 2}

    def test_window_four_channels(self, tmp_path):
        write_phantom_files(tmp_path)
        rc = cli.main(["window", "--ct", str(tmp_path / "ct.nii.gz"),
                       "--pet", str(tmp_path / "pet.nii.gz"),
                       "--out-dir", str(tmp_path / "channels")])
        assert rc == 0
        clipped = nifti.read_volume(tmp_path / "channels" / "channel_3_pet_clipped.nii.gz")
        assert clipped.data.max() <= 20.0
        ct_clip = nifti.read_volume(tmp_path / "channels" / "channel_2_ct_clipped.nii.gz")
        assert ct_clip.data.min() >= -300.0
        assert (tmp_path / "channels" / "run_manifest.json").exists()

    def test_mip_output_is_224(self, tmp_path):
        write_phantom_files(tmp_path)
        rc = cli.main(["mip", "--pet", str(tmp_path / "pet.nii.gz"),
                       "--out", str(tmp_path / "mip.nii.gz")])
        assert rc == 0
        mip = nifti.read_volume(tmp_path / "mip.nii.gz")
        assert mip.shape == (224, 224, 1)
        assert mip.data.max() <= 1.0


class TestSynthTrainPredict:
    def test_synth_manifest_and_balance(self, tmp_path):
        rc = cli.main(["synth", "--n", "4", "--seed", "7", "--out-dir", str(tmp_path / "corpus")])
        assert rc == 0
        entries = json.loads((tmp_path / "corpus" / "mip_manifest.json").read_text())
        assert len(entries) == 4
        assert sum(e["label"] for e in entries) == 2
        assert (tmp_path / "corpus" / "run_manifest.json").exists()

    def test_train_then_predict_exit_codes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--n", "8", "--seed", "42", "--out-dir", str(corpus)]) == 0
        rc = cli.main(["train-disc", "--manifest", str(corpus / "mip_manifest.json"),
                       "--out-model", str(tmp_path / "disc.json"),
                       "--max-epochs", "6", "--patience", "2", "--batch-size", "4"])
        assert rc == 0
        assert (tmp_path / "disc.json").exists()
        assert (tmp_path / "disc.bin").exists()
        assert (tmp_path / "disc_history.csv").exists()

        write_phantom_files(tmp_path, style=TracerStyle.FDG_LIKE, seed=900)
        rc = cli.main(["predict-tracer", "--model", str(tmp_path / "disc.json"),
                       "--pet", str(tmp_path / "pet.nii.gz")])
        out = capsys.readouterr().out
        assert rc in (10, 11)
        assert "tracer=" in out and "probability=" in out

    def test_zero_model_exits_psma(self, tmp_path):
        model_path = zero_model(tmp_path)
        write_phantom_files(tmp_path)
        rc = cli.main(["predict-tracer", "--model", str(model_path),
                       "--pet", str(tmp_path / "pet.nii.gz")])
        assert rc == 11

    def test_cv_disc_runs(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--n", "10", "--seed", "5", "--out-dir", str(corpus)]) == 0
        rc = cli.main(["cv-disc", "--manifest", str(corpus / "mip_manifest.json"),
                       "--k", "2", "--max-epochs", "3", "--batch-size", "4",
                       "--out", str(tmp_path / "cv.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean accuracy" in out
        lines = (tmp_path / "cv.csv").read_text().strip().splitlines()
        assert lines[0] == "fold,accuracy,held_out"
        assert lines[-1].startswith("mean,")

    def test_cv_disc_fold_left_empty_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--n", "4", "--seed", "1", "--out-dir", str(corpus)]) == 0
        common = ["cv-disc", "--manifest", str(corpus / "mip_manifest.json"), "--max-epochs", "1"]
        capsys.readouterr()
        assert cli.main([*common, "--k", "3"]) == 3
        err = capsys.readouterr().err
        assert "k=3" in err and "2 FDG and 2 PSMA" in err and "Traceback" not in err
        assert cli.main([*common, "--k", "2"]) == 0

    def test_training_manifests_record_the_blas_pin(self, tmp_path, monkeypatch, small_corpus):
        from petseg import blas

        def host(name):
            return json.loads((tmp_path / f"{name}.manifest.json").read_text())["host"]

        common = ["--manifest", str(small_corpus), "--max-epochs", "1"]
        for pinned in (blas.threads() is not None, False):
            if not pinned:
                monkeypatch.setattr(blas, "_api", lambda: None)
            assert cli.main(["train-disc", *common, "--out-model", str(tmp_path / "m.json")]) == 0
            assert cli.main(["cv-disc", *common, "--k", "2", "--out", str(tmp_path / "cv.csv")]) == 0
            for name in ("m.json", "cv.csv"):
                assert host(name)["numpy"] == np.__version__
                assert host(name)["blas_pinned"] is pinned
                assert host(name)["train_blas_threads"] == (1 if pinned else None)

    def test_train_disc_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--n", "8", "--seed", "42", "--out-dir", str(corpus)]) == 0
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            subprocess.run([sys.executable, "-c", "import sys; from petseg.cli import main; sys.exit(main())",
                            "train-disc", "--manifest", str(corpus / "mip_manifest.json"),
                            "--out-model", str(out / "disc.json"), "--max-epochs", "3", "--batch-size", "5"],
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, check=True, timeout=120)
            history = (out / "disc_history.csv").read_text().splitlines()
            outputs.append(((out / "disc.json").read_bytes(), (out / "disc.bin").read_bytes(),
                            [line.rsplit(",", 1)[0] for line in history]))  # epoch_s is a wall time
        assert outputs[0] == outputs[1]

    def test_config_file_precedence(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--n", "6", "--seed", "2", "--out-dir", str(corpus)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_epochs": 2, "batch_size": 4, "patience": 1}))
        rc = cli.main(["train-disc", "--manifest", str(corpus / "mip_manifest.json"),
                       "--out-model", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["config"]["max_epochs"] == 2  # from file
        rc = cli.main(["train-disc", "--manifest", str(corpus / "mip_manifest.json"),
                       "--out-model", str(tmp_path / "m2.json"), "--config", str(cfg),
                       "--max-epochs", "3"])
        assert rc == 0
        manifest = json.loads((tmp_path / "m2.json.manifest.json").read_text())
        assert manifest["config"]["max_epochs"] == 3  # flag wins


class TestFuseEvaluate:
    def test_fuse(self, tmp_path):
        shape = (8, 8, 8)
        spacing = (2.0, 2.0, 2.0)
        lesion = np.zeros(shape, dtype=np.int32)
        lesion[4, 4, 4] = 1
        liver = np.zeros(shape, dtype=np.int32)
        liver[3:6, 3:6, 3:6] = 1
        nifti.write_volume(Volume3D(lesion, spacing, VolumeKind.LABEL), tmp_path / "lesion.nii.gz")
        nifti.write_volume(Volume3D(liver, spacing, VolumeKind.LABEL), tmp_path / "liver.nii.gz")
        (tmp_path / "organs.json").write_text(json.dumps({
            "case_id": "c1",
            "lesion_path": "lesion.nii.gz",
            "organs": {"liver": "liver.nii.gz"},
        }))
        rc = cli.main(["fuse", "--manifest", str(tmp_path / "organs.json"),
                       "--out", str(tmp_path / "fused.nii.gz")])
        assert rc == 0
        fused = nifti.read_volume(tmp_path / "fused.nii.gz")
        assert fused.data[4, 4, 4] == 13
        assert fused.data[3, 3, 3] == 4

    def test_fuse_holds_one_organ_mask_at_a_time(self, tmp_path, capsys, monkeypatch):
        import weakref

        shape, spacing = (8, 8, 8), (2.0, 2.0, 2.0)
        names = ("brain", "heart", "liver", "pancreas", "spleen")  # groups 1, 2, 4, 12, 7
        for i, name in enumerate(("lesion",) + names):
            data = np.zeros(shape, dtype=np.int32)
            data[i, :, :] = 1
            nifti.write_volume(Volume3D(data, spacing, VolumeKind.LABEL), tmp_path / f"{name}.nii.gz")
        (tmp_path / "organs.json").write_text(json.dumps({
            "case_id": "c1", "lesion_path": "lesion.nii.gz",
            "organs": {name: f"{name}.nii.gz" for name in reversed(names)}}))
        read, masks, resident = nifti.read_volume, [], []

        def tracked_read(path, *args, **kwargs):
            resident.append(sum(ref() is not None for ref in masks))
            mask = read(path, *args, **kwargs)
            masks.append(weakref.ref(mask.mask))
            return mask

        monkeypatch.setattr(nifti, "read_volume", tracked_read)
        assert cli.main(["fuse", "--manifest", str(tmp_path / "organs.json"),
                         "--out", str(tmp_path / "fused.nii.gz")]) == 0
        assert "fused 5 organ masks" in capsys.readouterr().out
        # the lesion is read first and held; each organ mask is gone before the next is read
        assert resident == [0, 1, 1, 1, 1, 1]
        fused = read(tmp_path / "fused.nii.gz")
        assert list(fused.data[:, 0, 0]) == [13, 1, 2, 4, 12, 7, 0, 0]

    def test_fuse_reads_and_checks_organs_in_name_order(self, tmp_path, capsys):
        for name in ("lesion", "liver"):
            nifti.write_volume(Volume3D(np.ones((4, 4, 4)), (2.0, 2.0, 2.0), VolumeKind.LABEL),
                               tmp_path / f"{name}.nii.gz")
        (tmp_path / "corrupt.nii.gz").write_bytes(b"\x1f\x8b not gzip")
        for organs, code in [({"aorta": "corrupt.nii.gz", "xenomorph": "liver.nii.gz"}, 2),
                             ({"liver": "corrupt.nii.gz", "kidney": "liver.nii.gz"}, 3)]:
            (tmp_path / "organs.json").write_text(json.dumps(
                {"case_id": "c1", "lesion_path": "lesion.nii.gz", "organs": organs}))
            assert cli.main(["fuse", "--manifest", str(tmp_path / "organs.json"),
                             "--out", str(tmp_path / "f.nii.gz")]) == code, organs
            assert ("corrupt.nii.gz" in capsys.readouterr().err) == (code == 2)

    def test_evaluate_identical_dirs(self, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        rng = np.random.default_rng(8)
        for name in ("a.nii.gz", "b.nii.gz"):
            data = (rng.random((8, 8, 8)) < 0.2).astype(np.int32)
            data[0, 0, 0] = 1
            vol = Volume3D(data, (2.0, 2.0, 2.0), VolumeKind.LABEL)
            nifti.write_volume(vol, pred_dir / name)
            nifti.write_volume(vol, gt_dir / name)
        rc = cli.main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                       "--out", str(tmp_path / "metrics.csv")])
        assert rc == 0
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 2 cases + mean
        for line in lines[1:3]:
            assert line.split(",")[1] == "1.000000"
        assert lines[-1].startswith("mean,1.000000,2")

    @pytest.mark.parametrize("bad, dtype, fault", [
        (-1.0, "int16", "nonnegative"), (0.5, "float32", "integers"), (np.nan, "float32", None)])
    def test_invalid_label_files_exit_2(self, tmp_path, capsys, bad, dtype, fault):
        for d in ("pred", "gt"):
            (tmp_path / d).mkdir()
            nifti.write_volume(Volume3D(np.ones((4, 4, 4)), (1.0, 1.0, 1.0), VolumeKind.LABEL),
                               tmp_path / d / "a.nii.gz")
        data = np.ones((4, 4, 4))
        data[1, 2, 3] = bad
        bad_file = tmp_path / "gt" / "a.nii.gz"
        nifti.write_volume(Volume3D(data, (1.0, 1.0, 1.0)), bad_file, dtype=dtype)
        reason = f"cannot read as LABEL: LABEL volume values must be {fault}" if fault else "NaN or infinite"
        want = f"petseg: i/o error: {bad_file}: {reason}"
        for label in ([], ["--lesion-label", "1"]):
            rc = cli.main(["evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt"),
                           "--out", str(tmp_path / "m.csv"), *label])
            assert rc == 2 and capsys.readouterr().err.startswith(want)
        (tmp_path / "organs.json").write_text(json.dumps(
            {"case_id": "a", "lesion_path": "pred/a.nii.gz", "organs": {"liver": "gt/a.nii.gz"}}))
        assert cli.main(["fuse", "--manifest", str(tmp_path / "organs.json"), "--out", str(tmp_path / "f.nii.gz")]) == 2
        assert capsys.readouterr().err.startswith(want)


def write_mask_dirs(tmp_path, names=("a.nii.gz", "b.nii.gz", "c.nii.gz")):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    rng = np.random.default_rng(9)
    for name in names:
        for d in (pred_dir, gt_dir):
            data = (rng.random((10, 9, 8)) < 0.3).astype(np.int32)
            nifti.write_volume(Volume3D(data, (2.0, 2.0, 2.0), VolumeKind.LABEL), d / name)
    return pred_dir, gt_dir


class TestEvaluateJobsAndUnmatched:
    def evaluate(self, pred_dir, gt_dir, out, *extra):
        return cli.main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                         "--out", str(out), *extra])

    def test_jobs_2_writes_the_jobs_1_csv(self, tmp_path):
        pred_dir, gt_dir = write_mask_dirs(tmp_path)
        assert self.evaluate(pred_dir, gt_dir, tmp_path / "one.csv", "--jobs", "1") == 0
        assert self.evaluate(pred_dir, gt_dir, tmp_path / "two.csv", "--jobs", "2") == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert len((tmp_path / "one.csv").read_text().splitlines()) == 5  # header + 3 + mean

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_1_is_a_usage_error(self, tmp_path, jobs):
        pred_dir, gt_dir = write_mask_dirs(tmp_path)
        with pytest.raises(SystemExit) as err:
            self.evaluate(pred_dir, gt_dir, tmp_path / "m.csv", "--jobs", jobs)
        assert err.value.code == 1

    def test_unmatched_files_are_reported(self, tmp_path, capsys):
        pred_dir, gt_dir = write_mask_dirs(tmp_path)
        (pred_dir / "a.nii.gz").rename(pred_dir / "a.nii")  # same case, other suffix
        assert self.evaluate(pred_dir, gt_dir, tmp_path / "m.csv") == 0
        assert "2 unmatched files skipped" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["result"]["unmatched"] == {"pred": ["a.nii"], "gt": ["a.nii.gz"]}
        assert len((tmp_path / "m.csv").read_text().splitlines()) == 4  # header + b, c + mean

    def test_manifests_and_temporary_files_are_not_volumes(self, tmp_path):
        labels = Volume3D((np.arange(64) % 2).reshape(4, 4, 4).astype(np.int32),
                          (2.0, 2.0, 2.0), VolumeKind.LABEL)
        nifti.write_volume(labels, tmp_path / "l.nii.gz")
        for name in ("pred", "gt"):
            (tmp_path / name).mkdir()
            assert cli.main(["resample", "--in", str(tmp_path / "l.nii.gz"), "--out",
                             str(tmp_path / name / "a.nii.gz"), "--spacing", "1",
                             "--mode", "nearest"]) == 0
        (tmp_path / "pred" / "a.nii.gz3f9c2d1a.tmp").write_bytes(b"partial")
        assert self.evaluate(tmp_path / "pred", tmp_path / "gt", tmp_path / "m.csv") == 0
        assert len((tmp_path / "m.csv").read_text().splitlines()) == 3  # header + a + mean
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["result"]["unmatched"] == {"pred": [], "gt": []}

    def test_dotted_names_keep_distinct_case_ids(self, tmp_path):
        pred_dir, gt_dir = write_mask_dirs(tmp_path, names=("case.1.nii.gz", "case.2.nii"))
        assert self.evaluate(pred_dir, gt_dir, tmp_path / "m.csv") == 0
        rows = (tmp_path / "m.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:3]] == ["case.1", "case.2"]

    def test_nii_and_nii_gz_of_one_name_keep_distinct_case_ids(self, tmp_path):
        pred_dir, gt_dir = write_mask_dirs(tmp_path, names=("a.nii", "a.nii.gz", "b.nii.gz"))
        assert self.evaluate(pred_dir, gt_dir, tmp_path / "m.csv") == 0
        rows = (tmp_path / "m.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:4]] == ["a.nii", "a.nii.gz", "b"]


class TestRunEndToEnd:
    def run_once(self, tmp_path, out_dir):
        out_dir.mkdir(exist_ok=True)
        model_path = zero_model(tmp_path)  # PSMA route, deterministic
        return cli.main([
            "run",
            "--ct", str(tmp_path / "ct.nii.gz"),
            "--pet", str(tmp_path / "pet.nii.gz"),
            "--disc-model", str(model_path),
            "--out", str(out_dir / "mask.nii.gz"),
            "--out-prob", str(out_dir / "prob.nii.gz"),
            "--folds", "2", "--tta", "identity,z", "--reduced-tta", "identity",
        ])

    def test_run_produces_mask_and_manifest(self, tmp_path, capsys):
        write_phantom_files(tmp_path, seed=11)
        rc = self.run_once(tmp_path, tmp_path / "out")
        assert rc == 0
        out = capsys.readouterr().out
        assert "tracer=PSMA" in out
        mask = nifti.read_volume(tmp_path / "out" / "mask.nii.gz")
        assert mask.kind is VolumeKind.LABEL
        manifest = json.loads((tmp_path / "out" / "mask.nii.gz.manifest.json").read_text())
        assert manifest["subcommand"] == "run"
        assert manifest["host"]["numpy"] == np.__version__
        assert manifest["host"]["blas_threads"] == blas.threads()
        assert manifest["result"]["tracer"] == "PSMA"
        assert manifest["result"]["tta_used"] == ["identity", "z"]
        assert len(manifest["result"]["invocations"]) == 4  # 2 folds x 2 flips

        def shape(node):  # the names; the two workers' predictor spans may open in either order
            assert set(node) == {"name", "s", "spans"} and node["s"] >= 0
            children = [shape(child) for child in node["spans"]]
            return node["name"], sorted(children) if node["name"] == "ensemble" else children

        predictors = [(f"f{fold}.{flip}", []) for fold in (0, 1) for flip in ("identity", "z")]
        route = ("route", [("mip", []), ("discriminator", []), ("windowing", []),
                           ("ensemble", predictors), ("threshold", [])])
        root = manifest["timings"]
        assert shape(root) == ("run", [("read", []), route, ("write", [])])
        # route's own time, on which budget_exceeded was decided, within the command's
        route_s = next(node["s"] for node in root["spans"] if node["name"] == "route")
        assert 0 < route_s <= root["s"]
        assert f"wall={route_s:.2f}s" in out

    def test_run_deterministic_byte_identical(self, tmp_path):
        write_phantom_files(tmp_path, seed=11)
        assert self.run_once(tmp_path, tmp_path / "o1") == 0
        assert self.run_once(tmp_path, tmp_path / "o2") == 0
        m1 = (tmp_path / "o1" / "mask.nii.gz").read_bytes()
        m2 = (tmp_path / "o2" / "mask.nii.gz").read_bytes()
        assert m1 == m2
        docs = []
        for d in ("o1", "o2"):
            doc = json.loads((tmp_path / d / "mask.nii.gz.manifest.json").read_text())
            doc.pop("timings")
            doc.pop("host")
            doc["config"]["out"] = doc["config"]["out_prob"] = None
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_run_dice_against_lesion_gt(self, tmp_path):
        # hot 16-SUV lesion, default 0.5 threshold: the SUV backend must
        # overlap the half-peak ground truth well
        write_phantom_files(tmp_path, style=TracerStyle.FDG_LIKE, seed=13, lesion_peak=16.0)
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        model_path = zero_model(tmp_path)
        rc = cli.main([
            "run",
            "--ct", str(tmp_path / "ct.nii.gz"),
            "--pet", str(tmp_path / "pet.nii.gz"),
            "--disc-model", str(model_path),
            "--out", str(pred_dir / "case.nii.gz"),
            "--folds", "1", "--tta", "identity",
        ])
        assert rc == 0
        (gt_dir / "case.nii.gz").write_bytes((tmp_path / "lesion.nii.gz").read_bytes())
        rc = cli.main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                       "--out", str(tmp_path / "m.csv")])
        assert rc == 0
        row = (tmp_path / "m.csv").read_text().strip().splitlines()[1].split(",")
        assert float(row[1]) > 0.5


class TestErrorsAndHelp:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = cli.main(["inspect", str(tmp_path / "nope.nii.gz")])
        assert rc == 2

    def test_validation_exit_3(self, tmp_path):
        vol = Volume3D(np.zeros((4, 4, 4)), (1, 1, 1))
        nifti.write_volume(vol, tmp_path / "v.nii.gz")
        rc = cli.main(["resample", "--in", str(tmp_path / "v.nii.gz"),
                       "--out", str(tmp_path / "o.nii.gz"), "--spacing", "0,1,1"])
        assert rc == 3

    def test_predictor_failure_exit_4(self, tmp_path):
        write_phantom_files(tmp_path)
        model_path = zero_model(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "backend": {"kind": "external", "command": ["false"]},
            "folds": 1, "tta_flips": ["identity"], "reduced_flips": ["identity"],
        }))
        rc = cli.main([
            "run", "--ct", str(tmp_path / "ct.nii.gz"), "--pet", str(tmp_path / "pet.nii.gz"),
            "--disc-model", str(model_path), "--out", str(tmp_path / "mask.nii.gz"),
            "--config", str(cfg),
        ])
        assert rc == 4

    def test_predictor_writing_into_its_input_exits_4(self, tmp_path, monkeypatch, capsys):
        class Writer(SuvThresholdPredictor):
            def predict(self, stack):
                stack.channels[1].data[...] = 0.0  # the PET the run read
                return super().predict(stack)

        monkeypatch.setattr(cli, "make_suv_ensemble",
                            lambda n_folds, cap, **policy: EnsembleConfig(folds=(Writer(),) * n_folds, **policy))
        write_phantom_files(tmp_path)
        rc = cli.main([
            "run", "--ct", str(tmp_path / "ct.nii.gz"), "--pet", str(tmp_path / "pet.nii.gz"),
            "--disc-model", str(zero_model(tmp_path)), "--out", str(tmp_path / "mask.nii.gz"),
            "--folds", "1", "--tta", "identity,z", "--reduced-tta", "identity",
        ])
        assert rc == 4
        assert "read-only" in capsys.readouterr().err

    @pytest.mark.parametrize("corruption", ["short_blob", "no_tensors", "unknown_field",
                                            "stride_not_int", "does_not_compose", "nan_bias",
                                            "shape_mismatch", "name_mismatch"])
    def test_malformed_model_exits_2(self, tmp_path, capsys, corruption):
        write_phantom_files(tmp_path)
        model_path = zero_model(tmp_path)
        blob_path = model_path.with_suffix(".bin")
        doc = json.loads(model_path.read_text())
        blob = blob_path.read_bytes()
        if corruption == "short_blob":
            blob = blob[:-8]
        elif corruption == "no_tensors":
            del doc["tensors"]
        elif corruption == "unknown_field":
            doc["architecture"][0]["dilation"] = 2
        elif corruption == "stride_not_int":
            doc["architecture"][0]["stride"] = "x"
        elif corruption == "does_not_compose":  # layer 2 reads 9 channels, layer 0 makes 8
            assert doc["architecture"][2]["in_ch"] == 8
            doc["architecture"][2]["in_ch"] = 9
        elif corruption == "shape_mismatch":  # fewer bytes than the layer's weight: still in the blob
            assert doc["tensors"][0]["shape"] == [8, 1, 3, 3]
            doc["tensors"][0]["shape"] = [8, 1, 3, 2]
        elif corruption == "name_mismatch":
            doc["tensors"][0]["name"] = "00_conv2d.weight"
        else:  # the last layer's bias; with zero weights the probability would be NaN
            last = doc["tensors"][-1]
            assert last["name"].endswith("_linear.b")
            blob = blob[: last["offset"]] + np.array([np.nan], "<f8").tobytes() + blob[last["offset"] + 8:]
        model_path.write_text(json.dumps(doc))
        blob_path.write_bytes(blob)
        capsys.readouterr()
        rc = cli.main(["predict-tracer", "--model", str(model_path), "--pet", str(tmp_path / "pet.nii.gz")])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(model_path) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "window"])
    @pytest.mark.parametrize("bad", ["both", "pet"])
    def test_ct_pet_read_errors_are_deterministic(self, tmp_path, capsys, command, bad):
        # CT and PET are read at once: a bad PET, small and cut short, fails
        # soon, a bad CT only at its gzip trailer, yet CT's error wins as
        # when CT was read first
        rng = np.random.default_rng(0)
        ct, pet = tmp_path / "ct.nii.gz", tmp_path / "pet.nii"
        nifti.write_volume(Volume3D(rng.random((64, 64, 64)), (1, 1, 1), VolumeKind.CT_HU), ct)
        nifti.write_volume(Volume3D(rng.random((4, 4, 4)), (1, 1, 1)), pet)
        pet.write_bytes(pet.read_bytes()[:-1])
        if bad == "both":
            packed = bytearray(ct.read_bytes())
            packed[-8] ^= 0x01  # the CRC
            ct.write_bytes(bytes(packed))
        out = ["--out", str(tmp_path / "m.nii.gz"), "--disc-model", str(tmp_path / "disc.json")] \
            if command == "run" else ["--out-dir", str(tmp_path / "channels")]
        capsys.readouterr()
        assert cli.main([command, "--ct", str(ct), "--pet", str(pet), *out]) == 2
        err = capsys.readouterr().err
        named, other = (ct, pet) if bad == "both" else (pet, ct)
        assert str(named) in err and str(other) not in err, err

    @pytest.mark.parametrize("fault", ["short", "magic", "datatype"])
    def test_bad_header_names_its_file(self, tmp_path, capsys, fault):
        write_phantom_files(tmp_path)
        ct = tmp_path / "ct.nii"
        nifti.write_volume(nifti.read_volume(tmp_path / "ct.nii.gz"), ct)
        packed = bytearray(ct.read_bytes())
        if fault == "short":
            packed = packed[:16]
        elif fault == "magic":
            packed[344:348] = b"ni1\x00"
        else:
            packed[70:72] = (128).to_bytes(2, "little")  # RGB
        ct.write_bytes(bytes(packed))
        capsys.readouterr()
        assert cli.main(["run", "--ct", str(ct), "--pet", str(tmp_path / "pet.nii.gz"),
                         "--disc-model", str(zero_model(tmp_path)), "--out", str(tmp_path / "m.nii.gz")]) == 2
        err = capsys.readouterr().err
        assert str(ct) in err and "pet.nii.gz" not in err, err
        assert cli.main(["inspect", str(ct)]) == 2
        assert str(ct) in capsys.readouterr().err

    def test_python_dash_m_petseg(self, tmp_path):
        nifti.write_volume(Volume3D(np.ones((3, 3, 3)), (1, 1, 1)), tmp_path / "v.nii.gz")
        found, missing = (subprocess.run([sys.executable, "-m", "petseg", "inspect", str(tmp_path / name)],
                                         capture_output=True, text=True, timeout=60)
                          for name in ("v.nii.gz", "missing.nii.gz"))
        assert found.returncode == 0 and "shape:       (3, 3, 3)" in found.stdout, found.stderr
        assert missing.returncode == 2  # the exit code of main reaches the shell

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["resample", "--in", "x"])  # missing --out
        assert err.value.code == 1

    def test_json_error_output(self, tmp_path, capsys):
        rc = cli.main(["inspect", str(tmp_path / "nope.nii.gz"), "--json"])
        assert rc == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "IoFailure"

    def test_unknown_config_key_rejected(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--n", "4", "--seed", "1", "--out-dir", str(corpus)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        rc = cli.main(["train-disc", "--manifest", str(corpus / "mip_manifest.json"),
                       "--out-model", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert rc == 3

    @pytest.mark.parametrize("argv,expected", [
        (["resample", "--help"], ["3.3", "trilinear"]),
        (["window", "--help"], ["-300", "400", "20.0"]),
        (["mip", "--help"], ["224", "20.0", "3.0"]),
        (["train-disc", "--help"], ["0.0001", "100", "16", "0.2"]),
        (["cv-disc", "--help"], ["5", "0.0001"]),
        (["run", "--help"], ["300", "0.5", "40000000", "identity"]),
    ])
    def test_help_lists_defaults(self, capsys, argv, expected):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 0
        out = capsys.readouterr().out
        for token in expected:
            assert token in out, f"{token} missing from {argv[0]} help"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    assert cli.main(["synth", "--n", "4", "--seed", "3", "--out-dir", str(corpus)]) == 0
    return corpus / "mip_manifest.json"


# one non-default value per TrainConfig field, each cheap to train with
NON_DEFAULT_TRAIN = {"lr": 0.003, "max_epochs": 2, "patience": 3, "batch_size": 2,
                     "val_fraction": 0.5, "weight_decay": 0.02, "seed": 5}


class TestSinglePaths:
    def test_synth_writes_what_make_mip_dataset_saves(self, tmp_path):
        assert cli.main(["synth", "--n", "6", "--seed", "42", "--out-dir", str(tmp_path / "cli")]) == 0
        save_mip_dataset(tmp_path / "lib", make_mip_dataset(6, 42))
        names = sorted(p.name for p in (tmp_path / "lib").iterdir())
        assert len(names) == 7  # six MIPs + mip_manifest.json
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name

    def test_synth_has_no_jobs_flag(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["synth", "--n", "2", "--out-dir", str(tmp_path), "--jobs", "2"])
        assert err.value.code == 1

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_every_train_config_field_has_a_flag(self, tmp_path, small_corpus, field):
        value = NON_DEFAULT_TRAIN[field]
        assert value != getattr(TrainConfig(), field)
        flag = ["--" + field.replace("_", "-"), str(value)]
        common = ["--manifest", str(small_corpus), "--max-epochs", "1", *flag]
        assert cli.main(["train-disc", *common, "--out-model", str(tmp_path / "m.json")]) == 0
        assert cli.main(["cv-disc", *common, "--k", "2", "--out", str(tmp_path / "cv.csv")]) == 0
        for out in ("m.json", "cv.csv"):
            config = json.loads((tmp_path / f"{out}.manifest.json").read_text())["config"]
            assert config[field] == value, out

    @pytest.mark.parametrize("writer", ["volume", "run_manifest", "model", "metrics_csv",
                                        "history_csv", "cv_csv", "mip_manifest"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, writer):
        def write(variant):
            if writer == "volume":
                nifti.write_volume(Volume3D(np.full((2, 2, 2), float(variant)), (1, 1, 1)),
                                   tmp_path / "v.nii.gz")
            elif writer == "run_manifest":
                write_run_manifest(tmp_path / "out.csv", "test", {"variant": variant})
            elif writer == "model":
                DiscriminatorModel.fresh(seed=variant).save(tmp_path / "m.json")
            elif writer == "metrics_csv":
                write_metrics_csv(tmp_path / "m.csv", [CaseMetrics("a", 0.5, variant, 0.1, 0, 0.0, 1, 1)])
            elif writer == "history_csv":
                write_history_csv(tmp_path / "h.csv", [EpochStats(1, 0.7, 0.6, variant / 2, 1.5)])
            elif writer == "cv_csv":
                folds = 2 + variant
                write_cv_csv(tmp_path / "cv.csv", CVResult((1.0,) * folds, 1.0, (("a",),) * folds))
            else:  # the second manifest lists no MIP, so only the manifest write fails
                mips = make_mip_dataset(2, 0)[: 1 - variant]
                save_mip_dataset(tmp_path, mips)

        write(0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def no_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(IoFailure):
            write(1)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_outputs_get_the_mode_open_gives(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"")
        write_run_manifest(tmp_path / "out.csv", "test", {})
        mode = (tmp_path / "plain").stat().st_mode
        assert (tmp_path / "out.csv.manifest.json").stat().st_mode == mode

    def test_inspect_decompresses_once(self, tmp_path, monkeypatch, capsys):
        nifti.write_volume(Volume3D(np.ones((3, 3, 3)), (1, 1, 1)), tmp_path / "v.nii.gz")
        calls = []
        gzip_file = nifti.gzip.GzipFile

        def counting(*args, **kwargs):
            calls.append(args)
            return gzip_file(*args, **kwargs)

        # one gzip reader per pass over the file
        monkeypatch.setattr(nifti.gzip, "GzipFile", counting)
        assert cli.main(["inspect", str(tmp_path / "v.nii.gz")]) == 0
        assert len(calls) == 1
        assert "(3, 3, 3)" in capsys.readouterr().out


def write_organ_files(tmp_path, doc=None):
    """A lesion and a liver mask, and the organ manifest ``doc`` (by
    default one that lists them) as ``organs.json``."""
    lesion = np.zeros((8, 8, 8), dtype=np.int32)
    lesion[4, 4, 4] = 1
    liver = np.zeros((8, 8, 8), dtype=np.int32)
    liver[3:6, 3:6, 3:6] = 1
    nifti.write_volume(Volume3D(lesion, (2.0, 2.0, 2.0), VolumeKind.LABEL), tmp_path / "lesion.nii.gz")
    nifti.write_volume(Volume3D(liver, (2.0, 2.0, 2.0), VolumeKind.LABEL), tmp_path / "liver.nii.gz")
    if doc is None:
        doc = {"case_id": "c1", "lesion_path": "lesion.nii.gz", "organs": {"liver": "liver.nii.gz"}}
    (tmp_path / "organs.json").write_text(json.dumps(doc))
    return tmp_path / "organs.json"


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory, small_corpus):
    d = tmp_path_factory.mktemp("inputs")
    write_phantom_files(d)
    (d / "train.json").write_text(json.dumps({"seed": 9}))
    pred_dir, gt_dir = write_mask_dirs(d)
    return {"ct": str(d / "ct.nii.gz"), "pet": str(d / "pet.nii.gz"), "model": str(zero_model(d)),
            "corpus": str(small_corpus), "train_config": str(d / "train.json"),
            "organs": str(write_organ_files(d)), "pred": str(pred_dir), "gt": str(gt_dir)}


# argv of every output-producing subcommand, each option set off its default,
# as (argv, output path) of inputs ``i`` and output directory ``o``
COMMANDS = {
    "resample": lambda i, o: (["--in", i["pet"], "--out", o + "/r.nii.gz", "--spacing", "8,8,8",
                               "--mode", "trilinear"], o + "/r.nii.gz"),
    "window": lambda i, o: (["--ct", i["ct"], "--pet", i["pet"], "--out-dir", o + "/ch", "--pet-lo", "1",
                             "--pet-hi", "15", "--ct-lo", "-200", "--ct-hi", "300"], o + "/ch"),
    "mip": lambda i, o: (["--pet", i["pet"], "--out", o + "/mip.nii.gz"], o + "/mip.nii.gz"),
    "synth": lambda i, o: (["--n", "2", "--seed", "7", "--out-dir", o + "/corpus", "--with-volumes"],
                           o + "/corpus"),
    "train-disc": lambda i, o: (["--manifest", i["corpus"], "--out-model", o + "/m.json",
                                 "--history", o + "/h.csv", "--config", i["train_config"],
                                 "--max-epochs", "1"], o + "/m.json"),
    "cv-disc": lambda i, o: (["--manifest", i["corpus"], "--k", "2", "--out", o + "/cv.csv",
                              "--max-epochs", "1", "--seed", "5"], o + "/cv.csv"),
    "fuse": lambda i, o: (["--manifest", i["organs"], "--out", o + "/fused.nii.gz", "--ignore-unknown"],
                          o + "/fused.nii.gz"),
    "evaluate": lambda i, o: (["--pred-dir", i["pred"], "--gt-dir", i["gt"], "--out", o + "/m.csv",
                               "--connectivity", "6", "--lesion-label", "1", "--jobs", "2"], o + "/m.csv"),
    "run": lambda i, o: (["--ct", i["ct"], "--pet", i["pet"], "--disc-model", i["model"],
                          "--out", o + "/mask.nii.gz", "--out-prob", o + "/prob.nii.gz", "--case-id", "c7",
                          "--folds", "1", "--tta", "identity", "--reduced-tta", "identity",
                          "--tta-reduction-threshold", "5", "--time-budget", "100", "--threshold", "0.4",
                          "--no-soft-deadline"], o + "/mask.nii.gz"),
}

TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}

# the config keys each command adds to its parsed arguments, and its manifest seed
RESOLVED = {
    "window": ({"channels"}, None),
    "synth": (set(), 7),
    "train-disc": ({"history"} | TRAIN_KEYS, 9),
    "cv-disc": (TRAIN_KEYS, 5),
    "fuse": ({"case_id"}, None),
    "run": ({"fdg", "psma", "window"}, None),
}


class TestManifestConfig:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_config_holds_every_parsed_argument(self, tmp_path, command_inputs, command):
        argv, target = COMMANDS[command](command_inputs, str(tmp_path))
        argv = [command, *argv]
        assert cli.main(argv) == 0
        manifest = json.loads(manifest_path_for(target).read_text())
        parsed = vars(cli.build_parser().parse_args(argv))
        for key in ("func", "command", "json"):
            del parsed[key]
        parsed = json.loads(json.dumps(parsed))  # tuples as lists
        config = manifest["config"]
        resolved, seed = RESOLVED.get(command, (set(), None))
        assert set(config) == set(parsed) | resolved
        assert {k: config[k] for k in parsed} == parsed
        assert manifest["seed"] == seed


class TestMalformedInputManifests:
    @pytest.mark.parametrize("doc", [
        [{"case_id": "a", "label": 0}],
        [{"mip_path": "a_mip.nii.gz", "label": 0}],
        [{"case_id": "a", "mip_path": "a_mip.nii.gz", "label": 1.5}],
        [{"case_id": "a", "mip_path": "a_mip.nii.gz", "label": 2}],
        [{"case_id": "a", "mip_path": "a_mip.nii.gz", "label": "1"}],
        [{"case_id": "a", "mip_path": "a_mip.nii.gz", "label": True}],
        [{"case_id": "a", "mip_path": 3, "label": 0}],
        ["a_mip.nii.gz"],
        {"case_id": "a", "mip_path": "a_mip.nii.gz", "label": 0},
        [{"case_id": "a", "mip_path": "a_mip.nii.gz", "label": 0},
         {"case_id": "a", "mip_path": "b_mip.nii.gz", "label": 1}],
    ], ids=["no_mip_path", "no_case_id", "label_1.5", "label_2", "label_string", "label_bool",
            "mip_path_int", "entry_string", "not_a_list", "repeated_case_id"])
    def test_train_disc_exits_2_naming_the_manifest(self, tmp_path, capsys, doc):
        manifest = tmp_path / "bad_manifest.json"
        manifest.write_text(json.dumps(doc))
        assert cli.main(["train-disc", "--manifest", str(manifest),
                         "--out-model", str(tmp_path / "m.json"), "--max-epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "Traceback" not in err, err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("doc", [
        {"lesion_path": "lesion.nii.gz", "organs": {"liver": "liver.nii.gz"}},
        {"case_id": "c1", "organs": {"liver": "liver.nii.gz"}},
        {"case_id": "c1", "lesion_path": "lesion.nii.gz", "organs": ["liver.nii.gz"]},
        {"case_id": "c1", "lesion_path": "lesion.nii.gz", "organs": {"liver": 3}},
        ["c1", "lesion.nii.gz"],
    ], ids=["no_case_id", "no_lesion_path", "organs_list", "organ_path_int", "not_an_object"])
    def test_fuse_exits_2_naming_the_manifest(self, tmp_path, capsys, doc):
        manifest = write_organ_files(tmp_path, doc)
        assert cli.main(["fuse", "--manifest", str(manifest), "--out", str(tmp_path / "f.nii.gz")]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "Traceback" not in err, err
        assert not (tmp_path / "f.nii.gz").exists()

    @pytest.mark.parametrize("argv, code", [
        (["train-disc", "--manifest", "{bad}", "--out-model", "{out}"], 2),
        (["fuse", "--manifest", "{bad}", "--out", "{out}"], 2),
        (["train-disc", "--manifest", "{tmp}/none.json", "--out-model", "{out}", "--config", "{bad}"], 3),
        (["predict-tracer", "--model", "{bad}", "--pet", "{out}"], 2),
    ], ids=["mip_manifest", "organ_manifest", "config", "model_manifest"])
    def test_non_utf8_json_exits_naming_the_file(self, tmp_path, capsys, argv, code):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"case_id": "café"}'.encode("latin-1"))
        out = tmp_path / "out.json"
        assert cli.main([a.format(bad=bad, out=out, tmp=tmp_path) for a in argv]) == code
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err, err
        assert not out.exists()
