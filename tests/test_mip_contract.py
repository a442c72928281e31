"""One tracer-classifier input: ``predict-tracer``, ``run`` and ``mip`` share
``discriminator_mip``, and a MIP of any other size fails with exit 3."""

import json
import sys
import time

import numpy as np
import pytest

from petseg import cli, nifti
from petseg.discriminator import (
    DiscriminatorModel,
    LabeledMip,
    TrainConfig,
    predict_tracer,
    read_mip,
    train_fold,
    write_mip,
)
from petseg.errors import ValidationError
from petseg.preprocess import MIP_SIZE, MipImage, discriminator_mip
from petseg.volume import Volume3D, VolumeKind


@pytest.fixture
def case(tmp_path):
    """Small CT/PET pair and a classifier with random (not zero) weights."""
    rng = np.random.default_rng(4)
    nifti.write_volume(Volume3D(rng.uniform(-100, 100, (12, 10, 16)), (4, 4, 4), VolumeKind.CT_HU),
                       tmp_path / "ct.nii.gz")
    nifti.write_volume(Volume3D(rng.uniform(0, 30, (12, 10, 16)), (4, 4, 4)), tmp_path / "pet.nii.gz")
    DiscriminatorModel.fresh(seed=3).save(tmp_path / "disc.json")
    return tmp_path


def run(case, *flags, config=None):
    argv = ["run", "--ct", str(case / "ct.nii.gz"), "--pet", str(case / "pet.nii.gz"),
            "--disc-model", str(case / "disc.json"), "--out", str(case / "mask.nii.gz"), *flags]
    if config is not None:
        (case / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(case / "cfg.json")]
    return cli.main(argv)


def manifest_of(case):
    return json.loads((case / "mask.nii.gz.manifest.json").read_text())


class TestOneMip:
    def test_predict_tracer_matches_run(self, case, capsys):
        rc = cli.main(["predict-tracer", "--model", str(case / "disc.json"), "--pet", str(case / "pet.nii.gz")])
        out = capsys.readouterr().out
        assert run(case, "--folds", "1", "--tta", "identity") == 0
        result = manifest_of(case)["result"]
        assert rc == {"FDG": cli.EXIT_FDG, "PSMA": cli.EXIT_PSMA}[result["tracer"]]
        assert f"tracer={result['tracer']} probability={result['tracer_probability']:.6f} " in out

    def test_mip_writes_what_the_classifier_reads(self, case):
        assert cli.main(["mip", "--pet", str(case / "pet.nii.gz"), "--out", str(case / "mip.nii.gz")]) == 0
        expected = discriminator_mip(nifti.read_volume(case / "pet.nii.gz"))
        written = read_mip(case / "mip.nii.gz")
        assert written.source_spacing == expected.source_spacing
        assert np.array_equal(written.pixels, expected.pixels.astype(np.float32))

    @pytest.mark.parametrize("argv", [
        ["predict-tracer", "--model", "m.json", "--pet", "p.nii.gz", "--cap", "5"],
        ["predict-tracer", "--model", "m.json", "--pet", "p.nii.gz", "--spacing", "4"],
        ["mip", "--pet", "p.nii.gz", "--out", "o.nii.gz", "--raw"],
        ["mip", "--pet", "p.nii.gz", "--out", "o.nii.gz", "--size", "256"],
    ])
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 1


class TestOffSizeMips:
    @pytest.mark.parametrize("name", ["big_mip.nii.gz", "small_mip.f32"])
    def test_train_disc_exits_3_naming_the_file(self, tmp_path, capsys, name):
        if name.endswith(".nii.gz"):
            write_mip(MipImage(np.zeros((256, 256)), (3.0, 3.0)), tmp_path / name)
        else:
            (tmp_path / name).write_bytes(np.zeros((200, 200), dtype="<f4").tobytes())
        write_mip(MipImage(np.zeros((MIP_SIZE, MIP_SIZE)), (3.0, 3.0)), tmp_path / "ok_mip.nii.gz")
        (tmp_path / "manifest.json").write_text(json.dumps([
            {"case_id": "ok", "mip_path": "ok_mip.nii.gz", "label": 0},
            {"case_id": "bad", "mip_path": name, "label": 1},
        ]))
        rc = cli.main(["train-disc", "--manifest", str(tmp_path / "manifest.json"),
                       "--out-model", str(tmp_path / "disc.json"), "--max-epochs", "1"])
        assert rc == 3
        assert name in capsys.readouterr().err
        assert not (tmp_path / "disc.json").exists()

    def test_predict_tracer_rejects_200(self):
        model = DiscriminatorModel.fresh(seed=0)
        with pytest.raises(ValidationError, match="200x200"):
            predict_tracer(model, MipImage(np.zeros((200, 200)), (3.0, 3.0)))

    def test_train_fold_rejects_256(self):
        mips = [LabeledMip(MipImage(np.zeros((256, 256)), (3.0, 3.0)), i % 2, f"c{i}") for i in range(4)]
        with pytest.raises(ValidationError, match="256x256"):
            train_fold(mips[:2], mips[2:], TrainConfig(max_epochs=1))


class TestRunManifestAndBackend:
    def test_default_run_records_resolved_backend(self, case):
        assert run(case) == 0
        config = manifest_of(case)["config"]
        for tracer in ("fdg", "psma"):
            assert config[tracer]["backend"] == {"kind": "suv_threshold", "cap": 20.0}

    def test_external_backend_resolved(self, case):
        backend = {"kind": "external", "command": ["true"]}
        ens, opts = cli._build_ensemble({**cli._RUN_DEFAULTS, "backend": backend}, "c1")
        assert opts == {"kind": "external", "command": ("true",), "name": "external",
                        "fold_commands": [("true",)] * 6}
        assert [p.fold for p in ens.folds] == list(range(6))
        assert [p.timeout for p in ens.folds] == [300.0] * 6

    @pytest.mark.parametrize("flag,expected", [("--no-soft-deadline", False), ("--soft-deadline", True)])
    def test_soft_deadline_flag_beats_config(self, case, flag, expected):
        config = {"soft_deadline": not expected, "folds": 1, "tta_flips": ["identity"]}
        assert run(case, flag, config=config) == 0
        config = manifest_of(case)["config"]
        assert config["psma"]["soft_deadline"] is expected
        assert config["fdg"]["soft_deadline"] is expected

    def test_hanging_backend_times_out_at_the_budget(self, case, capsys):
        script = case / "sleepy.py"
        script.write_text("import time\ntime.sleep(60)\n")
        config = {"folds": 1, "tta_flips": ["identity"], "time_budget_s": 0.5,
                  "backend": {"kind": "external", "command": [sys.executable, str(script)]}}
        t0 = time.perf_counter()
        assert run(case, config=config) == 4
        assert time.perf_counter() - t0 < 10.0
        assert "timed out" in capsys.readouterr().err
        assert not (case / "mask.nii.gz").exists()
