"""One typed config path for ``run``, ``train-disc`` and ``cv-disc``.

Precedence is defaults < file top level < tracer section < flags; unknown
keys and values of the wrong type exit 3 with a message naming the key.
"""

import json
import sys

import numpy as np
import pytest

from petseg import cli, nifti
from petseg.discriminator import DiscriminatorModel, TrainConfig
from petseg.manifest import sha256_file
from petseg.orchestrator import make_suv_ensemble
from petseg.volume import Volume3D, VolumeKind


@pytest.fixture
def case(tmp_path):
    """Tiny CT/PET pair and an all-zero classifier, which routes to PSMA."""
    rng = np.random.default_rng(0)
    nifti.write_volume(Volume3D(rng.uniform(-100, 100, (8, 8, 8)), (4, 4, 4), VolumeKind.CT_HU),
                       tmp_path / "ct.nii.gz")
    nifti.write_volume(Volume3D(rng.uniform(0, 30, (8, 8, 8)), (4, 4, 4)), tmp_path / "pet.nii.gz")
    model = DiscriminatorModel.fresh(seed=0)
    for arr in model.network.parameters().values():
        arr[...] = 0.0
    model.save(tmp_path / "disc.json")
    return tmp_path


def run(case, config=None, *flags):
    argv = ["run", "--ct", str(case / "ct.nii.gz"), "--pet", str(case / "pet.nii.gz"),
            "--disc-model", str(case / "disc.json"), "--out", str(case / "mask.nii.gz"), *flags]
    if config is not None:
        (case / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(case / "cfg.json")]
    return cli.main(argv)


def manifest_of(case):
    return json.loads((case / "mask.nii.gz.manifest.json").read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(["synth", "--n", "4", "--seed", "1", "--out-dir", str(out)]) == 0
    return out / "mip_manifest.json"


class TestRunConfigErrors:
    @pytest.mark.parametrize("config,key", [
        ({"time_budget_s": "fast"}, "time_budget_s"),
        ({"soft_deadline": "false"}, "soft_deadline"),
        ({"folds": 1.5}, "folds"),
        ({"tta_flips": "identity"}, "tta_flips"),
        ({"psma": {"tta_flip": ["identity"]}}, "psma.tta_flip"),
        ({"fdg": {"decision_threshold": True}}, "fdg.decision_threshold"),
        ({"window": {"pet_low": 0.0}}, "window.pet_low"),
        ({"window": {"ct_lo": "-300"}}, "window.ct_lo"),
        ({"backend": {"kind": "suv_threshold", "cap": "20"}}, "backend.cap"),
        ({"backend": {"kind": "suv_threshold", "caps": 20}}, "backend.caps"),
    ])
    def test_exit_3_naming_the_key(self, case, capsys, config, key):
        assert run(case, config) == 3
        assert key in capsys.readouterr().err
        assert not (case / "mask.nii.gz").exists()

    def test_json_error_names_the_key(self, case, capsys):
        assert run(case, {"psma": {"tta_flip": ["identity"]}}, "--json") == 3
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "ValidationError"
        assert "psma.tta_flip" in doc["message"]

    def test_section_must_be_an_object(self, case, capsys):
        assert run(case, {"fdg": ["identity"]}) == 3
        assert "'fdg'" in capsys.readouterr().err


class TestRunPrecedence:
    def test_tta_flag_beats_tracer_section(self, case):
        assert run(case, {"psma": {"tta_flips": ["identity", "x"]}}, "--folds", "1", "--tta", "identity") == 0
        doc = manifest_of(case)
        assert doc["result"]["tta_used"] == ["identity"]
        assert doc["config"]["psma"]["tta_flips"] == ["identity"]

    def test_tracer_section_beats_top_level(self, case):
        config = {"folds": 2, "tta_flips": ["identity"], "psma": {"folds": 1}}
        assert run(case, config) == 0
        doc = manifest_of(case)
        assert len(doc["result"]["invocations"]) == 1
        assert doc["config"]["psma"]["folds"] == 1
        assert doc["config"]["fdg"]["folds"] == 2

    def test_manifest_lists_resolved_settings(self, case):
        assert run(case, None, "--folds", "1", "--tta", "identity") == 0
        psma = manifest_of(case)["config"]["psma"]
        assert psma["reduced_flips"] == ["identity"]  # derived, not null
        assert psma["time_budget_s"] == 300.0
        assert psma["soft_deadline"] is False
        assert None not in psma.values()

    def test_ints_widen_to_float(self, case):
        assert run(case, {"folds": 1, "tta_flips": ["identity"], "time_budget_s": 60}) == 0
        assert type(manifest_of(case)["config"]["psma"]["time_budget_s"]) is float


class TestReducedFlipsDefault:
    def test_library_follows_the_cli_rule(self):
        cfg = make_suv_ensemble(2, tta_flips=("identity", "x"))
        assert cfg.reduced_flips == ("identity",)
        assert make_suv_ensemble(2).reduced_flips == ("identity", "z")

    def test_cli_and_library_agree(self, case):
        assert run(case, None, "--folds", "2", "--tta", "identity,x") == 0
        assert manifest_of(case)["config"]["psma"]["reduced_flips"] == ["identity"]


class TestTrainConfigErrors:
    @pytest.mark.parametrize("command", ["train-disc", "cv-disc"])
    @pytest.mark.parametrize("config,key", [
        ({"max_epochs": "2"}, "max_epochs"),
        ({"lr": "fast"}, "lr"),
        ({"batch_size": 4.0}, "batch_size"),
        ({"seed": True}, "seed"),
    ])
    def test_exit_3_naming_the_key(self, tmp_path, corpus, capsys, command, config, key):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = ["--out-model", str(tmp_path / "m.json")] if command == "train-disc" else []
        rc = cli.main([command, "--manifest", str(corpus), "--config", str(tmp_path / "cfg.json"), *out])
        assert rc == 3
        assert repr(key) in capsys.readouterr().err


RUN_FLAGS = ["--folds", "1", "--tta", "identity"]


class TestConfigRanges:
    """A value outside its key's range exits 3 naming the key, before any
    input is read; a NaN threshold used to give an all-background mask."""

    @pytest.mark.parametrize("command,flag,value,key", [
        ("run", "--threshold", "nan", "decision_threshold"),
        ("run", "--threshold", "1.5", "decision_threshold"),
        ("run", "--threshold", "-0.1", "decision_threshold"),
        ("run", "--time-budget", "nan", "time_budget_s"),
        ("run", "--time-budget", "inf", "time_budget_s"),
        ("run", "--time-budget", "0", "time_budget_s"),
        ("run", "--time-budget", "-1", "time_budget_s"),
        ("run", "--tta-reduction-threshold", "-5", "tta_reduction_threshold"),
        ("train-disc", "--lr", "nan", "lr"),
        ("train-disc", "--lr", "0", "lr"),
        ("train-disc", "--lr", "-1", "lr"),
        ("train-disc", "--weight-decay", "inf", "weight_decay"),
        ("train-disc", "--weight-decay", "-0.01", "weight_decay"),
        ("train-disc", "--batch-size", "0", "batch_size"),
        ("train-disc", "--max-epochs", "0", "max_epochs"),
        ("train-disc", "--patience", "-1", "patience"),
        ("train-disc", "--val-fraction", "nan", "val_fraction"),
        ("train-disc", "--val-fraction", "0", "val_fraction"),
        ("train-disc", "--val-fraction", "1", "val_fraction"),
        ("train-disc", "--val-fraction", "1.5", "val_fraction"),
        ("train-disc", "--seed", "-1", "seed"),
        ("cv-disc", "--seed", "-1", "seed"),
        ("synth", "--seed", "-1", "seed"),
        ("synth", "--n", "-3", "n"),
        ("synth", "--n", "0", "n"),
        ("evaluate", "--lesion-label", "0", "lesion_label"),
        ("evaluate", "--lesion-label", "-1", "lesion_label"),
    ])
    def test_exit_3_naming_the_key(self, case, corpus, capsys, command, flag, value, key):
        if command == "run":
            rc = run(case, None, *RUN_FLAGS, flag, value)
        else:
            argv = {"train-disc": ["--manifest", str(corpus), "--out-model", str(case / "m.json")],
                    "cv-disc": ["--manifest", str(corpus), "--k", "2"],
                    "synth": ["--n", "2", "--out-dir", str(case / "corpus" / "cases")],
                    "evaluate": ["--pred-dir", str(case), "--gt-dir", str(case),
                                 "--out", str(case / "corpus" / "metrics.csv")]}[command]
            rc = cli.main([command, *argv, flag, value])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"{key} must be" in err
        assert "Traceback" not in err
        assert not (case / "mask.nii.gz").exists() and not (case / "m.json").exists()
        assert not (case / "corpus").exists()  # synth makes no directory either

    @pytest.mark.parametrize("cap", ["1e999", "NaN", "0", "-1"])
    def test_suv_cap_must_be_finite_and_positive(self, case, capsys, cap):
        # an infinite cap gave an all-background mask; NaN failed as the predictor
        (case / "cfg.json").write_text('{"backend": {"kind": "suv_threshold", "cap": %s}}' % cap)
        rc = run(case, None, *RUN_FLAGS, "--config", str(case / "cfg.json"))
        err = capsys.readouterr().err
        assert rc == 3
        assert "cap must be finite and > 0" in err
        assert "Traceback" not in err
        assert not (case / "mask.nii.gz").exists()

    def test_config_file_nan_threshold(self, case, capsys):
        assert run(case, {"psma": {"decision_threshold": float("nan")}}, *RUN_FLAGS) == 3
        assert "decision_threshold" in capsys.readouterr().err

    def test_range_ends_are_accepted(self, case):
        for value in ("0", "1"):
            assert run(case, None, *RUN_FLAGS, "--threshold", value, "--tta-reduction-threshold", "0") == 0
        TrainConfig(patience=0, weight_decay=0.0, val_fraction=0.5, batch_size=1, max_epochs=1)


def test_run_help_prints_each_default_once(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--help"])
    assert err.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "(default: None)" not in out
    for shown in ["(default 6)", "(default identity,x,y,z,xy,xz,yz,xyz)",
                  "(default identity,z among the TTA flips)", "(default 40000000)",
                  "(default 300.0)", "(default 0.5)"]:
        assert out.count(shown) == 1, shown
    assert out.count("(default") == 8  # the six above, --case-id's and --json's


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_run_rejects_a_non_finite_pet_with_exit_2(self, case, capsys, value):
        pet = nifti.read_volume(case / "pet.nii.gz").data.copy()
        pet[3, 4, 5] = value
        nifti.write_volume(Volume3D(pet, (4, 4, 4)), case / "pet.nii.gz")
        assert run(case, None, "--folds", "1", "--tta", "identity") == 2
        assert "pet.nii.gz" in capsys.readouterr().err

    def test_nan_in_backend_output_exits_4(self, case):
        prob = np.full((8, 8, 8), 0.25)
        prob[1, 2, 3] = np.nan
        nifti.write_volume(Volume3D(prob, (4, 4, 4), VolumeKind.PROBABILITY), case / "nan_prob.nii")
        script = case / "backend.py"
        script.write_text("import json, shutil, sys\n"
                          "request = json.load(open(sys.argv[1]))\n"
                          f"shutil.copy({str(case / 'nan_prob.nii')!r}, request['output_path'])\n")
        config = {"folds": 1, "tta_flips": ["identity"],
                  "backend": {"kind": "external", "command": [sys.executable, str(script)]}}
        assert run(case, config) == 4


def test_run_inputs_digest_the_weights_blob(case):
    """Two models with the same manifest but different weights route
    differently, so their run manifests must tell them apart."""
    model = DiscriminatorModel.load(case / "disc.json")
    next(iter(model.network.parameters().values()))[...] = 1.0
    (case / "other").mkdir()
    model.save(case / "other" / "disc.json")
    assert (case / "other" / "disc.json").read_bytes() == (case / "disc.json").read_bytes()
    digests = []
    for disc in (case / "disc.json", case / "other" / "disc.json"):
        assert cli.main(["run", "--ct", str(case / "ct.nii.gz"), "--pet", str(case / "pet.nii.gz"),
                         "--disc-model", str(disc), "--out", str(case / "mask.nii.gz"), *RUN_FLAGS]) == 0
        inputs = manifest_of(case)["inputs"]
        assert inputs[str(disc.with_suffix(".bin"))] == sha256_file(disc.with_suffix(".bin"))
        digests.append(sorted(inputs.values()))
    assert digests[0] != digests[1]
