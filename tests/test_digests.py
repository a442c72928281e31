"""Same bytes, checked: the SHA-256 of every output of a small seeded run.

A module fixture runs, in one temporary directory:

- ``synth --n 4 --seed 1 --with-volumes``;
- ``train-disc --max-epochs 2`` on that corpus;
- ``run`` (default 6 folds x 8 flips, with ``--out-prob``) on two cases;
- ``evaluate`` of those two masks against their lesions, once with
  ``--lesion-label 1``;
- ``fuse`` of an organ manifest whose organs are the two masks and one
  more lesion file, with the first case's lesion as its lesion;
- ``cv-disc --k 2 --max-epochs 1 --out``.

Each file it writes is digested. Manifests are digested without their
``timings`` and ``host`` sections and with the temporary directory cut from
their paths, the training history without its ``epoch_s`` column. Every
volume and MIP file is float32, which hides most one-ULP changes to the
float64 arithmetic behind it, so the float64 classifier input that ``run``
computes for each of its two cases is digested as well.

numpy picks its SIMD math kernels and OpenBLAS its BLAS kernels by CPU, so
``digests.json`` is keyed by the numpy version and the OpenBLAS core name.
On a key it holds no entry for, the test skips and names the key. A change
that alters output bytes on purpose records the new digests with

    PYTHONPATH=src python tests/test_digests.py --write
"""

import csv
import ctypes
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from petseg import cli, nifti
from petseg.preprocess import discriminator_mip
from petseg.volume import VolumeKind

DIGESTS = Path(__file__).with_name("digests.json")
RUN_CASES = ("synth_0000", "synth_0001")  # one FDG-like, one PSMA-like


def host_key() -> str:
    """The numpy version and the core type OpenBLAS chose its kernels for."""
    core = "none"
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get().decode()
        break
    return f"numpy {np.__version__}, OpenBLAS core {core}"


def _petseg(*argv) -> None:
    argv = [str(a) for a in argv]
    assert cli.main(argv) == 0, argv


def _canonical(path: Path, root: Path) -> bytes:
    """The bytes of ``path`` that a rerun must reproduce."""
    if path.name == "run_manifest.json" or path.name.endswith(".manifest.json"):
        doc = json.loads(path.read_text())
        del doc["timings"], doc["host"]
        return json.dumps(doc, sort_keys=True).replace(f"{root}{os.sep}", "").encode()
    if path.name.endswith("_history.csv"):
        rows = list(csv.reader(io.StringIO(path.read_text())))
        drop = rows[0].index("epoch_s")
        return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows).encode()
    return path.read_bytes()


def make_outputs(root: Path) -> dict[str, str]:
    """Run the pipeline in ``root``; {output name: SHA-256}."""
    corpus, pred, prob, gt = (root / d for d in ("corpus", "pred", "prob", "gt"))
    _petseg("synth", "--n", 4, "--seed", 1, "--with-volumes", "--out-dir", corpus)
    manifest = corpus / "mip_manifest.json"
    _petseg("train-disc", "--manifest", manifest, "--out-model", root / "disc.json", "--max-epochs", 2)
    for d in (pred, prob, gt):
        d.mkdir()
    for case in RUN_CASES:
        _petseg("run", "--ct", corpus / f"{case}_ct.nii.gz", "--pet", corpus / f"{case}_pet.nii.gz",
                "--disc-model", root / "disc.json", "--out", pred / f"{case}.nii.gz",
                "--out-prob", prob / f"{case}.nii.gz")
        shutil.copy(corpus / f"{case}_lesion.nii.gz", gt / f"{case}.nii.gz")
    _petseg("evaluate", "--pred-dir", pred, "--gt-dir", gt, "--out", root / "metrics.csv")
    _petseg("evaluate", "--pred-dir", pred, "--gt-dir", gt, "--out", root / "metrics_label1.csv",
            "--lesion-label", 1)
    organs = {"liver": f"pred/{RUN_CASES[0]}.nii.gz", "spleen": f"pred/{RUN_CASES[1]}.nii.gz",
              "kidney_left": "corpus/synth_0002_lesion.nii.gz"}
    (root / "organs.json").write_text(json.dumps(
        {"case_id": RUN_CASES[0], "lesion_path": f"corpus/{RUN_CASES[0]}_lesion.nii.gz", "organs": organs},
        sort_keys=True))
    _petseg("fuse", "--manifest", root / "organs.json", "--out", root / "fused.nii.gz")
    _petseg("cv-disc", "--manifest", manifest, "--k", 2, "--max-epochs", 1, "--out", root / "cv.csv")

    digests = {p.relative_to(root).as_posix(): hashlib.sha256(_canonical(p, root)).hexdigest()
               for p in sorted(root.rglob("*")) if p.is_file()}
    for case in RUN_CASES:
        pet = nifti.read_volume(corpus / f"{case}_pet.nii.gz", kind=VolumeKind.PET_SUV)
        pixels = discriminator_mip(pet).pixels
        digests[f"{case} classifier input, float64"] = hashlib.sha256(pixels.tobytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def expected():
    key = host_key()
    table = json.loads(DIGESTS.read_text())
    if key not in table:
        pytest.skip(f"digests.json has no entry for this host's key {key!r}")
    return table[key]


@pytest.fixture(scope="module")
def outputs(expected, tmp_path_factory):  # after ``expected``, so a skip runs nothing
    return make_outputs(tmp_path_factory.mktemp("digests"))


def test_outputs_keep_their_bytes(expected, outputs):
    changed = sorted(k for k in expected.keys() | outputs.keys() if expected.get(k) != outputs.get(k))
    assert not changed, f"outputs missing, new or with other bytes: {changed}"


def _write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = make_outputs(Path(tmp))
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[host_key()] = digests
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {host_key()!r} to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_digests.py --write")
    _write()
