"""The benchmark workloads: what one op calls and how its output is
checked.

Each op is one call into a public petseg entry point, looked up on its
module at call time so that traced runs see the wrapped function. A check
returns ``None`` when the output is right and a short reason otherwise; it
never uses the petseg function under test to compute the expected value.

- ``route``: ``cli.main(["run", ...])``, the default 6 folds x 8 flips,
  on 160x160x200 CT/PET phantoms at 2x2x3 mm, alternating FDG and PSMA.
  The only workload that calls the orchestrator; it also reads two
  20 MB float PET/CT files, resamples for the coronal MIP and runs the
  batch-1 CNN forward of tracer routing.
- ``evaluate``: ``metrics.evaluate_case`` on 128x128x160 uint8 mask pairs
  from about 1 k to about 167 k foreground voxels. Many small reads
  through the same NIfTI layer that ``route`` uses for larger float
  files, and the connected-components labeller.
- ``train``: ``discriminator.train_fold`` at batch 16 for a fixed epoch
  count with patience equal to it. The only workload with backward passes
  and AdamW.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import niftiio
import petseg.cli
import petseg.discriminator
import petseg.metrics
from petseg.discriminator import LabeledMip, TrainConfig
from petseg.preprocess import MipImage


class Workload:
    """Inputs of one seed, read from the generator's ``inputs.json``."""

    def __init__(self, inputs_dir: Path, workdir: Path):
        self.dir = Path(inputs_dir)
        self.doc = json.loads((self.dir / "inputs.json").read_text())
        self.cycle: list[dict] = self.doc["cycle"]
        self.warmup: dict = self.doc["warmup"]
        self.workdir = Path(workdir)
        self.disc = str((self.dir / self.doc["disc"]).resolve())

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def op(self, item: dict, k: int):
        raise NotImplementedError

    def check(self, item: dict, out) -> str | None:
        raise NotImplementedError


class Route(Workload):
    def op(self, item, k):
        out = self.workdir / f"mask{k}.nii.gz"
        rc = petseg.cli.main(["run", "--ct", self.path(item["ct"]), "--pet", self.path(item["pet"]),
                              "--disc-model", self.disc, "--out", str(out), *item.get("ensemble", ())])
        return rc, out

    def check(self, item, out):
        rc, path = out
        manifest = path.parent / (path.name + ".manifest.json")
        try:
            if rc != 0:
                return f"exit code {rc}"
            mask = niftiio.read(path) != 0
            expected = np.load(self.path(item["expected"]))
            wrong = np.count_nonzero((mask != expected["mask"]) & ~expected["ambiguous"])
            if wrong:
                return f"{wrong} mask voxels differ from clip(PET, 0, 20)/20 >= 0.5"
            tracer = json.loads(manifest.read_text())["result"]["tracer"]
            if tracer != item["tracer"]:
                return f"routed as {tracer}, phantom is {item['tracer']}"
            return None
        finally:
            path.unlink(missing_ok=True)
            manifest.unlink(missing_ok=True)


class Evaluate(Workload):
    FIELDS = ("fpv_voxels", "fnv_voxels", "n_pred_components", "n_gt_components")

    def op(self, item, k):
        return petseg.metrics.evaluate_case(self.path(item["pred"]), self.path(item["gt"]))

    def check(self, item, out):
        want = item["expected"]
        for field in self.FIELDS:
            if getattr(out, field) != want[field]:
                return f"{field} {getattr(out, field)} != {want[field]} (scipy.ndimage.label)"
        if (out.dice is None) != (want["dice"] is None) or (
                out.dice is not None and abs(out.dice - want["dice"]) > 1e-12):
            return f"dice {out.dice} != {want['dice']}"
        return None


class Train(Workload):
    def __init__(self, inputs_dir, workdir):
        super().__init__(inputs_dir, workdir)
        with np.load(self.path(self.cycle[0]["mips"])) as z:
            self.mips = [LabeledMip(MipImage(p, tuple(s)), int(label), str(cid))
                         for p, label, s, cid in zip(z["pixels"], z["labels"], z["spacing"], z["case_ids"])]

    def _split(self, item):
        a, b = item["n_train"], item["n_train"] + item["n_val"]
        return self.mips[:a], self.mips[a:b], self.mips[b:b + item["n_held"]]

    def op(self, item, k):
        train, val, _ = self._split(item)
        cfg = TrainConfig(lr=item["lr"], max_epochs=item["epochs"], patience=item["epochs"],
                          batch_size=item["batch_size"], seed=item["seed"])
        return petseg.discriminator.train_fold(train, val, cfg)

    def check(self, item, out):
        model, history = out
        if len(history) != item["epochs"]:
            return f"{len(history)} epochs run, {item['epochs']} asked"
        _, _, held = self._split(item)
        if not held:
            return None
        correct = 0
        for i in range(0, len(held), item["batch_size"]):
            batch = held[i:i + item["batch_size"]]
            x = np.stack([m.image.pixels for m in batch])[:, None]
            p = model.network.forward(x)[:, 0]
            correct += int(np.count_nonzero((p >= 0.5) == np.array([m.label == 1 for m in batch])))
        acc = correct / len(held)
        return None if acc >= 0.99 else f"held-out accuracy {acc:.3f} < 0.99"


WORKLOADS = {"route": Route, "evaluate": Evaluate, "train": Train}
