"""Command-line interface: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 validation error,
4 predictor failure. ``predict-tracer`` signals its decision through the
exit code (10 = FDG, 11 = PSMA) so shell pipelines can route without
parsing. With ``--json``, errors are emitted as one JSON object on stderr.
Configuration precedence is flags > config file (JSON) > built-in
defaults; ``run`` reads each tracer's ``fdg``/``psma`` section between the
file's top level and the flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, nifti
from .discriminator import (
    DiscriminatorModel,
    TrainConfig,
    Tracer,
    cross_validate,
    load_mip_dataset,
    predict_tracer,
    save_mip_dataset,
    train_fold,
    train_val_split,
    training_host,
    write_cv_csv,
    write_history_csv,
    write_mip,
)
from .errors import IoFailure, PetsegError, PredictorFailure, ValidationError
from .fusion import load_organ_manifest, merge_organ_masks
from .manifest import span, span_tree, write_run_manifest
from .metrics import case_id_of, evaluate_case, write_metrics_csv
from .orchestrator import (
    N_FOLDS,
    REDUCED_FLIPS,
    EnsembleConfig,
    ExternalPredictor,
    make_suv_ensemble,
    route,
)
from .preprocess import (
    CT_WINDOW,
    MIP_SIZE,
    MIP_SPACING,
    PET_WINDOW,
    SEGMENTATION_SPACING,
    SUV_CAP,
    WindowSpec,
    build_channels,
    discriminator_mip,
    resample_nearest,
    resample_trilinear,
)
from .synthdata import synth_cases
from .volume import VolumeKind

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_PREDICTOR = 4
EXIT_FDG = 10
EXIT_PSMA = 11


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):  # a None default only marks an optional value
        return action.help if action.default is None else super()._get_help_string(action)


def _spacing_triple(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected sx,sy,sz, got {text!r}")
    return tuple(parts)


def _flip_list(text: str):
    return tuple(f.strip() for f in text.split(",") if f.strip())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return doc


_TRAIN_FLAG_HELP = {
    "lr": "learning rate",
    "max_epochs": "epoch cap",
    "patience": "early-stopping patience",
    "batch_size": "minibatch size",
    "val_fraction": "validation share (cv-disc: of each training fold)",
    "weight_decay": "decoupled weight decay",
    "seed": "training seed (cv-disc: also the fold seed)",
}


def _add_train_flags(p):
    """--config plus one flag per TrainConfig field; unset flags stay off
    ``args`` so the config file and the defaults show through."""
    p.add_argument("--config", default=None, help="JSON config file (flags override it)")
    for f in dataclasses.fields(TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default),
                       default=argparse.SUPPRESS, help=f"{_TRAIN_FLAG_HELP[f.name]} (default {f.default})")


def _typed(key: str, value, default):
    """``value`` as the type of ``default``: ints widen to float, and a
    tuple or None default (``reduced_flips``) takes a list of strings."""
    if isinstance(default, float) and type(value) is int:
        value = float(value)
    if default is None or isinstance(default, tuple):
        if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
            return tuple(value)
        expected = "a list of strings"
    elif type(value) is type(default):
        return value
    else:
        expected = type(default).__name__
    raise ValidationError(f"config key {key!r} must be {expected}, got {value!r}")


def _resolve(defaults: dict, sections: dict, args=None) -> dict:
    """``defaults`` overridden by each of ``sections`` ({prefix: JSON
    object}) in order, then by the flags set on ``args`` whose dest is a
    key. Unknown keys and values not of their default's type raise
    ValidationError naming the key."""
    flags = {k: v for k, v in vars(args).items() if k in defaults} if args else {}
    merged = dict(defaults)
    for prefix, section in [*sections.items(), ("", flags)]:
        if not isinstance(section, dict):
            raise ValidationError(f"config section {prefix.rstrip('.')!r} must be a JSON object")
        unknown = sorted(prefix + k for k in set(section) - set(defaults))
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        for key, value in section.items():
            merged[key] = _typed(prefix + key, value, defaults[key])
    return merged


def _train_config(args) -> TrainConfig:
    """flags > config file > TrainConfig defaults."""
    file_cfg = _load_config_file(args.config)
    return TrainConfig(**_resolve(dataclasses.asdict(TrainConfig()), {"": file_cfg}, args))


def _write_manifest(args, target, resolved: dict | None = None, **fields):
    """The run manifest of subcommand ``args.command``. Its ``config`` is every
    parsed argument, overridden by the values the command ``resolved``; its
    ``timings`` are the spans under :func:`main`'s, which is timed so far."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "command", "json")}
    config.update(resolved or {})
    return write_run_manifest(target, args.command, config, **fields)


# ---------------------------------------------------------------------------
# subcommands

def cmd_inspect(args) -> int:
    header, vol = nifti.read_header_and_volume(args.volume)
    print(f"path:        {args.volume}")
    print(f"shape:       {header.shape}")
    print(f"spacing_mm:  {tuple(round(s, 6) for s in header.spacing)}")
    print(f"datatype:    code {header.datatype_code} ({nifti.SUPPORTED_DATATYPES[header.datatype_code]})")
    print(f"byteorder:   {'little' if header.byteorder == '<' else 'big'}")
    print(f"vox_offset:  {header.vox_offset:.0f}")
    print(f"scl_slope:   {header.scl_slope}")
    print(f"scl_inter:   {header.scl_inter}")
    print(f"magic:       {header.magic!r}")
    data = vol.data
    print(f"min/max:     {data.min():.6g} / {data.max():.6g}")
    print(f"mean:        {data.mean():.6g}")
    print(f"nonzero:     {int(np.count_nonzero(data))} of {data.size}")
    return EXIT_OK


def cmd_resample(args) -> int:
    if args.mode == "nearest":
        vol = nifti.read_volume(args.infile, kind=VolumeKind.LABEL)
        out = resample_nearest(vol, args.spacing)
    else:
        vol = nifti.read_volume(args.infile)
        out = resample_trilinear(vol, args.spacing)
    nifti.write_volume(out, args.out)
    _write_manifest(args, args.out, inputs=[args.infile])
    print(f"resampled {vol.shape} -> {out.shape} at {args.spacing} mm")
    return EXIT_OK


def _read_ct_pet(args):
    """``args.ct`` and ``args.pet``, read at once on two threads (zlib and
    numpy release the GIL). If both fail, the CT error is the one raised."""
    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="petseg-read") as pool:
        ct = pool.submit(nifti.read_volume, args.ct, kind=VolumeKind.CT_HU)
        pet = pool.submit(nifti.read_volume, args.pet, kind=VolumeKind.PET_SUV)
        return ct.result(), pet.result()


def cmd_window(args) -> int:
    window = WindowSpec(args.pet_lo, args.pet_hi, args.ct_lo, args.ct_hi)
    ct, pet = _read_ct_pet(args)
    stack = build_channels(ct, pet, window)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ["channel_0_ct.nii.gz", "channel_1_pet.nii.gz",
             "channel_2_ct_clipped.nii.gz", "channel_3_pet_clipped.nii.gz"]
    for name, ch in zip(names, stack.channels):
        nifti.write_volume(ch, out_dir / name)
    _write_manifest(args, out_dir, {"channels": names}, inputs=[args.ct, args.pet])
    print(f"wrote 4 channels to {out_dir}")
    return EXIT_OK


def cmd_mip(args) -> int:
    pet = nifti.read_volume(args.pet, kind=VolumeKind.PET_SUV)
    mip = discriminator_mip(pet)
    write_mip(mip, args.out)
    _write_manifest(args, args.out, inputs=[args.pet])
    print(f"wrote {mip.shape[0]}x{mip.shape[1]} MIP to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cases = synth_cases(args.n, args.seed)  # checks n and seed before anything is made
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mips = []
    for mip, pet, ct, lesion in cases:
        if args.with_volumes:
            nifti.write_volume(pet, out_dir / f"{mip.case_id}_pet.nii.gz")
            nifti.write_volume(ct, out_dir / f"{mip.case_id}_ct.nii.gz")
            nifti.write_volume(lesion, out_dir / f"{mip.case_id}_lesion.nii.gz")
        mips.append(mip)
    manifest_path = save_mip_dataset(out_dir, mips)
    _write_manifest(args, out_dir, extra={"mip_manifest": manifest_path.name})
    print(f"generated {args.n} cases into {out_dir} (manifest: {manifest_path.name})")
    return EXIT_OK


def cmd_train_disc(args) -> int:
    cfg = _train_config(args)
    data = load_mip_dataset(args.manifest)
    train, val = train_val_split(data, cfg.val_fraction, np.random.default_rng(cfg.seed))
    model, history = train_fold(train, val, cfg)
    model.save(args.out_model)
    history_path = args.history or str(Path(args.out_model).with_suffix("")) + "_history.csv"
    write_history_csv(history_path, history)
    _write_manifest(args, args.out_model, {"history": history_path, **dataclasses.asdict(cfg)},
                    inputs=[args.manifest], host=training_host(),
                    extra={"epochs_run": len(history), "best_val_bce": min(h.val_bce for h in history)})
    best = min(history, key=lambda h: h.val_bce)
    print(f"trained on {len(train)}+{len(val)} mips, {len(history)} epochs, "
          f"best val BCE {best.val_bce:.6f} (epoch {best.epoch}), val acc {best.val_acc:.4f}")
    return EXIT_OK


def cmd_cv_disc(args) -> int:
    cfg = _train_config(args)
    data = load_mip_dataset(args.manifest)
    result = cross_validate(data, k=args.k, cfg=cfg)
    for i, acc in enumerate(result.fold_accuracies):
        print(f"fold {i}: accuracy {acc:.4f} ({len(result.fold_case_ids[i])} held out)")
    print(f"mean accuracy: {result.mean_accuracy:.4f}")
    if args.out:
        write_cv_csv(args.out, result)
        _write_manifest(args, args.out, dataclasses.asdict(cfg), inputs=[args.manifest], host=training_host(),
                        extra={"fold_accuracies": [round(a, 6) for a in result.fold_accuracies],
                               "mean_accuracy": round(result.mean_accuracy, 6)})
    return EXIT_OK


def cmd_predict_tracer(args) -> int:
    model = DiscriminatorModel.load(args.model)
    pet = nifti.read_volume(args.pet, kind=VolumeKind.PET_SUV)
    mip = discriminator_mip(pet)
    with span("discriminator") as timed:
        prediction = predict_tracer(model, mip)
    print(f"tracer={prediction.tracer.name} probability={prediction.probability:.6f} "
          f"wall_time_s={timed['s']:.4f}")
    return EXIT_PSMA if prediction.tracer is Tracer.PSMA else EXIT_FDG


def cmd_fuse(args) -> int:
    case_id, lesion_path, organ_paths = load_organ_manifest(args.manifest)
    lesion = nifti.read_volume(lesion_path, mask=True)
    # read as the merge takes them, so one organ mask is held at a time
    masks = ((name, nifti.read_volume(path, mask=True)) for name, path in sorted(organ_paths.items()))
    fused = merge_organ_masks(masks, lesion, ignore_unknown=args.ignore_unknown)
    nifti.write_volume(fused, args.out)
    _write_manifest(args, args.out, {"case_id": case_id},
                    inputs=[args.manifest, lesion_path, *organ_paths.values()])
    print(f"fused {len(organ_paths)} organ masks + lesion for case {case_id} -> {args.out}")
    return EXIT_OK


def _volume_files(directory: Path) -> dict:
    """{name: path} of the .nii/.nii.gz files in ``directory``; the manifests
    and temporary files written beside them are not volumes."""
    return {p.name: p for p in sorted(directory.glob("*.nii*")) if case_id_of(p) != p.name}


def cmd_evaluate(args) -> int:
    pred_dir = Path(args.pred_dir)
    gt_dir = Path(args.gt_dir)
    pred_files, gt_files = _volume_files(pred_dir), _volume_files(gt_dir)
    common = sorted(set(pred_files) & set(gt_files))
    if not common:
        raise ValidationError(f"no matching .nii files between {pred_dir} and {gt_dir}")
    unmatched = {"pred": sorted(set(pred_files) - set(gt_files)),
                 "gt": sorted(set(gt_files) - set(pred_files))}

    # a.nii and a.nii.gz share a case id; such pairs keep their file names
    id_counts = Counter(map(case_id_of, common))

    def evaluate(name):
        case_id = case_id_of(name) if id_counts[case_id_of(name)] == 1 else name
        return evaluate_case(pred_files[name], gt_files[name], case_id,
                             connectivity=args.connectivity, lesion_label=args.lesion_label)

    # threads overlap: gunzip and the labeller's numpy work release the GIL
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        cases = list(pool.map(evaluate, common))
    write_metrics_csv(args.out, cases)
    _write_manifest(args, args.out, inputs=[pred_files[n] for n in common] + [gt_files[n] for n in common],
                    extra={"unmatched": unmatched})
    defined = [c.dice for c in cases if c.dice is not None]
    mean_dice = float(np.mean(defined)) if defined else float("nan")
    skipped = len(unmatched["pred"]) + len(unmatched["gt"])
    print(f"evaluated {len(cases)} cases -> {args.out} (mean dice over "
          f"{len(defined)} defined: {mean_dice:.4f}; {skipped} unmatched files skipped)")
    return EXIT_OK


# run config keys: fold count and backend, then the EnsembleConfig policy
_RUN_DEFAULTS = {
    "folds": N_FOLDS,
    "backend": {"kind": "suv_threshold"},
    **{f.name: f.default for f in dataclasses.fields(EnsembleConfig) if f.name != "folds"},
}
_TRACER_SECTIONS = ("fdg", "psma")


def _build_ensemble(cfg: dict, case_id: str) -> tuple[EnsembleConfig, dict]:
    """The EnsembleConfig of resolved run settings, and the resolved
    backend object. An external backend call times out at the time budget."""
    policy = {k: v for k, v in cfg.items() if k not in ("folds", "backend")}
    n_folds, backend = cfg["folds"], cfg["backend"]
    if n_folds < 1:
        raise ValidationError(f"folds must be >= 1, got {n_folds}")
    kind = backend.get("kind", "suv_threshold")
    if kind == "suv_threshold":
        opts = _resolve({"kind": kind, "cap": SUV_CAP}, {"backend.": backend})
        return make_suv_ensemble(n_folds, cap=opts["cap"], **policy), opts
    if kind == "external":
        opts = _resolve({"kind": kind, "command": (), "name": "external"}, {"backend.": backend})
        if not opts["command"]:
            raise ValidationError("external backend needs a 'command' list")
        folds = [ExternalPredictor(opts["command"], name=f"{opts['name']}_f{i}", case_id=case_id,
                                   timeout=cfg["time_budget_s"], fold=i)
                 for i in range(n_folds)]
        # recorded in the manifest: the command each fold ran, {fold} filled in
        opts["fold_commands"] = [p.command for p in folds]
        return EnsembleConfig(folds, **policy), opts
    raise ValidationError(f"unknown backend kind {kind!r}")


def cmd_run(args) -> int:
    doc = _load_config_file(args.config)
    top = {k: v for k, v in doc.items() if k not in (*_TRACER_SECTIONS, "window")}
    ensembles, settings = {}, {}
    for tracer in _TRACER_SECTIONS:
        cfg = _resolve(_RUN_DEFAULTS, {"": top, tracer + ".": doc.get(tracer, {})}, args)
        ens, backend = _build_ensemble(cfg, args.case_id)
        ensembles[tracer] = ens
        settings[tracer] = {**cfg, "backend": backend,
                            "tta_flips": ens.tta_flips, "reduced_flips": ens.reduced_flips}
    window = WindowSpec(**_resolve(dataclasses.asdict(WindowSpec()), {"window.": doc.get("window", {})}))

    with span("read"):
        ct, pet = _read_ct_pet(args)
        disc = DiscriminatorModel.load(args.disc_model)

    result = route(ct, pet, disc, ensembles["fdg"], ensembles["psma"], window=window)

    with span("write"):
        nifti.write_volume(result.mask, args.out)
        if args.out_prob:
            nifti.write_volume(result.prob_map, args.out_prob)
    _write_manifest(
        args, args.out, {**settings, "window": dataclasses.asdict(window)},
        inputs=[args.ct, args.pet, *disc.files],
        extra={
            "tracer": result.tracer.name,
            "tracer_probability": round(result.tracer_probability, 9),
            "tta_used": list(result.tta_used),
            "invocations": [
                {"predictor": i.predictor, "fold": i.fold, "flip": i.flip}
                for i in result.invocations
            ],
            "mask_voxels": result.mask.voxel_count,
            "budget_exceeded": result.budget_exceeded,
        },
    )
    route_s = next(s["s"] for s in span_tree()["spans"] if s["name"] == "route")
    print(f"tracer={result.tracer.name} p={result.tracer_probability:.4f} "
          f"mask_voxels={result.mask.voxel_count} tta={','.join(result.tta_used)} "
          f"wall={route_s:.2f}s budget_exceeded={result.budget_exceeded}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly

_MIP_CONTRACT = (f"the PET resampled to {MIP_SPACING[0]} mm, projected coronally, centred in a "
                 f"{MIP_SIZE} x {MIP_SIZE} frame, capped at SUV {SUV_CAP} and scaled into [0, 1]")


def build_parser() -> _Parser:
    parser = _Parser(prog="petseg", description=__doc__, formatter_class=_HelpFormatter)
    parser.add_argument("--version", action="version", version=f"petseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text, description=None):
        p = sub.add_parser(name, help=help_text, description=description, formatter_class=_HelpFormatter)
        p.add_argument("--json", action="store_true", help="machine-readable errors on stderr")
        p.set_defaults(func=func)
        return p

    p = add("inspect", cmd_inspect, "print header fields and value stats of a volume")
    p.add_argument("volume", help="NIfTI file (.nii or .nii.gz)")

    p = add("resample", cmd_resample, "resample a volume to a target spacing")
    p.add_argument("--in", dest="infile", required=True, help="input volume")
    p.add_argument("--out", required=True, help="output volume")
    p.add_argument("--spacing", type=_spacing_triple, default=SEGMENTATION_SPACING,
                   help="target spacing in mm (sx,sy,sz or a single value)")
    p.add_argument("--mode", choices=["trilinear", "nearest"], default="trilinear",
                   help="interpolation; nearest treats the input as labels")

    p = add("window", cmd_window, "write the 4-channel windowed stack")
    p.add_argument("--ct", required=True, help="CT volume (HU)")
    p.add_argument("--pet", required=True, help="PET volume (SUV)")
    p.add_argument("--out-dir", required=True, help="output directory for the 4 channels")
    p.add_argument("--pet-lo", type=float, default=PET_WINDOW[0], help="PET window low (SUV)")
    p.add_argument("--pet-hi", type=float, default=PET_WINDOW[1], help="PET window high (SUV)")
    p.add_argument("--ct-lo", type=float, default=CT_WINDOW[0], help="CT window low (HU)")
    p.add_argument("--ct-hi", type=float, default=CT_WINDOW[1], help="CT window high (HU)")

    p = add("mip", cmd_mip, "write the tracer classifier's input MIP of a PET volume",
            f"Writes the tracer classifier's input: {_MIP_CONTRACT}. synth, predict-tracer and run "
            "make the same image.")
    p.add_argument("--pet", required=True, help="PET volume (SUV)")
    p.add_argument("--out", required=True, help="output (nx, nz, 1) NIfTI")

    p = add("synth", cmd_synth, "generate a synthetic phantom corpus with MIP manifest")
    p.add_argument("--n", type=int, required=True, help="number of cases (balanced FDG/PSMA)")
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--with-volumes", action="store_true",
                   help="also write pet/ct/lesion volumes per case")

    p = add("train-disc", cmd_train_disc, "train the tracer classifier on a MIP manifest")
    p.add_argument("--manifest", required=True, help="JSON list of {case_id, mip_path, label}")
    p.add_argument("--out-model", required=True, help="output model manifest (.json; blob sits next to it)")
    p.add_argument("--history", default=None, help="history CSV path (default: <model>_history.csv)")
    _add_train_flags(p)

    p = add("cv-disc", cmd_cv_disc, "stratified k-fold cross-validation of the classifier")
    p.add_argument("--manifest", required=True, help="JSON list of {case_id, mip_path, label}")
    p.add_argument("--k", type=int, default=5, help="number of folds")
    p.add_argument("--out", default=None, help="optional per-fold accuracy CSV")
    _add_train_flags(p)

    p = add("predict-tracer", cmd_predict_tracer,
            "classify the tracer of a PET volume (exit 10 = FDG, 11 = PSMA)",
            f"Classifies the MIP that mip writes and run classifies: {_MIP_CONTRACT}.")
    p.add_argument("--model", required=True, help="trained model manifest (.json)")
    p.add_argument("--pet", required=True, help="PET volume (SUV)")

    p = add("fuse", cmd_fuse, "merge organ masks + lesion into a grouped label map")
    p.add_argument("--manifest", required=True,
                   help="JSON {case_id, lesion_path, organs: {name: path}}")
    p.add_argument("--out", required=True, help="output label volume")
    p.add_argument("--ignore-unknown", action="store_true",
                   help="skip masks whose names are not in the group table")

    p = add("evaluate", cmd_evaluate, "Dice/FPV/FNV over matching files in two directories")
    p.add_argument("--pred-dir", required=True, help="predicted masks")
    p.add_argument("--gt-dir", required=True, help="ground-truth masks")
    p.add_argument("--out", required=True, help="output metrics CSV")
    p.add_argument("--connectivity", type=int, choices=[6, 18, 26], default=26,
                   help="component neighborhood")
    p.add_argument("--lesion-label", type=int, default=None,
                   help="foreground label (default: any nonzero voxel)")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker threads")

    p = add("run", cmd_run, "full routed inference: discriminate, ensemble, threshold")
    p.add_argument("--ct", required=True, help="CT volume (HU)")
    p.add_argument("--pet", required=True, help="PET volume (SUV)")
    p.add_argument("--disc-model", required=True, help="trained tracer classifier (.json)")
    p.add_argument("--out", required=True, help="output mask volume")
    p.add_argument("--out-prob", default=None, help="optional probability volume output")
    p.add_argument("--config", default=None,
                   help="JSON ensemble config with optional fdg/psma/window sections")
    p.add_argument("--case-id", default="case", help="case id passed to external backends")
    # dest is the config key; an unset flag stays off args, so the config shows through
    shown = {**_RUN_DEFAULTS, "tta_flips": ",".join(_RUN_DEFAULTS["tta_flips"]),
             "reduced_flips": f"{','.join(REDUCED_FLIPS)} among the TTA flips"}
    for flag, key, kind, text in (
        ("--folds", "folds", int, "fold predictors per ensemble"),
        ("--tta", "tta_flips", _flip_list, "comma list of flips"),
        ("--reduced-tta", "reduced_flips", _flip_list, "flip subset used above the voxel threshold"),
        ("--tta-reduction-threshold", "tta_reduction_threshold", int, "voxel count above which reduced TTA applies"),
        ("--time-budget", "time_budget_s", float, "soft per-case budget in seconds; hard per backend call"),
        ("--threshold", "decision_threshold", float, "probability decision threshold"),
    ):
        p.add_argument(flag, dest=key, type=kind, default=argparse.SUPPRESS, help=f"{text} (default {shown[key]})")
    p.add_argument("--soft-deadline", dest="soft_deadline", action=argparse.BooleanOptionalAction,
                   default=argparse.SUPPRESS,
                   help="preemptively drop to reduced TTA if the projected time exceeds the budget")

    return parser


# first match wins: (exception types, exit code, stderr label)
_EXIT_TABLE = (
    ((PredictorFailure,), EXIT_PREDICTOR, "predictor failure"),
    ((ValidationError,), EXIT_VALIDATION, "validation error"),
    ((IoFailure, OSError), EXIT_IO, "i/o error"),
    ((PetsegError,), EXIT_VALIDATION, "error"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with span(args.command):
            return args.func(args)
    except (PetsegError, OSError) as exc:
        _, code, label = next(row for row in _EXIT_TABLE if isinstance(exc, row[0]))
        if getattr(args, "json", False):
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        else:
            print(f"petseg: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
