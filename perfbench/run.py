#!/usr/bin/env python3
"""petseg benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload route --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py``): ``route``, ``evaluate``, ``train``.
Inputs are generated from ``--seed`` in a separate process and cached
under ``perfbench/.cache``. The self-tests run with
``python3 -m pytest perfbench``.

With ``--trace 0`` the run starts ``N_SETUPS`` fresh workload processes
one after the other. Each sets up (import, inputs, one untimed warm-up op)
and the last one then measures whole input cycles for ``--seconds`` of op
time. It reports the end-to-end metrics:

- ``setup_s``: seconds from starting a fresh process until its first timed
  op could start, median over the fresh processes;
- ``op_s.p50``: median wall seconds per op;
- ``ops_per_s``: ops completed divided by their summed wall time;
- ``peak_rss_mb``: peak RSS of the measuring process;
- ``failed_frac`` (printed, and carried as ``failed``/``attempted``): ops
  that raised or failed their output check, over ops attempted.

With ``--trace 1`` a single process measures the same ops untraced, then
again with spans recorded around petseg's public functions, and reports
the per-layer metrics of ``tracing.PER_LAYER_UNITS``. Each run writes its
full record (host, inputs, op times, spans) to
``perfbench/.cache/results/``. The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("route", "evaluate", "train")
N_SETUPS = 5
GEN_TIMEOUT_S = 850        # a first run also trains the shared discriminator
WORKER_TIMEOUT_S = 160
END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _run(cmd, env, timeout) -> str:
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return proc.stdout


def ensure_inputs(cache: Path, workload: str, seed: int, size: str, env) -> Path:
    """Generate (or find cached) inputs in a separate process."""
    out = _run([sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
                "--size", size, "--cache", str(cache)], env, GEN_TIMEOUT_S)
    return Path(out.strip().splitlines()[-1])


def spawn_worker(workload, inputs, mode, seconds, result: Path, env) -> dict:
    """Start one fresh workload process and wait for it; returns its record
    with ``setup_s`` measured from just before the process was started."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--inputs", str(inputs),
           "--mode", mode, "--seconds", str(seconds), "--result", str(result)]
    started = time.monotonic()
    _run(cmd, env, WORKER_TIMEOUT_S)
    record = json.loads(result.read_text())
    result.unlink()
    record["setup_s"] = record["ready"] - started
    return record


def input_summary(doc: dict) -> list[dict]:
    files = {}
    for item in doc["cycle"] + [doc["warmup"]]:
        for f in item["files"]:
            files[f["path"]] = f
    return list(files.values())


def measure(args, inputs: Path, runs: Path, env):
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.trace:
        records = [spawn_worker(args.workload, inputs, "trace", args.seconds, runs / f"{tag}.json", env)]
    else:
        records = [spawn_worker(args.workload, inputs, "setup" if k < N_SETUPS - 1 else "measure",
                                args.seconds, runs / f"{tag}-{k}.json", env)
                   for k in range(N_SETUPS)]
    main = records[-1]
    failures = [f for f in main["failures"] if f is not None]
    warmup_failures = [f"warm-up: {r['warmup_failure']}" for r in records if r["warmup_failure"]]
    attempted = len(main["failures"])
    if args.trace:
        metrics = {name: {"value": main["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        op_s = main["op_s"]
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "op_s.p50": statistics.median(op_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return records, metrics, attempted, failures, warmup_failures


def print_summary(args, records, metrics, attempted, failures, warmup_failures):
    main = records[-1]
    passes = " per pass, untraced then traced" if args.trace else ""
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {main['cycles']} whole input cycles{passes}")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<46} {len(failures) / max(1, attempted):>14.6g} frac "
          f"({len(failures)} failed of {attempted} attempted)")
    for reason in (warmup_failures + failures)[:5]:
        print(f"  failure: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--size", default="full", choices=["full", "tiny"],
                    help="input size; tiny is for the benchmark's self-tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "petseg" / "__init__.py").is_file():
        print(f"perfbench: no petseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cache = HERE / ".cache"
    runs = cache / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    env, inherited = host.worker_env()
    try:
        inputs = ensure_inputs(cache, args.workload, args.seed, args.size, env)
        records, metrics, attempted, failures, warmup_failures = measure(args, inputs, runs, env)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed} failed: {exc}", file=sys.stderr)
        return 1

    doc = json.loads((inputs / "inputs.json").read_text())
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "n_setups": len(records), "ops": attempted, "cycles": records[-1]["cycles"],
        "host": {**host.host_info(ROOT), **records[-1]["host"]},
        "inherited_thread_vars": inherited, "inputs": input_summary(doc),
    }
    record = {"provenance": provenance, "metrics": metrics, "failures": warmup_failures + failures,
              "setup_s": [r["setup_s"] for r in records], "op_s": records[-1]["op_s"]}
    if args.trace:
        record.update(traced_op_s=records[-1]["traced_op_s"], spans=records[-1]["spans"])
    out_dir = cache / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print("provenance " + json.dumps(provenance))
    print_summary(args, records, metrics, attempted, failures, warmup_failures)
    print(json.dumps({"correct": not failures and not warmup_failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
