"""One workload process of the petseg benchmark.

    python3 perfbench/worker.py --workload route --inputs DIR --mode measure \
        --seconds 10 --result FILE

Every mode first sets up: imports petseg, loads the inputs and runs one
untimed warm-up op, a lighter call of the same entry point on the same
full-size inputs; the process then records the monotonic time at which a
timed op could start.
``setup`` stops there. ``measure`` runs whole input cycles, one op after
the other with no client concurrency (a closed loop with one client),
until ``--seconds`` of op time have passed. ``trace`` does the same
untraced, then repeats the same ops with spans recorded. Each op's output
is checked right after the op, outside its timing. Results go to
``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_cycles(wl, seconds=None, n_cycles=None, rec=None):
    """Run whole cycles until ``seconds`` of op time or ``n_cycles`` cycles.

    Returns (op wall times, failure reasons or None per op, cycles run).
    """
    times, failures, cycles = [], [], 0
    while True:
        for item in wl.cycle:
            k = len(times)
            if rec is not None:
                rec.op_id = k
            t0 = time.perf_counter()
            try:
                out = wl.op(item, k)
                err = None
            except Exception as exc:  # an op that raises counts as failed
                out, err = None, f"raised {exc!r}"
            times.append(time.perf_counter() - t0)
            if err is None:
                if rec is not None:
                    rec.paused = True
                try:
                    err = wl.check(item, out)
                except Exception as exc:
                    err = f"check raised {exc!r}"
                finally:
                    if rec is not None:
                        rec.paused = False
            failures.append(err)
            del out
        cycles += 1
        if n_cycles is not None:
            if cycles >= n_cycles:
                break
        elif sum(times) >= seconds:
            break
    return times, failures, cycles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import host
    import tracing
    import workloads

    workdir = Path(args.result).with_suffix(".work")
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](Path(args.inputs), workdir)
        try:
            warmup_failure = wl.check(wl.warmup, wl.op(wl.warmup, -1))
        except Exception as exc:
            warmup_failure = f"warm-up raised {exc!r}"
        result = {"ready": time.monotonic(), "warmup_failure": warmup_failure}
        if args.mode != "setup":
            result["host"] = host.blas_info()
            times, failures, cycles = run_cycles(wl, seconds=args.seconds)
            result.update(op_s=times, failures=failures, cycles=cycles,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if args.mode == "trace":
            rec = tracing.Recorder()
            tracing.install(rec)
            try:
                traced, traced_failures, _ = run_cycles(wl, n_cycles=cycles, rec=rec)
            finally:
                tracing.uninstall(rec)
            overhead = sum(traced) / sum(times) - 1.0
            result.update(traced_op_s=traced, failures=failures + traced_failures,
                          per_layer=tracing.per_layer(rec.spans, len(traced), wl.doc["gen_spans"], overhead),
                          spans=rec.spans)
        Path(args.result).write_text(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
