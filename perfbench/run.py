"""rexlab benchmark: one seeded, closed-loop, single-process run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One caller processes the items of the workload back to back, with no threads.
A run times the import of rexlab here and in four fresh interpreters, and
sets the inputs up three times; ``setup_s`` is the median import time plus
the median set-up time.  It then measures whole passes over the items until
``--seconds`` have elapsed, at least one pass.  Every verdict is checked; a
mismatch or a typed rexlab error counts as failed and never stops the run.
The end-to-end times are scaled to a reference host speed by a calibration
loop timed between items (see CALIBRATION_REF_S); the record keeps them raw
as well.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it print the same
metrics by name and unit, with the input digest and the environment.  The
full record, and with ``--trace 1`` the spans, go to ``perfbench/out/``.

``--all`` runs every workload untraced and traced, each in a fresh process,
and prints the end-to-end table, the tracing overhead and coverage, and the
per-layer table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3
# The host's speed drifts by up to a quarter within seconds, for every
# workload at once.  A calibration point is taken before and after set-up
# and after every CALIBRATION_EVERY_S of measured work.  Set-up and each
# item time are scaled by CALIBRATION_REF_S, the median point on an idle
# host, over the median of the points near them (the two that bracket them
# and five more on each side), so they read as seconds at that speed.  An
# item longer than CALIBRATION_LONG_S already averages the drift, and points
# at its ends would only add noise, so its time is kept as measured.  Raw
# times stay in the record.
CALIBRATION_EVERY_S = 0.25
CALIBRATION_BURST = 5
CALIBRATION_REF_S = 0.007
CALIBRATION_LONG_S = 10.0
IMPORT_REPS = 4  # fresh interpreters that time the import, besides this one
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import rexlab, rexlab.cli; print(time.perf_counter() - t)")
WORKLOAD_NAMES = ("witness-cliff", "poly-families", "small-corpus")
# The bounded end-to-end metrics, those of the result line.  item_tail_ms is
# printed and recorded too, but its spread over seeds on small-corpus (about
# 0.3 of its median) is wider than any usable bound.
END_TO_END = ("setup_s", "wall_s", "item_p50_ms", "peak_rss_mb")


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest percentile with at least 10 samples beyond it, and that count.

    With 10 samples or fewer no percentile qualifies; the maximum stands in,
    with 0 samples beyond it.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 0
    return ordered[len(ordered) - 11], 10


def _calibration_loop() -> int:
    """Fixed arithmetic that shares no code with rexlab and allocates nothing
    the garbage collector tracks."""
    table = [0] * 1024
    acc = 0x9E3779B97F4A7C15
    for _ in range(20_000):
        acc = (acc * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        table[acc >> 54] ^= acc
    return sum(table)


def calibration_point() -> float:
    """Median of a burst of calibration-loop timings, collector off."""
    samples = []
    gc.disable()
    try:
        for _ in range(CALIBRATION_BURST):
            t0 = time.perf_counter()
            _calibration_loop()
            samples.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(samples)


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        import rexlab
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import rexlab from {SRC}: {exc}\n")
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(rexlab.__file__))) != SRC:
        sys.stderr.write(f"perfbench: rexlab imported from {rexlab.__file__}, not {SRC}\n")
        return 2
    import tracing
    import workloads
    import_times = [time.perf_counter() - t_import]
    for _ in range(IMPORT_REPS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                               text=True, check=True, timeout=120)
        import_times.append(float(probe.stdout))
    import_s = statistics.median(import_times)

    tracer = tracing.Tracer() if traced else None
    L = tracing.layers(tracer)
    build = workloads.WORKLOADS[name]

    points = [calibration_point()]
    setup_times, digests = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        texts, items = build(L, seed)
        setup_times.append(time.perf_counter() - t0)
        digests.append(hashlib.sha256("\n".join(texts).encode()).hexdigest())
    digest_stable = len(set(digests)) == 1

    if tracer is not None:
        tracer.phase = "pass"
    points.append(calibration_point())
    origin = time.perf_counter()
    item_ms, item_ids, item_point, pass_ends, failures = [], [], [], [], []
    since_point = 0.0
    while True:
        for item_id, fn in items:
            if tracer is not None:
                tracer.item = item_id
            t0 = time.perf_counter()
            try:
                fn()
            except (workloads.Mismatch, rexlab.RexlabError) as exc:
                failures.append(f"{item_id}: {type(exc).__name__}: {exc}")
            except Exception:  # a defect in one item must not end the run
                failures.append(f"{item_id}: {traceback.format_exc()}")
            elapsed = time.perf_counter() - t0
            item_ms.append(elapsed * 1e3)
            item_ids.append(item_id)
            item_point.append(len(points) - 1)
            since_point += elapsed
            if since_point >= CALIBRATION_EVERY_S:
                points.append(calibration_point())
                since_point = 0.0
        pass_ends.append(len(item_ms))
        if time.perf_counter() - origin >= seconds:
            break
    if since_point:
        points.append(calibration_point())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for line in failures:
        sys.stderr.write(f"perfbench: FAILED {line}\n")
    if not digest_stable:
        sys.stderr.write("perfbench: inputs differ between set-ups of one seed\n")

    def scale(p: int) -> float:
        # Median of the bracket and the five points on each side of it.
        return CALIBRATION_REF_S / statistics.median(points[max(0, p - 5):p + 7])

    scaled_ms = [ms if ms > CALIBRATION_LONG_S * 1e3 else ms * scale(p)
                 for ms, p in zip(item_ms, item_point)]
    starts = [0] + pass_ends[:-1]
    pass_walls = [sum(item_ms[a:b]) / 1e3 for a, b in zip(starts, pass_ends)]
    scaled_walls = [sum(scaled_ms[a:b]) / 1e3 for a, b in zip(starts, pass_ends)]
    tail_ms, beyond = tail(scaled_ms)
    setup_s = import_s + statistics.median(setup_times)
    end_to_end = {
        "setup_s": (setup_s * scale(0), "s"),
        "wall_s": (statistics.median(scaled_walls), "s"),
        "item_p50_ms": (statistics.median(scaled_ms), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {"setup_s": setup_s, "wall_s": statistics.median(pass_walls),
           "item_p50_ms": statistics.median(item_ms), "item_tail_ms": tail(item_ms)[0]}
    if tracer is None:
        metrics = {k: end_to_end[k] for k in END_TO_END}
    else:
        metrics = tracing.layer_metrics(tracer.spans, SETUP_REPS, len(pass_walls), pass_walls)

    attempted, failed = len(item_ms), len(failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": environment(), "input_digest": digests[0],
        "digest_stable": digest_stable, "import_times_s": import_times, "setup_times_s": setup_times,
        "pass_walls_s": pass_walls, "calibration_points_s": points, "raw": raw,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "passes": len(pass_walls),
        "items_per_pass": len(items), "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "tail_samples_beyond": beyond,
        "failures": failures, "item_ms": list(zip(item_ids, item_ms)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}_seed{seed}_trace{int(traced)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "_spans.jsonl", origin)

    env = record["environment"]
    print(f"# {name} seed={seed} python={env['python']} nproc={env['nproc']} "
          f"platform={env['platform']}")
    print(f"# input_digest={digests[0]} stable={digest_stable} passes={len(pass_walls)} "
          f"items/pass={len(items)} failed_ratio={failed / attempted:g} "
          f"tail_beyond={beyond}")
    for key, (value, unit) in (end_to_end if tracer is None else metrics).items():
        print(f"{key:48s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and digest_stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    results: dict[tuple[str, int], dict] = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            results[(name, trace)] = json.loads(proc.stdout.strip().splitlines()[-1])
    def record(name: str, trace: int) -> dict:
        with open(os.path.join(OUT, f"{name}_seed{seed}_trace{trace}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    env = environment()
    print(f"# seed={seed} seconds={seconds} python={env['python']} nproc={env['nproc']} "
          f"platform={env['platform']}")
    print("\nEnd to end (tracing off)")
    print(f"{'metric':16s}" + "".join(f"{n:>18s}" for n in WORKLOAD_NAMES) + "  unit")
    for key in END_TO_END:
        row = [results[(n, 0)]["metrics"][key] for n in WORKLOAD_NAMES]
        print(f"{key:16s}" + "".join(f"{m['value']:18.4f}" for m in row) + f"  {row[0]['unit']}")
    print("item_tail_ms    " + "".join(f"{record(n, 0)['end_to_end']['item_tail_ms']:18.4f}"
                                       for n in WORKLOAD_NAMES) + "  ms")
    for label, fn in (("failed_ratio", lambda r: r["failed"] / r["attempted"]),
                      ("correct", lambda r: float(r["correct"]))):
        print(f"{label:16s}" + "".join(f"{fn(results[(n, 0)]):18.4f}" for n in WORKLOAD_NAMES))
    print("\nTracing")
    for label, fn in (
            ("overhead", lambda n: record(n, 1)["end_to_end"]["wall_s"]
             / record(n, 0)["end_to_end"]["wall_s"]),
            ("coverage", lambda n: results[(n, 1)]["metrics"]["trace.coverage"]["value"])):
        print(f"{label:16s}" + "".join(f"{fn(n):18.4f}" for n in WORKLOAD_NAMES) + "  ratio")
    print("\nPer layer (traced run, per set-up plus one pass)")
    keys = list(results[(WORKLOAD_NAMES[0], 1)]["metrics"])
    print(f"{'metric':48s}" + "".join(f"{n:>16s}" for n in WORKLOAD_NAMES) + "  unit")
    for key in keys:
        row = [results[(n, 1)]["metrics"][key] for n in WORKLOAD_NAMES]
        print(f"{key:48s}" + "".join(f"{m['value']:16.6g}" for m in row) + f"  {row[0]['unit']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced and print the tables")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
