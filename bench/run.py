"""Run one matchtop benchmark workload and print its metrics.

    python3 bench/run.py --workload join-arith --seed 1 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the ``src/matchtop`` next to this
directory.  Every timed pass runs in a fresh ``bench/worker.py`` process,
so module caches start cold as they do for a CLI user.

``--trace 0`` measures the end-to-end metrics with tracing off: a few
set-up-only processes for ``setup_s``, then passes until ``--seconds`` would
be exceeded (always at least one).  The times are rescaled to a reference
machine speed (see probe.py and REFERENCE_START); the raw times are printed
too.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics;
its spans go to ``.bench_out/``.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
Exit code 0 on a completed run (failures are counted, not fatal); 2 when
the sources are missing or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from probe import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKER = HERE / "worker.py"

SETUP_RUNS = 5  # set-up-only processes per run, besides the passes' own set-up
# A bare interpreter importing numpy does the bulk of a worker's set-up
# without matchtop.  Timed next to the set-up-only processes, it rescales
# setup_s to the speed at which it takes REF_START_S: import times on the
# baseline box drifted by 35% between consecutive ten-run sets, which the
# pure-Python probe does not see.
REFERENCE_START = "import time, numpy; print(time.perf_counter())"
REF_START_S = 0.15
DEADLINE_S = 175  # the whole run must end within this, workers included

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class WorkerError(RuntimeError):
    pass


def loadavg():
    """The 1/5/15-minute load averages, or None off Linux."""
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def environment(args, params):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "workload": args.workload,
        "params": params,
        "loadavg_start": loadavg(),
    }


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def reference_start(deadline):
    """Seconds from spawning REFERENCE_START to its numpy import done."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", REFERENCE_START], check=True,
                              capture_output=True, text=True, cwd=str(ROOT),
                              timeout=max(1.0, deadline - start))
    except (subprocess.SubprocessError, OSError) as exc:
        raise WorkerError(f"reference start failed: {exc}") from None
    return float(proc.stdout) - start


def spawn(request, deadline, seed):
    """Run one worker; returns its JSON result plus ``setup_s`` (spawn to
    first workload call) and ``process_s`` (spawn to exit)."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(request)],
                            stdout=subprocess.PIPE, cwd=str(ROOT), env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the run deadline") from None
    end = time.perf_counter()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - start
    result["process_s"] = end - start
    return result


def end_to_end(args, params, deadline):
    """Set-up-only processes, then passes for --seconds; the metrics."""
    spawn({"phase": "setup", "params": params}, deadline, args.seed)  # writes bytecode
    refs, setups = [], []
    for _ in range(SETUP_RUNS):
        refs.append(reference_start(deadline))
        setups.append(spawn({"phase": "setup", "params": params}, deadline, args.seed))
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(spawn({"phase": "pass", "params": params}, deadline, args.seed))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1]["process_s"] > args.seconds:
            break
    p50s, tails = [], []
    for p in passes:
        items = [scaled(t, p["probe_s"]) for t in p["item_s"]]
        p50s.append(statistics.median(items) * 1000)
        tails.append(tail(items))
    values = {
        "wall_s": statistics.median(scaled(p["wall_s"], p["probe_s"]) for p in passes),
        "setup_s": statistics.median(r["setup_s"] for r in setups + passes)
        * REF_START_S / statistics.median(refs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # Item latencies are reported, not gated: over ten runs of the fixed
    # join sample their quartile spread reached 26% (p50) and 24% (tail) of
    # the median on the baseline box, while the pass time stayed within 12%.
    notes = [
        f"passes {len(passes)}, set-up samples {len(setups) + len(passes)}",
        f"item_ms_p50 {statistics.median(p50s):.6g} ms, item_ms_tail "
        f"{statistics.median(t[0] for t in tails) * 1000:.6g} ms "
        f"(p{tails[0][1]:.1f} of {len(passes[0]['item_s'])} items per pass; not gated)",
        f"raw wall_s {statistics.median(p['wall_s'] for p in passes):.6g} s, raw setup_s "
        f"{statistics.median(r['setup_s'] for r in setups + passes):.6g} s, probe "
        f"{statistics.median(p['probe_s'] for p in passes) * 1000:.4g} ms, reference "
        f"start {statistics.median(refs):.6g} s",
    ]
    return values, END_TO_END, passes, notes


def per_layer(args, params, deadline):
    """One untraced and one traced pass; the per-layer metrics."""
    import tracing

    plain = spawn({"phase": "pass", "params": params}, deadline, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl.gz"
    traced = spawn({"phase": "pass", "params": params, "trace": True,
                    "spans_path": str(spans_path)}, deadline, args.seed)
    values = dict(traced["layers"])
    untraced_s = scaled(plain["wall_s"], plain["probe_s"])
    traced_s = scaled(traced["traced_wall_s"], traced["probe_s"])
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    notes = [
        f"untraced wall {plain['wall_s']:.4f} s, traced wall {traced['traced_wall_s']:.4f} s "
        f"(raw); {untraced_s:.4f} s and {traced_s:.4f} s at reference speed",
        f"layer self time {traced['layer_self_total_s']:.4f} s over {traced['span_count']} spans",
        f"spans written to {spans_path.relative_to(ROOT)}",
    ]
    return values, tracing.PER_LAYER, [plain, traced], notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="PYTHONHASHSEED of the workers; the inputs themselves are "
                         "fixed (exhaustive searches, a fixed join sample)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few-second run for the self-test")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "matchtop" / "__init__.py").is_file():
        print(f"error: no matchtop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matchtop

    params = workloads.workload_params(args.workload, args.size, matchtop)
    env = environment(args, params)
    try:
        measure = per_layer if args.trace else end_to_end
        values, units, passes, notes = measure(args, params, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = loadavg()

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["item_s"]) for p in passes)
    failed = sum(p["failed_items"] for p in passes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"seed={args.seed} loadavg start={env['loadavg_start']} end={env['loadavg_end']}")
    print(f"workload {args.workload} ({args.size}): "
          + json.dumps({k: v for k, v in params.items() if k != "cases"}))
    for note in notes:
        print(note)
    for f in failures:
        print(f"FAIL graph6={f['graph6'] or '-'} {f['detail']}")
    print(f"error_rate {failed / attempted:.4g} ({failed} failed of {attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    for p in passes:
        p.pop("layers", None)
    record.write_text(json.dumps({"env": env, "metrics": metrics, "passes": passes,
                                  "attempted": attempted, "failed": failed}, indent=1))
    print(f"record written to {record.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
