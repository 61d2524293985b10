"""Host-time benchmark of the elasticmoe simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload example_sweep --seed 0 --seconds 30 --trace 0

Every number is host time (what the simulator takes to run).  Simulated
latency, energy and speedup columns are model outputs: they are checked
for identity against reference outputs, not scored.

setup_s is the import time, plus the median of three builds of the
workload's inputs and reference outputs from the seed, plus one untimed
warm-up pass.  Then the run makes closed-loop passes for --seconds,
starting a pass only while a typical pass still ends in time.  Untraced
passes time only a few boundaries: each request (scenario, SD step or LRU
replay) and, in the sweep, each Monte Carlo call.

Host speed on a shared machine swings by tens of percent, in bursts of
seconds and in stretches of minutes.  Two measures keep that out of the
end-to-end figures:

- The passes repeat identical work, so each timed span position keeps
  its fastest self time over the passes (as timeit keeps the fastest
  repeat); a pass's least-disturbed time is the sum over its positions.
- A fixed probe loop, run between passes, gives the host's speed in this
  run; times are rescaled to a host on which the probe takes
  PROBE_REF_S.

items_per_ref_s is the items of one pass over its least-disturbed time,
rescaled; latency_ref_ms_p50 is the median of the requests'
least-disturbed times, rescaled.  The report line also gives the same
figures unscaled, under the workload's own names (rows_per_s,
tokens_per_s, ...), and the probe time.

With --trace 1 one more pass follows with every cross-module call wrapped
in a span; its per-layer metrics are reported instead of the end-to-end
ones, and its spans are written to perfbench/out/.

Standard output ends with two JSON lines: a report (environment stamp,
the metrics under their per-workload names, sample counts), then the
result: {"correct", "attempted", "failed", "metrics"}.  The metric names
and units come from BENCHMARK.json.
"""

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

LOAD_START = os.getloadavg()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
# Host time is rescaled to a host on which probe() takes this long.
PROBE_REF_S = 0.004


class BenchError(Exception):
    pass


def _load_package():
    src = ROOT / "src"
    if not (src / "elasticmoe" / "__init__.py").is_file():
        raise BenchError(f"no elasticmoe package under {src}")
    sys.path.insert(0, str(src))
    import elasticmoe

    if Path(elasticmoe.__file__).resolve().parent != (src / "elasticmoe").resolve():
        raise BenchError(f"imported elasticmoe from {elasticmoe.__file__}, not {src}")


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    """Stamp that says which code, machine and seed a number came from."""
    import numpy
    import scipy

    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(ROOT).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if in_repo else None,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": LOAD_START,
        "machine": platform.machine(),
        "node": platform.node(),
    }


def timed_pass(wl, tracer, points, traced=False):
    """One pass under ``tracer``; returns (outputs, wall, comm warnings).
    Outputs are checked by the caller, outside the timed region."""
    from elasticmoe.hwmodel import CommOverlapWarning

    with warnings.catch_warnings(record=traced) as caught:
        warnings.simplefilter("always" if traced else "ignore", CommOverlapWarning)
        with tracer.patched(points), tracer.span("pass") as root:
            out = wl.run_pass(tracer)
    n_warn = sum(issubclass(w.category, CommOverlapWarning) for w in caught or [])
    return out, root.duration, n_warn


def probe() -> float:
    """Best of ten runs of a fixed 4 ms loop of the kind the workloads
    spend their time in (dict updates, small numpy calls): the host's
    current speed, measured the same way on every commit."""
    import numpy as np

    best = float("inf")
    row = np.random.default_rng(0).exponential(size=16)
    for _ in range(10):
        t = time.perf_counter()
        d = {}
        for i in range(2000):
            d[i & 63] = d.get(i & 63, 0) + i
            np.argpartition(-row, 1)
        best = min(best, time.perf_counter() - t)
    return best


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args) -> tuple[dict, dict]:
    _load_package()
    import layers
    import workloads
    from spans import Tracer, best_durations

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    import_s = time.perf_counter() - T_START

    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ctx = workloads.Context(ROOT, references.get(cls.name, {}), workdir)
        # Inputs are built three times; the warm-up is a whole pass, so once.
        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = cls(args.seed, ctx)
            builds.append(time.perf_counter() - t)
        warm, warm_s, _ = timed_pass(wl, Tracer(), cls.timed_points)
        setup_s = import_s + statistics.median(builds) + warm_s
        reference = wl.reference
        if wl.expected is None:  # seed not recorded: hold passes to the warm-up
            wl.expected = wl.op_digests(warm)
            reference = "warm-up pass"

        attempted = failed = passes = 0
        walls, pass_spans = [], []
        probes = [probe()]
        start = time.perf_counter()
        # Start another pass only if a typical pass still ends in the window.
        while not passes or (time.perf_counter() - start
                             + (statistics.median(walls) if walls else 0.0)
                             <= args.seconds):
            passes += 1
            attempted += wl.ops()
            tracer = Tracer()
            try:
                out, wall, _ = timed_pass(wl, tracer, cls.timed_points)
                failed += wl.check(out)
            except Exception:  # a pass that raises fails every op in it
                traceback.print_exc()
                failed += wl.ops()
                continue
            walls.append(wall)
            pass_spans.append(tracer.spans)
            probes.append(probe())
            items = wl.items(out)
        if not walls:
            raise BenchError(f"all {passes} passes raised")

        layer = None
        if args.trace:
            tracer = Tracer()
            out, traced_wall, n_warn = timed_pass(wl, tracer, layers.ALL_POINTS, traced=True)
            attempted += wl.ops()
            failed += wl.check(out)
            layer = layers.layer_metrics(tracer.spans, traced_wall,
                                         statistics.median(walls), n_warn)
            spans_path = OUT / f"spans-{cls.name}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = best_durations(pass_spans)
    rate = items / best[0][1]
    best_p50 = statistics.median(d for name, d in best if name == cls.request)
    lat = [sp.duration for p in pass_spans for sp in p if sp.name == cls.request]
    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops": (attempted, "count"),
        "ops_failed": (failed, "count"),
    }
    if cls.item == "rows":
        named["rows_per_s"] = (rate, "rows/s")
        named["scenario_s_p50"] = (best_p50, "s")
    elif cls.item == "tokens":
        named["tokens_per_s"] = (rate, "tok/s")
        named["sd_step_ms_p50"] = (1e3 * best_p50, "ms")
        named["sd_step_ms_p95"] = (1e3 * percentile(lat, 95), "ms")
    else:
        named["accesses_per_s"] = (rate, "accesses/s")

    speed = min(probes) / PROBE_REF_S
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "items_per_ref_s": rate * speed,
        "latency_ref_ms_p50": 1e3 * best_p50 / speed,
    }
    if layer is not None:
        values = layer
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    report = {
        "env": environment(args),
        "reference": reference,
        "passes": passes,
        "pass_wall_s": walls,
        "probe_ms_min": 1e3 * min(probes),
        "setup_parts_s": {"import": import_s, "inputs": builds, "warm_up": warm_s},
        "requests": len(lat),
        "item": cls.item,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    if layer is not None:
        report["spans"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["example_sweep", "sd_decode", "trace_replay"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        report, result = run(args)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
