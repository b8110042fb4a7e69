"""rulescreen benchmark: end-to-end and per-layer timings of two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cli_pipeline --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --write-benchmark-json

The library is imported from `src/` of the checkout the script sits in, never
from an installed copy. A run builds the workload's inputs from --seed
(several times, to time set-up), then runs passes of the workload's
operations until --seconds have passed, checking and hashing every output. With
--trace 1 it instead runs one untraced pass, then one traced set-up and pass
with every layer wrapped (see tracing.py), and reports per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every operation
succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

N_IMPORT_PROBES = 3
MIN_PASSES = 2
# The probe's time on the 2-vCPU machine the baseline in README.md was
# measured on; pass_norm_s is in seconds of a host that runs it this fast.
PROBE_REF_S = 0.010
# BLAS/OpenMP pools are pinned to one thread and every workload sets its
# worker count to 1, so each process doing the work runs one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_environment() -> None:
    """Set before numpy is imported here or in any child process."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RULESCREEN_WORKERS", None)
    os.environ["PYTHONPATH"] = str(SRC)


def import_library() -> None:
    if not (SRC / "rulescreen" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rulescreen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rulescreen

    if not Path(rulescreen.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported rulescreen from {rulescreen.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def compare_digests(ops, label: str, reference: dict, got: dict) -> None:
    differ = sorted(k for k in set(reference) | set(got) if reference.get(k) != got.get(k))
    if differ:
        ops.fail(label, f"output digests differ from the first run: {differ}")


def import_seconds() -> float:
    """Median wall time of a fresh interpreter running `import rulescreen.cli`."""
    times = []
    for _ in range(N_IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rulescreen.cli"], check=True, env=os.environ)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def one_pass(wl, ops, inproc: bool = False) -> tuple:
    """Run one pass; return (wall time of each operation, output digests)."""
    ops.seconds, ops.probe_seconds = {}, {}
    digests = wl.run_pass(inproc=inproc)
    return dict(ops.seconds), digests


def measure(wl, ops, seconds: float) -> tuple:
    """Untraced run: `wl.setups` set-ups, then passes back to back until the
    run has taken `seconds`, set-ups included: another pass starts only while
    the last one would fit in the time left, and at least MIN_PASSES run.

    The shared host's speed drifts by up to a factor of two over seconds to
    minutes, which no run length averages out. So during the passes a fixed
    probe (`HostProbe`) is timed next to every operation, and pass_norm_s
    sums, over the operations of a pass, the median across passes of each
    operation's wall time divided by the probe's time, scaled by
    PROBE_REF_S: a pass's wall time on a host where the probe takes
    PROBE_REF_S. The probe uses nothing from the library, so on a given host
    a change to the library moves pass_norm_s in proportion to wall time.
    The wall-time medians are reported too, as pass_wall_s and the stage
    times.
    """
    from workloads import HostProbe

    run_start = time.perf_counter()
    deadline = run_start + seconds
    setups, reference = [], None
    for _ in range(wl.setups):
        start = time.perf_counter()
        digests = wl.setup()
        setups.append(time.perf_counter() - start)
        if reference is None:
            reference = digests
        else:
            compare_digests(ops, "setup", reference, digests)
    ops.peak_child_kb = 0  # peak RSS counts the pass processes, not set-up
    ops.probe = HostProbe()
    passes, probes, first = [], [], None
    while True:
        pass_start = time.perf_counter()
        op_seconds, digests = one_pass(wl, ops)
        passes.append(op_seconds)
        probes.append(dict(ops.probe_seconds))
        if first is None:
            first = digests
        else:
            compare_digests(ops, "pass", first, digests)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + (now - pass_start) > deadline:
            break
    ops.probe = None
    names = list(dict.fromkeys(op for p in passes for op in p))
    wall = {op: statistics.median(p[op] for p in passes if op in p) for op in names}
    norm = {
        op: PROBE_REF_S * statistics.median(p[op] / q[op] for p, q in zip(passes, probes) if op in p)
        for op in names
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_norm_s": sum(norm.values()),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    info = {
        "setups_s": setups,
        "passes_s": [sum(p.values()) for p in passes],
        "pass_wall_s": sum(wall.values()),
        "probe_median_s": statistics.median(v for q in probes for v in q.values()),
        "run_s": time.perf_counter() - run_start,
        "stages": wl.stages(wall),
        "digests": {"setup": reference, "pass": first},
    }
    return metrics, info


def measure_traced(wl, ops, spans_path: Path) -> tuple:
    """Traced run: an untraced set-up and pass for reference, then one set-up
    and one pass with every layer wrapped, both in this process."""
    from tracing import Tracer

    setup_ref = wl.setup()
    op_seconds, pass_ref = one_pass(wl, ops)
    if wl.runs_processes:
        # The traced pass runs the CLI in this process; compare it with an
        # untraced pass that does the same, after checking both agree.
        op_seconds, digests = one_pass(wl, ops, inproc=True)
        compare_digests(ops, "in-process pass", pass_ref, digests)
    untraced_s = sum(op_seconds.values())
    tracer = Tracer()
    tracer.install()
    ops.tracer = tracer
    try:
        with tracer.span("setup"):
            setup_got = wl.setup(inproc=True)
        with tracer.span("pass"):
            op_seconds, pass_got = one_pass(wl, ops, inproc=True)
        traced_s = sum(op_seconds.values())
    finally:
        ops.tracer = None
        tracer.uninstall()
    compare_digests(ops, "traced setup", setup_ref, setup_got)
    compare_digests(ops, "traced pass", pass_ref, pass_got)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path)
    layers = tracer.layer_metrics()
    layers["cli.import_s"] = import_seconds()
    layers["trace.overhead_s"] = traced_s - untraced_s
    info = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "digests": {"setup": setup_ref, "pass": pass_ref},
    }
    return layers, info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import spec
    from workloads import WORKLOAD_CLASSES, Ops

    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    ops = Ops(dict(os.environ))
    wl = WORKLOAD_CLASSES[name](seed, work, ops)
    try:
        if trace:
            spans = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json"
            values, info = measure_traced(wl, ops, spans)
            listed = spec.PER_LAYER
            extra = {n: {"value": values[n], "unit": u} for n, u, _, _ in spec.PER_LAYER_PARTIAL}
            info["layers_zero_elsewhere"] = extra
        else:
            values, info = measure(wl, ops, seconds)
            listed = spec.END_TO_END
        info["sizes"] = wl.sizes()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    metrics = {n: {"value": values[n], "unit": u} for n, u, *_ in listed}

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    if trace:
        # Each layer metric with the end-to-end metric it should move.
        for n, u, _, moves in spec.PER_LAYER + spec.PER_LAYER_PARTIAL:
            print(f"  {n:32s} {values[n]:<12.6g} {u:6s} -> {moves}")
    else:
        for n, m in metrics.items():
            print(f"  {n:32s} {m['value']:.6g} {m['unit']}")
        print(f"  {'pass_wall_s':32s} {info['pass_wall_s']:.6g} s (not normalized)")
        for n, v in info["stages"].items():
            print(f"  stage {n:26s} {v:.6g} s (not normalized)")
    rate = ops.failed / ops.attempted
    print(f"  error_rate {rate:g} ({ops.failed} failed / {ops.attempted} attempted)")
    info["environment"] = environment(seed)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0 if ops.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    import spec

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name, _ in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        last = proc.stdout.strip().splitlines()[-1:]
        result = json.loads(last[0]) if last and last[0].startswith('{"correct"') else None
        if proc.returncode != 0 or result is None:
            status = 1
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for n, m in result["metrics"].items():
            combined["metrics"][f"{name}.{n}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    import spec

    if args.write_benchmark_json:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    names = [n for n, _ in spec.WORKLOADS]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_environment()
    import_library()
    # The library logs fallbacks and small-split notices as WARNINGs; keep
    # them off stderr (the traced run counts them with its own handler).
    logging.getLogger().addHandler(logging.NullHandler())
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
