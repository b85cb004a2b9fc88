"""epiq benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload propagate-depth --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is taken from ``src/`` there.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run on the same inputs.  ``--workload all`` runs every workload in its
own process and prints their metrics as a table.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("uniqueness-table", "propagate-depth", "cli-scenarios", "state-space")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}


def cap_threads():
    """Cap numpy/scipy thread pools at the CPUs this process may use, for
    this process and every child it starts."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(limit)
    return nproc


def use_checkout_source(root):
    """Put ``root/src`` first on the import path of this process and its
    children; refuse to run without it."""
    src = root / "src"
    if not (src / "epiq" / "__init__.py").is_file():
        sys.exit(f"bench: {src}/epiq not found; run from the root of an epiq checkout")
    sys.path.insert(0, str(src))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return src


def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than 20."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def hd_median(samples):
    """Harrell-Davis estimate of the median: the sorted samples weighted by
    how much of a Beta((n+1)/2, (n+1)/2) density falls between their ranks.
    Unlike the middle sample it does not jump from one op to the next when
    the op set has a gap in the middle."""
    import numpy as np
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    t = np.linspace(0.0, 1.0, 100 * n + 1)
    with np.errstate(divide="ignore"):
        pdf = np.exp((n - 1) / 2 * np.log(4 * t * (1 - t)))  # largest, 1, at t = 1/2
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    return float(np.diff(cdf[::100]) @ x / cdf[-1])


def run_pass(workload, ops, probe, tracer=None):
    """One pass of ops.  ``times`` are scaled to the reference CPU speed
    (see hostspeed.py) and ``wall`` is their sum; ``raw_wall`` is unscaled."""
    workload.before_pass()
    gc.collect()  # start every pass with the same collector state
    results, spans = [], []
    for i, (_, fn, _) in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t0 = perf_counter()
        try:
            out, err = fn(), None
        except Exception as e:  # a failed op is counted, the run goes on
            out, err = None, f"{type(e).__name__}: {e}"
        spans.append((t0, perf_counter()))
        results.append((out, err))
    probe.settle()
    raw, times = zip(*(probe.scale(t0, t1) for t0, t1 in spans))
    failures = {}
    for (label, _, check), (out, err) in zip(ops, results):
        reason = err or check(out)
        if reason:
            failures[label] = reason
    return {"wall": sum(times), "times": times, "raw_wall": sum(raw), "raw": raw,
            "failures": failures,
            "labels": [label for label, _, _ in ops],
            "outputs": [out for out, _ in results]}


def fits(start, seconds, durations):
    """Whether one more round, of ``durations`` unscaled, brings the run
    closer to ``seconds``."""
    return perf_counter() - start + statistics.median(durations) / 2 <= seconds


def measure(workload, seconds, probe):
    """Passes until ``seconds``; at least two when one pass fits in it, so
    that no figure rests on a single measurement of a slow op, and at least
    the workload's ``min_passes``."""
    ops = workload.ops(in_process=False)
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, ops, probe))
        walls = [p["raw_wall"] for p in passes]
        if not (fits(start, seconds, walls) or len(passes) < workload.min_passes
                or (len(passes) == 1 and walls[0] <= seconds)):
            return passes


def measure_traced(workload, seconds, tracer, probe):
    import layers
    import tracing
    ops = workload.ops(in_process=True)
    labels = [label for label, _, _ in ops]
    plain, traced, per_pass, stats_list = [], [], [], []
    start = perf_counter()
    while True:
        # alternate which half of a round goes first, so drift cancels
        if len(plain) % 2 == 0:
            plain.append(run_pass(workload, ops, probe))
        lo = len(tracer)
        before = {k: v[0] for k, v in tracer.counts.items()}
        for target, name, kind in layers.TARGETS:
            tracer.patch(target, name, counter=kind == "count",
                         classify=layers.CLASSIFIERS.get(name))
        try:
            traced.append(run_pass(workload, ops, probe, tracer))
        finally:
            tracer.unpatch()
        if len(plain) < len(traced):
            plain.append(run_pass(workload, ops, probe))
        stats = tracing.SpanStats(tracer, lo, len(tracer))
        counts = {k: v[0] - before.get(k, 0) for k, v in tracer.counts.items()}
        facts = workload.facts(traced[-1]["outputs"])
        facts["estimate_dof_by_row"] = {
            labels[op]: t for (name, op), t in stats.by_op.items()
            if name == "uniqueness.estimate_dof"}
        per_pass.append(layers.pass_metrics(stats, counts, facts))
        stats_list.append(stats)
        traced[-1]["outputs"] = None
        rounds = [a["raw_wall"] + b["raw_wall"] for a, b in zip(plain, traced)]
        if not fits(start, seconds, rounds):
            break
    return plain, traced, per_pass, stats_list


def import_times(repeats):
    """Import of epiq.cli in fresh interpreters, from ``-X importtime``."""
    import tracing
    cli_s, scipy_s = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import epiq.cli"],
                              capture_output=True, text=True, check=True)
        table = tracing.parse_importtime(proc.stderr)
        cli_s.append(sum(table[name][1] for name in ("epiq", "epiq.cli") if name in table))
        scipy_s.append(sum(own for name, (own, _) in table.items()
                           if name == "scipy" or name.startswith("scipy.")))
    return statistics.median(cli_s), statistics.median(scipy_s)


def machine_meta(root):
    import numpy
    import scipy
    from importlib import metadata
    head = root / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else ref
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    loc = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)), "cpu": cpu,
            "ram_gb": round(ram_gb, 1), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "jsonschema": metadata.version("jsonschema"), "src_lines": loc}


def child_setup_seconds(args):
    """(unscaled, scaled) set-up time of a fresh process."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args, root):
    with hostspeed.Probe() as probe:
        start = perf_counter()
        import workloads
        workload = workloads.WORKLOADS[args.workload]()
        work_dir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            workload.setup(args.seed, work_dir)
            end = perf_counter()
            probe.settle()
            setup = probe.scale(start, end)
            if args.setup_only:
                print(json.dumps({"setup_s": setup}))
                return 0
            if args.trace:
                return traced_run(args, root, workload, probe)
            return plain_run(args, root, workload, probe, setup)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)


def summary(args, root, workload, passes):
    attempted = sum(len(p["times"]) for p in passes)
    failures = {}
    for p in passes:
        failures.update(p["failures"])
    failed = sum(len(p["failures"]) for p in passes)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_meta(root), "inputs": workload.meta(),
            "passes": len(passes), "ops_per_pass": len(passes[0]["times"]),
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "failures": failures}
    return meta, attempted, failed


def plain_run(args, root, workload, probe, setup):
    passes = measure(workload, args.seconds, probe)
    rss = workload.peak_rss_mb()
    setups = [setup] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    # Per-pass figures of scaled op times, averaged over the run's passes.
    tails = [tail(p["times"]) for p in passes]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "wall_s": statistics.fmean(p["wall"] for p in passes),
        "op_p50_ms": statistics.fmean(hd_median(p["times"]) for p in passes) * 1e3,
        "op_tail_ms": statistics.fmean(t[0] for t in tails) * 1e3,
        "peak_rss_mb": rss,
    }
    meta, attempted, failed = summary(args, root, workload, passes)
    meta.update({"setup_samples_raw_scaled": setups,
                 "tail_percentile": tails[0][1], "tail_beyond_per_pass": tails[0][2],
                 "pass_walls": [p["wall"] for p in passes],
                 "pass_walls_raw": [p["raw_wall"] for p in passes],
                 "op_ms": {label: statistics.median(p["times"][i] for p in passes) * 1e3
                           for i, label in enumerate(passes[0]["labels"])},
                 "op_ms_raw": {label: statistics.median(p["raw"][i] for p in passes) * 1e3
                               for i, label in enumerate(passes[0]["labels"])}})
    print("meta " + json.dumps(meta))
    for name, value in metrics.items():
        print(f"{args.workload:18s} {name:12s} {value:14.6f} {E2E_UNITS[name]}")
    print(f"{args.workload:18s} {'failed_frac':12s} {meta['failed_frac']:14.6f} "
          f"({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                                  for k, v in metrics.items()}}))
    return 0


def traced_run(args, root, workload, probe):
    import layers
    import tracing
    tracer = tracing.Tracer()
    plain, traced, per_pass, stats_list = measure_traced(workload, args.seconds, tracer,
                                                         probe)
    values = layers.combine_passes(per_pass)
    counts = {k: v[0] for k, v in tracer.counts.items()}
    missing = layers.missing_reasons(args.workload, stats_list, counts, tracer.missing)
    if args.workload == "cli-scenarios":
        values["import.epiq_cli_s"], values["import.scipy_s"] = import_times(IMPORT_REPEATS)
    else:
        for name in ("import.epiq_cli_s", "import.scipy_s"):
            values[name] = 0.0
            missing[name] = "measured on cli-scenarios only"
    base = statistics.median(p["wall"] for p in plain)
    values["trace.overhead_frac"] = (statistics.median(p["wall"] for p in traced) - base) / base
    spans_path = root / ".bench_work" / f"spans-{args.workload}-{args.seed}.json.gz"
    tracer.write(spans_path)
    meta, attempted, failed = summary(args, root, workload, plain + traced)
    meta.update({"traced_passes": len(traced), "untraced_wall_s": base,
                 "spans": len(tracer), "spans_file": str(spans_path.relative_to(root)),
                 "missing": missing})
    if args.workload == "uniqueness-table":
        meta["accepted_start_base"] = {"least_squares_calls": values.get(
            "uniqueness.least_squares_calls")}
    print("meta " + json.dumps(meta))
    for name in layers.METRICS:
        note = f"  (missing: {missing[name]})" if name in missing else ""
        print(f"{args.workload:18s} {name:44s} {values[name]:14.6f} "
              f"{layers.METRICS[name][0]}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": layers.METRICS[name][0]}
                                  for name in layers.METRICS}}))
    return 0


def run_all(args):
    """Every workload in its own process; print each one's metrics."""
    combined, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            ok = False
            continue
        for line in lines[:-1]:
            if not line.startswith("meta "):
                print(line)
        combined[name] = json.loads(lines[-1])
        ok = ok and combined[name]["correct"]
    print(json.dumps(combined))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    use_checkout_source(root)
    hostspeed.pin_to_one_cpu()
    cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
