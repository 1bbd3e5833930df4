"""liedeform benchmark: one workload per run, answers checked, metrics as JSON.

    python3 bench/run.py --workload exact-ladder --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from ``src/`` and
writes only under ``.bench_out/``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full result (per-task times, failures, tail percentile and sample count) is
also written to ``.bench_out/<workload>-seed<seed>-trace<t>.json``, and a
traced run writes its spans beside it.

A run makes a fixed number of passes over the workload's task list, chosen
from ``--seconds`` and the pass time measured when the benchmark was made, so
two versions of the program always do the same work.  The end-to-end times
are put on one host-speed scale with the probes of ``calibrate.py``, taken
before and during the tasks.  README.md in this directory maps each per-layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# seconds one untraced pass took when the benchmark was made, on the scale
# of calibrate.py (see README.md)
NOMINAL_PASS_S = {"exact-ladder": 13.6, "cli-verdicts": 30.5, "newton-seeds": 8.1}
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(NOMINAL_PASS_S), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload, seed, workdir, reference):
    import tasks
    return {"exact-ladder": tasks.ladder_setup, "cli-verdicts": tasks.cli_setup,
            "newton-seeds": tasks.newton_setup}[workload](seed, workdir, reference)


def setup_probe(args) -> int:
    """Child side of the setup_s measurement: set up, say so, clean up."""
    import tasks
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
    try:
        setup(args.workload, args.seed, workdir, tasks.load_reference())
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args, clock):
    """Seconds from starting a fresh process to its inputs being ready, as
    measured and on the clock's speed scale."""
    raw, starts = [], []
    for _ in range(SETUP_REPEATS):
        clock.mark(child=True)
        t0 = perf_counter()
        starts.append(t0)
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        raw.append(perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("setup probe failed")
    clock.burst(child=True)
    return raw, [clock.scaled(dt, t0, child=True) for dt, t0 in zip(raw, starts)]


def import_times() -> dict:
    """Medians over fresh `python -X importtime -c "import liedeform"`
    processes: the package's cumulative import time, and the cumulative time
    of the outermost scipy imports inside it."""
    import tasks
    env = tasks.child_env()
    total, scipy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import liedeform"], capture_output=True,
                             text=True, env=env, cwd=ROOT, check=True)
        rows = []  # (depth, name, cumulative microseconds)
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 \
                    or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            rows.append((depth, name.strip(), int(parts[1])))
        scipy_rows = [r for r in rows if r[1].split(".")[0] == "scipy"]
        top = min((r[0] for r in scipy_rows), default=0)
        total.append(sum(r[2] for r in rows if r[1] == "liedeform") / 1e6)
        scipy.append(sum(r[2] for r in scipy_rows if r[0] == top) / 1e6)
    return {"startup.import_s": statistics.median(total),
            "startup.scipy_import_s": statistics.median(scipy)}


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    s = sorted(samples)
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / n, n


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a mean of the order statistics
    weighted by the Beta((n+1)/2, (n+1)/2) mass over each one's share of
    [0, 1].  On newton-seeds the tasks next to the middle differ up to
    twofold, and the seed (how many of its wide-band seeds are short) moves
    which one is the sample median, which spread 0.08 to 0.12 over ten runs;
    this estimate moves by a fraction of that."""
    s = sorted(values)
    n, a = len(s), (len(s) + 1) / 2
    if n == 1:
        return s[0]
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_beta)

    m = 64  # Simpson intervals per order statistic
    h = 1.0 / (n * m)
    weights = [sum(density(i / n + j * h) * (1 if j in (0, m) else 4 if j % 2 else 2)
                   for j in range(m + 1)) * h / 3 for i in range(n)]
    return sum(w * v for w, v in zip(weights, s)) / sum(weights)


def one_pass(workload, inputs, rec=None, in_process=False, clock=None):
    """(task times by label, Outcome, extra): extra is the Newton statistics
    or the largest child RSS of a fresh-process cli pass.  With a clock, the
    fresh-process and in-process passes mark the start of every task."""
    import tasks
    if workload == "exact-ladder":
        times, out = tasks.ladder_pass(inputs, rec, clock)
        return times, out, None
    if workload == "newton-seeds":
        return tasks.newton_pass(inputs, rec, clock)
    if in_process:
        times, out = tasks.cli_pass_in_process(inputs, rec)
        return times, out, None
    return tasks.cli_pass(inputs, clock)


def scaled_pass(workload, inputs, clock):
    """A pass probed by the clock, also from its timer while tasks run
    in-process: (measured times, times on the clock's speed scale, Outcome,
    extra)."""
    clock.starts.clear()
    child = workload == "cli-verdicts"
    if child:
        times, out, extra = one_pass(workload, inputs, clock=clock)
    else:
        with clock.sampling():
            times, out, extra = one_pass(workload, inputs, clock=clock)
    clock.burst(child)
    scaled = {label: clock.scaled(dt, start, child) for (label, dt), start
              in zip(times.items(), clock.starts, strict=True)}
    return times, scaled, out, extra


def by_task(per_pass) -> dict:
    """Median time of every task over its runs in all passes."""
    import tasks
    runs = {}
    for times in per_pass:
        for label, dt in times.items():
            runs.setdefault(tasks.base_label(label), []).append(dt)
    return {k: statistics.median(v) for k, v in runs.items()}


def end_to_end(args, inputs, passes, outcome, result):
    """Every time is on the speed scale of calibrate.py; the result file
    also keeps the measured pass and setup times."""
    import calibrate
    import tasks
    clock = calibrate.Clock()
    per_pass, raw_pass, extras = [], [], []
    setup_raw, setup_times = measure_setup(args, clock)
    for _ in range(passes):
        raw, times, out, extra = scaled_pass(args.workload, inputs, clock)
        raw_pass.append(raw)
        per_pass.append(times)
        extras.append(extra)
        outcome.add(out)
    samples = [t for times in per_pass for t in times.values()]
    tail_value, tail_pct, n = tail(samples)
    big = {"exact-ladder": tasks.LARGEST, "cli-verdicts": tasks.CLI_LARGEST,
           "newton-seeds": tasks.NEWTON_LARGEST}[args.workload]
    if args.workload == "cli-verdicts":
        rss = max(extras)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update({
        "passes": passes, "setup_samples_s": setup_times,
        "setup_measured_s": setup_raw,
        "pass_wall_s": [sum(t.values()) for t in per_pass],
        "pass_task_s": per_pass,
        "pass_measured_s": [sum(t.values()) for t in raw_pass],
        "task_measured_median_s": by_task(raw_pass),
        "probe_s": [t1 - t0 for t0, t1 in clock.probes],
        "child_probe_s": [t1 - t0 for t0, t1 in clock.child_probes],
        "task_median_s": by_task(per_pass),
        "tail": {"percentile": tail_pct, "samples": n,
                 "beyond": TAIL_BEYOND},
    })
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(result["pass_wall_s"]),
        "largest_report_s": result["task_median_s"][big],
        "task_p50_s": hd_median(result["task_median_s"].values()),
        "task_tail_s": tail_value,
        "rss_peak_mb": rss,
    }


def per_layer(args, inputs, passes, outcome, result):
    """Interleaved untraced and traced passes (in-process for cli-verdicts)."""
    import spans
    import tasks
    import families
    rec = spans.Recorder()
    plain, traced, stats = [], [], []
    for _ in range(max(1, passes // 2)):
        times, out, _ = one_pass(args.workload, inputs, in_process=True)
        plain.append(sum(times.values()))
        outcome.add(out)
        uninstall = spans.install(rec, extra_modules=(tasks, families))
        try:
            times, out, extra = one_pass(args.workload, inputs, rec, in_process=True)
        finally:
            uninstall()
        traced.append(sum(times.values()))
        outcome.add(out)
        if args.workload == "newton-seeds":
            stats.append(extra)
    layers = spans.layer_metrics(rec, len(traced))
    seeds = sum(s.seeds for s in stats)
    records = sum(s.records for s in stats)
    layers.update({
        "deformlab.seeds": seeds / len(traced),
        "deformlab.iterations_per_seed":
            sum(s.iterations for s in stats) / records if records else 0.0,
        "deformlab.converged_frac":
            sum(s.converged for s in stats) / records if records else 0.0,
        "trace.overhead_frac":
            statistics.median(traced) / statistics.median(plain) - 1.0,
    })
    layers.update(import_times())
    result.update({"passes": len(traced), "untraced_pass_wall_s": plain,
                   "traced_pass_wall_s": traced})
    span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(span_path, "w") as fh:
        for s in rec.spans:
            fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                 "parent": s[3], "task": s[4],
                                 "probe": s[5]}) + "\n")
    result["spans_file"] = str(span_path.relative_to(ROOT))
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liedeform" / "__init__.py").is_file():
        print(f"bench: {SRC / 'liedeform'} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One process, one task at a time: OpenBLAS would otherwise start a
    # thread per core and spin them on the tiny Newton matrices, so that
    # timings follow whatever else the machine runs.  Set before numpy is
    # imported here or in any child.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The benchmark and every child it starts run on one CPU, so that the
    # calibration probes time the CPU the timed work runs on: on a shared
    # host one vCPU can run slow while the other does not.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    import selfcheck
    import tasks
    reference = tasks.load_reference()
    escaped = selfcheck.selfcheck(reference)
    for line in escaped:
        print("bench: checker accepted a wrong answer:", line, file=sys.stderr)
    if escaped:
        return 3

    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    outcome = tasks.Outcome()
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        inputs = setup(args.workload, args.seed, workdir, reference)
        measure = per_layer if args.trace else end_to_end
        values = measure(args, inputs, passes, outcome, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # names and units come from BENCHMARK.json, so a metric it lists and the
    # run does not produce is an error rather than a silent omission
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    line = {"correct": outcome.wrong == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}
    result.update(line)
    result["failures"] = outcome.notes
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")
    for note in outcome.notes:
        print("failed:", note)
    if args.trace == 0 and "tail" in result:
        t = result["tail"]
        print(f"task_tail_s is p{t['percentile']:.1f} of {t['samples']} samples")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
