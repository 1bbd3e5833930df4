"""The three workloads: their inputs, one pass over each fixed task list,
and the answer checks.

Every workload is a closed loop with one client: one task at a time in one
process (cli-verdicts starts one child process per task and waits for it).
A pass returns per-task wall times and an ``Outcome`` of checked answers.
An in-process task starts from a collected heap, so that a collection owed
by the previous task does not land in it.
Given a ``calibrate.Clock``, a pass calls its ``mark`` right before each
task.
"""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import zip_longest
from math import comb
from pathlib import Path
from time import perf_counter

import liedeform.cli
from liedeform import (NewtonConfig, adjoint_rep, catalog_algebra, cohomology,
                       euler_characteristic, hom_preset, pullback_rep,
                       quotient_rep, run_experiment, sub_preset)
from liedeform.documents import algebra_to_doc, hom_to_doc, sub_to_doc

import families as F

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_reference() -> dict:
    """Stored answers, made by make_reference.py."""
    return json.loads((HERE / "reference.json").read_text())


class Outcome:
    """Answers checked: ``wrong`` contradict a check, ``missing`` never came
    (the call raised); ``failed`` counts both."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.missing = 0
        self.notes = []

    @property
    def failed(self) -> int:
        return self.wrong + self.missing

    def add(self, other: "Outcome"):
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.missing += other.missing
        for note in other.notes:
            if note not in self.notes:
                self.notes.append(note)

    def record(self, problems, what: str, count: int = 1, missing=False):
        """Count ``count`` answers; with problems, all of them failed when
        ``missing`` and one per problem (at most ``count``) otherwise."""
        self.attempted += count
        if problems:
            if missing:
                self.missing += count
            else:
                self.wrong += min(count, len(problems))
            self.notes.append(f"{what}: {problems}")


def base_label(label: str) -> str:
    """The task a repeated run ("<label> #2", "<label> #3") belongs to."""
    return label.split(" #")[0]


# ---------------------------------------------------------------------------
# exact-ladder: in-process cohomology() reports in ascending dimension

LADDER = [
    ("abelian_4", "adjoint", lambda s: F.abelian(4, s)),
    ("gl_2", "adjoint", lambda s: F.gl(2, s)),
    ("heis3-in-heis5", "pullback", F.heis3_to_heis5),
    ("bsl2-in-bsl3", "pullback", F.borel2_to_borel3),
    ("centre-of-heis_7", "quotient", lambda s: F.centre_of_heis(3, s)),
    ("bsl3-in-sl3", "quotient", F.borel3_in_sl3),
    ("heis_5", "adjoint", lambda s: F.heisenberg(2, s)),
    ("L_5", "adjoint", lambda s: F.filiform(5, s)),
    ("b(sl_3)", "adjoint", lambda s: F.borel(3, s)),
    ("L_6", "adjoint", lambda s: F.filiform(6, s)),
    ("heis_7", "adjoint", lambda s: F.heisenberg(3, s)),
    ("L_7", "adjoint", lambda s: F.filiform(7, s)),
]
LARGEST = "L_7"
# every system but the three largest runs this often in a row in a pass: one
# report of those takes 1 to 170 ms.  With three runs a pass task_p50_s was
# unsteady, and task_tail_s fell on the second-fastest of the six b(sl_3)
# runs of a two-pass run; with five it falls near their median
SMALL_RUNS = 5

# looked up at call time, so that the traced run sees the wrapped builders
_REPS = {"adjoint": lambda o: adjoint_rep(o), "pullback": lambda o: pullback_rep(o),
         "quotient": lambda o: quotient_rep(o)}


def ladder_closed_form(label: str):
    """Dimensions known in closed form, independent of any elimination."""
    if label == "abelian_4":
        return [4 * comb(4, k) for k in range(5)]   # n * C(n, k)
    if label == "gl_2":
        return [1, 1, 0, 1, 1]                      # (1 + t)(1 + t^3)
    if label == "b(sl_3)":
        return [0] * 6                              # H*(b, b) = 0
    return None


def check_report(label: str, expect, dims, euler: int, n_reps) -> list:
    problems = []
    if dims != expect:
        problems.append(f"dims {dims} != oracle {expect}")
    closed = ladder_closed_form(label)
    if closed is not None and dims != closed:
        problems.append(f"dims {dims} != closed form {closed}")
    if euler != 0:
        problems.append(f"euler characteristic {euler} != 0")
    if n_reps != dims:
        problems.append(f"H-representative counts {n_reps} != dims")
    return problems


def ladder_setup(seed: int, workdir: Path, reference: dict):
    signs = F.Signs(seed)
    tasks = []
    for i, (label, kind, build) in enumerate(LADDER):
        obj, runs = build(signs), SMALL_RUNS if i < len(LADDER) - 3 else 1
        tasks += [(label if k == 0 else f"{label} #{k + 1}", kind, obj,
                   reference["ladder"][label]) for k in range(runs)]
    return tasks


def ladder_pass(inputs, rec=None, clock=None):
    times, out = {}, Outcome()
    for task, (label, kind, obj, expect) in enumerate(inputs):
        if rec is not None:
            rec.task = task
        gc.collect()
        if clock is not None:
            clock.mark()
        t0 = perf_counter()
        try:
            report = cohomology(_REPS[kind](obj))
        except Exception as exc:  # a raising task is a missing answer
            times[label] = perf_counter() - t0
            out.record(repr(exc), label, missing=True)
            continue
        times[label] = perf_counter() - t0
        dims = report.dims_h()
        n_reps = [len(d.h_representatives) for d in report.degrees]
        out.record(check_report(base_label(label), expect, dims,
                                euler_characteristic(report), n_reps), label)
        del report
    return times, out


# ---------------------------------------------------------------------------
# cli-verdicts: one fresh `python -m liedeform` process per task

CLI_LARGEST = "verdict --hom @bsl2-in-bsl3"
# the largest task runs this often in every pass, spread evenly over it, so
# that largest_report_s is a median over the whole pass: one run of it varies
# by up to 20% from the next, independently of the tasks around it, and with
# five runs in a row its quartile spread over ten runs reached 0.19
CLI_LARGEST_RUNS = 9


def _cli_objects(signs):
    """Generated documents of dimension <= 5, by file stem."""
    return {
        "L_5": algebra_to_doc(F.filiform(5, signs)),
        "heis_5": algebra_to_doc(F.heisenberg(2, signs)),
        "bsl_3": algebra_to_doc(F.borel(3, signs)),
        "heis3-in-heis5": hom_to_doc(F.heis3_to_heis5(signs)),
        "bsl2-in-bsl3": hom_to_doc(F.borel2_to_borel3(signs)),
        "sl2-in-gl2": hom_to_doc(F.sl2_to_gl2(signs)),
        "centre-of-heis_5": sub_to_doc(F.centre_of_heis(2, signs)),
        "nilradical-of-bsl3": sub_to_doc(F.nilradical_of_borel3(signs)),
    }


def _cli_templates():
    """The fixed task list; "@stem" names a generated document and "{seed}"
    the workload seed.  Outputs do not depend on either (the references are
    checked against two seeds when they are made)."""
    t = [["cohomology", "--algebra", name, "--json"] for name in ("heis3", "sl2")]
    t += [["verdict", "--algebra", name] for name in ("heis3", "sl2")]
    t.append(["kuranishi", "--algebra", "sl2", "--seed", "{seed}"])
    t += [["verdict", "--hom", name]
          for name in ("borel-incl", "id-sl2", "zero-to-sl2")]
    for name in ("borel-in-sl2", "center-in-heis3"):
        t += [["verdict", "--sub", name], ["les", "--sub", name]]
    t.append(["kuranishi", "--algebra", "heis3", "--direction", "@dir-heis3"])
    t.append(["kuranishi", "--hom", "borel-incl", "--direction", "@dir-borel-incl"])
    t.append(["kuranishi", "--sub", "borel-in-sl2", "--direction",
              "@dir-borel-in-sl2"])
    for stem in ("L_5", "heis_5", "bsl_3"):
        t += [["cohomology", "--algebra", "@" + stem, "--json"],
              ["verdict", "--algebra", "@" + stem]]
    t += [["verify", "--algebra", "@L_5"],
          ["kuranishi", "--algebra", "@L_5", "--seed", "{seed}"],
          ["kuranishi", "--algebra", "@bsl_3", "--seed", "{seed}"]]
    t += [["verdict", "--hom", "@" + stem]
          for stem in ("heis3-in-heis5", "bsl2-in-bsl3", "sl2-in-gl2")]
    t += [["verify", "--hom", "@heis3-in-heis5"],
          ["cohomology", "--hom", "@heis3-in-heis5", "--json"],
          ["kuranishi", "--hom", "@sl2-in-gl2", "--seed", "{seed}"]]
    t += [["verdict", "--sub", "@" + stem]
          for stem in ("centre-of-heis_5", "nilradical-of-bsl3")]
    t += [["verify", "--sub", "@nilradical-of-bsl3"],
          ["cohomology", "--sub", "@nilradical-of-bsl3", "--json"],
          ["kuranishi", "--sub", "@nilradical-of-bsl3", "--seed", "{seed}"],
          ["les", "--sub", "@nilradical-of-bsl3"]]
    return t


def cli_setup(seed: int, workdir: Path, reference: dict):
    docs = dict(_cli_objects(F.Signs(seed)))
    docs.update(reference["directions"])
    for stem, doc in docs.items():
        (workdir / f"{stem}.json").write_text(json.dumps(doc))
    tasks = []
    for template in _cli_templates():
        argv = [str(workdir / f"{a[1:]}.json") if a.startswith("@")
                else a.replace("{seed}", str(seed)) for a in template]
        key = " ".join(template)
        tasks.append((key, argv, reference["cli"].get(key)))
    largest = next(t for t in tasks if t[0] == CLI_LARGEST)
    tasks.remove(largest)
    step = (len(tasks) + CLI_LARGEST_RUNS) / CLI_LARGEST_RUNS
    for k in range(CLI_LARGEST_RUNS):
        label = CLI_LARGEST if k == 0 else f"{CLI_LARGEST} #{k + 1}"
        tasks.insert(round((k + 0.5) * step), (label, *largest[1:]))
    return tasks


def check_cli(ref, code: int, stdout: str) -> list:
    if ref is None:
        return ["no stored reference"]
    problems = []
    if code != ref["exit"]:
        problems.append(f"exit code {code} != {ref['exit']}")
    if stdout != ref["stdout"]:
        problems.append("stdout differs from the reference")
    return problems


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run one child to completion; returns (seconds, exit code, stdout,
    peak RSS in MiB of that child)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, cwd=ROOT, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 rather than wait: it also returns the child's resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    dt = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, out.decode(), usage.ru_maxrss / 1024.0


def cli_pass(inputs, clock=None):
    """Fresh-process pass; also returns the largest child RSS."""
    env = child_env()
    times, out, rss = {}, Outcome(), 0.0
    for key, argv, ref in inputs:
        if clock is not None:
            clock.mark(child=True)
        dt, code, stdout, child_rss = run_child(
            [sys.executable, "-m", "liedeform", *argv], env)
        times[key] = dt
        rss = max(rss, child_rss)
        out.record(check_cli(ref, code, stdout), key)
    return times, out, rss


def cli_pass_in_process(inputs, rec=None):
    """The same tasks through liedeform.cli.run(argv) with stdout captured;
    used by the traced run to split the layers."""
    times, out = {}, Outcome()
    for task, (key, argv, ref) in enumerate(inputs):
        if rec is not None:
            rec.task = task
        buf = io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(buf):
            code = liedeform.cli.run(argv)
        times[key] = perf_counter() - t0
        out.record(check_cli(ref, code, buf.getvalue()), key)
    return times, out


# ---------------------------------------------------------------------------
# newton-seeds: run_experiment per band, with the band's whole seed list

CORE_SCALE, WIDE_SCALE = 0.05, 0.3
CORE_SEEDS, WIDE_SEEDS = 20, 20
CORE = [("bracket-recovery", ("sl2", "aff1", "b(sl_3)")),
        ("hom-recovery", ("id-sl2", "borel-incl")),
        ("hom-continuation", ("id-sl2", "borel-incl")),
        ("sub-recovery", ("borel-in-sl2",)),
        ("sub-continuation", ("borel-in-sl2",))]
WIDE = [("bracket-recovery", ("sl2", "b(sl_3)"))]
NEWTON_LARGEST = f"bracket-recovery b(sl_3) @{CORE_SCALE}"


def newton_setup(seed: int, workdir: Path, reference: dict):
    """Core bands are one call with the whole seed list.  The wide band is
    one call per seed: at scale 0.3 a seed can raise, and a whole-list call
    would then drop the rest of its seeds, so the work of a pass would depend
    on where the first raise falls."""
    objects = {"sl2": catalog_algebra("sl2"), "aff1": catalog_algebra("aff1"),
               "b(sl_3)": F.borel(3), "id-sl2": hom_preset("id-sl2"),
               "borel-incl": hom_preset("borel-incl"),
               "borel-in-sl2": sub_preset("borel-in-sl2")}
    core = list(range(seed * CORE_SEEDS, (seed + 1) * CORE_SEEDS))
    wide = range(seed * WIDE_SEEDS, (seed + 1) * WIDE_SEEDS)
    tasks = [(f"{kind} {name} @{CORE_SCALE}", kind, objects[name], CORE_SCALE,
              core) for kind, names in CORE for name in names]
    tasks += [(f"{kind} {name} @{WIDE_SCALE} seed {s}", kind, objects[name],
               WIDE_SCALE, [s]) for kind, names in WIDE for name in names
              for s in wide]
    return tasks


def check_band(seeds, records, tol: float) -> list:
    """One problem per seed whose record is absent, out of place or
    converged above the tolerance."""
    got = [r.get("seed") for r in records]
    problems = [f"seed {s}: no record in its place"
                for s, g in zip_longest(seeds, got) if s is not None and s != g]
    for r in records:
        if r["converged"] and not r["residual"] <= tol:
            problems.append(f"seed {r['seed']}: converged with residual "
                            f"{r['residual']} > tol {tol}")
    return problems


class NewtonStats:
    def __init__(self):
        self.seeds = 0
        self.records = 0
        self.iterations = 0
        self.converged = 0


def newton_pass(inputs, rec=None, clock=None):
    tol = NewtonConfig().tol
    times, out, stats = {}, Outcome(), NewtonStats()
    for task, (label, kind, obj, scale, seeds) in enumerate(inputs):
        if rec is not None:
            rec.task = task
        gc.collect()
        if clock is not None:
            clock.mark()
        stats.seeds += len(seeds)
        t0 = perf_counter()
        try:
            records = run_experiment(kind, obj, seeds, scale=scale)
        except Exception as exc:  # every seed of a band that raises failed
            times[label] = perf_counter() - t0
            out.record(f"{type(exc).__name__}: {exc}", label, count=len(seeds),
                       missing=True)
            continue
        times[label] = perf_counter() - t0
        stats.records += len(records)
        stats.iterations += sum(r["iterations"] for r in records)
        stats.converged += sum(1 for r in records if r["converged"])
        problems = check_band(seeds, records, tol)
        out.record(problems, label, count=len(seeds))
    return times, out, stats
