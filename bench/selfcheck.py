"""Self-check of the benchmark's answer checks: each workload's checker is fed
deliberately wrong or missing answers and must count every one as failed.

run.py calls ``selfcheck`` before every run and exits with code 3, without a
result, when a checker lets a wrong answer through.
"""

from __future__ import annotations

import tasks


def selfcheck(reference: dict) -> list:
    """Descriptions of wrong answers a checker accepted (empty when sound)."""
    escaped = []

    def expect_failed(outcome, n, what):
        if outcome.failed != n or outcome.attempted < n:
            escaped.append(f"{what}: counted {outcome.failed} of "
                           f"{outcome.attempted} as failed, expected {n}")

    # exact-ladder: wrong dims, wrong Euler characteristic, missing
    # representatives, a corrupted table caught by the closed form, a raise
    ref = reference["ladder"]["L_7"]
    for what, args in (
            ("ladder dims", ("L_7", ref, [d + (k == 2) for k, d in enumerate(ref)],
                             0, ref)),
            ("ladder euler", ("L_7", ref, ref, 1, ref)),
            ("ladder representatives", ("L_7", ref, ref, 0, [0] * len(ref))),
            ("ladder closed form", ("gl_2", [1, 1, 1, 1, 1], [1, 1, 1, 1, 1],
                                    0, [1, 1, 1, 1, 1]))):
        out = tasks.Outcome()
        out.record(tasks.check_report(*args), what)
        expect_failed(out, 1, what)
    _, out = tasks.ladder_pass([("L_7", "adjoint", None, ref)])
    expect_failed(out, 1, "ladder raise")

    # cli-verdicts: changed stdout, changed exit code, no reference
    key = "verdict --algebra sl2"
    good = reference["cli"][key]
    for what, (r, code, stdout) in (
            ("cli stdout", (good, good["exit"], good["stdout"].replace("holds", "fails"))),
            ("cli exit code", (good, good["exit"] + 1, good["stdout"])),
            ("cli reference", (None, 0, ""))):
        out = tasks.Outcome()
        out.record(tasks.check_cli(r, code, stdout), what)
        expect_failed(out, 1, what)

    # newton-seeds: a converged record above tolerance, a lost seed, a band
    # that raises (every seed of it fails)
    seeds = [0, 1, 2]
    good_records = [{"seed": s, "converged": True, "residual": 1e-12,
                     "iterations": 3} for s in seeds]
    bad_residual = [dict(r) for r in good_records]
    bad_residual[1]["residual"] = 1e-6
    for what, records, n in (("newton residual", bad_residual, 1),
                             ("newton lost seed", good_records[:2], 1)):
        out = tasks.Outcome()
        out.record(tasks.check_band(seeds, records, 1e-10), what, count=len(seeds))
        expect_failed(out, n, what)
    _, out, _ = tasks.newton_pass([("raise", "no-such-kind", None, 0.05, seeds)])
    expect_failed(out, len(seeds), "newton raise")
    return escaped
