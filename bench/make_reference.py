"""Regenerate bench/reference.json, the stored answers the benchmark checks.

    python3 bench/make_reference.py

- ``ladder``: every exact-ladder cohomology table, computed with the
  independent Bareiss oracle in tests/elimination_oracle.py.  The coefficient
  actions are written out here from the structure constants, not taken from
  the package's representation builders.
- ``directions``: fixed Kuranishi direction documents (first cocycle basis
  vectors) for three catalog objects.
- ``cli``: stdout and exit code of every cli-verdicts task, recorded from the
  program at the commit that made this file.  The tasks are run for two
  workload seeds and must agree, which shows the outputs do not depend on
  the seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from itertools import combinations
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import families as F  # noqa: E402
import tasks  # noqa: E402
from elimination_oracle import (adjoint_action, bareiss_rank,  # noqa: E402
                                differential_entries)


def oracle_dims(c, n, m, action):
    ranks = [bareiss_rank(differential_entries(k, n, m, c, action))
             for k in range(n)] + [0]
    return [comb(n, k) * m - ranks[k] - (ranks[k - 1] if k else 0)
            for k in range(n + 1)]


def _c(g):
    return [[list(g.c[i][j]) for j in range(g.dim)] for i in range(g.dim)]


def adjoint_dims(g):
    c = _c(g)
    return oracle_dims(c, g.dim, g.dim, adjoint_action(c, g.dim))


def pullback_dims(rho):
    """e_i acts on the target through ad(rho(e_i)): component b of
    [rho(e_i), e_a] is sum_j rho[j][i] c_target[j][a][b]."""
    h, g = rho.source, rho.target
    cg = _c(g)
    rows = rho.matrix.data
    action = [[[sum(rows[j][i] * cg[j][a][b] for j in range(g.dim))
                for a in range(g.dim)] for b in range(g.dim)]
              for i in range(h.dim)]
    return oracle_dims(_c(h), h.dim, g.dim, action)


def coordinate_quotient_dims(g, positions):
    """Subalgebra spanned by the coordinate vectors at ``positions``: its
    structure constants and its action on the span of the other coordinates
    (which is a complement) are read off the ambient constants."""
    cg = _c(g)
    pos = list(positions)
    comp = [q for q in range(g.dim) if q not in pos]
    k, m = len(pos), len(comp)
    c_sub = [[[cg[pos[i]][pos[j]][pos[t]] for t in range(k)] for j in range(k)]
             for i in range(k)]
    action = [[[cg[pos[i]][comp[a]][comp[b]] for a in range(m)] for b in range(m)]
              for i in range(k)]
    return oracle_dims(c_sub, k, m, action)


def ladder_table():
    table = {}
    for label, kind, build in tasks.LADDER:
        obj = build(None)
        if kind == "adjoint":
            table[label] = adjoint_dims(obj)
        elif kind == "pullback":
            table[label] = pullback_dims(obj)
        print(label, table.get(label), flush=True)
    table["centre-of-heis_7"] = coordinate_quotient_dims(F.heisenberg(3), [6])
    table["bsl3-in-sl3"] = coordinate_quotient_dims(F.sl(3), [0, 1, 2, 3, 5])
    return table


def _flat_to_entries(flat, n):
    entries = []
    for p, (i, j) in enumerate(combinations(range(n), 2)):
        coeffs = [str(x) for x in flat[p * n:(p + 1) * n]]
        if any(x != "0" for x in coeffs):
            entries.append({"i": i, "j": j, "coeffs": coeffs})
    return entries


def _flat_to_matrix(flat, rows, cols):
    """Inverse of kuranishi.matrix_as_one_cochain: column j is flat[j*rows:]."""
    return [[str(flat[j * rows + r]) for j in range(cols)] for r in range(rows)]


def directions():
    from liedeform import (adjoint_rep, catalog_algebra, cohomology, hom_preset,
                           pullback_rep, quotient_rep, sub_preset)
    g = catalog_algebra("heis3")
    z2 = cohomology(adjoint_rep(g)).degree(2).cocycles.basis[0]
    rho = hom_preset("borel-incl")
    z1h = cohomology(pullback_rep(rho)).degree(1).cocycles.basis[0]
    w = sub_preset("borel-in-sl2")
    z1s = cohomology(quotient_rep(w)).degree(1).cocycles.basis[0]
    return {
        "dir-heis3": {"brackets": _flat_to_entries(list(z2), g.dim)},
        "dir-borel-incl": {"matrix": _flat_to_matrix(list(z1h), rho.target.dim,
                                                     rho.source.dim)},
        "dir-borel-in-sl2": {"matrix": _flat_to_matrix(list(z1s), w.quotient_dim,
                                                       w.dim)},
    }


def cli_outputs(reference):
    env = tasks.child_env()
    runs = []
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for seed in (0, 1):
        workdir = Path(tempfile.mkdtemp(prefix="ref-", dir=out_dir))
        try:
            out = {}
            for key, argv, _ in tasks.cli_setup(seed, workdir, reference):
                if tasks.base_label(key) != key:
                    continue
                _, code, stdout, _ = tasks.run_child(
                    [sys.executable, "-m", "liedeform", *argv], env)
                if str(workdir) in stdout:
                    raise SystemExit(f"{key}: output names the document path")
                out[key] = {"exit": code, "stdout": stdout}
            runs.append(out)
        finally:
            shutil.rmtree(workdir)
    if runs[0] != runs[1]:
        bad = [k for k in runs[0] if runs[0][k] != runs[1][k]]
        raise SystemExit(f"cli outputs depend on the seed: {bad}")
    return runs[0]


def main():
    path = HERE / "reference.json"
    reference = {"ladder": ladder_table(), "directions": directions(), "cli": {}}
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    reference["cli"] = cli_outputs(reference)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
