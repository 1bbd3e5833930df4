"""Acceptance suite: one test per shipped guarantee, named so that
``pytest -v`` emits one pass/fail line per criterion.  Derived dimensions
are recomputed with the standalone elimination oracle in
``elimination_oracle.py`` and must agree with the package before the frozen
regression values are enforced."""

import random
import time
from fractions import Fraction
from math import comb

import numpy as np

from elimination_oracle import oracle_cohomology_dims
from liedeform.algebras import (Homomorphism, Matrix, abelian,
                                catalog_algebra, catalog_names, hom_preset,
                                sub_preset)
from liedeform.cecomplex import (CEComplex, adjoint_cohomology,
                                 adjoint_rep, cohomology, euler_characteristic,
                                 les_subalgebra, pullback_rep, quotient_rep)
from liedeform.cochains import AltMap
from liedeform.cli import run
from liedeform.deformlab import (continue_hom, continue_sub,
                                 perturbed_bracket, perturbed_hom,
                                 perturbed_plane, recover_bracket_orbit,
                                 recover_hom_orbit, recover_sub_orbit,
                                 vertical_derivative_fd_check)
from liedeform.kuranishi import (curvature_expansion_check,
                                 jacobiator_expansion_check,
                                 matrix_as_one_cochain, shifted_splitting,
                                 splitting_independence_check,
                                 standard_splitting)
from liedeform.verdicts import (bracket_rigidity, bracket_smoothness,
                                sub_rigidity, sub_stability)


def _verdict_line(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def _all_reps():
    reps = [adjoint_rep(catalog_algebra(name)) for name in catalog_names()]
    for name in ("borel-incl", "id-sl2", "zero-to-sl2"):
        reps.append(pullback_rep(hom_preset(name)))
    for name in ("borel-in-sl2", "center-in-heis3"):
        reps.append(quotient_rep(sub_preset(name)))
    return reps


def _structure_tensor(g):
    return [[[g.candidate.c[i][j][r] for r in range(g.dim)]
             for j in range(g.dim)] for i in range(g.dim)]


def _rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 8))


def _rational_two_cochain(rng, n):
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            values[(i, j)] = [_rational(rng) for _ in range(n)]
    return AltMap.from_values(2, n, n, values)


def test_criterion_01_complex_validity_all_systems_under_one_second():
    start = time.perf_counter()
    ok = True
    for rep in _all_reps():
        cx = CEComplex(rep)
        for k in range(rep.acting.dim):
            if not cx.d(k + 1).mul(cx.d(k)).is_zero():
                ok = False
    elapsed = time.perf_counter() - start
    _verdict_line(1, ok and elapsed < 1.0,
                  "d o d = 0 exactly, every catalog algebra, all three "
                  f"coefficient systems ({elapsed:.3f}s)")


def test_criterion_02_euler_characteristic_zero_everywhere():
    ok = True
    for rep in _all_reps():
        if rep.acting.dim >= 1:
            if euler_characteristic(cohomology(rep)) != 0:
                ok = False
    _verdict_line(2, ok, "alternating sum of dim H^k is exactly 0 for every "
                  "coefficient system")


def test_criterion_03_abelian_closed_form():
    ok = True
    for n in range(1, 5):
        dims = adjoint_cohomology(abelian(n)).dims_h()
        if dims != [n * comb(n, k) for k in range(n + 1)]:
            ok = False
    _verdict_line(3, ok, "abelian(n): dim H^k = n*C(n,k) exactly, n = 1..4")


def test_criterion_04_semisimple_vanishing_with_independent_oracle():
    start = time.perf_counter()
    ok = True
    for name in ("sl2", "so3"):
        g = catalog_algebra(name)
        oracle_dims, _ = oracle_cohomology_dims(_structure_tensor(g), g.dim)
        package_dims = adjoint_cohomology(g).dims_h()
        whitehead = [0, 0, 0]  # expected H^1..H^3 for a semisimple algebra
        if oracle_dims[1:4] != whitehead or package_dims != oracle_dims:
            ok = False
        if not (bracket_rigidity(g).holds and bracket_smoothness(g).holds):
            ok = False
    elapsed = time.perf_counter() - start
    _verdict_line(4, ok and elapsed < 1.0,
                  "sl2/so3: oracle and package agree on H^1..3 = 0; rigidity "
                  f"and smoothness verdicts hold ({elapsed:.3f}s)")


def test_criterion_05_aff1_vanishing_against_hand_ranks():
    g = catalog_algebra("aff1")
    report = adjoint_cohomology(g)
    hand = {"dim_z1": 2, "dim_b1": 2, "dim_b2": 2, "dim_c2": 2}
    deg1, deg2 = report.degree(1), report.degree(2)
    ok = (deg1.dim_cocycles == hand["dim_z1"]
          and deg1.dim_coboundaries == hand["dim_b1"]
          and deg2.dim_coboundaries == hand["dim_b2"]
          and deg2.dim_cochains == hand["dim_c2"]
          and report.dims_h()[1:3] == [0, 0]
          and bracket_rigidity(g).holds)
    oracle_dims, oracle_ranks = oracle_cohomology_dims(_structure_tensor(g), 2)
    ok = ok and oracle_dims == report.dims_h() and oracle_ranks[:2] == [2, 2]
    _verdict_line(5, ok, "aff(1): H^1 = H^2 = 0 with the hand-computed "
                  "Z^1/B^1/B^2 dimensions; rigidity holds")


def test_criterion_06_heisenberg_frozen_dimensions():
    g = catalog_algebra("heis3")
    oracle_dims, oracle_ranks = oracle_cohomology_dims(_structure_tensor(g), 3)
    package_dims = adjoint_cohomology(g).dims_h()
    derivations = 3 * 3 - oracle_ranks[1]   # dim Z^1 by rank-nullity
    inner = oracle_ranks[0]                 # dim B^1
    ok = (oracle_dims == [1, 4, 5, 2]       # frozen after oracle confirmation
          and package_dims == oracle_dims
          and package_dims[0] == 1
          and package_dims[2] >= 1
          and derivations - inner == 4)
    _verdict_line(6, ok, "heis3: H^0 = 1, H^2 >= 1; oracle-confirmed frozen "
                  "dims (1, 4, 5, 2); H^1 = Der - Inner = 6 - 2")


def test_criterion_07_borel_quotient_vanishing():
    w = sub_preset("borel-in-sl2")
    report = cohomology(quotient_rep(w))
    cochain_dims = [d.dim_cochains for d in report.degrees]
    rank_d0 = report.degree(0).dim_cochains - report.degree(0).dim_cocycles
    rank_d1 = report.degree(1).dim_cochains - report.degree(1).dim_cocycles
    ok = (cochain_dims == [1, 2, 1]
          and rank_d0 == 1 and rank_d1 == 1
          and report.dims_h() == [0, 0, 0]
          and sub_rigidity(w).holds and sub_stability(w).holds)
    _verdict_line(7, ok, "borel in sl2: H^1 = H^2 of the quotient system "
                  "vanish via the hand ranks; both sub verdicts hold")


def test_criterion_08_expansion_identities_on_random_rational_directions():
    rng = random.Random(20260823)
    ok = True
    for name in ("sl2", "aff1", "heis3"):
        g = catalog_algebra(name)
        n = g.dim
        for _ in range(50):
            xi = _rational_two_cochain(rng, n)
            eta = _rational_two_cochain(rng, n)
            rep = jacobiator_expansion_check(g.candidate, xi, eta)
            if not (rep.ok and rep.max_defect == 0):
                ok = False
        ident = Homomorphism(g, g, Matrix.identity(n), name=f"id-{name}")
        for _ in range(50):
            direction = Matrix.from_rows(
                [[_rational(rng) for _ in range(n)] for _ in range(n)])
            rep = curvature_expansion_check(ident, direction)
            if not (rep.ok and rep.max_defect == 0):
                ok = False
    sp = standard_splitting(sub_preset("borel-in-sl2"))
    eta_gen = matrix_as_one_cochain(Matrix.from_rows([[1, 0]]))
    for _ in range(20):
        shift = Matrix.from_rows([[_rational(rng)], [_rational(rng)]])
        scaled = eta_gen.scale(_rational(rng))
        comp = splitting_independence_check(
            sp, shifted_splitting(sp, shift), scaled)
        if not (comp.ok and comp.max_defect == 0):
            ok = False
    _verdict_line(8, ok, "jacobiator/curvature expansions exact on 50 "
                  "rational directions per algebra; splitting independence "
                  "exact on 20 rational shifts")


def test_criterion_09_long_exact_sequence_borel():
    les = les_subalgebra(sub_preset("borel-in-sl2"), 2)
    ok = les.all_exact and all(n.exact and n.membership_ok for n in les.nodes)
    _verdict_line(9, ok, "long exact sequence for borel in sl2 is exact at "
                  "every interior node up to degree 2")


def test_criterion_10_orbit_recovery_100_seeds_under_five_seconds():
    start = time.perf_counter()
    ok = True
    for g in (catalog_algebra("sl2"), catalog_algebra("aff1")):
        for seed in range(100):
            mu_prime, _ = perturbed_bracket(g, 0.05, seed)
            res = recover_bracket_orbit(g, mu_prime)
            if not (res.converged and res.residual <= 1e-9):
                ok = False
    rho = hom_preset("id-sl2")
    for seed in range(100):
        rho_prime, _ = perturbed_hom(rho, 0.05, seed)
        res = recover_hom_orbit(rho, rho_prime)
        if not (res.converged and res.residual <= 1e-9):
            ok = False
    w = sub_preset("borel-in-sl2")
    for seed in range(100):
        plane, _ = perturbed_plane(w, 0.05, seed)
        res = recover_sub_orbit(w, plane)
        if not (res.converged and res.residual <= 1e-9):
            ok = False
    elapsed = time.perf_counter() - start
    _verdict_line(10, ok and elapsed < 5.0,
                  "orbit recovery 100/100 seeds for sl2, aff(1), id-sl2 and "
                  f"borel-in-sl2 with residual <= 1e-9 ({elapsed:.2f}s)")


def test_criterion_11_stability_continuation_100_seeds():
    ok = True
    rho = hom_preset("borel-incl")
    for seed in range(100):
        mu_prime, _ = perturbed_bracket(rho.target, 0.05, seed)
        res = continue_hom(rho, mu_prime)
        if not (res.converged and res.residual <= 1e-9
                and res.distance <= 0.5):
            ok = False
    w = sub_preset("borel-in-sl2")
    for seed in range(100):
        mu_prime, _ = perturbed_bracket(w.ambient, 0.05, seed)
        res = continue_sub(w, mu_prime)
        if not (res.converged and res.residual <= 1e-9
                and res.distance <= 0.5):
            ok = False
    _verdict_line(11, ok, "continuation 100/100 seeds: curvature/chart "
                  "defect <= 1e-9 and distance <= 0.5 from the base")


def test_criterion_12_finite_difference_ratio_all_kinds():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10):
        d = rng.normal(size=(3, 3, 3))
        rep = vertical_derivative_fd_check(catalog_algebra("sl2"), d)
        if not rep.ok or (rep.remainder_ratio is not None
                          and not 3.5 <= rep.remainder_ratio <= 4.5):
            ok = False
    rho = hom_preset("borel-incl")
    for _ in range(10):
        d = rng.normal(size=(3, 2))
        rep = vertical_derivative_fd_check(rho, d)
        if not rep.ok or (rep.remainder_ratio is not None
                          and not 3.5 <= rep.remainder_ratio <= 4.5):
            ok = False
    w = sub_preset("borel-in-sl2")
    for _ in range(10):
        d = rng.normal(size=(1, 2))
        rep = vertical_derivative_fd_check(w, d)
        if not rep.ok or (rep.remainder_ratio is not None
                          and not 3.5 <= rep.remainder_ratio <= 4.5):
            ok = False
    _verdict_line(12, ok, "finite-difference remainder ratio in [3.5, 4.5] "
                  "when h halves, 10 random directions per kind")


def test_criterion_13_cli_byte_identical(capsys):
    commands = [
        ["verify", "--algebra", "sl2", "--json"],
        ["verify", "--sub", "center-in-heis3"],
        ["cohomology", "--algebra", "heis3", "--json"],
        ["cohomology", "--hom", "zero-to-sl2", "--json"],
        ["verdict", "--algebra", "heis3", "--json"],
        ["verdict", "--hom", "borel-incl", "--json"],
        ["kuranishi", "--algebra", "sl2", "--json", "--seed", "3"],
        ["kuranishi", "--sub", "borel-in-sl2", "--json"],
        ["les", "--sub", "center-in-heis3", "--max-degree", "2", "--json"],
        ["deform", "--kind", "bracket-recovery", "--algebra", "sl2",
         "--seeds", "5", "--json"],
        ["deform", "--kind", "hom-continuation", "--hom", "borel-incl",
         "--seeds", "3", "--json"],
    ]

    def run_captured(argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    ok = True
    for argv in commands:
        first = run_captured(argv)
        second = run_captured(argv)
        if first != second or first[0] != 0:
            ok = False
    _verdict_line(13, ok, "byte-identical repeated CLI runs over a command "
                  "set covering every verb")
