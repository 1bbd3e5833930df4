"""Inputs of the wrong shape, size or kind are refused, each with its own
message."""

import json

import numpy as np
import pytest

from liedeform.algebras import (BracketCandidate, RepSpec, catalog_algebra,
                                hom_preset, sub_preset, subalgebra_witness,
                                validate_bracket)
from liedeform.cecomplex import (CohomologyReport, adjoint_cohomology,
                                 euler_characteristic)
from liedeform.cli import run
from liedeform.cochains import AltMap
from liedeform.deformlab import (FloatBracket, InputDefectError,
                                 curve_cocycle_check, recover_bracket_orbit,
                                 recover_hom_orbit)
from liedeform.documents import MalformedDocumentError, resolve_algebra
from liedeform.exactlin import (Matrix, Subspace, invert, parse_scalar,
                                solve_particular)
from liedeform.kuranishi import (Splitting, curvature_expansion_check,
                                 eta_matrix, kuranishi_hom, shifted_splitting,
                                 splitting_independence_check,
                                 standard_splitting)


def _report_missing_a_degree():
    r = adjoint_cohomology(catalog_algebra("sl2"))
    return CohomologyReport(r.label, r.acting_dim, r.carrier_dim,
                            r.degrees[:2], r.complex)


def _sl2_system(carrier_dim: int, rows: tuple) -> RepSpec:
    return RepSpec("x", catalog_algebra("sl2").candidate, carrier_dim, rows)


def _splittings_of_two_witnesses():
    sl2 = catalog_algebra("sl2")
    one = subalgebra_witness(sl2, [[1, 0, 0], [0, 1, 0]], name="h+e")
    other = subalgebra_witness(sl2, [[1, 0, 0], [0, 0, 1]], name="h+f")
    return standard_splitting(one), standard_splitting(other)


REFUSALS = {
    "tensor not n x n x n": (
        lambda: BracketCandidate.from_tensor([[[0] * 3] * 3] * 2),
        "must be n x n x n"),
    "entry index out of range": (
        lambda: BracketCandidate.from_entries(2, {(0, 2): [0, 0]}),
        r"\(0,2\) out of range"),
    "entry of the wrong length": (
        lambda: BracketCandidate.from_entries(2, {(0, 1): [1]}),
        "wrong length"),
    "from_altmap of degree 3": (
        lambda: BracketCandidate.from_altmap(AltMap.zero(3, 2, 2)),
        "need a 2-cochain"),
    "from_altmap of another carrier": (
        lambda: BracketCandidate.from_altmap(AltMap.zero(2, 2, 3)),
        "carrier equal to the domain"),
    "bracket sum of two dimensions": (
        lambda: BracketCandidate.zero(2).add_scaled(BracketCandidate.zero(3), 1),
        "dimension mismatch"),
    "basis names of the wrong number": (
        lambda: validate_bracket(BracketCandidate.zero(2), basis=("x",)),
        "basis name list"),
    # each crashed cohomology with an IndexError, or ZeroDivisionError when
    # elimination took the explicit 0 as a pivot
    "action rows for 1 of 3 acting basis vectors": (
        lambda: _sl2_system(2, ([{}, {}],)), "need 3 row lists"),
    "action rows of the wrong number": (
        lambda: _sl2_system(1, ([{0: 1}, {0: 1}],) * 3),
        "carrier_dim = 1 rows"),
    "action column out of range": (
        lambda: _sl2_system(2, ([{5: 1}, {}], [{}, {}], [{}, {}])),
        r"column 5 outside \[0, 2\)"),
    "action row holding a zero": (
        lambda: _sl2_system(2, ([{0: 0}, {}], [{}, {}], [{}, {}])),
        "holds a 0 at column 0"),
    "subalgebra vector of the wrong length": (
        lambda: subalgebra_witness(catalog_algebra("sl2"), [[1, 0]]),
        "wrong length"),
    "value of the wrong carrier length": (
        lambda: AltMap.from_values(1, 2, 2, {(0,): [1]}),
        "wrong carrier length"),
    "cochain sum of two domains": (
        lambda: AltMap.zero(1, 2, 1).add_scaled(AltMap.zero(1, 3, 1), 1),
        "incompatible"),
    "matrix rows of the wrong number": (
        lambda: Matrix(2, 2, [[1, 2]]), "declared shape"),
    "matrix row of the wrong length": (
        lambda: Matrix(2, 2, [[1, 2], [3]]), "declared shape"),
    "ragged columns": (
        lambda: Matrix.from_columns([[1, 2], [3]]), "ragged"),
    "product of mismatched shapes": (
        lambda: Matrix.zeros(2, 3).mul(Matrix.zeros(2, 3)), "shape mismatch"),
    "subspace vector of the wrong length": (
        lambda: Subspace(3, ((1, 0),)), "wrong length"),
    "right-hand side of the wrong length": (
        lambda: solve_particular(Matrix.identity(2), [1]), "wrong length"),
    "inverse of a non-square matrix": (
        lambda: invert(Matrix.zeros(2, 3)), "square"),
    "scalar past the digit limit": (
        lambda: parse_scalar("1" * 5000), "would exceed the limit"),
    "decimal exponent past the digit limit": (
        lambda: parse_scalar("1e99999"), "would exceed the limit"),
    "euler characteristic with missing degrees": (
        lambda: euler_characteristic(_report_missing_a_degree()),
        "all degrees"),
    "curvature expansion of a wrong-shaped direction": (
        lambda: curvature_expansion_check(hom_preset("id-sl2"),
                                          Matrix.zeros(2, 3)),
        "wrong shape"),
    "homomorphism direction of degree 2": (
        lambda: kuranishi_hom(hom_preset("id-sl2"), AltMap.zero(2, 3, 3)),
        "1-cochain on the source"),
    "section of the wrong shape": (
        lambda: Splitting(sub_preset("borel-in-sl2"), Matrix.zeros(3, 2)),
        "section has wrong shape"),
    "shift of the wrong shape": (
        lambda: shifted_splitting(standard_splitting(
            sub_preset("borel-in-sl2")), Matrix.zeros(1, 1)),
        "shift has wrong shape"),
    "eta matrix of a 2-cochain": (
        lambda: eta_matrix(AltMap.zero(2, 2, 1)), "need a 1-cochain"),
    "splittings of two witnesses": (
        lambda: splitting_independence_check(*_splittings_of_two_witnesses(),
                                             AltMap.zero(1, 2, 1)),
        "share a witness"),
    "Newton input of the wrong shape": (
        lambda: recover_hom_orbit(hom_preset("id-sl2"), np.zeros((3, 2))),
        r"input has shape \(3, 2\), expected \(3, 3\)"),
    "bracket tensor of the wrong shape": (
        lambda: recover_bracket_orbit(catalog_algebra("sl2"),
                                      np.zeros((2, 2, 2))),
        "structure tensor has wrong shape"),
    "curve with no symmetric pair": (
        lambda: curve_cocycle_check(hom_preset("id-sl2"), [
            (-0.1, np.eye(3)), (0.2, np.eye(3)), (0.3, np.eye(3))]),
        "symmetric sample pair"),
    "curve samples of two sizes": (
        lambda: curve_cocycle_check(hom_preset("id-sl2"), [
            (-0.1, np.eye(3)), (0.1, np.eye(3)), (0.3, np.eye(2))]),
        "inconsistent sample dimensions"),
    "sub curve sample of the wrong shape": (
        lambda: curve_cocycle_check(sub_preset("borel-in-sl2"), [
            (0.0, np.eye(3))]),
        "plane matrix has wrong shape"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_wrong_inputs_are_refused(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_an_algebra_spec_that_is_a_number_is_refused():
    with pytest.raises(MalformedDocumentError,
                       match="must be a name, a path or an object"):
        resolve_algebra(3)


@pytest.mark.parametrize("argv, message", [
    (["verdict", "--algebra", "sl2", "--question", "nonsense"],
     "unknown question 'nonsense'"),
    (["deform"], "deform needs --experiment FILE or --kind"),
])
def test_cli_refusals_exit_2_with_their_message(capsys, argv, message):
    assert run(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("malformed input: ") and message in out


def test_a_defect_past_the_digit_limit_is_reported_by_bit_lengths(
        capsys, tmp_path):
    # [e0,e1] = B e1 and [e1,e2] = B e2 with B = 10^2200: the Jacobiator on
    # (e0,e1,e2) is B^2 e2, whose 4401 digits pass the integer-string limit
    big = "1" + "0" * 2200
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"dim": 3, "brackets": [
        {"i": 0, "j": 1, "coeffs": ["0", big, "0"]},
        {"i": 1, "j": 2, "coeffs": ["0", "0", big]}]}))
    assert run(["verify", "--algebra", str(doc), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "defect": ["0", "0", "<14617-bit/1-bit rational>"],
        "error": "validation-failure", "kind": "jacobi", "location": [0, 1, 2]}
    assert run(["verify", "--algebra", str(doc)]) == 1
    assert capsys.readouterr().out == (
        "validation failure: Jacobi identity fails on (e0,e1,e2)\n")


def test_newton_input_with_a_non_finite_entry_is_refused():
    sl2 = catalog_algebra("sl2")
    bad = FloatBracket.from_exact(sl2).c.copy()
    bad[0, 1, 2] = np.nan
    with pytest.raises(InputDefectError, match="non-finite entry"):
        recover_bracket_orbit(sl2, bad)
    rho = np.eye(3)
    rho[0, 0] = np.inf
    with pytest.raises(InputDefectError, match="non-finite entry"):
        recover_hom_orbit(hom_preset("id-sl2"), rho)


def test_curve_of_the_whole_algebra_has_no_coboundary_columns():
    # h = g leaves g/h = 0, so d_0 of the quotient complex has no columns
    # and the curve's derivative is the empty vector, in class zero
    sl2 = catalog_algebra("sl2")
    whole = subalgebra_witness(sl2, np.eye(3, dtype=int).tolist(), name="all")
    report = curve_cocycle_check(whole, [
        (-0.1, np.eye(3)), (0.1, np.eye(3)), (0.2, np.eye(3))])
    assert report.ok and report.class_residual == 0.0
    assert report.derivative.size == 0
