"""Bracket candidates keep only their nonzero structure constants.  Their
validation, homomorphism curvature, subalgebra closure, subalgebra
restriction and cochains are checked here against a dense reference written
in this file: full n x n x n Fraction tensors, built from the same raw
entries and summed over every index, zero or not.  The reference (the
``ref_`` functions) uses nothing from the package."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import bench_families, gl_algebra, sl_algebra
from liedeform.algebras import (BracketCandidate, Homomorphism, Matrix,
                                ValidationError, catalog_algebra, catalog_names,
                                curvature, hom_preset, hom_preset_names,
                                quotient_rep, sub_preset, sub_preset_names,
                                subalgebra_defect, subalgebra_witness,
                                validate_bracket, validate_homomorphism)
from liedeform.cochains import AltMap
from liedeform.exactlin import _subspace
from liedeform.cecomplex import adjoint_rep, cohomology
from liedeform.cli import run


# ---------------------------------------------------------------------------
# the dense reference

def ref_tensor(n: int, entries: dict) -> list:
    """c[i][j][k] from {(i, j): vector}; a (j, i) not given is -(i, j)."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), vec in entries.items():
        c[i][j] = [Fraction(x) for x in vec]
    for (i, j), vec in entries.items():
        if (j, i) not in entries:
            c[j][i] = [-Fraction(x) for x in vec]
    return c


def ref_bracket(c, u, v) -> list:
    n = len(c)
    return [sum((u[a] * v[b] * c[a][b][k] for a in range(n) for b in range(n)),
                Fraction(0)) for k in range(n)]


def ref_unit(n: int, a: int) -> list:
    return [Fraction(int(a == b)) for b in range(n)]


def ref_validate(c):
    """(kind, location, defect) of the first failure, or None."""
    n = len(c)
    for i in range(n):
        for j in range(i, n):
            defect = [x + y for x, y in zip(c[i][j], c[j][i])]
            if any(defect):
                return "antisymmetry", (i, j), defect
    for i, j, k in combinations(range(n), 3):
        e = [ref_unit(n, a) for a in (i, j, k)]
        terms = [ref_bracket(c, ref_bracket(c, x, y), z)
                 for x, y, z in ((e[0], e[1], e[2]), (e[1], e[2], e[0]),
                                 (e[2], e[0], e[1]))]
        defect = [x + y + z for x, y, z in zip(*terms)]
        if any(defect):
            return "jacobi", (i, j, k), defect
    return None


def ref_curvature(c_h, c_g, rho) -> dict:
    """K(e_i, e_j) = [rho e_i, rho e_j] - rho [e_i, e_j], per pair i < j; rho
    is a list of rows."""
    m, n = len(rho), len(c_h)

    def image(vec):
        return [sum((rho[a][b] * vec[b] for b in range(n)), Fraction(0))
                for a in range(m)]

    column = [image(ref_unit(n, j)) for j in range(n)]
    return {(i, j): [x - y for x, y in zip(
        ref_bracket(c_g, column[i], column[j]), image(c_h[i][j]))]
        for i, j in combinations(range(n), 2)}


def ref_echelon(vectors) -> tuple:
    """Reduced row echelon basis of the span, and its pivot columns."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivots, r = [], 0
    for col in range(len(rows[0]) if rows else 0):
        hit = next((p for p in range(r, len(rows)) if rows[p][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for p in range(len(rows)):
            if p != r and rows[p][col]:
                rows[p] = [x - rows[p][col] * y for x, y in zip(rows[p], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def ref_restriction(c, vectors) -> list:
    """The bracket of the span, closed under c, in its echelon basis."""
    basis, pivots = ref_echelon(vectors)
    k = len(basis)
    out = [[[Fraction(0)] * k for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            w = ref_bracket(c, basis[i], basis[j])
            coords = [w[p] for p in pivots]
            back = [sum((x * b[a] for x, b in zip(coords, basis)), Fraction(0))
                    for a in range(len(w))]
            assert back == w, "the span is not closed"
            out[i][j] = coords
    return out


def ref_closure(c, vectors) -> list:
    """((i, j), defect) per pair i < j of the echelon basis of the span: the
    bracket, less its part in the span along the standard complement, read
    at the complement positions."""
    basis, pivots = ref_echelon(vectors)
    complement = [q for q in range(len(c)) if q not in pivots]
    out = []
    for i, j in combinations(range(len(basis)), 2):
        w = ref_bracket(c, basis[i], basis[j])
        out.append(((i, j), [w[q] - sum((w[p] * b[q] for p, b in zip(pivots, basis)),
                                        Fraction(0)) for q in complement]))
    return out


def ref_gl(n: int, scale) -> tuple:
    """gl_n in the basis scale[a n + b] E_ab: its tensor and its entries."""
    def unit(a, b):
        return [[Fraction(int((p, q) == (a, b))) for q in range(n)]
                for p in range(n)]

    def mul(x, y):
        return [[sum((x[p][r] * y[r][q] for r in range(n)), Fraction(0))
                 for q in range(n)] for p in range(n)]

    basis = [unit(a, b) for a in range(n) for b in range(n)]
    entries = {}
    for i, j in combinations(range(n * n), 2):
        xy, yx = mul(basis[i], basis[j]), mul(basis[j], basis[i])
        flat = [xy[p][q] - yx[p][q] for p in range(n) for q in range(n)]
        entries[(i, j)] = [scale[i] * scale[j] * x / scale[k]
                           for k, x in enumerate(flat)]
    return ref_tensor(n * n, entries), entries


# ---------------------------------------------------------------------------
# strategies

scalars = st.one_of(st.sampled_from([0, 0, 0, 0, 1, -1, 2]),
                    st.integers(-3, 3),
                    st.fractions(min_value=-4, max_value=4, max_denominator=5))
nonzero_scalars = scalars.filter(bool)


@st.composite
def raw_documents(draw, max_dim=5):
    """(n, entries) as a bracket document gives them: some pairs i < j, some
    pairs given in both orders, the odd diagonal pair; ints and Fractions."""
    n = draw(st.integers(1, max_dim))
    pairs = [(i, j) for i in range(n) for j in range(n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)))
    upper = [p for p in chosen if p[0] < p[1]]
    if draw(st.booleans()):  # antisymmetric by construction
        chosen = upper
    return n, {p: draw(st.lists(scalars, min_size=n, max_size=n))
               for p in chosen}


@st.composite
def closed_gl_subspaces(draw):
    """(n, scale, vectors): a span of Cartan units and a bracket-closed set
    of upper-triangular units of gl_n, mixed by a random triangular matrix
    with nonzero diagonal, in a rescaled basis of gl_n."""
    n = draw(st.integers(2, 3))
    diag = [a * n + a for a in range(n) if draw(st.booleans())]
    upper = {(a, b) for a in range(n) for b in range(a + 1, n)
             if draw(st.booleans())}
    while True:  # close under [E_ab, E_bd] = E_ad
        more = {(a, d) for a, b in upper for c, d in upper if b == c}
        if more <= upper:
            break
        upper |= more
    units = sorted(diag + [a * n + b for a, b in upper])
    scale = draw(st.lists(nonzero_scalars, min_size=n * n, max_size=n * n))
    vectors = []
    for t in range(len(units)):
        rest = len(units) - t - 1
        mix = [draw(nonzero_scalars)] + draw(
            st.lists(scalars, min_size=rest, max_size=rest))
        vec = [Fraction(0)] * (n * n)
        for x, w in zip(mix, units[t:]):
            vec[w] += Fraction(x)
        vectors.append(vec)
    return n, [Fraction(x) for x in scale], vectors


# ---------------------------------------------------------------------------
# validation

@settings(max_examples=150, deadline=None)
@given(raw_documents())
def test_validation_refuses_as_the_dense_reference(doc):
    n, entries = doc
    cand = BracketCandidate.from_entries(n, entries)
    c = ref_tensor(n, entries)
    assert cand.c == tuple(tuple(tuple(row) for row in plane) for plane in c)
    assert cand == BracketCandidate.from_tensor(c)
    assert hash(cand) == hash(BracketCandidate.from_tensor(c))
    want = ref_validate(c)
    if want is None:
        assert validate_bracket(cand).candidate is cand
        return
    with pytest.raises(ValidationError) as caught:
        validate_bracket(cand)
    got = caught.value
    assert (got.kind, tuple(got.location), got.defect) == want
    assert all(type(x) is Fraction for x in got.defect)


LIE = {  # raw entries of a few Lie algebras, for homomorphisms between them
    "abelian2": (2, {}),
    "aff1": (2, {(0, 1): [0, 1]}),
    "borel": (2, {(0, 1): [0, 2]}),
    "heis3": (3, {(0, 1): [0, 0, 1]}),
    "sl2": (3, {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}),
    "so3": (3, {(0, 1): [0, 0, 1], (1, 2): [1, 0, 0], (0, 2): [0, -1, 0]}),
}


@st.composite
def linear_maps(draw):
    """(source, target, rows): a random map, often a homomorphism: zero, the
    identity or a scalar multiple of it, or a sparse random map."""
    source = draw(st.sampled_from(sorted(LIE)))
    target = draw(st.sampled_from(sorted(LIE)))
    (n, _), (m, _) = LIE[source], LIE[target]
    shape = draw(st.sampled_from(["random", "zero", "scaled-identity"]))
    if shape == "zero":
        rows = [[0] * n for _ in range(m)]
    elif shape == "scaled-identity":
        target, m = source, n
        s = draw(st.sampled_from([0, 1, 1, 2, Fraction(1, 2)]))
        rows = [[s * int(a == b) for b in range(n)] for a in range(n)]
    else:
        rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n),
                             min_size=m, max_size=m))
    return source, target, rows


@settings(max_examples=150, deadline=None)
@given(linear_maps())
def test_homomorphism_check_agrees_with_the_dense_curvature(drawn):
    source, target, rows = drawn
    h, g = (validate_bracket(BracketCandidate.from_entries(*LIE[name]),
                             name=name) for name in (source, target))
    hom = Homomorphism(h, g, Matrix.from_rows(rows))
    want = ref_curvature(ref_tensor(*LIE[source]), ref_tensor(*LIE[target]),
                         [[Fraction(x) for x in row] for row in rows])
    got = curvature(hom)
    assert {p: got.value(p) for p in want} == want
    failing = [(p, d) for p, d in want.items() if any(d)]
    if not failing:
        assert validate_homomorphism(hom) is hom
        return
    with pytest.raises(ValidationError) as caught:
        validate_homomorphism(hom)
    assert caught.value.kind == "curvature"
    assert (tuple(caught.value.location), caught.value.defect) == failing[0]
    assert all(type(x) is Fraction for x in caught.value.defect)


# ---------------------------------------------------------------------------
# subalgebra restriction

def assert_restricts(g_tensor, w):
    """``w.as_subalgebra()`` is the dense restriction, in equal terms."""
    sub = w.as_subalgebra()
    want = ref_restriction(g_tensor, w.coords.sub_basis)
    assert sub.candidate.c == tuple(tuple(tuple(r) for r in p) for p in want)
    assert sub.candidate == BracketCandidate.from_tensor(want)
    assert hash(sub.candidate) == hash(BracketCandidate.from_tensor(want))


@pytest.mark.parametrize("name", sub_preset_names())
def test_subalgebra_presets_restrict_as_the_dense_reference(name):
    w = sub_preset(name)
    c = ref_tensor_of(w.ambient)
    assert ref_validate(c) is None
    assert_restricts(c, w)


@settings(max_examples=60, deadline=None)
@given(closed_gl_subspaces())
def test_closed_gl_subspaces_restrict_as_the_dense_reference(drawn):
    n, scale, vectors = drawn
    c, entries = ref_gl(n, scale)
    g = validate_bracket(BracketCandidate.from_entries(n * n, entries),
                         name=f"gl_{n}")
    w = subalgebra_witness(g, vectors, name="closed")
    assert_restricts(c, w)
    assert_closure_as_the_reference(g, c, vectors)


# ---------------------------------------------------------------------------
# subalgebra closure

def ref_tensor_of(g) -> list:
    """The ambient tensor, read term by term into a dense reference."""
    c = [[[Fraction(0)] * g.dim for _ in range(g.dim)] for _ in range(g.dim)]
    for i, plane in enumerate(g.candidate.terms):
        for j, col in enumerate(plane):
            for k, x in col:
                c[i][j][k] = Fraction(x)
    return c


def assert_closure_as_the_reference(g, c, vectors):
    """``subalgebra_defect`` is the dense closure defect, and
    ``subalgebra_witness`` refuses at its first nonzero pair, with its kind
    and dense defect vector, or accepts when there is none."""
    want = ref_closure(c, vectors)
    got = subalgebra_defect(g, _subspace(g.dim, vectors))
    assert [(p, got.value(p)) for p, _ in want] == want
    assert all(type(x) is Fraction for p, _ in want for x in got.value(p))
    failing = [(p, d) for p, d in want if any(d)]
    assert got.is_zero() == (not failing)
    if not failing:
        assert subalgebra_witness(g, vectors).dim == len(vectors)
        return
    with pytest.raises(ValidationError) as caught:
        subalgebra_witness(g, vectors)
    assert (caught.value.kind, caught.value.location, caught.value.defect) == (
        "closure", *failing[0])


AMBIENTS = {"sl2": catalog_algebra("sl2"), "sl3": sl_algebra(3),
            "gl3": gl_algebra(3)}


@st.composite
def spans(draw):
    """(ambient name, independent vectors): a line (always closed), the whole
    algebra (closed) or a few random vectors (mostly not closed)."""
    name = draw(st.sampled_from(sorted(AMBIENTS)))
    n = AMBIENTS[name].dim
    vector = st.lists(scalars, min_size=n, max_size=n)
    size = draw(st.sampled_from([1, 2, 3, 4, n]))
    vectors = draw(st.lists(vector, min_size=size, max_size=size))
    if size == n and draw(st.booleans()):
        vectors = [[int(a == b) for b in range(n)] for a in range(n)]
    assume(len(ref_echelon(vectors)[0]) == size)
    return name, vectors


@settings(max_examples=120, deadline=None)
@given(spans())
def test_closure_refuses_as_the_dense_reference(drawn):
    name, vectors = drawn
    g = AMBIENTS[name]
    assert_closure_as_the_reference(g, ref_tensor_of(g), vectors)


@pytest.mark.parametrize("name, vectors", [
    ("sl2", [[1, 0, 0], [0, 1, 0]]),            # the borel: closed
    ("sl2", [[0, 1, 0], [0, 0, 1]]),            # [e, f] = h leaves it
    ("sl2", [[1, 1, 0], [0, 0, 1]]),
    ("sl3", [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0]]),  # Cartan
    ("sl3", [[0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]]),
    ("gl3", [[1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0]]),
    ("gl3", [[0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0, 0]]),
])
def test_closure_of_fixed_spans_as_the_dense_reference(name, vectors):
    g = AMBIENTS[name]
    assert_closure_as_the_reference(g, ref_tensor_of(g), vectors)


# ---------------------------------------------------------------------------
# the exact path never reads the dense view

def test_the_exact_path_builds_no_dense_tensor(capsys, monkeypatch, tmp_path):
    reads = []
    dense_view = BracketCandidate.c

    def spy(cand):
        reads.append(cand.dim)
        return dense_view.fget(cand)

    monkeypatch.setattr(BracketCandidate, "c", property(spy))
    doc = tmp_path / "heis5.json"
    doc.write_text('{"dim": 5, "brackets": [{"i": 0, "j": 1, "coeffs": '
                   '["0", "0", "0", "0", "1"]}, {"i": 2, "j": 3, "coeffs": '
                   '["0", "0", "0", "0", "1/2"]}]}')
    assert run(["verify", "--algebra", str(doc)]) == 0
    assert run(["cohomology", "--algebra", str(doc), "--json"]) == 0
    capsys.readouterr()
    for name in sub_preset_names():
        w = sub_preset(name)
        cohomology(adjoint_rep(w.ambient))
        cohomology(quotient_rep(w))
    assert reads == []
    sub_preset(sub_preset_names()[0]).ambient.c  # the spy sees a read
    assert reads


# ---------------------------------------------------------------------------
# the bracket's cochains walk the pairs and triples of
# itertools.combinations

def cochain_algebras() -> list:
    """The catalog, the algebras of the presets and the benchmark's
    families."""
    families = bench_families()
    gs = [catalog_algebra(name) for name in catalog_names()]
    for name in hom_preset_names():
        gs += [hom_preset(name).source, hom_preset(name).target]
    gs += [sub_preset(name).ambient for name in sub_preset_names()]
    return gs + [families.abelian(3), families.heisenberg(2),
                 families.filiform(6), families.gl(2), families.borel(3),
                 families.sl(3)]


def test_bracket_cochains_follow_the_combinations():
    for g in cochain_algebras():
        n = g.dim
        pairs = list(combinations(range(n), 2))
        # an antisymmetric change of every pair, so that Jacobi fails too
        bent = g.candidate.add_scaled(BracketCandidate.from_entries(n, {
            (i, j): [(3 * i + 5 * j + k) % 4 - 1 for k in range(n)]
            for i, j in pairs}), Fraction(1, 2))
        for cand in (g.candidate, bent):
            c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
            for i, plane in enumerate(cand.terms):
                for j, col in enumerate(plane):
                    for k, x in col:
                        c[i][j][k] = Fraction(x)
            flat2 = {p * n + k: c[i][j][k] for p, (i, j) in enumerate(pairs)
                     for k in range(n)}
            assert cand.as_altmap() == AltMap.of(2, n, n, flat2), g.name
            assert BracketCandidate.from_altmap(
                AltMap.of(2, n, n, flat2)) == cand
            e = [ref_unit(n, a) for a in range(n)]
            flat3 = {}
            for p, (i, j, k) in enumerate(combinations(range(n), 3)):
                terms = [ref_bracket(c, ref_bracket(c, e[x], e[y]), e[z])
                         for x, y, z in ((i, j, k), (j, k, i), (k, i, j))]
                flat3.update((p * n + a, sum(t)) for a, t in enumerate(zip(*terms)))
            assert cand.jacobiator() == AltMap.of(3, n, n, flat3), g.name
            assert cand is g.candidate or n < 3 or any(flat3.values())
            vectors = [((a, 1),) for a in range(n)] + [
                ((0, Fraction(1, 2)), (n - 1, -3))]
            dense_vectors = [[sum((x for b, x in v if b == a), Fraction(0))
                              for a in range(n)] for v in vectors]
            flat_pairs = {
                p * n + a: x for p, (i, j) in enumerate(
                    combinations(range(len(vectors)), 2))
                for a, x in enumerate(ref_bracket(c, dense_vectors[i],
                                                  dense_vectors[j]))}
            assert cand.pair_brackets(vectors) == AltMap.of(
                2, len(vectors), n, flat_pairs), g.name
