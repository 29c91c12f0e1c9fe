import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bratteli
import snf_reference

from bratteli import diagram as dg
from bratteli import generators as gen
from bratteli import ktheory as kt
from conftest import peak_growth


# --- Smith normal form -----------------------------------------------------


def test_snf_known_divisors():
    res = kt.smith_normal_form([[2, 4], [6, 8]])
    assert res.diagonal == [2, 4]
    assert kt.verify_snf([[2, 4], [6, 8]], res)


def test_snf_rectangular_and_zero():
    a = [[0, 0, 0], [0, 0, 0]]
    res = kt.smith_normal_form(a)
    assert res.diagonal == [0, 0]
    assert kt.verify_snf(a, res)
    b = [[1, 2, 3]]
    res = kt.smith_normal_form(b)
    assert res.diagonal == [1]
    assert kt.verify_snf(b, res)


def test_snf_rejects_ragged_rows():
    for a in ([[2, 4], [6]], [[2], [6, 8]]):
        with pytest.raises(dg.DiagramError, match="matrix dimension mismatch"):
            kt.smith_normal_form(a)


def test_snf_torsion_example():
    # Z^2 / (2e1, 2e2) has torsion Z/2 + Z/2.
    a = [[2, 0], [0, 2]]
    res = kt.smith_normal_form(a)
    assert res.diagonal == [2, 2]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_random_matrices(rows, cols, data):
    a = [[data.draw(st.integers(-9, 9)) for _ in range(cols)]
         for _ in range(rows)]
    res = kt.smith_normal_form(a)
    assert kt.verify_snf(a, res)
    divisors = [d for d in res.diagonal if d]
    for x, y in zip(divisors, divisors[1:]):
        assert y % x == 0


@st.composite
def _dense_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return [[draw(st.integers(-9, 9)) for _ in range(cols)]
            for _ in range(rows)]


@st.composite
def _permutation_matrices(draw):
    n = draw(st.integers(1, 40))
    perm = draw(st.permutations(range(n)))
    return [[(1 if i == j else 0) - (1 if perm[i] == j else 0)
             for j in range(n)] for i in range(n)]   # I - P^T


def _dense(rows):
    """A square matrix given as rows of {column: nonzero}, made dense."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_dense_matrices(), _permutation_matrices()))
@example([[1, 1], [1, 1]])
@example([[2, 4], [1, 2]])
@example([[1, 0, 0], [1, 1, 1], [2, 2, 2]])
def test_snf_and_det_match_sympy(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    res = kt.smith_normal_form(a)
    assert kt.verify_snf(a, res)
    want = [abs(int(x)) for x in
            invariant_factors(sympy.Matrix(a), domain=sympy.ZZ) if x != 0]
    assert [abs(x) for x in res.diagonal if x != 0] == want
    square = [a] if len(a) == len(a[0]) <= 6 else []
    for mat in square + [_dense(res.left), _dense(res.right)]:
        assert kt._det(mat) == sympy.Matrix(mat).det()


@settings(max_examples=150, deadline=None)
@given(st.one_of(_dense_matrices(), _permutation_matrices()))
def test_dense_wrapper_matches_row_core(a):
    rows = kt._sparse_rows(a)
    copies = [dict(row) for row in rows]
    res = kt._snf_rows(rows, len(a[0]))
    assert rows == copies         # the core eliminates on copies of rows
    assert kt.smith_normal_form(a) == res
    assert kt._verify_rows(rows, len(a[0]), res) and rows == copies
    if len(a) == len(a[0]):                   # square: rows in at the top
        assert kt.smith_normal_form(rows) == res
        assert kt.verify_snf(rows, res)


@pytest.mark.parametrize("a", [[[1.5]], [[True, 0], [0, 2]], [["3"]],
                               [[2, 4], [6, 8.0]], [[1, None]]])
def test_snf_refuses_entries_that_are_not_ints(a):
    # Entries were read through int(): [[1.5]] gave the diagonal [1], and
    # a bool was taken for 1.
    with pytest.raises(dg.DiagramError) as err:
        kt.smith_normal_form(a)
    assert str(err.value) == "matrix entries must be ints"


def test_verify_snf_refuses_entries_that_are_not_ints():
    res = kt.smith_normal_form([[2, 4], [6, 8]])
    for a in ([[2.0, 4], [6, 8]], [[2, 4], [6, True]]):
        with pytest.raises(dg.DiagramError) as err:
            kt.verify_snf(a, res)
        assert str(err.value) == "matrix entries must be ints"


def test_snf_refuses_a_matrix_that_is_not_a_list_of_rows():
    # These raised a bare TypeError from len() or iter().
    for a in ([3], [(1, 2), 5], 7):
        with pytest.raises(dg.DiagramError) as err:
            kt.smith_normal_form(a)
        assert str(err.value) == "a matrix must be a list or tuple of rows"
    res = kt.smith_normal_form([[3]])
    with pytest.raises(dg.DiagramError) as err:
        kt.verify_snf([3], res)
    assert str(err.value) == "a matrix must be a list or tuple of rows"
    # Tuples of tuples, as a presentation's maps are, are still matrices.
    assert kt.smith_normal_form(((2, 4), (6, 8))).diagonal == [2, 4]


def test_natural_heights_count_root_edges(table_suite):
    for d in table_suite.values():
        assert kt.natural_heights(d) == [
            row[0] for row in dg.incidence_matrix(d, 1)]


@pytest.mark.parametrize("kind", [
    "list row", "key out of range", "negative key", "bool key",
    "zero value", "float value", "bool value"])
def test_snf_refuses_malformed_sparse_rows(kind):
    a = [[1, 0, 4], [0, 6, 0], [0, 0, 0]]
    rows = _malformed(kt._sparse_rows(a), kind)
    res = kt.smith_normal_form(a)
    for call in (lambda: kt.smith_normal_form(rows),
                 lambda: kt.verify_snf(rows, res)):
        with pytest.raises(dg.DiagramError) as err:
            call()
        assert str(err.value) == (
            "sparse rows must map columns 0..n-1 to nonzero ints")


def test_verify_snf_on_empty_shapes():
    assert kt._det([]) == 1
    assert kt._det([[0, 1], [0, 1]]) == 0     # no row starts at column 0
    # A row that elimination empties.
    for a in ([[1, 1], [1, 1]], [[2, 4], [1, 2]],
              [[1, 0, 0], [1, 1, 1], [2, 2, 2]]):
        assert kt._det(a) == 0 == snf_reference._sparse_det(
            snf_reference._sparse_rows(a))
    for a in ([], [[], []]):
        res = kt.smith_normal_form(a)
        assert res.diagonal == []
        assert kt.verify_snf(a, res)


def test_verify_snf_rejects_bad_results():
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    res = kt.smith_normal_form(a)
    assert res.diagonal == [2, 6, 12] and kt.verify_snf(a, res)
    # A tampered diagonal entry that keeps the divisibility chain.
    assert not kt.verify_snf(a, kt.SNFResult([2, 6, 24], res.left,
                                              res.right))
    # A U that breaks U A V = diag (still unimodular).
    bad_u = [dict(row) for row in res.left]
    for j, y in res.left[1].items():
        bad_u[0][j] = bad_u[0].get(j, 0) + y
    bad_u[0] = {j: x for j, x in bad_u[0].items() if x}
    assert abs(kt._det(_dense(bad_u))) == 1
    assert not kt.verify_snf(a, kt.SNFResult(res.diagonal, bad_u,
                                              res.right))
    # U A V = diag holds, but 2 does not divide 3.
    eye = [{0: 1}, {1: 1}]
    assert not kt.verify_snf([[2, 0], [0, 3]],
                             kt.SNFResult([2, 3], eye, eye))
    # U A V = diag holds, but the zero comes first.
    assert not kt.verify_snf([[0, 0], [0, 1]],
                             kt.SNFResult([0, 1], eye, eye))
    # U A V = diag holds, but U is not unimodular.
    assert not kt.verify_snf([[1]], kt.SNFResult([2], [{0: 2}], [{0: 1}]))


def test_verify_snf_refuses_diagonals_that_are_not_a_smith_form():
    # U A V equals each diagonal below, and the check once let each
    # through; the oracle reads torsion as d > 1, so a -2 would drop out.
    eye = [{0: 1}]
    for a, res in (([[2]], kt.SNFResult([2.0], eye, eye)),
                   ([[1]], kt.SNFResult([True], eye, eye)),
                   ([[2]], kt.SNFResult([-2], eye, [{0: -1}]))):
        assert snf_reference._verify_rows(
            snf_reference._sparse_rows(a), 1, res)
        assert kt.verify_snf(a, res) is False


def test_sparse_rows_type_check_every_key():
    # {1, True} is one element, so a check on the key set would let the
    # bool key of row 1 through after row 0's int key 1.
    a = [[1, 0], [0, 1]]
    u, v = [{0: 1, 1: 1}, {1: 1}], [{0: 1, 1: -1}, {1: 1}]
    assert kt.verify_snf(a, kt.SNFResult([1, 1], u, v))
    bool_u, bool_v = [u[0], {True: 1}], [v[0], {True: 1}]
    assert kt.verify_snf(a, kt.SNFResult([1, 1], bool_u, v)) is False
    assert kt.verify_snf(a, kt.SNFResult([1, 1], u, bool_v)) is False
    with pytest.raises(dg.DiagramError) as err:
        kt.smith_normal_form(bool_u)
    assert str(err.value) == (
        "sparse rows must map columns 0..n-1 to nonzero ints")


def _malformed(rows, kind):
    """A copy of sparse rows broken in one way; the matrix it stands for
    is unchanged where the break allows it (a list row, a bool key, an
    explicit zero, a float value)."""
    rows = [dict(row) for row in rows]
    size = len(rows)
    i = next(i for i, row in enumerate(rows) if 0 in row)
    if kind == "missing row":
        return rows[:-1]
    if kind == "extra row":
        return rows + [{}]
    if kind == "list row":
        rows[i] = [rows[i].get(j, 0) for j in range(size)]
    elif kind == "key out of range":
        rows[i][size] = 1
    elif kind == "negative key":
        rows[i][-1] = 1
    elif kind == "bool key":
        rows[i] = {(False if j == 0 else j): x for j, x in rows[i].items()}
    elif kind == "zero value":
        i, j = next((i, j) for i, row in enumerate(rows)
                    for j in range(size) if j not in row)
        rows[i][j] = 0
    elif kind == "float value":
        rows[i][0] = float(rows[i][0])
    elif kind == "bool value":
        rows[i][0] = rows[i][0] == 1
    return rows


@pytest.mark.parametrize("kind", [
    "missing row", "extra row", "list row", "key out of range",
    "negative key", "bool key", "zero value", "float value", "bool value"])
@pytest.mark.parametrize("which", ["U", "V"])
def test_verify_snf_rejects_malformed_certificates(which, kind):
    for a in ([[2, 0, 0], [0, 6, 0], [0, 0, 0]],
              [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]):
        res = kt.smith_normal_form(a)
        assert kt.verify_snf(a, res)
        left, right = res.left, res.right
        if which == "U":
            left = _malformed(left, kind)
        else:
            right = _malformed(right, kind)
        assert kt.verify_snf(a, kt.SNFResult(res.diagonal, left,
                                             right)) is False


def _dense_mul(x, y):
    out = [[0] * len(y[0]) for _ in x]
    for row, xrow in zip(out, x):
        for k, c in enumerate(xrow):
            if c:
                for j, z in enumerate(y[k]):
                    row[j] += c * z
    return out


def _reference_verify(a, res):
    """verify_snf written out densely: U A V = diag by plain loops, the
    divisibility chain, and sympy's determinants of U and V."""
    sympy = pytest.importorskip("sympy")
    diag = res.diagonal
    left, right = _dense(res.left), _dense(res.right)
    for d1, d2 in zip(diag, diag[1:]):
        if (d2 != 0) if d1 == 0 else (d2 % d1 != 0):
            return False
    prod = _dense_mul(_dense_mul(left, a), right)
    want = [[diag[i] if i == j else 0 for j in range(len(a[0]))]
            for i in range(len(a))]
    return (prod == want and abs(sympy.Matrix(left).det()) == 1
            and abs(sympy.Matrix(right).det()) == 1)


def _edited(res, which, i, j, delta):
    left = [dict(row) for row in res.left]
    right = [dict(row) for row in res.right]
    mat = left if which == "U" else right
    row, j = mat[i % len(mat)], j % len(mat)
    x = row.get(j, 0) + delta
    if x:
        row[j] = x
    else:
        del row[j]
    return kt.SNFResult(list(res.diagonal), left, right)


def _check_dets_match_the_frozen_reference(res):
    for rows in (kt._transpose(res.left, len(res.left)), res.right):
        assert kt._sparse_det(rows) == snf_reference._sparse_det(rows)


def _i_minus_pt(perm):
    n = len(perm)
    return [[(i == j) - (perm[i] == j) for j in range(n)] for i in range(n)]


_A96 = _i_minus_pt(gen.finite_cycle_system([32, 32, 32])[0].permutation)
_SNF96 = kt.smith_normal_form(_A96)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["U", "V"]), st.integers(0, 95), st.integers(0, 95),
       st.sampled_from([1, -1]))
@example("U", 0, 95, 1)
@example("U", 95, 0, -1)
@example("V", 0, 95, -1)
@example("V", 95, 0, 1)
@example("V", 95, 95, 1)
def test_verify_snf_single_edits_n96(which, i, j, delta):
    assert kt.verify_snf(_A96, _SNF96)
    res = _edited(_SNF96, which, i, j, delta)
    assert kt.verify_snf(_A96, res) == _reference_verify(_A96, res)
    assert kt.verify_snf(_A96, res) == snf_reference._verify_rows(
        snf_reference._sparse_rows(_A96), 96, res)
    _check_dets_match_the_frozen_reference(res)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_dense_matrices(),
                 st.integers(1, 12).flatmap(
                     lambda n: st.permutations(range(n))).map(_i_minus_pt)),
       st.sampled_from(["U", "V"]), st.integers(0, 40), st.integers(0, 40),
       st.sampled_from([1, -1]))
def test_verify_snf_single_edits_small(a, which, i, j, delta):
    res = kt.smith_normal_form(a)
    assert kt.verify_snf(a, res) and _reference_verify(a, res)
    res = _edited(res, which, i, j, delta)
    assert kt.verify_snf(a, res) == _reference_verify(a, res)
    assert kt.verify_snf(a, res) == snf_reference._verify_rows(
        snf_reference._sparse_rows(a), len(a[0]), res)
    _check_dets_match_the_frozen_reference(res)


@pytest.mark.parametrize("lengths", [[32, 32, 32], [8, 8, 16]])
def test_oracle_on_cycle_systems(lengths):
    s, _ = gen.finite_cycle_system(lengths)
    assert kt.k_oracle_finite_system(s) == {
        "k0_rank": 3, "k0_torsion": [], "k1_rank": 3,
        "unit_image": sorted(lengths)}


# --- dimension group presentations ----------------------------------------


def test_k0_presentation_shapes():
    d = gen.stationary_adic([[1, 1], [1, 0]], 5)
    pres = kt.k0_presentation(d)
    assert pres.sizes == (2,) * 5
    assert len(pres.maps) == 4
    assert pres.unit == (2, 1)


def test_unit_pushforward_odometer():
    for base in (2, 3, 5):
        d = gen.odometer(base, 12)
        pres = kt.k0_presentation(d)
        assert pres.unit == (base,)
        for n in range(1, 13):
            assert pres.push(1, [base], n) == [base ** n]


def test_element_equal_respects_pushforward():
    d = gen.odometer(2, 8)
    pres = kt.k0_presentation(d)
    g1 = kt.DimGroupElement(1, (2,))
    g2 = kt.DimGroupElement(2, (4,))
    assert kt.element_equal(g1, g2, pres) == "equal"
    # The same vector at different levels is a strictly different element
    # of the limit whenever the maps are injective.
    g3 = kt.DimGroupElement(2, (2,))
    assert kt.element_equal(g1, g3, pres) == "not_equal"


def test_element_equal_collapsing_map():
    d = dg.make_diagram(
        3, [1, 2, 1, 1],
        [[(0, 0), (0, 1)], [(0, 0), (1, 0)], [(0, 0)]])
    pres = kt.k0_presentation(d, [1, 1])
    g1 = kt.DimGroupElement(1, (1, -1))
    g2 = kt.DimGroupElement(1, (0, 0))
    # The collapsing map kills the difference, so the budget run reaches
    # "equal" at level 2 already.
    assert kt.element_equal(g1, g2, pres) == "equal"


def test_element_equal_non_injective_map_is_unknown():
    # [[1, 1], [1, 1]] is not injective: a difference it kills is equal,
    # one it never kills within the budget proves nothing.
    pres = kt.k0_presentation(gen.stationary_adic([[1, 1], [1, 1]], 4))
    g = kt.DimGroupElement(1, (1, 0))
    assert kt.element_equal(
        g, kt.DimGroupElement(1, (0, 0)), pres) == "unknown"
    assert kt.element_equal(
        g, kt.DimGroupElement(1, (0, 1)), pres) == "equal"


def test_element_positive_without_maps():
    # A 1-level diagram has no maps: the vector itself decides.
    pres = kt.k0_presentation(gen.odometer(2, 1))
    assert pres.maps == ()
    assert kt.element_positive(
        kt.DimGroupElement(1, (-1,)), pres) == "not_positive"
    assert kt.element_positive(
        kt.DimGroupElement(1, (1,)), pres) == "positive"


def test_push_rejects_vector_of_wrong_length():
    pres = kt.k0_presentation(gen.stationary_adic([[1, 1], [1, 0]], 4))
    with pytest.raises(dg.DiagramError, match="vector length"):
        pres.push(1, [1, 0, 0], 2)


def test_element_equal_stationary_tests_its_matrix_once(monkeypatch):
    # 39 equal maps, invertible over Q (det 4): one SNF certifies them all.
    m = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    pres = kt.k0_presentation(gen.stationary_adic(m, 40))
    calls = []
    snf = kt.smith_normal_form
    monkeypatch.setattr(kt, "smith_normal_form",
                        lambda a: calls.append(a) or snf(a))
    g = kt.DimGroupElement(3, (1, -2, 0))
    pushed = kt.DimGroupElement(5, tuple(pres.push(3, g.vector, 5)))
    assert kt.element_equal(g, pushed, pres) == "equal"
    assert calls == []
    other = kt.DimGroupElement(3, (0, -2, 1))
    assert kt.element_equal(g, other, pres) == "not_equal"
    assert len(calls) == 1


def test_element_positive_fibonacci():
    d = gen.stationary_adic([[1, 1], [1, 0]], 10)
    pres = kt.k0_presentation(d)
    assert kt.element_positive(
        kt.DimGroupElement(1, (1, 0)), pres) == "positive"
    assert kt.element_positive(
        kt.DimGroupElement(1, (-1, 1)), pres) == "not_positive"
    assert kt.element_positive(
        kt.DimGroupElement(1, (1, -1)), pres) == "positive"


def _is_primitive(m):
    n = len(m)
    p = m
    for _ in range(n * n):
        if all(x > 0 for row in p for x in row):
            return True
        p = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)]
             for row in p]
    return False


def _positive_within(m, v, pushes):
    # Oracle: some push-forward among the next `pushes` is >= 0.
    for _ in range(pushes + 1):
        if all(x >= 0 for x in v):
            return True
        v = [sum(a * x for a, x in zip(row, v)) for row in m]
    return False


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.integers(-6, 6), min_size=n, max_size=n))),
    st.integers(1, 10))
def test_element_positive_matches_push_oracle(mv, level):
    m, v = mv
    assume(_is_primitive(m))
    pres = kt.k0_presentation(gen.stationary_adic(m, 10))
    verdict = kt.element_positive(kt.DimGroupElement(level, tuple(v)), pres)
    # Push to the last level (10), then up to 400 more times.
    oracle = _positive_within(m, v, 10 - level + 400)
    if verdict != "unknown":
        assert verdict == ("positive" if oracle else "not_positive")
    if verdict == "positive":
        assert _positive_within(m, v, 10 - level)


def test_element_positive_fixed_cases():
    def verdict(pres, level, v):
        return kt.element_positive(kt.DimGroupElement(level, v), pres)

    # An infinitesimal: (1, -1) is fixed by the matrix, so no push-forward
    # is >= 0 and none is <= 0.
    inf = kt.k0_presentation(gen.stationary_adic([[2, 1], [1, 2]], 10))
    assert verdict(inf, 1, (1, -1)) == "unknown"
    # A non-stationary chain: (-1,) is <= 0 and nonzero at once.
    chain = kt.k0_presentation(dg.make_diagram(
        3, [1, 1, 1, 1], [[(0, 0)] * 2, [(0, 0)] * 3, [(0, 0)] * 2]))
    assert chain.maps == (((3,),), ((2,),))
    assert verdict(chain, 1, (-1,)) == "not_positive"
    # The map [[1, 0]] has a zero column, so (0, -1) gets no negative
    # certificate; its push-forward (0,) is >= 0.
    hand = kt.DimensionGroupPresentation((2, 1), (((1, 0),),), (1, 1))
    assert verdict(hand, 1, (0, -1)) == "positive"
    # Past the last level (1, -1) pushes to 0, which certifies nothing.
    flat = kt.k0_presentation(gen.stationary_adic([[1, 1], [1, 1]], 10))
    assert verdict(flat, 10, (1, -1)) == "unknown"
    assert verdict(flat, 9, (1, -1)) == "positive"
    # Past the last level the Fibonacci matrix pushes (-1, 1) to (0, -1).
    fib = kt.k0_presentation(gen.stationary_adic([[1, 1], [1, 0]], 10))
    assert verdict(fib, 10, (-1, 1)) == "not_positive"
    # Maps that differ are not continued: nothing past level 3 counts.
    mixed = kt.DimensionGroupPresentation(
        (2, 2, 2), (fib.maps[0], ((1, 0), (0, 1))), (1, 1))
    assert verdict(mixed, 3, (-1, 1)) == "unknown"


def test_element_positive_without_numpy():
    code = """
import sys
sys.modules["numpy"] = None
from bratteli import generators as gen, ktheory as kt
pres = kt.k0_presentation(gen.stationary_adic([[1, 1], [1, 0]], 10))
print([kt.element_positive(kt.DimGroupElement(1, v), pres)
       for v in [(1, 0), (-1, 1), (1, -1)]])
"""
    src = os.path.dirname(os.path.dirname(bratteli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['positive', 'not_positive', 'positive']"


def test_k1_rank_union(suite):
    res = kt.k1_rank(suite["union2"], 6)
    assert res == {"rank": 2, "certified": True}


# --- finite permutation systems --------------------------------------------


def test_make_permutation_system_validates():
    with pytest.raises(dg.DiagramError):
        kt.make_permutation_system([0, 0], [0, 0])
    with pytest.raises(dg.DiagramError):
        kt.make_permutation_system([1, 0], [0, 1])   # fiber broken by swap
    with pytest.raises(dg.DiagramError):
        # fiber 0 splits into two cycles
        kt.make_permutation_system([1, 0, 3, 2], [0, 0, 0, 0])


@pytest.mark.parametrize("perm, fiber, message", [
    ([1.0, "0"], [0, 0], "perm entries must be ints"),
    ([1, True], [0, 0], "perm entries must be ints"),
    ([1, 0], [True, 1], "fiber entries must be ints"),
    ([1, 0], [0, 0.0], "fiber entries must be ints"),
])
def test_make_permutation_system_refuses_values_that_are_not_ints(
        perm, fiber, message):
    # [1.0, "0"] with [True, 1] used to build a 2-cycle.
    with pytest.raises(dg.DiagramError) as info:
        kt.make_permutation_system(perm, fiber)
    assert str(info.value) == message


@pytest.mark.parametrize("heights", [[1.5], ["2"], [True], [2.0]])
def test_k0_presentation_refuses_heights_that_are_not_ints(heights):
    # [1.5] used to give the unit (1,).
    with pytest.raises(dg.DiagramError) as info:
        kt.k0_presentation(gen.odometer(2, 3), heights)
    assert str(info.value) == "heights must be ints"


def test_oracle_single_cycle():
    s, _ = gen.finite_cycle_system([4])
    out = kt.k_oracle_finite_system(s)
    assert out == {"k0_rank": 1, "k0_torsion": [], "k1_rank": 1,
                   "unit_image": [4]}


def test_oracle_two_cycles():
    s, _ = gen.finite_cycle_system([2, 3])
    out = kt.k_oracle_finite_system(s)
    assert out["k0_rank"] == 2
    assert out["k1_rank"] == 2
    assert out["k0_torsion"] == []
    assert out["unit_image"] == [2, 3]


def test_oracle_fixed_point():
    s, _ = gen.finite_cycle_system([1])
    out = kt.k_oracle_finite_system(s)
    assert out["k0_rank"] == 1 and out["k1_rank"] == 1


def test_oracle_three_cycles_of_32():
    # n = 96: I - P^T has rank 93 and unit divisors, so K0 = Z^3.
    s, _ = gen.finite_cycle_system([32, 32, 32])
    out = kt.k_oracle_finite_system(s)
    assert out == {"k0_rank": 3, "k0_torsion": [], "k1_rank": 3,
                   "unit_image": [32, 32, 32]}


def test_oracle_unit_image_many_fibers():
    # 251 fibers of mixed sizes on 474 points, in no order, under scattered
    # labels: unit_image is the sorted list of fiber sizes.
    sizes = [1] * 150 + [2] * 60 + [3] * 30 + [5] * 10 + [64]
    rng = random.Random(7)
    rng.shuffle(sizes)
    points = list(range(sum(sizes)))
    rng.shuffle(points)
    labels = rng.sample(range(-1000, 1000), len(sizes))
    perm, fiber = [0] * len(points), [0] * len(points)
    start = 0
    for size, label in zip(sizes, labels):
        cycle = points[start:start + size]
        for k, x in enumerate(cycle):
            perm[x] = cycle[(k + 1) % size]
            fiber[x] = label
        start += size
    s = kt.make_permutation_system(perm, fiber)
    assert kt.k_oracle_finite_system(s) == {
        "k0_rank": 251, "k0_torsion": [], "k1_rank": 251,
        "unit_image": sorted(sizes)}


def test_oracle_memory_at_the_cap():
    # One cycle of MAX_ORACLE_POINTS points, the cap's largest single
    # cycle: I - P^T is built as 2 n entries of sparse rows, and U and V
    # hold O(n log n) entries in the oracle's nested-dissection order.
    grown_mb, result = peak_growth(
        "from bratteli import ktheory as kt\n"
        "n = kt.MAX_ORACLE_POINTS\n"
        "s = kt.make_permutation_system([(i + 1) % n for i in range(n)],"
        " [0] * n)",
        "kt.k_oracle_finite_system(s)")
    assert result == str({"k0_rank": 1, "k0_torsion": [],
                          "k1_rank": 1, "unit_image": [512]})
    assert grown_mb <= 20, f"peak RSS grew by {grown_mb} MB"


def test_oracle_traced_peak_at_the_cap():
    # No n x n matrix is built: 0.9 MB traced for one 512-point cycle,
    # against 2.9 MB with the dense input.
    n = kt.MAX_ORACLE_POINTS
    s = kt.make_permutation_system([(i + 1) % n for i in range(n)], [0] * n)
    tracemalloc.start()
    try:
        kt.k_oracle_finite_system(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, f"traced peak {peak} bytes"


def test_oracle_builds_sparse_rows():
    # Fixed points give empty rows, with no stored zero; each moved point
    # x gives the two entries of e_x - e_perm(x).
    s, _ = gen.finite_cycle_system([1, 1, 3, 5])
    seen = []
    snf = kt.smith_normal_form
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kt, "smith_normal_form",
                   lambda a: seen.append(a) or snf(a))
        out = kt.k_oracle_finite_system(s)
    assert out == {"k0_rank": 4, "k0_torsion": [], "k1_rank": 4,
                   "unit_image": [1, 1, 3, 5]}
    (rows,) = seen
    assert all(type(row) is dict for row in rows)
    assert sorted(map(len, rows)) == [0, 0] + [2] * 8
    assert all(sorted(row.values()) == [-1, 1] and row[i] == 1
               for i, row in enumerate(rows) if row)


def _oracle_with_snf(s):
    """The oracle's answer on s and the SNF result it verified."""
    seen = []
    verify = kt.verify_snf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kt, "verify_snf",
                   lambda a, res: seen.append(res) or verify(a, res))
        out = kt.k_oracle_finite_system(s)
    (res,) = seen
    return out, res


def _check_unit_upper_triangular(res, n):
    """U^T and V start each row i at column i with a +-1 there, so
    _sparse_det takes them through its upper-triangular shortcut."""
    for rows in (kt._transpose(res.left, n), res.right):
        assert all(row and min(row) == i and abs(row[i]) == 1
                   for i, row in enumerate(rows))


@pytest.mark.parametrize("lengths", [[512], [32, 32, 32], [1, 1, 3, 5],
                                     [170, 170, 172]])
def test_oracle_certificate_is_n_log_n(lengths):
    # In point order V is dense upper triangular on each cycle: 132,351
    # entries in U and V for one 512-point cycle and 1,773 for 32 + 32 +
    # 32.  Halving each cycle keeps them within 2 n log2 n.
    s, _ = gen.finite_cycle_system(lengths)
    _, res = _oracle_with_snf(s)
    n = sum(lengths)
    size = sum(map(len, res.left)) + sum(map(len, res.right))
    assert size <= 2 * n * n.bit_length()
    _check_unit_upper_triangular(res, n)


def _cycle_system(perm):
    """The system of perm with one fiber per cycle, labelled by its least
    point, and the cycle lengths."""
    fiber, lengths = [None] * len(perm), []
    for start in range(len(perm)):
        x, size = start, 0
        while fiber[x] is None:
            fiber[x] = start
            x, size = perm[x], size + 1
        if size:
            lengths.append(size)
    return kt.make_permutation_system(perm, fiber), lengths


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120).flatmap(lambda n: st.permutations(range(n))))
def test_oracle_matches_closed_form_and_point_order_snf(perm):
    s, lengths = _cycle_system(perm)
    out, res = _oracle_with_snf(s)
    assert out == {"k0_rank": len(lengths), "k0_torsion": [],
                   "k1_rank": len(lengths), "unit_image": sorted(lengths)}
    n = len(perm)
    natural = [[(i == j) - (perm[i] == j) for j in range(n)]
               for i in range(n)]                     # I - P^T
    assert res.diagonal == kt.smith_normal_form(natural).diagonal
    _check_unit_upper_triangular(res, n)


# Rectangular and empty shapes, and small matrices whose SNF reaches a
# non-unit pivot, a remainder that redoes a step, and a fold.
_SNF_SHAPES = [[], [[]], [[], []], [[0, 0, 0], [0, 0, 0]], [[1, 2, 3]],
               [[4], [6], [9]], [[2, 3]], [[2, 0], [0, 3]], [[4, 6], [6, 4]],
               [[6, 0, 0], [0, 10, 0], [0, 0, 15]]]


def _dense_up_to_5x5():
    return st.integers(1, 5).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_dense_up_to_5x5(), st.sampled_from(_SNF_SHAPES),
                 st.integers(1, 40).flatmap(
                     lambda n: st.permutations(range(n))).map(_i_minus_pt)))
def test_snf_matches_the_frozen_reference(a):
    want = snf_reference._snf_rows(snf_reference._sparse_rows(a),
                                   len(a[0]) if a else 0)
    assert kt.smith_normal_form(a) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120).flatmap(lambda n: st.permutations(range(n))))
def test_oracle_snf_matches_the_frozen_reference(perm):
    s, _ = _cycle_system(perm)
    seen = []
    verify = kt.verify_snf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kt, "verify_snf",
                   lambda a, res: seen.append((a, res)) or verify(a, res))
        kt.k_oracle_finite_system(s)
    ((rows, res),) = seen
    assert res == snf_reference._snf_rows(rows, len(rows))


@pytest.mark.parametrize("kind", [
    "missing row", "extra row", "list row", "key out of range",
    "negative key", "bool key", "zero value", "float value", "bool value"])
@pytest.mark.parametrize("which", ["U", "V"])
def test_verify_snf_malformed_matches_the_frozen_reference(which, kind):
    for a in ([[2, 0, 0], [0, 6, 0], [0, 0, 0]],
              [[2, 4, 4], [-6, 6, 12], [10, -4, -16]], _A96):
        res = kt.smith_normal_form(a)
        left, right = res.left, res.right
        if which == "U":
            left = _malformed(left, kind)
        else:
            right = _malformed(right, kind)
        res = kt.SNFResult(res.diagonal, left, right)
        assert kt.verify_snf(a, res) == snf_reference._verify_rows(
            snf_reference._sparse_rows(a), len(a), res)


def test_k0_presentation_holds_each_map_once():
    # One 2,048 x 2,048 map, MAX_K0_ENTRIES entries: about 32 MB as rows
    # of tuples.  Copying the incidence lists into tuples held both, 63 MB.
    grown_mb, sizes = peak_growth(
        "from bratteli import diagram as dg, ktheory as kt\n"
        "n = 2048\n"
        "d = dg.make_diagram(2, [1, n, n], [[(0, i) for i in range(n)],"
        " [(i, i) for i in range(n)]])\n"
        "dg.check_valid(d)",
        "kt.k0_presentation(d).sizes")
    assert sizes == "(2048, 2048)"
    assert 2048 * 2048 == kt.MAX_K0_ENTRIES
    assert grown_mb <= 45, f"peak RSS grew by {grown_mb} MB"


def test_k0_presentation_refuses_dense_maps_before_building_them():
    # 6,000 vertices on each of two levels joined one to one: 12,000 edges,
    # but a dense level-2 map of 36 million entries, hundreds of MB.
    grown_mb, message = peak_growth(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
        "from bratteli import diagram as dg, ktheory as kt\n"
        "n = 6000\n"
        "d = dg.make_diagram(2, [1, n, n], [[(0, i) for i in range(n)],"
        " [(i, i) for i in range(n)]])\n"
        "dg.check_valid(d)\n"
        "def refused(d):\n"
        "    try:\n"
        "        kt.k0_presentation(d)\n"
        "    except dg.DiagramError as exc:\n"
        "        return str(exc)",
        "refused(d)")
    assert message == ("the K0 maps would hold 36000000 entries, more than "
                       "MAX_K0_ENTRIES = 4194304")
    assert grown_mb <= 20, f"peak RSS grew by {grown_mb} MB"


def test_k0_entry_cap_counts_levels_two_on(monkeypatch):
    # Vertex counts 1, 3, 2, 4: the maps are 2 x 3 and 4 x 2, 14 entries.
    d = dg.make_diagram(3, [1, 3, 2, 4],
                        [[(0, 0), (0, 1), (0, 2)],
                         [(0, 0), (1, 1), (2, 1)],
                         [(0, 0), (0, 1), (1, 2), (1, 3)]])
    monkeypatch.setattr(kt, "MAX_K0_ENTRIES", 14)
    assert kt.k0_presentation(d).sizes == (3, 2, 4)
    monkeypatch.setattr(kt, "MAX_K0_ENTRIES", 13)
    with pytest.raises(dg.DiagramError) as err:
        kt.k0_presentation(d)
    assert str(err.value) == ("the K0 maps would hold 14 entries, more "
                              "than MAX_K0_ENTRIES = 13")


def test_system_json_round_trip():
    s, _ = gen.finite_cycle_system([2, 2])
    obj = kt.permutation_system_to_json(s)
    assert kt.permutation_system_from_json(obj) == s
    obj["n"] = 7
    with pytest.raises(dg.DiagramError):
        kt.permutation_system_from_json(obj)
    with pytest.raises(dg.DiagramError):
        kt.permutation_system_from_json({"perm": [0], "fiber": [0]})


def test_verify_snf_refuses_a_ragged_matrix():
    a = [[1, 0], [0, 1]]
    res = kt.smith_normal_form(a)
    with pytest.raises(dg.DiagramError) as err:
        kt.verify_snf([[1, 0], [0]], res)
    assert str(err.value) == "matrix dimension mismatch"


def test_push_refuses_levels_out_of_range():
    pres = kt.k0_presentation(gen.odometer(2, 3))
    for level, to_level in ((0, 1), (2, 1), (1, 4)):
        with pytest.raises(dg.DiagramError) as err:
            pres.push(level, [1], to_level)
        assert str(err.value) == f"cannot push level {level} to {to_level}"


def test_verdicts_refuse_vectors_and_levels_not_ints():
    # push, and the verdicts that push first, stay in exact integers.
    pres = kt.k0_presentation(gen.stationary_adic([[2, 1], [1, 1]], 5))
    for level, vector, to_level, message in (
            (1, (0.5, 0.5), 3, "vector entries must be ints"),
            (1, (True, 0), 3, "vector entries must be ints"),
            (1.0, (1, 0), 3, "cannot push level 1.0 to 3"),
            (True, (1, 0), 3, "cannot push level True to 3"),
            (1, (1, 0), 3.0, "cannot push level 1 to 3.0")):
        with pytest.raises(dg.DiagramError) as err:
            pres.push(level, vector, to_level)
        assert str(err.value) == message
    zero = kt.DimGroupElement(1, (0, 0))
    with pytest.raises(dg.DiagramError, match="vector entries must be ints"):
        kt.element_positive(kt.DimGroupElement(1, (1.5, 0)), pres)
    with pytest.raises(dg.DiagramError, match="vector entries must be ints"):
        kt.element_equal(kt.DimGroupElement(1, (0.5, 0)), zero, pres)
    with pytest.raises(dg.DiagramError, match="cannot push level 1.0"):
        kt.element_equal(kt.DimGroupElement(1.0, (1, 0)), zero, pres)
    assert pres.push(1, (1, 1), 3) == [8, 5]


def test_permutation_system_needs_a_fiber_for_every_point():
    with pytest.raises(dg.DiagramError) as err:
        kt.make_permutation_system([1, 2, 0], [0, 0])
    assert str(err.value) == "fiber_of must assign a label to every point"


def test_oracle_refuses_a_failed_snf_verification(monkeypatch):
    s = kt.make_permutation_system([1, 0], [0, 0])
    monkeypatch.setattr(kt, "verify_snf", lambda a, res: False)
    with pytest.raises(dg.DiagramError) as err:
        kt.k_oracle_finite_system(s)
    assert str(err.value) == "Smith normal form verification failed"
