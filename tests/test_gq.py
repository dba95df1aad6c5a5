"""Exact linear algebra layer: oracles against sympy, plus property tests."""

import math
from fractions import Fraction

import pytest
import sympy
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix
from hypothesis import assume, example, given, settings, strategies as st

from hodge_degen.gq import (
    GaussianRational, MatrixGQ, Subspace, gq, ZERO, ONE, i_power,
    format_scalar, parse_scalar, rref, rank, intersect, ssum, kernel, image,
    conj_space, apply_matrix,
    nilpotent_exp, nilpotent_powers, hermitian_pd, NotNilpotent,
    AmbientMismatch, inverse, first_nonpositive_minor, maps_into,
)
from hodge_degen import gq as gq_module


fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
scalars = st.builds(GaussianRational, fracs, fracs)


def small_matrix(rows, cols):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(MatrixGQ)


def to_sympy(M):
    return sympy.Matrix(M.rows, M.cols, [sympy.Rational(e.re) + sympy.I * sympy.Rational(e.im)
                                         for row in M.entries for e in row])


def determinant(M):
    """Exact determinant by Gaussian elimination, the product of the pivots:
    an oracle for the minors that first_nonpositive_minor reads off its
    pivots, checked against sympy below."""
    assert M.rows == M.cols
    n = M.rows
    work = [list(row) for row in M.entries]
    det = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if not work[i][c].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        p = work[c][c]
        det = det * p
        for row in work[c + 1:]:
            f = row[c] / p
            row[c:] = [a - f * b for a, b in zip(row[c:], work[c][c:])]
    return det


# ---------------------------------------------------------------- scalars

def test_scalar_arithmetic_basics():
    a = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    b = GaussianRational(2, 1)
    assert (a * b).re == Fraction(4, 3)
    assert (a * b).im == Fraction(-1, 6)
    assert (a + b - b) == a
    assert (a * a.inverse()) == ONE
    assert a.conj().conj() == a


def test_i_power_cycle():
    assert [i_power(k) for k in range(4)] == \
        [ONE, GaussianRational(0, 1), gq(-1), GaussianRational(0, -1)]
    assert i_power(-1) == GaussianRational(0, -1)
    assert i_power(7) == i_power(3)


@settings(max_examples=25, deadline=None)
@given(scalars)
def test_scalar_format_parse_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_scalar_rejects_garbage():
    # digits are ASCII: an Arabic-Indic or a fullwidth digit is no digit
    for bad in ("", "1+2", "i*i", "1//2", "2 3", "\u0661", "\uff11", "\uff11/\uff12"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


@settings(max_examples=25, deadline=None)
@given(scalars, scalars)
def test_scalar_mul_matches_sympy(a, b):
    got = a * b
    want = sympy.expand(
        (sympy.Rational(a.re) + sympy.I * sympy.Rational(a.im))
        * (sympy.Rational(b.re) + sympy.I * sympy.Rational(b.im)))
    assert sympy.Rational(got.re) + sympy.I * sympy.Rational(got.im) == want


def test_constructor_rejects_floats_and_strings():
    for bad in (0.1, 1.0, "1/2", 1j, None):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(0, bad)
    with pytest.raises(TypeError):
        gq(0.1)


def _canonical(z):
    x, y, d = z._x, z._y, z._d
    assert type(x) is type(y) is type(d) is int
    assert d > 0 and math.gcd(x, y, d) == 1
    return x, y, d


ints = st.integers(min_value=-40, max_value=40)
dens = st.integers(min_value=1, max_value=12)


@settings(max_examples=60, deadline=None)
@given(fracs, fracs, scalars, st.integers(min_value=1, max_value=6))
def test_equal_values_share_one_canonical_form(re, im, b, k):
    z = GaussianRational(re, im)
    # the same value written with both parts over a common denominator,
    # scaled by k so that nothing in the string is in lowest terms
    den = re.denominator * im.denominator * k
    text = "%d/%d%s%d/%d*i" % (re.numerator * den // re.denominator, den,
                               "+" if im >= 0 else "",
                               im.numerator * den // im.denominator, den)
    routes = [z, parse_scalar(text), parse_scalar(format_scalar(z)), z + b - b,
              b + z - b, GaussianRational(z.re, z.im), z.conj().conj(), -(-z)]
    if not b.is_zero():
        routes += [z * b / b, b * z / b, (z / b) * b, z * b * b.inverse()]
    forms = {_canonical(w) for w in routes}
    assert len(forms) == 1
    assert len({hash(w) for w in routes}) == 1
    assert len({format_scalar(w) for w in routes}) == 1
    assert all(w == z for w in routes)
    # a real value hashes as the Fraction it equals
    assert hash(z) == (hash((re, im)) if im else hash(re))
    assert (z.re, z.im) == (re, im)


@settings(max_examples=60, deadline=None)
@given(st.one_of(ints, fracs))
@example(1)
@example(Fraction(-1, 2))
def test_real_value_hashes_as_the_number_it_equals(r):
    # equal values must hash alike, or a set or dict of ints and
    # Fractions misses the GaussianRational equal to a member
    assert gq(r) == r and hash(gq(r)) == hash(r)
    assert gq(r) in {r} and r in {gq(r)}
    assert {r: 1}[gq(r)] == 1


@settings(max_examples=60, deadline=None)
@given(ints, ints, dens, ints, ints, dens)
def test_arithmetic_results_are_canonical(a, b, d, c, e, f):
    z = GaussianRational(Fraction(a, d), Fraction(b, d))
    w = GaussianRational(Fraction(c, f), Fraction(e, f))
    results = [z, w, z + w, z - w, w - z, z * w, -z, z.conj(), z - z, z * ZERO]
    if not w.is_zero():
        results += [z / w, w.inverse()]
    for r in results:
        _canonical(r)
        assert GaussianRational(r.re, r.im) == r
    assert (z - z)._x == (z - z)._y == 0 and (z - z)._d == 1
    assert _canonical(z * ZERO) == (0, 0, 1)
    assert _canonical(GaussianRational(0)) == _canonical(ZERO) == (0, 0, 1)
    assert (z == w) == ((z.re, z.im) == (w.re, w.im))


# ---------------------------------------------------------------- matrices

@settings(max_examples=15, deadline=None)
@given(small_matrix(3, 4))
def test_rank_matches_sympy(M):
    assert rank(M) == to_sympy(M).rank()


@settings(max_examples=15, deadline=None)
@given(small_matrix(3, 3))
def test_determinant_matches_sympy(M):
    d = determinant(M)
    want = sympy.expand(to_sympy(M).det())
    assert sympy.Rational(d.re) + sympy.I * sympy.Rational(d.im) == want


@settings(max_examples=15, deadline=None)
@given(small_matrix(3, 4))
def test_rref_idempotent_and_canonical(M):
    R = rref(M)
    assert rref(R) == R
    # same row space: mutual containment
    A = Subspace(4, R) if R.rows else Subspace.zero(4)
    B = Subspace.from_vectors(4, [list(r) for r in M.entries])
    assert A == B


@settings(max_examples=15, deadline=None)
@given(small_matrix(3, 3), small_matrix(3, 3))
def test_matmul_matches_sympy(A, B):
    assert to_sympy(A * B).expand() == (to_sympy(A) * to_sympy(B)).expand()


# ---------------------------------------------------------------- inverse

sparse_scalars = st.one_of(st.just(ZERO), scalars)


def rows(count, dim=4):
    return st.lists(st.lists(sparse_scalars, min_size=dim, max_size=dim),
                    min_size=count, max_size=count)


def combination(coeffs, vectors, dim=4):
    out = [ZERO] * dim
    for c, v in zip(coeffs, vectors):
        out = [a + c * b for a, b in zip(out, v)]
    return out


def test_trace_and_flatten():
    M = MatrixGQ([[1, 2], [3, gq("i")]])
    assert M.trace() == GaussianRational(1, 1)
    assert M.flatten() == (ONE, gq(2), gq(3), gq("i"))
    with pytest.raises(ValueError, match="not square"):
        MatrixGQ([[1, 2]]).trace()


def test_inverse_of_the_empty_matrix():
    assert inverse(MatrixGQ.zero(0, 0)) == MatrixGQ.zero(0, 0)


@settings(max_examples=25, deadline=None)
@given(rows(3, 3))
def test_inverse_is_two_sided(entries):
    M = MatrixGQ(entries)
    assume(not determinant(M).is_zero())
    Minv = inverse(M)
    assert Minv * M == MatrixGQ.identity(3) == M * Minv


@settings(max_examples=25, deadline=None)
@given(rows(2, 3), rows(1, 2))
def test_inverse_rejects_singular(top, coeffs):
    M = MatrixGQ(top + [combination(coeffs[0], top, 3)])
    with pytest.raises(ValueError, match="not invertible"):
        inverse(M)
    with pytest.raises(ValueError, match="not square"):
        inverse(MatrixGQ(top))


# ---------------------------------------------------------------- subspaces

def vecs(dim):
    return st.lists(st.lists(scalars, min_size=dim, max_size=dim),
                    min_size=0, max_size=3)


@settings(max_examples=15, deadline=None)
@given(vecs(4), vecs(4))
def test_modular_dimension_law(u, w):
    U = Subspace.from_vectors(4, u)
    W = Subspace.from_vectors(4, w)
    assert intersect(U, W).dim + ssum(U, W).dim == U.dim + W.dim


@settings(max_examples=15, deadline=None)
@given(small_matrix(3, 4))
def test_rank_nullity(M):
    assert kernel(M).dim + image(M).dim == M.cols if M.cols == 4 else True
    assert kernel(M).dim + rank(M) == 4


@settings(max_examples=15, deadline=None)
@given(vecs(3))
def test_conj_involution_and_annihilator(u):
    U = Subspace.from_vectors(3, u)
    assert conj_space(conj_space(U)) == U
    A = kernel(U.basis).basis  # constraint rows cutting out U
    assert A.rows == 3 - U.dim
    for v in U.basis.entries:
        assert all(x.is_zero() for x in A.matvec(v))


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatch):
        intersect(Subspace.full(2), Subspace.full(3))


# ---------------------------------------------------------------- exp(zN)

def strict_upper(dim):
    def build(vals):
        ent = [[ZERO] * dim for _ in range(dim)]
        k = 0
        for i in range(dim):
            for j in range(i + 1, dim):
                ent[i][j] = vals[k]
                k += 1
        return MatrixGQ(ent)
    count = dim * (dim - 1) // 2
    return st.lists(scalars, min_size=count, max_size=count).map(build)


@settings(max_examples=15, deadline=None)
@given(strict_upper(4), scalars, scalars)
def test_nilpotent_exp_homomorphism(N, z, w):
    assert nilpotent_exp(N, z) * nilpotent_exp(N, w) == nilpotent_exp(N, z + w)
    assert nilpotent_exp(N, ZERO) == MatrixGQ.identity(4)


def test_nilpotent_exp_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_exp(MatrixGQ.identity(2), ONE)


@settings(max_examples=15, deadline=None)
@given(strict_upper(4))
def test_nilpotent_powers_multiply(N):
    powers = nilpotent_powers(N)
    deg = len(powers) - 1
    assert powers[0] == MatrixGQ.identity(4) and powers[1] == N
    assert powers[deg].is_zero() and not powers[deg - 1].is_zero()
    for j in range(deg + 1):
        for k in range(deg + 1):
            assert powers[j] * powers[k] == powers[min(j + k, deg)]


def test_nilpotent_powers_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        nilpotent_powers(MatrixGQ([[ZERO, ONE], [ONE, ZERO]]))
    with pytest.raises(NotNilpotent):
        nilpotent_powers(MatrixGQ([[ZERO, ONE]]))


# ---------------------------------------------------------------- pd forms

def sympy_sylvester_pd(S):
    """Sylvester's criterion in sympy: every leading principal minor is real
    and positive.  sympy's own ``is_positive_definite`` is not used as the
    oracle: sympy 1.14 returns False for some ``M M* + I``."""
    for k in range(1, S.rows + 1):
        d = sympy.expand(S[:k, :k].det())
        if sympy.im(d) != 0 or not sympy.re(d) > 0:
            return False
    return True


_R = GaussianRational
SYMPY_PD_WITNESS = MatrixGQ([  # sympy 1.14 is_positive_definite says False
    [_R(Fraction(-2, 3), -3), _R(-5, 2), _R(Fraction(-5, 2), Fraction(-9, 2))],
    [_R(Fraction(-9, 2), Fraction(-7, 3)), _R(4, 2), _R(7, Fraction(-5, 3))],
    [_R(1, 4), _R(Fraction(-2, 3), Fraction(3, 2)), _R(Fraction(1, 2), -6)],
])


@settings(max_examples=15, deadline=None)
@given(small_matrix(3, 3))
@example(SYMPY_PD_WITNESS)
def test_hermitian_pd_matches_sympy(M):
    H = M * M.conj_transpose() + MatrixGQ.identity(3)  # always hermitian
    S = to_sympy(H)
    assert hermitian_pd(H) == sympy_sylvester_pd(S)


def leading_minor_index(H):
    """The first k whose leading k x k determinant is not a positive rational."""
    for k in range(1, H.rows + 1):
        d = determinant(MatrixGQ([row[:k] for row in H.entries[:k]]))
        if not (d.is_real() and d.re > 0):
            return k
    return None


# small integer entries make zero and negative minors common; M + M* is a
# Hermitian input, M itself a general one
int_scalars = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1))
square = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(int_scalars, min_size=n, max_size=n), min_size=n, max_size=n).map(MatrixGQ))


@settings(max_examples=60, deadline=None)
@given(square, st.booleans())
@example(MatrixGQ([[ONE, ONE], [ONE, ONE]]), False)  # second minor zero
@example(MatrixGQ([[ZERO, ONE], [ONE, ONE]]), False)  # first pivot zero
def test_first_nonpositive_minor_matches_determinants(M, hermitian):
    H = M + M.conj_transpose() if hermitian else M
    assert first_nonpositive_minor(H) == leading_minor_index(H)


def test_hermitian_pd_rejects_indefinite():
    H = MatrixGQ([[ONE, ZERO], [ZERO, gq(-1)]])
    assert not hermitian_pd(H)


def test_apply_matrix_image_dim():
    M = MatrixGQ([[ONE, ONE], [ZERO, ZERO]])
    U = Subspace.full(2)
    assert apply_matrix(M, U).dim == 1


# ------------------------------------------------- kernels against sympy
# Differential tests of the sparse kernels on complex matrices with no,
# about 10% and all entries nonzero, including shapes with no rows or no
# columns.  The oracle is sympy's exact arithmetic over Q[i] (QQ_I).

# the nonzero values of `fracs` (|x| <= 3, denominator <= 3), drawn
# directly: a filter would reject draws and make failures shrink slowly
nonzero_fracs = st.integers(1, 3).flatmap(lambda d: st.builds(
    lambda k, sign: Fraction(sign * k, d), st.integers(1, 3 * d), st.sampled_from((1, -1))))
nonzero_scalars = st.one_of(st.builds(GaussianRational, nonzero_fracs, fracs),
                            st.builds(GaussianRational, st.just(0), nonzero_fracs))


@st.composite
def sparse_matrices(draw, rows=None, cols=None):
    r = draw(st.integers(0, 6)) if rows is None else rows
    c = draw(st.integers(0, 7)) if cols is None else cols
    percent = draw(st.sampled_from((0, 10, 100)))

    def entry():
        if percent == 100 or (percent == 10 and draw(st.integers(0, 9)) == 9):
            return draw(nonzero_scalars)
        return ZERO

    return MatrixGQ([[entry() for _ in range(c)] for _ in range(r)], cols=c)


def dm(M):
    """M as a sympy DomainMatrix over QQ_I."""
    rows = [[QQ_I.from_sympy(sympy.Rational(e.re) + sympy.I * sympy.Rational(e.im))
             for e in row] for row in M.entries]
    return DomainMatrix(rows, (M.rows, M.cols), QQ_I)


def from_qq_i(z):
    return GaussianRational(Fraction(int(z.x.numerator), int(z.x.denominator)),
                            Fraction(int(z.y.numerator), int(z.y.denominator)))


def from_dm(D, cols):
    return MatrixGQ([[from_qq_i(z) for z in row] for row in D.to_list()], cols=cols)


def sympy_rref(M):
    """(nonzero rows of the rref, pivot columns), by sympy."""
    R, pivots = dm(M).rref()
    return from_dm(R, M.cols).entries[:len(pivots)], tuple(pivots)


def sympy_rank(rows, cols):
    return dm(MatrixGQ(rows, cols=cols)).rank()


def assert_built(M):
    """M is a well-formed matrix, as the public constructor would make it."""
    checked = MatrixGQ(M.entries, cols=M.cols)
    assert M == checked and hash(M) == hash(checked)
    assert (M.rows, M.cols) == (checked.rows, checked.cols)
    assert type(M.entries) is tuple and len(M.entries) == M.rows
    for row in M.entries:
        assert type(row) is tuple and len(row) == M.cols
        assert all(type(e) is GaussianRational for e in row)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_rref_and_kernel_match_sympy(M):
    R = rref(M)
    assert_built(R)
    rows, pivots = sympy_rref(M)
    assert R.entries == rows
    assert R._pivots == pivots
    S = Subspace(M.cols, M)
    assert S.basis == R and S.pivots == pivots
    K = kernel(M)
    assert_built(K.basis)
    assert K.dim == M.cols - len(pivots)
    for v in K.basis.entries:
        assert all(e.is_zero() for e in M.matvec(v))
    if K.dim:
        assert K.basis.entries == sympy_rref(from_dm(dm(M).nullspace(), M.cols))[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_and_entrywise_match_sympy(data):
    A = data.draw(sparse_matrices())
    B = data.draw(sparse_matrices(rows=A.cols))
    C = data.draw(sparse_matrices(rows=A.rows, cols=A.cols))
    v = data.draw(sparse_matrices(rows=1, cols=A.cols)).entries[0]
    c = data.draw(scalars)
    sA, sB, sC = to_sympy(A), to_sympy(B), to_sympy(C)
    results = [(A * B, sA * sB), (A + C, sA + sC), (A - C, sA - sC),
               (A.scale(c), sA * (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))),
               (A.transpose(), sA.T), (A.conj(), sA.conjugate())]
    for got, want in results:
        assert_built(got)
        assert (got.rows, got.cols) == want.shape
        assert (to_sympy(got) - want).expand() == sympy.zeros(*want.shape)
    Mv = A.matvec(v)
    assert all(type(e) is GaussianRational for e in Mv)
    want = (sA * to_sympy(MatrixGQ([v], cols=A.cols)).T).expand()
    assert to_sympy(MatrixGQ([Mv], cols=A.rows)).T == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intersect_and_contains_vector_match_sympy(data):
    A = data.draw(sparse_matrices())
    B = data.draw(sparse_matrices(cols=A.cols))
    v = data.draw(sparse_matrices(rows=1, cols=A.cols)).entries[0]
    n = A.cols
    SA, SB = Subspace(n, A), Subspace(n, B)
    X = intersect(SA, SB)
    assert_built(X.basis)
    ra, rb = sympy_rank(A.entries, n), sympy_rank(B.entries, n)
    assert X.dim == ra + rb - sympy_rank(A.entries + B.entries, n)
    for w in X.basis.entries:
        assert sympy_rank(A.entries + (w,), n) == ra
        assert sympy_rank(B.entries + (w,), n) == rb
    assert SA.contains_vector(v) == (sympy_rank(A.entries + (v,), n) == ra)
    assert all(SA.contains_vector(w) for w in A.entries)


def sympy_first_nonpositive_minor(H):
    D = dm(H)
    for k in range(1, H.rows + 1):
        d = D.extract(list(range(k)), list(range(k))).det()
        if d.y or not d.x > 0:
            return k
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: sparse_matrices(rows=n, cols=n)),
       st.booleans())
def test_determinant_and_minors_match_sympy(M, hermitian):
    assert determinant(M) == from_qq_i(dm(M).det())
    H = M + M.conj_transpose() if hermitian else M
    assert first_nonpositive_minor(H) == sympy_first_nonpositive_minor(H)


def test_public_constructor_checks_entries():
    for bad in (0.5, 1.0, 1j, None, [ONE], (ONE,), object()):
        with pytest.raises(TypeError):
            MatrixGQ([[ONE, bad]])
    with pytest.raises(ValueError, match="ragged"):
        MatrixGQ([[ONE, ZERO], [ONE]])
    with pytest.raises(ValueError, match="ragged"):
        MatrixGQ([[], [ONE]])
    with pytest.raises(ValueError):
        MatrixGQ.from_json([["1", "0.5"]])


def test_product_with_an_empty_inner_dimension_is_zero():
    P = MatrixGQ([[], []]) * MatrixGQ.zero(0, 3)
    assert (P.rows, P.cols) == (2, 3)
    assert P == MatrixGQ.zero(2, 3)
    assert_built(P)


def test_transpose_keeps_empty_shapes():
    for rows, cols in ((2, 0), (0, 3), (0, 0)):
        T = MatrixGQ.zero(rows, cols).transpose()
        assert (T.rows, T.cols) == (cols, rows)
        assert T == MatrixGQ.zero(cols, rows)
        assert_built(T)


# ------------------------------------------- meets by reduction
# intersect reduces the rows of one space against the other's rref basis;
# the reference is the stacked-kernel meet it replaced.

def reference_intersect(A, B):
    """A cap B via the kernel of the stacked coefficient matrix."""
    A._check(B)
    ka, kb = A.dim, B.dim
    n = A.ambient_dim
    if ka == 0 or kb == 0:
        return Subspace.zero(n)
    if ka == n:
        return B
    if kb == n:
        return A
    # coefficient vectors (a | b) with a*basisA + b*basisB = 0: then
    # a*basisA = -b*basisB lies in both
    stacked = A.basis.entries + B.basis.entries
    ker = kernel(MatrixGQ(list(zip(*stacked)), cols=ka + kb))
    vecs = []
    for coeff in ker.basis.entries:
        v = [ZERO] * n
        for c, row in zip(coeff, A.basis.entries):
            v = [x + c * e for x, e in zip(v, row)]
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


@st.composite
def subspace_pairs(draw):
    """(A, B) in Q[i]^n, n = 1..6.  A and B share a dense part C and have
    dense parts apart from it, so that A cap B is C, neither 0 nor A nor B;
    or B is drawn apart from A, or is 0, the whole space, a smaller space
    inside A, a larger one around A, or A itself.  The order is drawn too."""
    kind = draw(st.sampled_from(("shared", "apart", "zero", "full", "inside",
                                 "around", "equal")))
    n = draw(st.integers(3 if kind == "shared" else 1, 6))

    def rows(k=None):
        k = draw(st.integers(0, 3)) if k is None else k
        return draw(sparse_matrices(rows=k, cols=n)).entries

    def dense(k):
        # entries with a nonzero real part: such rows are in general position,
        # and they shrink fast
        entry = st.builds(GaussianRational, st.sampled_from((1, -1, 2, -2, 3)),
                          st.integers(-2, 2))
        return tuple(map(tuple, draw(st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))))

    def span(vectors):
        return Subspace(n, MatrixGQ(vectors, cols=n))

    def combinations(k, S):
        # k vectors of S, with dense coefficients over its basis
        coeffs = draw(st.lists(st.lists(scalars, min_size=S.dim, max_size=S.dim),
                               min_size=k, max_size=k))
        return (MatrixGQ(coeffs, cols=S.dim) * S.basis).entries

    if kind == "shared":
        c = draw(st.integers(1, n - 2))
        a = draw(st.integers(1, n - 1 - c))
        C = dense(c)
        A = span(C + dense(a))
        B = span(C + dense(draw(st.integers(1, n - c - a))))
    else:
        A = span(rows())
    if kind == "apart":
        B = span(rows())
    elif kind == "zero":
        B = Subspace.zero(n)
    elif kind == "full":
        B = Subspace.full(n)
    elif kind == "inside":
        B = span(combinations(draw(st.integers(0, max(A.dim - 1, 0))), A))
    elif kind == "around":
        B = span(A.basis.entries + rows())
    elif kind == "equal":
        # the same space from other rows: A's rows, reversed, plus combinations
        B = span(A.basis.entries[::-1] + combinations(2, A))
    return (B, A) if draw(st.booleans()) else (A, B)


# two 3-spaces of C^5 meeting in a line: each rref row leaves a residue,
# and the third is eliminated against both earlier ones
MEET_IN_A_LINE = (Subspace(5, MatrixGQ([[1, 1, 1, 1, 1], [1, 2, 0, 0, 1], [0, 1, 3, 0, "i"]])),
                  Subspace(5, MatrixGQ([[1, 1, 1, 1, 1], [0, 0, 1, 1, 2], [1, 0, 0, 2, 0]])))


@settings(max_examples=120, deadline=None)
@given(subspace_pairs())
@example(pair=MEET_IN_A_LINE)
def test_intersect_matches_stacked_kernel_reference(pair):
    A, B = pair
    X = intersect(A, B)
    assert_built(X.basis)
    ref = reference_intersect(A, B)
    assert X == ref and X.pivots == ref.pivots, (A.to_json(), B.to_json())
    assert intersect(B, A) == X
    assert A.contains(X) and B.contains(X)


def test_intersect_solves_no_kernel(monkeypatch):
    def no_kernel(M):
        raise AssertionError("intersect called kernel")

    monkeypatch.setattr(gq_module, "kernel", no_kernel)
    A = Subspace(4, MatrixGQ([[1, 0, 1, 0], [0, 1, 0, "i"]]))
    B = Subspace(4, MatrixGQ([[1, 1, 1, "i"], [0, 0, 1, 0]]))
    assert intersect(A, B) == Subspace(4, MatrixGQ([[1, 1, 1, "i"]]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_maps_into_matches_image_containment(data):
    A, B = data.draw(subspace_pairs())
    n = A.ambient_dim
    M = data.draw(sparse_matrices(rows=n, cols=n))
    assert maps_into(M, A, B) == B.contains(apply_matrix(M, A))
    # the identity maps A into B exactly when A lies in B
    assert maps_into(MatrixGQ.identity(n), A, B) == B.contains(A)


def test_maps_into_checks_shapes():
    with pytest.raises(AmbientMismatch):
        maps_into(MatrixGQ.identity(3), Subspace.full(3), Subspace.full(2))
    with pytest.raises(AmbientMismatch):
        maps_into(MatrixGQ.identity(3), Subspace.full(2), Subspace.full(3))


def test_maps_into_the_whole_space_makes_no_product(monkeypatch):
    def no_matvec(M, v):
        raise AssertionError("maps_into formed a product")

    monkeypatch.setattr(MatrixGQ, "matvec", no_matvec)
    M = MatrixGQ([[0, 1, "i"], [0, 0, 2], [0, 0, 0]])
    assert maps_into(M, Subspace.full(3), Subspace.full(3))
    with pytest.raises(AmbientMismatch):
        maps_into(M, Subspace.full(3), Subspace.full(4))
    with pytest.raises(AmbientMismatch):
        maps_into(M, Subspace.full(2), Subspace.full(3))


def test_contains_answers_the_whole_space_and_itself_without_reduction(monkeypatch):
    def no_reduction(S, v):
        raise AssertionError("contains reduced a vector")

    A = Subspace(3, MatrixGQ([[1, "i", 0]]))
    monkeypatch.setattr(Subspace, "contains_vector", no_reduction)
    assert Subspace.full(3).contains(A) and A.contains(A)
    with pytest.raises(AmbientMismatch):
        Subspace.full(3).contains(Subspace.full(2))


def test_from_json_parses_each_distinct_string_once(monkeypatch):
    calls = []
    parse = gq_module.parse_scalar
    want = MatrixGQ([[1, 0, Fraction(1, 2)], [0, 1, "i"]])

    def counted(s):
        calls.append(s)
        return parse(s)

    monkeypatch.setattr(gq_module, "parse_scalar", counted)
    assert MatrixGQ.from_json([["1", "0", "1/2"], ["0", "1", "i"]]) == want
    assert sorted(calls) == ["0", "1", "1/2", "i"]
    # a shared table parses a string once across matrices
    table = gq_module.ScalarTable()
    MatrixGQ.from_json([["1", "-i"]], table)
    MatrixGQ.from_json([["-i", "1"], ["2", "1"]], table)
    assert sorted(calls[4:]) == ["-i", "1", "2"]


@settings(max_examples=80, deadline=None)
@given(subspace_pairs())
def test_conj_space_keeps_the_rref_pivots(pair):
    for X in pair:
        C = conj_space(X)
        ref = Subspace(X.ambient_dim, X.basis.conj())
        assert C == ref and C.pivots == ref.pivots == X.pivots
        assert_built(C.basis)
        assert conj_space(C) == X
        if X.basis.is_real():
            assert C is X


def test_trivial_subspaces_are_shared():
    for n in range(5):
        assert Subspace.zero(n) is Subspace.zero(n)
        assert Subspace.full(n) is Subspace.full(n)
        assert Subspace.zero(n).dim == 0 and Subspace.full(n).dim == n
        assert Subspace.full(n).pivots == tuple(range(n))
        assert Subspace.zero(n).pivots == ()
        # a basis with no rows spans the zero space, whatever its width
        assert Subspace(n, MatrixGQ([])) == Subspace.zero(n)
        assert Subspace(n, MatrixGQ([])).pivots == ()


# ------------------------------------- kernels against per-term references
# The kernels sum products on ints and eliminate on int rows, reducing each
# entry once.  The references below are the earlier kernels, which built a
# reduced scalar for every term of a sum and every entry of a row update:
# same values, so the results must be equal entry by entry.  The matrices
# are dense, with a denominator of its own per entry (so sums cross-multiply
# denominators), complex entries and pivots, entries equal to 1 (pivots
# that need no scaling), zero rows, and shapes with no rows or no columns.

def reference_mul(A, B):
    out = []
    for row in A.entries:
        acc = [ZERO] * B.cols
        for k, a in enumerate(row):
            if not a.is_zero():
                for j, b in enumerate(B.entries[k]):
                    if not b.is_zero():
                        acc[j] = acc[j] + a * b
        out.append(acc)
    return MatrixGQ(out, cols=B.cols)


def reference_matvec(M, v):
    out = []
    for row in M.entries:
        acc = ZERO
        for a, e in zip(row, v):
            if not a.is_zero() and not e.is_zero():
                acc = acc + a * e
        out.append(acc)
    return tuple(out)


def reference_rref(M):
    """(rows of the rref, pivot columns), each row update a - f*b one
    scalar operation per entry."""
    work = [list(row) for row in M.entries]
    pivots = []
    r = 0
    for c in range(M.cols):
        i = next((i for i in range(r, M.rows) if not work[i][c].is_zero()), None)
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        inv = work[r][c].inverse()
        work[r] = [inv * e for e in work[r]]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and not f.is_zero():
                work[i] = [a - f * b for a, b in zip(row, work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def reference_inverse(M):
    n = M.rows
    rows, pivots = reference_rref(MatrixGQ(
        [list(row) + [ONE if j == i else ZERO for j in range(n)]
         for i, row in enumerate(M.entries)], cols=2 * n))
    if pivots != tuple(range(n)):
        return None
    return MatrixGQ([row[n:] for row in rows], cols=n)


def reference_kernel(M):
    rows, pivots = reference_rref(M)
    vecs = []
    for f in (j for j in range(M.cols) if j not in pivots):
        v = [ZERO] * M.cols
        v[f] = ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        vecs.append(v)
    return reference_rref(MatrixGQ(vecs, cols=M.cols))[0]


def reference_first_nonpositive_minor(H):
    work = [list(row) for row in H.entries]
    for k in range(H.rows):
        p = work[k][k]
        if not p.is_real() or p.re <= 0:
            return k + 1
        for row in work[k + 1:]:
            f = row[k] / p
            row[k:] = [a - f * b for a, b in zip(row[k:], work[k][k:])]
    return None


# entries with denominators up to 9, drawn per entry
own_denominators = st.fractions(min_value=-4, max_value=4, max_denominator=9)
dense_entries = st.one_of(
    st.builds(GaussianRational, own_denominators, own_denominators),
    st.builds(GaussianRational, own_denominators),
    st.just(ONE), st.just(ZERO))


@st.composite
def dense_matrices(draw, rows=None, cols=None):
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 6)) if cols is None else cols
    entries = draw(st.lists(st.lists(dense_entries, min_size=c, max_size=c),
                            min_size=r, max_size=r))
    for i in draw(st.lists(st.integers(0, max(r - 1, 0)), max_size=2)) if r else ():
        entries[i] = [ZERO] * c
    return MatrixGQ(entries, cols=c)


# a complex pivot, a pivot of 1, a zero row and a row a multiple of another
MIXED_PIVOTS = MatrixGQ([["1/2+1/3*i", "2", "0", "1/5"], ["0", "0", "0", "0"],
                         ["1", "-1/7*i", "3/4", "0"], ["1+2/3*i", "4", "0", "2/5"]])


@settings(max_examples=80, deadline=None)
@given(dense_matrices())
@example(M=MIXED_PIVOTS)
@example(M=MatrixGQ.zero(0, 4))
@example(M=MatrixGQ.zero(3, 0))
def test_rref_and_kernel_match_the_per_term_reference(M):
    R = rref(M)
    assert_built(R)
    assert (R.entries, R._pivots) == reference_rref(M)
    K = kernel(M)
    assert_built(K.basis)
    assert K.basis.entries == reference_kernel(M)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_products_and_matvec_match_the_per_term_reference(data):
    A = data.draw(dense_matrices())
    B = data.draw(dense_matrices(rows=A.cols))
    v = data.draw(dense_matrices(rows=1, cols=A.cols)).entries[0]
    P = A * B
    assert_built(P)
    assert P == reference_mul(A, B)
    assert A.matvec(v) == reference_matvec(A, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: dense_matrices(rows=n, cols=n)))
@example(M=MIXED_PIVOTS)
@example(M=MatrixGQ.zero(0, 0))
def test_inverse_and_minors_match_the_per_term_reference(M):
    want = reference_inverse(M)
    if want is None:
        with pytest.raises(ValueError, match="not invertible"):
            inverse(M)
    else:
        got = inverse(M)
        assert_built(got)
        assert got == want
    for H in (M, M + M.conj_transpose(), M * M.conj_transpose()):
        assert first_nonpositive_minor(H) == reference_first_nonpositive_minor(H)
