"""Exact linear algebra over the Gaussian rationals Q[i].

Everything downstream (filtrations, splittings, polarization checks) is built
on the three types here: GaussianRational scalars, MatrixGQ matrices and
Subspace (a row space held in reduced row echelon form, which makes subspace
equality a structural comparison).

A scalar is three ints (x, y, d) standing for (x + y*i)/d, kept in lowest
terms (d > 0, gcd(x, y, d) == 1): each operation is int arithmetic and one
gcd, and equal values have equal triples.
"""

from fractions import Fraction
from math import gcd
import re as _re
import reprlib


class AmbientMismatch(ValueError):
    pass


class NotNilpotent(ValueError):
    pass


class NotHermitian(ValueError):
    pass


_FRAC = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    r"^\s*(?:(?P<re>{f})(?=\s*$|\s*[+-]))?\s*"
    r"(?:(?P<im>[+-]?(?:\d+(?:/\d+)?\s*\*\s*)?)i)?\s*$".format(f=_FRAC)
)


class GaussianRational:
    """A complex number (x + y*i)/d, held as three ints in lowest terms.

    d > 0 and gcd(x, y, d) == 1, so equal values have equal (x, y, d) and
    zero is (0, 0, 1).  The constructor takes the real and imaginary parts
    as ints or Fractions; `re` and `im` return them as Fractions.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError("GaussianRational parts must be ints or Fractions, "
                            "got %r and %r" % (re, im))
        a, b = re.numerator, re.denominator
        c, e = im.numerator, im.denominator
        x, y, d = a * e, c * b, b * e
        g = gcd(x, y, d)
        _set_x(self, x // g)
        _set_y(self, y // g)
        _set_d(self, d // g)

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self):
        return Fraction(self._x, self._d)

    @property
    def im(self):
        return Fraction(self._y, self._d)

    # arithmetic: int operations, then one gcd in _make

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = gq(other)
        d, e = self._d, other._d
        if d == e:
            return _make(self._x + other._x, self._y + other._y, d)
        return _make(self._x * e + other._x * d, self._y * e + other._y * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self._x, -self._y, self._d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = gq(other)
        d, e = self._d, other._d
        if d == e:
            return _make(self._x - other._x, self._y - other._y, d)
        return _make(self._x * e - other._x * d, self._y * e - other._y * d, d * e)

    def __rsub__(self, other):
        return gq(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = gq(other)
        a, b, c, e = self._x, self._y, other._x, other._y
        if not e:
            return _make(a * c, b * c, self._d * other._d)
        if not b:
            return _make(a * c, a * e, self._d * other._d)
        return _make(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self):
        # d / (x + y i) = d (x - y i) / (x^2 + y^2)
        x, y, d = self._x, self._y, self._d
        n = x * x + y * y
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _make(d * x, -d * y, n)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = gq(other)
        # (a + b i)/d1 * d2 (c - e i)/(c^2 + e^2)
        a, b, c, e, d2 = self._x, self._y, other._x, other._y, other._d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _make(d2 * (a * c + b * e), d2 * (b * c - a * e), self._d * n)

    def __rtruediv__(self, other):
        return gq(other) / self

    def conj(self):
        return _raw(self._x, -self._y, self._d)

    def is_zero(self):
        return not self._x and not self._y

    def is_real(self):
        return not self._y

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        return self._x == other._x and self._y == other._y and self._d == other._d

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._x or self._y)

    def __repr__(self):
        return "gq(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


# Results are built through the slots' member descriptors, which skip
# __init__ and its type checks and are not stopped by __setattr__.
_new = object.__new__
_set_x = GaussianRational._x.__set__
_set_y = GaussianRational._y.__set__
_set_d = GaussianRational._d.__set__


def _raw(x, y, d):
    # (x + y i)/d, already in lowest terms with d > 0
    z = _new(GaussianRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def _make(x, y, d):
    # (x + y i)/d for d > 0, reduced to lowest terms
    g = gcd(x, y, d)
    if g != 1:
        x //= g
        y //= g
        d //= g
    z = _new(GaussianRational)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


def gq(x):
    """Coerce ints, Fractions and strings to GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError("cannot coerce %r to GaussianRational" % (x,))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def i_power(k):
    # i**k for any integer k
    return (ONE, I, -ONE, -I)[k % 4]


def _fmt_ratio(n, d):
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else "%d/%d" % (n, d)


def format_scalar(x):
    """Serialize as "a/b", "c/d*i" or "a/b+c/d*i" (denominator 1 omitted)."""
    x = gq(x)
    re_, im_, d = x._x, x._y, x._d
    if not im_:
        return _fmt_ratio(re_, d)
    imtxt = _fmt_ratio(im_, d) + "*i"
    if not re_:
        return imtxt
    if im_ > 0:
        return _fmt_ratio(re_, d) + "+" + imtxt
    return _fmt_ratio(re_, d) + imtxt


def parse_scalar(s):
    """Parse the serialization format; also accepts bare "i" / "-i".

    ValueError for anything else: a non-string, a string outside the format,
    or a zero denominator.
    """
    if not isinstance(s, str):
        raise ValueError("scalar must be a string such as \"1/2+3*i\", got %s"
                         % reprlib.repr(s))
    m = _SCALAR_RE.match(s)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError("bad scalar string: %r" % s)
    a, b = _ratio(m.group("re")) if m.group("re") is not None else (0, 1)
    c, e = 0, 1
    if m.group("im") is not None:
        t = "".join(m.group("im").split()).rstrip("*")
        if t in ("", "+"):
            c = 1
        elif t == "-":
            c = -1
        else:
            c, e = _ratio(t)
    if not b or not e:
        raise ValueError("zero denominator in scalar %r" % s)
    return _make(a * e, c * b, b * e)


def _ratio(t):
    # "n" or "n/d", n possibly signed, as the pair of ints (n, d)
    n, _, d = t.partition("/")
    return int(n), int(d) if d else 1


class MatrixGQ:
    """Dense matrix of GaussianRational entries, immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        # cols only matters for empty matrices, where it cannot be inferred
        entries = tuple(tuple(e if type(e) is GaussianRational else gq(e) for e in row)
                        for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else (cols or 0)
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("MatrixGQ is immutable")

    @staticmethod
    def zero(rows, cols):
        return MatrixGQ([[ZERO] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n):
        return MatrixGQ([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, MatrixGQ):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise AmbientMismatch("matrix shapes differ")
        return MatrixGQ(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = gq(c)
        return MatrixGQ([[c * e for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, MatrixGQ):
            if self.cols != other.rows:
                raise AmbientMismatch("inner dimensions differ")
            ot = other.transpose().entries
            return MatrixGQ(
                [[_dot(r, c) for c in ot] for r in self.entries]
            )
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def transpose(self):
        return MatrixGQ(list(zip(*self.entries))) if self.rows else MatrixGQ([])

    def conj(self):
        return MatrixGQ([[e.conj() for e in row] for row in self.entries])

    def conj_transpose(self):
        return self.transpose().conj()

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def is_real(self):
        return all(e.is_real() for row in self.entries for e in row)

    def matvec(self, v):
        # v a sequence of scalars, returns tuple M v
        assert len(v) == self.cols
        return tuple(_dot(row, v) for row in self.entries)

    def trace(self):
        assert self.rows == self.cols
        t = ZERO
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def flatten(self):
        return tuple(e for row in self.entries for e in row)

    def to_json(self):
        return [[format_scalar(e) for e in row] for row in self.entries]

    @staticmethod
    def from_json(rows):
        """The matrix of a JSON array of rows, each an array of scalar strings."""
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("a matrix must be an array of rows, each an array "
                             "of scalar strings; got %s" % reprlib.repr(rows))
        return MatrixGQ([[parse_scalar(e) for e in row] for row in rows])

    def __repr__(self):
        return "MatrixGQ(%r)" % (self.to_json(),)


def _dot(r, c):
    acc = ZERO
    for a, b in zip(r, c):
        if a.is_zero() or b.is_zero():
            continue
        acc = acc + a * b
    return acc


def rref(M):
    """Reduced row echelon form with zero rows dropped (row space canonical form)."""
    work = [list(row) for row in M.entries]
    nrows, ncols = len(work), M.cols
    pivots = []
    r = 0
    for c in range(ncols):
        # find a pivot in column c at or below row r
        piv = None
        for i in range(r, nrows):
            if not work[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c].inverse()
        if inv != ONE:
            work[r] = [e if e.is_zero() else inv * e for e in work[r]]
        for i in range(nrows):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [a if b.is_zero() else a - f * b
                           for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    kept = [row for row in work[:r]]
    return MatrixGQ(kept) if kept else MatrixGQ.zero(0, ncols)


def rank(M):
    return rref(M).rows


def solver(vectors):
    """Coordinates over a list of linearly independent vectors, reduced once.

    The rref of [vectors | I] is [R | E] with R = E * vectors.  The returned
    function maps v to the tuple c with v = sum c_i vectors_i, or to None
    when v lies outside their span: c = f E, where f holds v's entries at
    the pivot columns of R.  ValueError when the vectors are dependent.
    """
    t = len(vectors)
    if t == 0:
        return lambda v: () if all(e.is_zero() for e in v) else None
    width = len(vectors[0])
    R = rref(MatrixGQ([list(v) + [ONE if j == i else ZERO for j in range(t)]
                       for i, v in enumerate(vectors)]))
    # per row of R: its pivot, its other nonzero entries left of the bar,
    # and its nonzero entries right of it
    rows = []
    for row in R.entries:
        piv = next(j for j, e in enumerate(row) if not e.is_zero())
        if piv >= width:
            raise ValueError("vectors are linearly dependent")
        rows.append((piv,
                     [(j, e) for j, e in enumerate(row[piv + 1:width], piv + 1)
                      if not e.is_zero()],
                     [(j, e) for j, e in enumerate(row[width:]) if not e.is_zero()]))

    def coords(v):
        rest = list(v)
        c = [ZERO] * t
        for piv, left, right in rows:
            f = rest[piv]
            if f.is_zero():
                continue
            rest[piv] = ZERO
            for j, e in left:
                rest[j] = rest[j] - f * e
            for j, e in right:
                c[j] = c[j] + f * e
        if any(not e.is_zero() for e in rest):
            return None
        return tuple(c)

    return coords


def inverse(M):
    """M^-1, the rows of the coordinate function of M's rows at the unit
    vectors; ValueError when M is not square or is singular."""
    n = M.rows
    if M.cols != n:
        raise ValueError("matrix not square")
    try:
        coords = solver(M.entries)
    except ValueError:
        raise ValueError("matrix not invertible") from None
    return MatrixGQ([coords([ONE if j == i else ZERO for j in range(n)])
                     for i in range(n)], cols=n)


class Subspace:
    """A subspace of C^n, stored as an rref basis (rows).  Equality is structural."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis, already_canonical=False):
        if basis.cols != ambient_dim and basis.rows > 0:
            raise AmbientMismatch("basis width != ambient dim")
        if not already_canonical:
            basis = rref(basis)
        if basis.rows == 0:
            basis = MatrixGQ.zero(0, ambient_dim)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(ambient_dim, vectors):
        if not vectors:
            return Subspace.zero(ambient_dim)
        return Subspace(ambient_dim, MatrixGQ(vectors))

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, MatrixGQ.zero(0, ambient_dim), already_canonical=True)

    @staticmethod
    def full(ambient_dim):
        return Subspace(ambient_dim, MatrixGQ.identity(ambient_dim), already_canonical=True)

    @property
    def dim(self):
        return self.basis.rows

    def vectors(self):
        return list(self.basis.entries)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def contains_vector(self, v):
        red = _reduce_against(list(v), self.basis)
        return all(e.is_zero() for e in red)

    def contains(self, other):
        self._check(other)
        return all(self.contains_vector(v) for v in other.basis.entries)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def __repr__(self):
        return "Subspace(dim %d of C^%d)" % (self.dim, self.ambient_dim)

    def to_json(self):
        return self.basis.to_json()


def _reduce_against(v, B):
    # subtract multiples of the rref rows of B to kill pivot coordinates of v
    v = list(v)
    for row in B.entries:
        piv = next((j for j, e in enumerate(row) if not e.is_zero()), None)
        if piv is None:
            continue
        if not v[piv].is_zero():
            f = v[piv]  # row has pivot entry 1
            v = [a - f * b for a, b in zip(v, row)]
    return v


def ssum(A, B):
    A._check(B)
    stacked = list(A.basis.entries) + list(B.basis.entries)
    return Subspace.from_vectors(A.ambient_dim, stacked)


def intersect(A, B):
    """A cap B via the kernel of the stacked coefficient matrix."""
    A._check(B)
    ka, kb = A.dim, B.dim
    if ka == 0 or kb == 0:
        return Subspace.zero(A.ambient_dim)
    # the whole space meets B in B: no solve needed
    if ka == A.ambient_dim:
        return B
    if kb == A.ambient_dim:
        return A
    # rows (a | b) with a*basisA - b*basisB = 0
    stacked = MatrixGQ(
        [list(r) for r in A.basis.entries] + [[-e for e in r] for r in B.basis.entries]
    ).transpose()
    ker = kernel(stacked)  # coefficient vectors (a, b)
    vecs = []
    for coeff in ker.basis.entries:
        a = coeff[:ka]
        v = [ZERO] * A.ambient_dim
        for c, row in zip(a, A.basis.entries):
            if c.is_zero():
                continue
            v = [x + c * y for x, y in zip(v, row)]
        vecs.append(v)
    if not vecs:
        return Subspace.zero(A.ambient_dim)
    return Subspace.from_vectors(A.ambient_dim, vecs)


def kernel(M):
    """Right kernel {x : M x = 0} as a Subspace of C^cols."""
    R = rref(M)
    n = M.cols
    pivots = []
    for row in R.entries:
        piv = next(j for j, e in enumerate(row) if not e.is_zero())
        pivots.append(piv)
    free = [j for j in range(n) if j not in pivots]
    vecs = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for row, piv in zip(R.entries, pivots):
            v[piv] = -row[f]
        vecs.append(v)
    if not vecs:
        return Subspace.zero(n)
    return Subspace.from_vectors(n, vecs)


def image(M):
    """Column space of M, as a Subspace of C^rows."""
    return Subspace(M.rows, M.transpose())


def conj_space(X):
    if isinstance(X, MatrixGQ):
        return X.conj()
    return Subspace(X.ambient_dim, X.basis.conj())


def apply_matrix(M, A):
    """Image of subspace A under the linear map M (vectors as columns)."""
    if M.cols != A.ambient_dim:
        raise AmbientMismatch("matrix does not act on this ambient space")
    if A.dim == 0:
        return Subspace.zero(M.rows)
    vecs = [M.matvec(v) for v in A.basis.entries]
    return Subspace.from_vectors(M.rows, vecs)


def preimage(M, A):
    """{x : M x in A}, a Subspace of the domain."""
    if M.rows != A.ambient_dim:
        raise AmbientMismatch("target space mismatch")
    ann = annihilator(A)
    if ann.rows == 0:
        return Subspace.full(M.cols)
    return kernel(ann * M)


def annihilator(A):
    """Matrix whose kernel is exactly A (rows are linear constraints)."""
    if A.dim == 0:
        return MatrixGQ.identity(A.ambient_dim)
    # rows x with basis . x^T = 0, i.e. kernel of the basis matrix
    ker = kernel(A.basis)
    if ker.dim == 0:
        return MatrixGQ.zero(0, A.ambient_dim)
    return ker.basis


def complement_mod(S, U):
    """Canonical lift of S/(S cap U): rref of the basis of S reduced against U.

    U need not be contained in S.  The span of the returned subspace plus
    (S cap U) is S, and it meets U in 0.
    """
    S._check(U)
    vecs = []
    for v in S.basis.entries:
        red = _reduce_against(list(v), U.basis)
        if any(not e.is_zero() for e in red):
            vecs.append(red)
    if not vecs:
        return Subspace.zero(S.ambient_dim)
    # reduce within to drop dependents
    return Subspace.from_vectors(S.ambient_dim, vecs)


def nilpotent_powers(N):
    """(N^0, N^1, ..., N^deg) of a nilpotent N, one product per step.

    The tuple ends at the first zero power N^deg, with deg >= 1; NotNilpotent
    when N is not square or N^dim is not zero.
    """
    if N.rows != N.cols:
        raise NotNilpotent("not square")
    powers = [MatrixGQ.identity(N.rows), N]
    while not powers[-1].is_zero():
        if len(powers) > N.rows:
            raise NotNilpotent("N^dim != 0")
        powers.append(powers[-1] * N)
    return tuple(powers)


def nilpotent_kernels(powers):
    """(ker N^0, ..., ker N^deg) for powers = nilpotent_powers(N).

    The zero space, one kernel solve per power strictly between, and the
    whole space at the first zero power N^deg.
    """
    dim = powers[0].rows
    return ((Subspace.zero(dim),) + tuple(kernel(P) for P in powers[1:-1])
            + (Subspace.full(dim),))


def nilpotent_exp(N, z, powers=None):
    """exp(z N) for nilpotent N, as a finite exact sum.

    `powers` is nilpotent_powers(N), when the caller already has it.
    """
    if powers is None:
        powers = nilpotent_powers(N)
    z = gq(z)
    out = powers[0]
    coeff = ONE  # z^k / k!
    for k, P in enumerate(powers[1:-1], 1):
        coeff = coeff * z * GaussianRational(Fraction(1, k))
        out = out + P.scale(coeff)
    return out


def determinant(M):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
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
        det = det * work[c][c]
        inv = work[c][c].inverse()
        for i in range(c + 1, n):
            if work[i][c].is_zero():
                continue
            f = work[i][c] * inv
            work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det


def first_nonpositive_minor(H):
    """Index (1-based) of the first leading principal minor that is not a
    positive rational, or None if all are positive.

    One elimination without row swaps: while the minors before it are
    nonzero, the k-th leading minor is the product of the first k pivots, so
    it is positive after positive ones exactly when the k-th pivot is.
    """
    work = [list(row) for row in H.entries]
    n = H.rows
    for k in range(n):
        piv = work[k][k]
        if piv._y or piv._x <= 0:
            return k + 1
        inv = piv.inverse()
        for i in range(k + 1, n):
            if not work[i][k].is_zero():
                f = work[i][k] * inv
                work[i] = [a - f * b for a, b in zip(work[i], work[k])]
    return None


def hermitian_pd(H):
    """Sylvester test: all leading principal minors positive.  Raises
    NotHermitian when H is not equal to its conjugate transpose."""
    if H.rows != H.cols or H != H.conj_transpose():
        raise NotHermitian("matrix is not Hermitian")
    return first_nonpositive_minor(H) is None
