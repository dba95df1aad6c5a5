"""Exact linear algebra over the Gaussian rationals Q[i].

Everything downstream (filtrations, splittings, polarization checks) is built
on the three types here: GaussianRational scalars, MatrixGQ matrices and
Subspace (a row space held in reduced row echelon form, which makes subspace
equality a structural comparison).

A scalar is three ints (x, y, d) standing for (x + y*i)/d, kept in lowest
terms (d > 0, gcd(x, y, d) == 1): each operation is int arithmetic and one
gcd, and equal values have equal triples.

A matrix holds dense row tuples, but the data are sparse, so the kernels
(rref, products, matvec, subspace reduction and intersection) walk only the
nonzero entries of each row, and build no scalar for a partial result.  An
entry of a product, matvec or Gram matrix sums its terms as ints and is
reduced once.  A row that an elimination updates (in rref, a reduction, an
intersection or the minors of a Hermitian matrix) becomes an int row, a
dict from column to (x, y, d), each entry reduced by its own gcd, and is
turned back into scalars at the end.  Matrices the kernels build go through
a trusted private constructor; the public MatrixGQ constructor and from_json
check every entry.  rref keeps the pivot columns it finds, and a Subspace
holds them, so no row is scanned again for its pivot.

Meets and membership tests reduce against the rref basis a Subspace keeps,
and build no subspace they only test: contains, maps_into (M A inside B,
with no basis of M A) and intersect (the rows of the smaller space reduced
against the other, with one rref of the meet at the end, and none when the
meet is 0 or the smaller space itself).  A test against the whole space is
answered without a reduction or a product.  MatrixGQ.from_json parses each
distinct scalar string once per ScalarTable, which the matrices of one JSON
datum share (lmhs.LmhsDatum.from_json, the reader of the datum format).  A
basis already in rref that keeps its pivots becomes a Subspace through the
trusted private _canonical, with no rref: the shared zero and whole spaces
of each C^n, a conjugate (which has the same pivots) and the spans of unit
vectors that lmhs builds.
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
    r"(?:(?P<im>[+-]?(?:\d+(?:/\d+)?\s*\*\s*)?)i)?\s*$".format(f=_FRAC),
    _re.ASCII,
)


class Immutable:
    """Base of the value types: they set their fields through
    object.__setattr__ or the slots' member descriptors, and any plain
    assignment raises AttributeError naming the type."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class GaussianRational(Immutable):
    """A complex number (x + y*i)/d, held as three ints in lowest terms.

    d > 0 and gcd(x, y, d) == 1, so equal values have equal (x, y, d) and
    zero is (0, 0, 1).  The constructor takes the real and imaginary parts
    as ints or Fractions; `re` and `im` return them as Fractions.  A real
    value hashes as the int or Fraction it equals.
    """

    __slots__ = ("_x", "_y", "_d")

    def __new__(cls, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError("GaussianRational parts must be ints or Fractions, "
                            "got %r and %r" % (re, im))
        a, b = re.numerator, re.denominator
        c, e = im.numerator, im.denominator
        return _make(a * e, c * b, b * e)

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
        return hash(self.re if not self._y else (self.re, self.im))

    def __bool__(self):
        return bool(self._x or self._y)

    def __repr__(self):
        return "gq(%s)" % format_scalar(self)

    def __str__(self):
        return format_scalar(self)


# Results are built through the slots' member descriptors, which skip
# __new__ and its type checks and are not stopped by Immutable.__setattr__.
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


# Rows under elimination, and sums of products, are held as ints: a row as
# a sparse dict column -> (x, y, d), the entry (x + y i)/d in lowest terms,
# with its zero entries left out; a sum as one unreduced (x, y, d), reduced
# once by _make.

def _int_nonzeros(row, start=0):
    # the (column, x, y, d) of the nonzero entries of a scalar row from start on
    return [(j, e._x, e._y, e._d) for j, e in enumerate(row[start:], start)
            if e._x or e._y]


def _int_row(v):
    # the int row of a vector of scalars
    return {j: (e._x, e._y, e._d) for j, e in enumerate(v) if e._x or e._y}


def _scalar_row(r, n):
    # the int row r as a tuple of n scalars
    line = [ZERO] * n
    for j, (x, y, d) in r.items():
        line[j] = _raw(x, y, d)
    return tuple(line)


def _sub_row(r, fx, fy, fd, nz):
    # the int row r minus f = (fx + fy i)/fd times the row whose nonzero
    # entries are the (column, x, y, d) nz, in place: each entry reduced by
    # its own gcd, and dropped when it vanishes
    for j, bx, by, bd in nz:
        px, py, pd = fx * bx - fy * by, fx * by + fy * bx, fd * bd
        t = r.get(j)
        if t is None:
            x, y, d = -px, -py, pd
        else:
            ex, ey, e = t
            if e == pd:
                x, y, d = ex - px, ey - py, pd
            else:
                x, y, d = ex * pd - px * e, ey * pd - py * e, e * pd
            if not (x or y):
                del r[j]
                continue
        g = gcd(x, y, d)
        r[j] = (x // g, y // g, d // g) if g != 1 else (x, y, d)


def _add_products(acc, ax, ay, ad, nz):
    # acc[j] += a b for a = (ax + ay i)/ad and each (j, bx, by, bd) of nz,
    # where acc maps a column to its sum so far, an unreduced [x, y, d]
    for j, bx, by, bd in nz:
        px, py, pd = ax * bx - ay * by, ax * by + ay * bx, ad * bd
        t = acc.get(j)
        if t is None:
            acc[j] = [px, py, pd]
        elif t[2] == pd:
            t[0] += px
            t[1] += py
        else:
            d = t[2]
            t[0] = t[0] * pd + px * d
            t[1] = t[1] * pd + py * d
            t[2] = d * pd


def _scaled(nz, x, y, d):
    # the nonzero entries nz, each times (x + y i)/d and reduced
    out = []
    for j, bx, by, bd in nz:
        px, py, pd = x * bx - y * by, x * by + y * bx, d * bd
        g = gcd(px, py, pd)
        out.append((j, px // g, py // g, pd // g))
    return out


def _int_inverse(x, y, d):
    # 1/((x + y i)/d) = d (x - y i)/(x^2 + y^2), unreduced
    return d * x, -d * y, x * x + y * y


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


def unit_vector(dim, k):
    """e_k in C^dim, as a tuple."""
    return tuple(ONE if j == k else ZERO for j in range(dim))


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


def _json_rows(rows, scalars):
    # the scalars of a JSON array of rows, each an array of scalar strings,
    # parsed through the ScalarTable `scalars`
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("a matrix must be an array of rows, each an array "
                         "of scalar strings; got %s" % reprlib.repr(rows))
    return [[scalars[e] if type(e) is str else parse_scalar(e) for e in row]
            for row in rows]


class ScalarTable(dict):
    """parse_scalar of each string looked up, parsed on its first lookup."""

    __slots__ = ()

    def __missing__(self, s):
        x = self[s] = parse_scalar(s)
        return x


def _ratio(t):
    # "n" or "n/d", n possibly signed, as the pair of ints (n, d)
    n, _, d = t.partition("/")
    return int(n), int(d) if d else 1


class MatrixGQ(Immutable):
    """Matrix of GaussianRational entries, immutable.

    `entries` is a tuple of dense row tuples, so equality and hashing are
    structural.  The public constructor (and `from_json`) checks every entry
    and the shape.  The kernels below walk only nonzero entries and build
    their results through `_matrix`, which trusts its input and skips those
    checks.  A matrix that rref returns also keeps its pivot columns
    (private `_pivots`, None on a matrix not known to be in rref).
    """

    __slots__ = ("rows", "cols", "entries", "_pivots")

    def __init__(self, entries, cols=None):
        # cols only matters for empty matrices, where it cannot be inferred
        entries = tuple(tuple(e if type(e) is GaussianRational else gq(e) for e in row)
                        for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else (cols or 0)
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)
        _set_pivots(self, None)

    @staticmethod
    def zero(rows, cols):
        return _matrix(((ZERO,) * cols,) * rows, cols)

    @staticmethod
    def identity(n):
        return _matrix(tuple(unit_vector(n, i) for i in range(n)), n, tuple(range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, MatrixGQ):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise AmbientMismatch("matrix shapes differ")

    def __add__(self, other):
        self._check_shape(other)
        return _matrix(tuple(tuple(a + b if b._x or b._y else a for a, b in zip(r1, r2))
                             for r1, r2 in zip(self.entries, other.entries)), self.cols)

    def __sub__(self, other):
        self._check_shape(other)
        return _matrix(tuple(tuple(a - b if b._x or b._y else a for a, b in zip(r1, r2))
                             for r1, r2 in zip(self.entries, other.entries)), self.cols)

    def scale(self, c):
        c = gq(c)
        return _matrix(tuple(tuple(c * e if e._x or e._y else e for e in row)
                             for row in self.entries), self.cols)

    def __mul__(self, other):
        if not isinstance(other, MatrixGQ):
            return self.scale(other)
        if self.cols != other.rows:
            raise AmbientMismatch("inner dimensions differ")
        # each nonzero a = self[i][k] meets the nonzero (j, b) of other's row
        # k; entry j sums the products a b on ints, over the columns the row
        # touches only, and is reduced once
        cols = other.cols
        right = [_int_nonzeros(row) for row in other.entries]
        out = []
        for row in self.entries:
            acc = {}
            for k, a in enumerate(row):
                if a._x or a._y:
                    _add_products(acc, a._x, a._y, a._d, right[k])
            line = [ZERO] * cols
            for j, (x, y, d) in acc.items():
                if x or y:
                    line[j] = _make(x, y, d)
            out.append(tuple(line))
        return _matrix(tuple(out), cols)

    def __rmul__(self, c):
        return self.scale(c)

    def transpose(self):
        if not self.rows:
            return _matrix(((),) * self.cols, 0)
        return _matrix(tuple(zip(*self.entries)), self.rows)

    def conj(self):
        # conjugation keeps the zero pattern, so an rref stays rref with the
        # same pivots
        return _matrix(tuple(tuple(e.conj() if e._y else e for e in row)
                             for row in self.entries), self.cols, self._pivots)

    def conj_transpose(self):
        return self.transpose().conj()

    def is_zero(self):
        return not any(e._x or e._y for row in self.entries for e in row)

    def is_real(self):
        return not any(e._y for row in self.entries for e in row)

    def matvec(self, v):
        # v a sequence of scalars, returns tuple M v
        if len(v) != self.cols:
            raise AmbientMismatch("vector of length %d for %d columns" % (len(v), self.cols))
        nz = _int_nonzeros(v)
        out = []
        for row in self.entries:
            # the sum of the products as ints, reduced once
            x, y, d = 0, 0, 1
            for j, bx, by, bd in nz:
                a = row[j]
                if a._x or a._y:
                    ax, ay, ad = a._x, a._y, a._d
                    px, py, pd = ax * bx - ay * by, ax * by + ay * bx, ad * bd
                    if d == pd:
                        x += px
                        y += py
                    else:
                        x, y, d = x * pd + px * d, y * pd + py * d, d * pd
            out.append(_make(x, y, d) if x or y else ZERO)
        return tuple(out)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("matrix not square")
        t = ZERO
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def flatten(self):
        return tuple(e for row in self.entries for e in row)

    def to_json(self):
        return [[format_scalar(e) for e in row] for row in self.entries]

    @staticmethod
    def from_json(rows, scalars=None):
        """The matrix of a JSON array of rows, each an array of scalar strings.

        `scalars` (a ScalarTable) is shared by the matrices of one datum, so
        each distinct string is parsed once; any other entry goes to
        parse_scalar, which rejects it with its own message."""
        return MatrixGQ(_json_rows(rows, ScalarTable() if scalars is None else scalars))

    def __repr__(self):
        return "MatrixGQ(%r)" % (self.to_json(),)


_set_rows = MatrixGQ.rows.__set__
_set_cols = MatrixGQ.cols.__set__
_set_entries = MatrixGQ.entries.__set__
_set_pivots = MatrixGQ._pivots.__set__


def _matrix(entries, cols, pivots=None):
    # The trusted constructor: entries a tuple of row tuples of
    # GaussianRational, each of length cols, built by the kernels here.
    m = _new(MatrixGQ)
    _set_rows(m, len(entries))
    _set_cols(m, cols)
    _set_entries(m, entries)
    _set_pivots(m, pivots)
    return m


def rref(M):
    """Reduced row echelon form with zero rows dropped (row space canonical form).

    Pivots are taken on the rows of scalars.  A row that an elimination
    updates is held from then on as an int row, updated only at the nonzero
    columns of the pivot row, each entry reduced by its own gcd; only those
    rows are turned back into scalars at the end.
    """
    work = [list(row) for row in M.entries]
    nrows, ncols = len(work), M.cols
    pivots = []
    r = 0
    for c in range(ncols):
        # find a pivot in column c at or below row r
        for i in range(r, nrows):
            row = work[i]
            if type(row) is dict:
                if c in row:
                    break
            else:
                e = row[c]
                if e._x or e._y:
                    break
        else:
            continue
        prow = work[i]
        work[r], work[i] = prow, work[r]
        # the pivot row is zero left of c; scale it to a leading 1
        if type(prow) is dict:
            x, y, d = prow.pop(c)
            nz = [(j,) + t for j, t in prow.items()]
            if x != 1 or y or d != 1:
                nz = _scaled(nz, *_int_inverse(x, y, d))
                for j, x, y, d in nz:
                    prow[j] = x, y, d
            prow[c] = 1, 0, 1
        else:
            p = prow[c]
            nz = None
            if p._x != 1 or p._y or p._d != 1:
                inv = p.inverse()
                for j in range(c + 1, ncols):
                    e = prow[j]
                    if e._x or e._y:
                        prow[j] = inv * e
            prow[c] = ONE
        for i in range(nrows):
            row = work[i]
            if i == r:
                continue
            if type(row) is dict:
                f = row.pop(c, None)
                if f is None:
                    continue
            else:
                e = row[c]
                if not (e._x or e._y):
                    continue
                f = e._x, e._y, e._d
                row[c] = ZERO
                row = work[i] = _int_row(row)
            if nz is None:
                nz = _int_nonzeros(prow, c + 1)
            _sub_row(row, *f, nz)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return _matrix(tuple(_scalar_row(row, ncols) if type(row) is dict else tuple(row)
                         for row in work[:r]), ncols, tuple(pivots))


def rank(M):
    return rref(M).rows


def inverse(M):
    """M^-1, the right half of rref([M | I]); ValueError when M is not square,
    or singular: then a pivot of the rref falls in the I half."""
    n = M.rows
    if M.cols != n:
        raise ValueError("matrix not square")
    R = rref(_matrix(tuple(row + unit_vector(n, i) for i, row in enumerate(M.entries)), 2 * n))
    if any(c >= n for c in R._pivots):
        raise ValueError("matrix not invertible")
    return _matrix(tuple(row[n:] for row in R.entries), n)


class Subspace(Immutable):
    """A subspace of C^n, stored as an rref basis (rows).  Equality is structural.

    `pivots` holds the pivot column of each basis row.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __new__(cls, ambient_dim, basis):
        # the span of basis's rows, put in rref; _canonical skips the rref
        if basis.cols != ambient_dim:
            if basis.rows:
                raise AmbientMismatch("basis width %d != ambient dim %d"
                                      % (basis.cols, ambient_dim))
            basis = MatrixGQ.zero(0, ambient_dim)
        return _canonical(ambient_dim, rref(basis))

    @staticmethod
    def from_vectors(ambient_dim, vectors):
        if not vectors:
            return Subspace.zero(ambient_dim)
        return Subspace(ambient_dim, MatrixGQ(vectors))

    @staticmethod
    def zero(ambient_dim):
        S = _ZEROS.get(ambient_dim)
        if S is None:
            S = _ZEROS[ambient_dim] = _canonical(
                ambient_dim, _matrix((), ambient_dim, ()))
        return S

    @staticmethod
    def full(ambient_dim):
        S = _FULLS.get(ambient_dim)
        if S is None:
            S = _FULLS[ambient_dim] = _canonical(
                ambient_dim, MatrixGQ.identity(ambient_dim))
        return S

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def contains_vector(self, v):
        r = _reduce_against(v, self)
        return not (any(e._x or e._y for e in v) if r is None else r)

    def contains(self, other):
        """Each row of other's basis reduced against this rref basis; True at
        once for the whole space or other itself."""
        self._check(other)
        if other is self or self.dim == self.ambient_dim:
            return True
        return all(self.contains_vector(v) for v in other.basis.entries)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspaces live in different ambient spaces")

    def __repr__(self):
        return "Subspace(dim %d of C^%d)" % (self.dim, self.ambient_dim)

    def to_json(self):
        return self.basis.to_json()


# One zero and one whole space per ambient dim, made on first use: a
# Subspace is immutable, so every caller can share them.
_ZEROS = {}
_FULLS = {}


def _canonical(n, R):
    # the trusted Subspace constructor, with no rref: R is a basis of a
    # subspace of C^n already in rref, and keeps its pivots
    S = _new(Subspace)
    object.__setattr__(S, "ambient_dim", n)
    object.__setattr__(S, "basis", R)
    object.__setattr__(S, "pivots", R._pivots)
    return S


def _span(ambient_dim, vectors):
    # Subspace.from_vectors for vectors of GaussianRational built here
    if not vectors:
        return Subspace.zero(ambient_dim)
    return Subspace(ambient_dim, _matrix(tuple(map(tuple, vectors)), ambient_dim))


def _reduce_against(v, S):
    # v less the multiples of S's rref rows (pivot entry 1, zero before it)
    # that kill its entries at their pivots, as an int row; None when v is
    # zero at every pivot, and so is its own residue
    r = None
    for row, p in zip(S.basis.entries, S.pivots):
        if r is None:
            e = v[p]
            if not (e._x or e._y):
                continue
            r = _int_row(v)
        f = r.pop(p, None)
        if f is not None:
            nz = _int_nonzeros(row, p + 1)
            if nz:
                _sub_row(r, *f, nz)
    return r


def ssum(A, B):
    A._check(B)
    return _span(A.ambient_dim, A.basis.entries + B.basis.entries)


def intersect(A, B):
    """A cap B, by reducing the rref rows of the smaller space against the other.

    Each row a of A reduces against B's rref basis to a residue r, and r - a
    lies in B.  The residues are eliminated against each other in turn, each
    elimination applied to the carried a as well: a carried a whose residue
    vanishes lies in B.  Those carried vectors span A cap B, because the
    residues that keep a pivot are independent, and they are put in rref
    once.  When no residue keeps a pivot, A lies in B and A is returned;
    when every residue does, the meet is 0 and no rref is needed.
    """
    A._check(B)
    if A.dim > B.dim:
        A, B = B, A
    n = A.ambient_dim
    if A.dim == 0:
        return A
    # the whole space meets A in A
    if B.dim == n:
        return A
    # per residue that keeps a pivot: its pivot column, and the nonzero
    # entries of the residue (1 at the pivot) and of its carried vector
    kept = []
    vecs = []
    for a in A.basis.entries:
        r = _reduce_against(a, B)
        a = _int_row(a)
        if r is None:
            r = dict(a)
        for p, rnz, anz in kept:
            f = r.pop(p, None)
            if f is not None:
                _sub_row(r, *f, rnz)
                _sub_row(a, *f, anz)
        if not r:
            vecs.append(_scalar_row(a, n))
            continue
        (p, (x, y, d)), *rnz = sorted(r.items())
        rnz = [(j,) + t for j, t in rnz]
        anz = [(j,) + t for j, t in a.items()]
        if x != 1 or y or d != 1:
            inv = _int_inverse(x, y, d)
            rnz = _scaled(rnz, *inv)
            anz = _scaled(anz, *inv)
        kept.append((p, rnz, anz))
    if not kept:
        return A
    return _span(n, vecs)


def kernel(M):
    """Right kernel {x : M x = 0} as a Subspace of C^cols."""
    R = rref(M)
    n = M.cols
    pivots = R._pivots
    free = [j for j in range(n) if j not in pivots]
    vecs = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for row, piv in zip(R.entries, pivots):
            e = row[f]
            if e._x or e._y:
                v[piv] = -e
        vecs.append(v)
    return _span(n, vecs)


def image(M):
    """Column space of M, as a Subspace of C^rows."""
    return Subspace(M.rows, M.transpose())


def conj_space(X):
    """The conjugate of a Subspace: the conjugate of an rref basis is in rref
    with the same pivots, and a real basis is its own."""
    if X.basis.is_real():
        return X
    return _canonical(X.ambient_dim, X.basis.conj())


def apply_matrix(M, A):
    """Image of subspace A under the linear map M (vectors as columns)."""
    if M.cols != A.ambient_dim:
        raise AmbientMismatch("matrix does not act on this ambient space")
    return _span(M.rows, [M.matvec(v) for v in A.basis.entries])


def maps_into(M, A, B):
    """Whether M A lies in B: each M v, for v in A's basis, reduced against B.

    No basis of M A is formed, and no product at all when B is the whole
    space, as F^0 = V is in the test N F^1 inside F^0."""
    if M.cols != A.ambient_dim or M.rows != B.ambient_dim:
        raise AmbientMismatch("matrix does not map A's ambient space to B's")
    if B.dim == B.ambient_dim:
        return True
    return all(B.contains_vector(M.matvec(v)) for v in A.basis.entries)


def nilpotent_powers(N):
    """(N^0, N^1, ..., N^deg) of a nilpotent N, through one rank factorization.

    The tuple ends at the first zero power N^deg, with deg >= 1; NotNilpotent
    when N is not square or N^dim is not zero.  With R = rref(N), of r = rank N
    rows, and C the columns of N at R's pivots, N = C R.  So with T_k = R N^k
    = T_{k-1} N, an r x dim matrix, N^{k+1} = C T_k: two products of about
    r dim^2 operations per power, not one of dim^3.  C has full column rank,
    so N^{k+1} = 0 exactly when T_k = 0, and the last, zero power takes no
    product.
    """
    if N.rows != N.cols:
        raise NotNilpotent("not square")
    dim = N.rows
    R = rref(N)
    powers = [MatrixGQ.identity(dim), N]
    if not R.rows:
        return tuple(powers)
    C = _matrix(tuple(tuple(row[j] for j in R._pivots) for row in N.entries), R.rows)
    T = R * N
    while True:
        if len(powers) > dim:
            raise NotNilpotent("N^dim != 0")
        if T.is_zero():
            return tuple(powers) + (MatrixGQ.zero(dim, dim),)
        powers.append(C * T)
        T = T * N


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


def first_nonpositive_minor(H):
    """Index (1-based) of the first leading principal minor that is not a
    positive rational, or None if all are positive.

    One elimination without row swaps, on int rows: while the minors before
    it are nonzero, the k-th leading minor is the product of the first k
    pivots, so it is positive after positive ones exactly when the k-th
    pivot is.
    """
    work = [_int_row(row) for row in H.entries]
    for k, row in enumerate(work):
        x, y, d = row.get(k, (0, 0, 1))
        if y or x <= 0:
            return k + 1
        # clear column k below row k: subtract f times row k over its pivot
        nz = _scaled([(j,) + t for j, t in row.items() if j != k], *_int_inverse(x, y, d))
        for below in work[k + 1:]:
            f = below.pop(k, None)
            if f is not None:
                _sub_row(below, *f, nz)
    return None


def hermitian_pd(H):
    """Sylvester test: all leading principal minors positive.  Raises
    NotHermitian when H is not equal to its conjugate transpose."""
    if H.rows != H.cols or H != H.conj_transpose():
        raise NotHermitian("matrix is not Hermitian")
    return first_nonpositive_minor(H) is None
