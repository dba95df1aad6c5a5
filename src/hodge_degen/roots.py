"""Root systems, grading elements, and real-orbit root counts.

Everything is done in simple-root coordinates with exact rational
arithmetic.  Conventions fixed here once and for all:
  G2: alpha1 short, alpha2 long, highest root 3a1+2a2
  F4: alpha1, alpha2 long, alpha3, alpha4 short (Bourbaki)
"""

import math
from fractions import Fraction


class UnsupportedType(ValueError):
    pass


class NonIntegralGrading(ValueError):
    pass


class HalfIntegralityViolation(ValueError):
    pass


class NotNormalizable(ValueError):
    pass


class EntryOutOfRange(ValueError):
    pass


class InconsistentInvolutions(ValueError):
    pass


_ROOT_COUNTS = {"A": lambda r: r * (r + 1), "B": lambda r: 2 * r * r,
                "C": lambda r: 2 * r * r, "D": lambda r: 2 * r * (r - 1),
                "G": lambda r: 12, "F": lambda r: 48}


def _orthogonal_simples(type_letter, rank):
    F = Fraction
    e = lambda i, m: tuple(F(1) if j == i else F(0) for j in range(m))
    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))
    if type_letter == "A":
        m = rank + 1
        return [sub(e(i, m), e(i + 1, m)) for i in range(rank)]
    if type_letter == "B":
        if rank < 1:
            raise UnsupportedType("B needs rank >= 1")
        out = [sub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(e(rank - 1, rank))
        return out
    if type_letter == "C":
        if rank < 1:
            raise UnsupportedType("C needs rank >= 1")
        out = [sub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(tuple(2 * x for x in e(rank - 1, rank)))
        return out
    if type_letter == "D":
        if rank < 2:
            raise UnsupportedType("D needs rank >= 2")
        out = [sub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(tuple(a + b for a, b in zip(e(rank - 2, rank), e(rank - 1, rank))))
        return out
    if type_letter == "G":
        if rank != 2:
            raise UnsupportedType("G has rank 2")
        return [(F(1), F(-1), F(0)), (F(-2), F(1), F(1))]
    if type_letter == "F":
        if rank != 4:
            raise UnsupportedType("F has rank 4")
        return [(F(0), F(1), F(-1), F(0)), (F(0), F(0), F(1), F(-1)),
                (F(0), F(0), F(0), F(1)),
                (F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2))]
    raise UnsupportedType("unknown type %r" % type_letter)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class RootSystem:
    __slots__ = ("type_letter", "rank", "simple_roots", "all_roots",
                 "cartan_matrix", "fundamental_weights", "_orth",
                 "_int_roots")

    def __init__(self, type_letter, rank, simple_roots, all_roots,
                 cartan_matrix, fundamental_weights, orth, int_roots):
        for k, v in (("type_letter", type_letter), ("rank", rank),
                     ("simple_roots", simple_roots), ("all_roots", all_roots),
                     ("cartan_matrix", cartan_matrix),
                     ("fundamental_weights", fundamental_weights),
                     ("_orth", orth), ("_int_roots", int_roots)):
            object.__setattr__(self, k, v)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def orthogonal(self, coords):
        """Orthogonal-coordinate realization of a simple-root coordinate vector."""
        m = len(self._orth[0])
        out = [Fraction(0)] * m
        for c, root in zip(coords, self._orth):
            for i, x in enumerate(root):
                out[i] += c * x
        return tuple(out)

    def square_length(self, coords):
        v = self.orthogonal(coords)
        return _dot(v, v)

    def pairing_with_coroot_of(self, coords, beta):
        b = self.orthogonal(beta)
        v = self.orthogonal(coords)
        return 2 * _dot(v, b) / _dot(b, b)

    def positive_roots(self):
        return [a for a in self.all_roots if _is_positive(a)]

    def short_roots(self):
        m = min(self.square_length(a) for a in self.all_roots)
        return [a for a in self.all_roots if self.square_length(a) == m]

    def highest_root(self):
        return max(self.positive_roots(), key=lambda a: (sum(a), a))


def _is_positive(coords):
    for c in coords:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


def build_root_system(type_letter, rank):
    if type_letter not in _ROOT_COUNTS:
        raise UnsupportedType("unknown type %r" % type_letter)
    orth = _orthogonal_simples(type_letter, rank)
    sq = [_dot(v, v) for v in orth]
    expected = _ROOT_COUNTS[type_letter](rank)

    def orthogonal_of(coords):
        m = len(orth[0])
        out = [Fraction(0)] * m
        for c, root in zip(coords, orth):
            for i, x in enumerate(root):
                out[i] += c * x
        return tuple(out)

    simples = [tuple(Fraction(1) if j == i else Fraction(0) for j in range(rank))
               for i in range(rank)]
    roots = set(simples)
    frontier = set(simples)
    while frontier:
        nxt = set()
        for a in frontier:
            v = orthogonal_of(a)
            for j in range(rank):
                c = 2 * _dot(v, orth[j]) / sq[j]
                b = tuple(x - (c if i == j else 0) for i, x in enumerate(a))
                if b not in roots:
                    roots.add(b)
                    nxt.add(b)
        frontier = nxt
    roots |= {tuple(-x for x in a) for a in roots}
    if len(roots) != expected:
        raise AssertionError("root count %d != %d" % (len(roots), expected))
    all_roots = tuple(sorted(roots))
    for a in all_roots:
        assert tuple(-x for x in a) in roots
    int_roots = tuple(tuple(int(x) for x in a) for a in all_roots)
    assert int_roots == all_roots
    cartan = tuple(tuple(int(2 * _dot(orthogonal_of(si), orth[j]) / sq[j])
                         for j in range(rank)) for si in simples)
    for i in range(rank):
        assert cartan[i][i] == 2
    # fundamental weights in simple-root coordinates: columns of (C^T)^{-1}
    inv = _rational_inverse([[Fraction(cartan[j][i]) for j in range(rank)]
                             for i in range(rank)])
    fws = tuple(tuple(inv[j][i] for j in range(rank)) for i in range(rank))
    return RootSystem(type_letter, rank, tuple(simples), all_roots,
                      cartan, fws, [tuple(v) for v in orth], int_roots)


def _rational_inverse(M):
    n = len(M)
    A = [list(row) + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        d = A[col][col]
        A[col] = [x / d for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


class GradingElement:
    """Functional on the Cartan, stored by its values on the simple roots."""

    __slots__ = ("values",)

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in values))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __call__(self, coords):
        return sum(c * v for c, v in zip(coords, self.values))

    def __eq__(self, other):
        if not isinstance(other, GradingElement):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return "GradingElement(%s)" % (self.values,)

    def check_integral(self, rs):
        _levels(rs, self)
        return self


def _levels(rs, L):
    """alpha(L) for every root of rs, in all_roots order, as ints."""
    d = math.lcm(*(v.denominator for v in L.values))
    scaled = [int(v * d) for v in L.values]
    out = []
    for a in rs._int_roots:
        x, r = divmod(sum(c * v for c, v in zip(a, scaled)), d)
        if r:
            raise NonIntegralGrading("alpha(L) not an integer on %s" % (a,))
        out.append(x)
    return out


class WeightMultiset:
    __slots__ = ("weights",)

    def __init__(self, weights):
        object.__setattr__(self, "weights",
                           tuple((tuple(Fraction(x) for x in w), int(m))
                                 for w, m in weights))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def total(self):
        return sum(m for _, m in self.weights)


def rep_weights(rs, name):
    """Weight multisets for the small representations used by the catalog."""
    if name == "g2-7":
        if (rs.type_letter, rs.rank) != ("G", 2):
            raise UnsupportedType("g2-7 needs a G2 root system")
        ws = [(a, 1) for a in rs.short_roots()]
        ws.append((tuple(Fraction(0) for _ in range(2)), 1))
        W = WeightMultiset(ws)
        assert W.total() == 7
        return W
    if name == "f4-26":
        if (rs.type_letter, rs.rank) != ("F", 4):
            raise UnsupportedType("f4-26 needs an F4 root system")
        ws = [(a, 1) for a in rs.short_roots()]
        ws.append((tuple(Fraction(0) for _ in range(4)), 2))
        W = WeightMultiset(ws)
        assert W.total() == 26
        return W
    raise UnsupportedType("unknown representation %r" % name)


def grading_from_sigma(rs, sigma_set):
    for i in sigma_set:
        if not (0 <= i < rs.rank):
            raise ValueError("bad simple index %r" % (i,))
    return GradingElement([0 if i in sigma_set else 1 for i in range(rs.rank)])


def sigma_from_grading(rs, L):
    for v in L.values:
        if v < 0:
            raise ValueError("grading element must be nonnegative on simples")
    return {i for i, v in enumerate(L.values) if v == 0}


def l_decomposition(rs, L):
    out = {0: rs.rank}
    for lev in _levels(rs, L):
        out[lev] = out.get(lev, 0) + 1
    return out


def compactness(rs, L):
    comp, noncomp = [], []
    for a, x in zip(rs.all_roots, _levels(rs, L)):
        (comp if x % 2 == 0 else noncomp).append(a)
    return {"compact": comp, "noncompact": noncomp}


def adjoint_bigrading(rs, L, Y):
    """Node dims {(p,q): dim} of g; root alpha sits at (alpha(Y)-alpha(L), alpha(L)).

    Y = None is the pure (undegenerate) case, where alpha sits at
    (-alpha(L), alpha(L)); the Cartan contributes rank at (0, 0).
    """
    qs = _levels(rs, L)
    ys = _levels(rs, Y) if Y is not None else [0] * len(qs)
    dims = {(0, 0): rs.rank}
    for q, y in zip(qs, ys):
        dims[(y - q, q)] = dims.get((y - q, q), 0) + 1
    return dims


def rep_bigrading(weights, L, Y, n):
    """Node dims on a representation; weight lam sits at
    (lam(Y) - lam(L) + n/2, lam(L) + n/2)."""
    shift = Fraction(n, 2)
    dims = {}
    for w, m in weights.weights:
        q = L(w) + shift
        p = (Y(w) - L(w) + shift) if Y is not None else (n - q)
        if q.denominator != 1 or p.denominator != 1:
            raise HalfIntegralityViolation(
                "weight lands at non-integral (p, q) = (%s, %s)" % (p, q))
        key = (int(p), int(q))
        dims[key] = dims.get(key, 0) + m
    return dims


def characteristic_vector(rs, Y):
    """Values (alpha_1(Y), ..., alpha_r(Y)) after moving Y to the dominant
    chamber by simple reflections; entries must land in {0, 1, 2}."""
    vals = list(Y.values)
    for v in vals:
        if Fraction(v).denominator != 1:
            raise NotNormalizable("Y not integral on simple roots")
    vals = [int(v) for v in vals]
    C = rs.cartan_matrix
    limit = 10 ** 6
    steps = 0
    while True:
        j = next((k for k, v in enumerate(vals) if v < 0), None)
        if j is None:
            break
        # reflect: alpha_i(s_j Y) = alpha_i(Y) - <alpha_i, alpha_j^vee> alpha_j(Y)
        vj = vals[j]
        vals = [vals[i] - C[i][j] * vj for i in range(rs.rank)]
        steps += 1
        if steps > limit:
            raise NotNormalizable("reflection descent did not terminate")
    for v in vals:
        if v not in (0, 1, 2):
            raise EntryOutOfRange("characteristic vector entry %d" % v)
    return tuple(vals)


def jm_parabolic(rs, Y):
    vec = characteristic_vector(rs, Y)
    sigma = {i for i, v in enumerate(vec) if v == 0}
    even = all(v % 2 == 0 for v in vec)
    return sigma, even


class InvolutionDatum:
    """Conjugation sigma and Cartan involution theta acting on root coordinates.

    Both permute the roots of rs; `_conj[i]` is the all_roots index of
    conj(alpha_i) and `_imag[i]` says whether alpha_i is imaginary
    (conj alpha = -alpha), which is whether theta fixes alpha_i, since
    theta(alpha) = -conj(alpha) is checked for every root.
    """

    __slots__ = ("sigma", "theta", "_conj", "_imag")

    def __init__(self, sigma, theta, rs):
        sigma = tuple(tuple(Fraction(x) for x in row) for row in sigma)
        theta = tuple(tuple(Fraction(x) for x in row) for row in theta)
        r = len(sigma)
        ident = tuple(tuple(Fraction(1) if j == i else Fraction(0)
                            for j in range(r)) for i in range(r))
        if _matmul(sigma, sigma) != ident or _matmul(theta, theta) != ident:
            raise InconsistentInvolutions("sigma or theta is not an involution")
        if _matmul(sigma, theta) != _matmul(theta, sigma):
            raise InconsistentInvolutions("sigma and theta do not commute")
        index = {a: i for i, a in enumerate(rs.all_roots)}
        conj, imag = [], []
        for a in rs.all_roots:
            sa = _matvec(sigma, a)
            ta = _matvec(theta, a)
            if sa not in index or ta not in index:
                raise InconsistentInvolutions("involution does not permute roots")
            if ta != tuple(-x for x in sa):
                raise InconsistentInvolutions("-alpha != theta(conj alpha)")
            conj.append(index[sa])
            imag.append(ta == a)
        for k, v in (("sigma", sigma), ("theta", theta),
                     ("_conj", tuple(conj)), ("_imag", tuple(imag))):
            object.__setattr__(self, k, v)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def conj_root(self, a):
        return _matvec(self.sigma, a)

    def theta_root(self, a):
        return _matvec(self.theta, a)


def _matmul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(len(B)))
                       for j in range(len(B[0]))) for i in range(len(A)))


def _matvec(A, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in A)


def _identity(r):
    return [[1 if j == i else 0 for j in range(r)] for i in range(r)]


def _neg(M):
    return [[-x for x in row] for row in M]


def reflection_matrix(rs, beta):
    """Matrix of s_beta on simple-root coordinates (columns = s_beta(alpha_j))."""
    cols = []
    for j in range(rs.rank):
        a = rs.simple_roots[j]
        c = rs.pairing_with_coroot_of(a, beta)
        cols.append(tuple(a[i] - c * beta[i] for i in range(rs.rank)))
    return tuple(tuple(cols[j][i] for j in range(rs.rank)) for i in range(rs.rank))


def compact_involution(rs):
    """Compact Cartan subalgebra: all roots imaginary."""
    return InvolutionDatum(_neg(_identity(rs.rank)), _identity(rs.rank), rs)


def split_involution(rs):
    """Split form with a maximally split Cartan: all roots real."""
    return InvolutionDatum(_identity(rs.rank), _neg(_identity(rs.rank)), rs)


def cayley_involution(rs, beta):
    """Cartan obtained from a compact one by a Cayley transform in the root beta."""
    S = reflection_matrix(rs, beta)
    return InvolutionDatum(_neg(list(map(list, S))), S, rs)


def named_involution(rs, name):
    if name == "compact":
        return compact_involution(rs)
    if name == "split":
        return split_involution(rs)
    if name.startswith("cayley:"):
        beta = tuple(Fraction(x) for x in name.split(":", 1)[1].split(","))
        return cayley_involution(rs, beta)
    raise UnsupportedType("unknown involution %r" % name)


def orbit_dims(rs, L, inv):
    """Real and K_R orbit dimensions through a flag with grading element L.

    dim_R = |Delta(O)|; dim_KR counts theta-fixed directions of k modulo the
    parabolic; imaginary roots are compact exactly when alpha(L) is even.
    """
    lev = _levels(rs, L)
    sets = {"O": [], "le0le0": [], "ge0ge0x": [], "plus_minus": [], "minus_plus": []}
    dim_C = dim_KR = half_count = 0
    for a, x, j, imaginary in zip(rs.all_roots, lev, inv._conj, inv._imag):
        y = lev[j]
        if x > 0:
            dim_C += 1
        if x <= 0 and y <= 0:
            sets["le0le0"].append(a)
        else:
            sets["O"].append(a)
            if x >= 0 and y >= 0:
                sets["ge0ge0x"].append(a)
            elif x > 0 and y < 0:
                sets["plus_minus"].append(a)
            elif x < 0 and y > 0:
                sets["minus_plus"].append(a)
        if imaginary:
            if x % 2 == 0 and x > 0:
                dim_KR += 1
        elif not (x <= 0 and y >= 0):
            # theta-pair {a, theta a} enters k; it survives modulo p unless
            # both members lie in p, i.e. alpha(L) <= 0 and conj-alpha(L) >= 0
            half_count += 1
    assert half_count % 2 == 0
    dim_KR += half_count // 2
    return {"dim_R_orbit": len(sets["O"]), "dim_KR_orbit": dim_KR,
            "dim_C_dual": dim_C, "sets": sets}


def closed_orbit_criterion(rs, L, inv):
    """Closed iff every root in Delta(-,+) is imaginary and compact.

    Imaginary means theta-fixed; compact means alpha(L) even (the Cartan
    involution acts on the root space by (-1)^{alpha(L)}).
    """
    lev = _levels(rs, L)
    return all(imaginary and x % 2 == 0
               for x, j, imaginary in zip(lev, inv._conj, inv._imag)
               if x < 0 and lev[j] > 0)
