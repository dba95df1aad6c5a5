"""Root systems, grading elements, and real-orbit root counts.

Everything is done in simple-root coordinates, where roots, Cartan
integers and the named involutions are integral (Humphreys, Introduction
to Lie Algebras and Representation Theory, sections 9-11).  So the positive
roots are generated by int simple reflections that raise the height, the
negatives are their negations, the compact and split involutions (sigma =
-I and I) are read off the sorted root order, and the others are checked
on int matrices.  The simple roots in orthogonal coordinates are kept
doubled, as int vectors, whose int Gram matrix gives the Cartan matrix and
the squared lengths.  A grading element keeps its values as Fractions and,
scaled once to ints over a common denominator (1, with no lcm, for int
values), evaluates on roots and weights in int arithmetic; on all roots at
once it sums the columns of the root table (`_levels`), as a checked
involution does (`InvolutionDatum`).
Conventions fixed here once and for all:
  G2: alpha1 short, alpha2 long, highest root 3a1+2a2
  F4: alpha1, alpha2 long, alpha3, alpha4 short (Bourbaki)
"""

import math
import reprlib
from fractions import Fraction

from .gq import Immutable


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


def _doubled_simples(type_letter, rank):
    """The simple roots in orthogonal coordinates, doubled: int vectors
    (this clears F4's halves)."""
    def e(i, m, c=2):
        return tuple(c if j == i else 0 for j in range(m))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))
    if type_letter == "A":
        if rank < 1:
            raise UnsupportedType("A needs rank >= 1")
        m = rank + 1
        return [sub(e(i, m), e(i + 1, m)) for i in range(rank)]
    if type_letter in ("B", "C", "D"):
        least = 2 if type_letter == "D" else 1
        if rank < least:
            raise UnsupportedType("%s needs rank >= %d" % (type_letter, least))
        out = [sub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        if type_letter == "B":
            out.append(e(rank - 1, rank))
        elif type_letter == "C":
            out.append(e(rank - 1, rank, 4))
        else:
            out.append(tuple(a + b for a, b in zip(e(rank - 2, rank), e(rank - 1, rank))))
        return out
    if type_letter == "G":
        if rank != 2:
            raise UnsupportedType("G has rank 2")
        return [(2, -2, 0), (-4, 2, 2)]
    if type_letter == "F":
        if rank != 4:
            raise UnsupportedType("F has rank 4")
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    raise UnsupportedType("unknown type %r" % type_letter)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class RootSystem(Immutable):
    """A root system in simple-root coordinates.

    `simple_roots` and `all_roots` are int tuples, `all_roots` sorted (so
    negation reverses its order); `_columns` is all_roots transposed, one
    tuple per simple root, which `_levels` and InvolutionDatum sum on;
    `_doubled` holds the simple roots in orthogonal coordinates doubled, as
    int vectors; `_gram` is the Gram matrix of the simple roots scaled to
    ints, `_index` maps each root to its all_roots position, and
    `_level_cache` keeps alpha(L) for every root by L._scaled (see
    `_levels`).
    """

    __slots__ = ("type_letter", "rank", "simple_roots", "all_roots",
                 "cartan_matrix", "_doubled", "_gram", "_columns", "_index",
                 "_level_cache")

    def __init__(self, type_letter, rank, simple_roots, all_roots,
                 cartan_matrix, doubled, gram):
        for k, v in (("type_letter", type_letter), ("rank", rank),
                     ("simple_roots", simple_roots), ("all_roots", all_roots),
                     ("cartan_matrix", cartan_matrix),
                     ("_doubled", doubled), ("_gram", gram),
                     ("_columns", tuple(zip(*all_roots))),
                     ("_index", {a: i for i, a in enumerate(all_roots)}),
                     ("_level_cache", {})):
            object.__setattr__(self, k, v)

    def orthogonal(self, coords):
        """Orthogonal-coordinate realization of a simple-root coordinate
        vector, as Fractions: the doubled simple roots summed, halved."""
        return tuple(Fraction(sum(c * x for c, x in zip(coords, col)), 2)
                     for col in zip(*self._doubled))

    def _form(self, u, v):
        """The scaled Gram form u G v (an int on int vectors)."""
        return sum(x * g * y for x, row in zip(u, self._gram) if x
                   for g, y in zip(row, v))

    def short_roots(self):
        lengths = [self._form(a, a) for a in self.all_roots]
        m = min(lengths)
        return [a for a, n in zip(self.all_roots, lengths) if n == m]


def build_root_system(type_letter, rank):
    """The roots, searched over the positive ones only (Humphreys 10.2): for
    a positive root a with c = <a, alpha_j^vee> < 0, s_j(a) = a - c alpha_j
    is a positive root of greater height, and every positive root is reached
    so from a simple one.  The negatives, the positives negated, sort before
    them in reverse order."""
    if type_letter not in _ROOT_COUNTS:
        raise UnsupportedType("unknown type %r" % (type_letter,))
    if type(rank) is not int:
        raise UnsupportedType("rank must be an integer, got %r" % (rank,))
    twice = _doubled_simples(type_letter, rank)
    # the Gram matrix g of the doubled simple roots is 4 times theirs
    g = [[_dot(u, v) for v in twice] for u in twice]
    # C[i][j] = <alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j),
    # an integer, so the int division is exact
    cartan = tuple(tuple(2 * g[i][j] // g[j][j] for j in range(rank))
                   for i in range(rank))
    # each root is kept with its pairings, and those of s_j(a) are those of a
    # minus c times row j of C
    simples = tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))
    positive = dict(zip(simples, cartan))
    frontier = list(positive.items())
    while frontier:
        nxt = []
        for a, pairings in frontier:
            for j, c in enumerate(pairings):
                if c < 0:
                    b = a[:j] + (a[j] - c,) + a[j + 1:]
                    if b not in positive:
                        positive[b] = pb = tuple(x - c * y for x, y in zip(pairings, cartan[j]))
                        nxt.append((b, pb))
        frontier = nxt
    expected = _ROOT_COUNTS[type_letter](rank)
    if 2 * len(positive) != expected:
        raise AssertionError("root count %d != %d" % (2 * len(positive), expected))
    positive = sorted(positive)
    all_roots = tuple(tuple(-x for x in a) for a in reversed(positive)) + tuple(positive)
    # the least int multiple of the Gram matrix: g / 4 scaled by 4 / gcd(4, g)
    k = math.gcd(4, *(x for row in g for x in row))
    int_gram = tuple(tuple(x // k for x in row) for row in g)
    return RootSystem(type_letter, rank, simples, all_roots, cartan, tuple(twice), int_gram)


class GradingElement(Immutable):
    """Functional on the Cartan, stored by its values on the simple roots.

    `values` are Fractions; `_scaled` is (ints, d) with values = ints / d and
    d the least common denominator, which the evaluations sum on."""

    __slots__ = ("values", "_scaled")

    def __init__(self, values):
        if type(values) in (list, tuple) and all(type(v) is int for v in values):
            # ints (a bool's type is bool), as every sweep grading is: d = 1
            scaled = (tuple(values), 1)
            values = tuple(map(Fraction, values))
        else:
            values = _rationals(values)
            d = math.lcm(*(v.denominator for v in values))
            scaled = (tuple(v.numerator * (d // v.denominator) for v in values), d)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_scaled", scaled)

    def __call__(self, coords):
        ints, d = self._scaled
        return Fraction(sum(c * v for c, v in zip(coords, ints)), d)

    def __eq__(self, other):
        if not isinstance(other, GradingElement):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        return "GradingElement(%s)" % (self.values,)


def _rationals(values):
    """values as a tuple of Fractions: a list or tuple of ints, Fractions or
    strings such as "1/2".  A bare string would be read digit by digit, and
    bools and floats are not exact rationals."""
    if isinstance(values, (list, tuple)) and \
            not any(isinstance(v, (bool, float)) for v in values):
        try:
            return tuple(Fraction(v) for v in values)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise ValueError('grading element must be a list of rationals (integers, or '
                     'strings such as "1/2"), got %s' % reprlib.repr(values))


def _levels(rs, L):
    """alpha(L) for every root of rs, in all_roots order, as a tuple of ints:
    the sum of v_j times column j of the roots (rs._columns) over the
    nonzero scaled values v_j of L, divided by their denominator d.

    Kept on rs by L._scaled, so each (root system, grading) is done once."""
    lev = rs._level_cache.get(L._scaled)
    if lev is not None:
        return lev
    if len(L.values) != rs.rank:
        raise ValueError("grading element on %s%d needs %d values, got %d"
                         % (rs.type_letter, rs.rank, rs.rank, len(L.values)))
    scaled, d = L._scaled
    out = _combine(scaled, rs._columns, len(rs.all_roots))
    if d != 1:
        for a, x in zip(rs.all_roots, out):
            if x % d:
                raise NonIntegralGrading("alpha(L) not an integer on %s" % (a,))
        out = [x // d for x in out]
    lev = rs._level_cache[L._scaled] = tuple(out)
    return lev


def _combine(coeffs, columns, n):
    """sum_j coeffs[j] columns[j], a list of length n: one update per nonzero
    coefficient."""
    out = [0] * n
    for v, col in zip(coeffs, columns):
        if v:
            out = [x + v * y for x, y in zip(out, col)]
    return out


# The small representations of the catalog: the short roots of the group,
# each once, and the zero weight with the multiplicity given; and the dimension.
_REPS = {"g2-7": ("G2", "a", 1, 7), "f4-26": ("F4", "an", 2, 26)}


def rep_weights(rs, name):
    """The (weight, multiplicity) pairs of a small representation of the catalog."""
    if name not in _REPS:
        raise UnsupportedType("unknown representation %r" % name)
    group, article, zero, dim = _REPS[name]
    if "%s%d" % (rs.type_letter, rs.rank) != group:
        raise UnsupportedType("%s needs %s %s root system" % (name, article, group))
    ws = [(a, 1) for a in rs.short_roots()] + [((0,) * rs.rank, zero)]
    total = sum(m for _, m in ws)
    if total != dim:
        raise AssertionError("%s has %d weights" % (name, total))
    return ws


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
    """Node dims on a representation given by its (weight, multiplicity)
    pairs; weight lam sits at (lam(Y) - lam(L) + n/2, lam(L) + n/2).

    Y = None is Y = 0, which puts lam at (n - q, q).  Both coordinates are
    summed as ints over the denominator den = 2 dL dY."""
    (ls, dl), (ys, dy) = L._scaled, Y._scaled if Y is not None else ((), 1)
    den, shift = 2 * dl * dy, n * dl * dy
    dims = {}
    for w, m in weights:
        lw = 2 * dy * sum(c * v for c, v in zip(w, ls))
        q = lw + shift
        p = 2 * dl * sum(c * v for c, v in zip(w, ys)) - lw + shift
        if q % den or p % den:
            raise HalfIntegralityViolation(
                "weight lands at non-integral (p, q) = (%s, %s)"
                % (Fraction(p, den), Fraction(q, den)))
        key = (p // den, q // den)
        dims[key] = dims.get(key, 0) + m
    return dims


def characteristic_vector(rs, Y):
    """Values (alpha_1(Y), ..., alpha_r(Y)) after moving Y to the dominant chamber
    by simple reflections, each raising Y in its finite W-orbit; entries in {0, 1, 2}."""
    ints, d = Y._scaled
    if d != 1:
        raise NotNormalizable("Y not integral on simple roots")
    vals = list(ints)
    C = rs.cartan_matrix
    while True:
        j = next((k for k, v in enumerate(vals) if v < 0), None)
        if j is None:
            break
        # reflect: alpha_i(s_j Y) = alpha_i(Y) - <alpha_i, alpha_j^vee> alpha_j(Y)
        vj = vals[j]
        vals = [vals[i] - C[i][j] * vj for i in range(rs.rank)]
    for v in vals:
        if v not in (0, 1, 2):
            raise EntryOutOfRange("characteristic vector entry %d" % v)
    return tuple(vals)


class InvolutionDatum(Immutable):
    """Conjugation sigma acting on root coordinates.

    sigma permutes the roots of rs; `_conj[i]` is the all_roots index of
    conj(alpha_i) and `_imag[i]` says whether alpha_i is imaginary
    (conj alpha = -alpha).  On the roots of a Cartan subalgebra stable under
    the Cartan involution, that involution is -sigma (Wolf 1969), so sigma
    alone gives the real form.  The constructor checks sigma^2 = I and that
    sigma permutes the roots; `_involution` builds -I and I unchecked.
    """

    __slots__ = ("_conj", "_imag")

    def __init__(self, sigma, rs):
        # sigma is taken as it is: an int matrix, or any exact one, whose
        # column with a non-integer entry sends its simple root (a unit
        # vector) to a vector that is not a root
        r = range(len(sigma))
        if any(len(row) != len(sigma) for row in sigma) or \
                any(sum(sigma[i][k] * sigma[k][j] for k in r) != (i == j) for i in r for j in r):
            raise InconsistentInvolutions("sigma is not an involution")
        # coordinate i of sigma a, for every root a at once: row i of sigma
        # applied to the columns of the roots
        n, index = len(rs.all_roots), rs._index
        images = zip(*(_combine(row, rs._columns, n) for row in sigma))
        try:
            conj = tuple(index[sa] for sa in images)
        except KeyError:
            raise InconsistentInvolutions("involution does not permute roots") from None
        # all_roots is sorted and closed under negation, so -alpha_i is
        # alpha_{n-1-i}
        object.__setattr__(self, "_conj", conj)
        object.__setattr__(self, "_imag", tuple(j == n - 1 - i for i, j in enumerate(conj)))


def reflection_matrix(rs, beta):
    """Matrix of s_beta on simple-root coordinates (columns = s_beta(alpha_j)),
    an int matrix for a root beta."""
    cols = []
    for j in range(rs.rank):
        a = rs.simple_roots[j]
        # the Cartan integer <a, beta^vee>, so the int division is exact
        c = 2 * rs._form(a, beta) // rs._form(beta, beta)
        cols.append(tuple(a[i] - c * beta[i] for i in range(rs.rank)))
    return tuple(tuple(cols[j][i] for j in range(rs.rank)) for i in range(rs.rank))


def _involution(conj, imag):
    # the trusted InvolutionDatum constructor: conj and imag, unchecked
    inv = object.__new__(InvolutionDatum)
    object.__setattr__(inv, "_conj", conj)
    object.__setattr__(inv, "_imag", imag)
    return inv


def compact_involution(rs):
    """Compact Cartan subalgebra, sigma = -I: -alpha_i = alpha_{n-1-i}, imaginary."""
    n = len(rs.all_roots)
    return _involution(tuple(range(n - 1, -1, -1)), (True,) * n)


def split_involution(rs):
    """Split form with a maximally split Cartan, sigma = I: all roots real."""
    n = len(rs.all_roots)
    return _involution(tuple(range(n)), (False,) * n)


def cayley_involution(rs, beta):
    """Cartan obtained from a compact one by a Cayley transform in the root beta."""
    beta = tuple(beta)
    if len(beta) != rs.rank:
        raise UnsupportedType("cayley root %s on %s%d needs %d coordinates, got %d"
                              % (beta, rs.type_letter, rs.rank, rs.rank, len(beta)))
    if beta not in rs._index:
        raise UnsupportedType("cayley root %s is not a root of %s%d"
                              % (beta, rs.type_letter, rs.rank))
    S = reflection_matrix(rs, beta)
    return InvolutionDatum(tuple(tuple(-x for x in row) for row in S), rs)


def named_involution(rs, name):
    if name == "compact":
        return compact_involution(rs)
    if name == "split":
        return split_involution(rs)
    if isinstance(name, str) and name.startswith("cayley:"):
        text = name.split(":", 1)[1]
        try:
            beta = tuple(int(x) for x in text.split(","))
        except ValueError:
            raise UnsupportedType("cayley root %r is not a list of integers"
                                  % text) from None
        return cayley_involution(rs, beta)
    raise UnsupportedType("unknown involution %r" % (name,))


def orbit_dims(rs, L, inv):
    """Real and K_R orbit dimensions through a flag with grading element L.

    dim_R = |Delta(O)|, the roots alpha with alpha(L) > 0 or conj-alpha(L) > 0;
    dim_KR counts the directions of k (fixed by the Cartan involution,
    -sigma on the roots) modulo the parabolic; imaginary roots are compact
    exactly when alpha(L) is even.
    """
    lev = _levels(rs, L)
    dim_C = dim_R = dim_KR = half_count = 0
    for x, j, imaginary in zip(lev, inv._conj, inv._imag):
        y = lev[j]
        if x > 0:
            dim_C += 1
        if x > 0 or y > 0:
            dim_R += 1
        if imaginary:
            if x % 2 == 0 and x > 0:
                dim_KR += 1
        elif not (x <= 0 and y >= 0):
            # the pair {a, -conj a} enters k; it survives modulo p unless
            # both members lie in p, i.e. alpha(L) <= 0 and conj-alpha(L) >= 0
            half_count += 1
    dim_KR += half_count // 2  # a and -conj a != a are both counted, or neither
    return {"dim_R_orbit": dim_R, "dim_KR_orbit": dim_KR, "dim_C_dual": dim_C}


def closed_orbit_criterion(rs, L, inv):
    """Closed iff every root in Delta(-,+) is imaginary and compact.

    Imaginary means fixed by the Cartan involution -sigma; compact means
    alpha(L) even (the Cartan involution acts on the root space by
    (-1)^{alpha(L)}).
    """
    lev = _levels(rs, L)
    return all(imaginary and x % 2 == 0
               for x, j, imaginary in zip(lev, inv._conj, inv._imag)
               if x < 0 and lev[j] > 0)
