"""Polarized Hodge structures: validation, decomposition, N-string blocks and
the model structures built from them.

A weight n structure is a triple (V, Q, F) with Q a real (-1)^n-symmetric
nondegenerate form and F a decreasing filtration with F^0 = V.  The two
bilinear relations are checked exactly:
  HR1: Q(F^p, F^{n-p+1}) = 0 and F^p (+) conj F^{n-p+1} = V
  HR2: i^(p-q) Q(u, conj v) positive definite on V^{p,q}
"""

import reprlib
from fractions import Fraction

from .gq import (
    GaussianRational, Subspace, ZERO, ONE, I, i_power, unit_vector,
    intersect, conj_space, rank, hermitian_pd, first_nonpositive_minor, NotHermitian,
    Immutable, _make, _matrix, _span, _int_nonzeros, _add_products,
)


class InconsistentFiltration(ValueError):
    pass


class InadmissibleHodgeNumbers(ValueError):
    pass


class PolarizationForm(Immutable):
    """Weight n pairing Q on V, real entries, Q^T = (-1)^n Q, nondegenerate.

    `_rows` holds the nonzero entries of each row of Q as (column, x, y, d),
    read once: Q is immutable, and sparse on every datum the package
    builds."""

    __slots__ = ("n", "Q", "_rows")

    def __init__(self, n, Q):
        # an int, not a bool, float or Fraction: F is indexed by it and to_json writes it
        if type(n) is not int:
            raise ValueError("the weight must be an integer, got %s" % reprlib.repr(n))
        if n < 0:
            raise ValueError("negative weight")
        if not Q.is_real():
            raise ValueError("polarization must have real entries")
        sign = -1 if n % 2 else 1
        if Q.transpose() != Q.scale(sign):
            raise ValueError("Q parity does not match the weight")
        if rank(Q) != Q.rows:
            raise ValueError("Q is degenerate")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "_rows", tuple(_int_nonzeros(row) for row in Q.entries))

    def gram(self, us, vs, M=None):
        """The matrix [Q(u, M v)] over u in us and v in vs (M = I when None).

        Sparse on both sides: each u^T Q is formed once, over the nonzero
        entries of u and of Q's rows, and dotted with each M v over the
        nonzero entries of M v, each M v formed once.  The sums are taken
        on ints: u^T Q unreduced, and each entry of the result reduced
        once."""
        vnz = [_int_nonzeros(v if M is None else M.matvec(v)) for v in vs]
        rows = self._rows
        out = []
        for u in us:
            uQ = {}
            for i, a in enumerate(u):
                if a._x or a._y:
                    _add_products(uQ, a._x, a._y, a._d, rows[i])
            line = []
            for nz in vnz:
                x, y, d = 0, 0, 1
                for j, bx, by, bd in nz:
                    t = uQ.get(j)
                    if t is not None:
                        ax, ay, ad = t
                        px, py, pd = ax * bx - ay * by, ax * by + ay * bx, ad * bd
                        if d == pd:
                            x += px
                            y += py
                        else:
                            x, y, d = x * pd + px * d, y * pd + py * d, d * pd
                line.append(_make(x, y, d) if x or y else ZERO)
            out.append(tuple(line))
        return _matrix(tuple(out), len(vs))


class HodgeFiltration(Immutable):
    """Decreasing steps F^n <= ... <= F^0 = V."""

    __slots__ = ("n", "steps")

    def __init__(self, n, steps):
        # steps given as a list [F^0, F^1, ..., F^n]
        if len(steps) != n + 1:
            raise InconsistentFiltration("expected %d steps" % (n + 1))
        dim = steps[0].ambient_dim
        if steps[0] != Subspace.full(dim):
            raise InconsistentFiltration("F^0 must be the full space")
        for p in range(n):
            if not steps[p].contains(steps[p + 1]):
                raise InconsistentFiltration("F^%d does not contain F^%d" % (p, p + 1))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def ambient_dim(self):
        return self.steps[0].ambient_dim

    def step(self, p):
        """F^p with the usual conventions outside 0..n."""
        if p <= 0:
            return self.steps[0]
        if p > self.n:
            return Subspace.zero(self.ambient_dim)
        return self.steps[p]

    def f_vector(self):
        return tuple(self.steps[p].dim for p in range(self.n + 1))

    def __eq__(self, other):
        if not isinstance(other, HodgeFiltration):
            return NotImplemented
        return self.n == other.n and self.steps == other.steps


class HodgeDatum(Immutable):
    __slots__ = ("dim", "polarization", "filtration")

    def __init__(self, dim, polarization, filtration):
        if polarization.Q.rows != dim or filtration.ambient_dim != dim:
            raise InconsistentFiltration("dimension mismatch")
        if polarization.n != filtration.n:
            raise InconsistentFiltration("weights disagree")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "polarization", polarization)
        object.__setattr__(self, "filtration", filtration)

    @property
    def n(self):
        return self.polarization.n

    def to_json(self):
        return {
            "dim": self.dim,
            "weight": self.n,
            "Q": self.polarization.Q.to_json(),
            "F": {str(p): self.filtration.steps[p].to_json() for p in range(self.n + 1)},
        }


class HodgeNumbers(Immutable):
    __slots__ = ("n", "h")

    def __init__(self, n, h):
        # an int, not a bool, float or Fraction, which int() would truncate
        if type(n) is not int:
            raise InadmissibleHodgeNumbers("the weight must be an integer, got %s"
                                           % reprlib.repr(n))
        if n < 0:
            raise InadmissibleHodgeNumbers("the weight must be non-negative, got %d" % n)
        h = tuple(h)
        for k, x in enumerate(h):
            if type(x) is not int:
                raise InadmissibleHodgeNumbers("Hodge number %d must be an integer, got %s"
                                               % (k, reprlib.repr(x)))
        if len(h) != n + 1:
            raise InadmissibleHodgeNumbers("expected %d entries" % (n + 1))
        if any(x < 0 for x in h):
            raise InadmissibleHodgeNumbers("negative Hodge number")
        if h != tuple(reversed(h)):
            raise InadmissibleHodgeNumbers("h^{p,q} != h^{q,p}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "h", h)

    def hpq(self, p, q):
        # h is listed h^{n,0}, h^{n-1,1}, ..., h^{0,n}
        if p + q != self.n or p < 0 or q < 0:
            return 0
        return self.h[self.n - p]

    @property
    def dim(self):
        return sum(self.h)

    def __eq__(self, other):
        if not isinstance(other, HodgeNumbers):
            return NotImplemented
        return self.n == other.n and self.h == other.h

    def __repr__(self):
        return "HodgeNumbers(n=%d, h=%s)" % (self.n, self.h)


def hodge_decomposition(d):
    """List of (p, q, V^{p,q} = F^p cap conj F^q) over p+q = n, p = n..0.

    Only the pieces with p >= q are meets: V^{q,p} is conj V^{p,q}, and
    conj_space of the rref basis of V^{p,q} is the rref basis of V^{q,p},
    so the Subspace is the same as the meet would give."""
    n = d.n
    F = d.filtration
    upper = {p: intersect(F.step(p), conj_space(F.step(n - p)))
             for p in range(n, (n - 1) // 2, -1)}
    return [(p, n - p, upper[p] if p in upper else conj_space(upper[n - p]))
            for p in range(n, -1, -1)]


def polarization_fault(form, pieces, M=None, name="h"):
    """The first reason h(u, v) = Q(u, M conj v) does not polarize the
    (p, q, subspace) pieces, as a sentence that calls the form `name`, or
    None when it does: they are mutually h-orthogonal, and i^(p-q) h is
    Hermitian positive definite on each.  One Gram matrix over all the piece
    vectors, and one Hermitian test per piece, hermitian_pd's own; on a
    piece that fails it, first_nonpositive_minor names the minor."""
    vecs, blocks = [], []
    for p, q, s in pieces:
        blocks.append((p, q, len(vecs), len(vecs) + s.dim))
        vecs.extend(s.basis.entries)
    G = form.gram(vecs, [tuple(x.conj() for x in v) for v in vecs], M).entries
    for p, q, a, b in blocks:
        for i in range(a, b):
            j = next((j for j, e in enumerate(G[i]) if (e._x or e._y) and not a <= j < b),
                     None)
            if j is not None:
                x, y = next((x, y) for x, y, lo, hi in blocks if lo <= j < hi)
                return "I^{%d,%d} not %s-orthogonal to I^{%d,%d}" % (p, q, name, x, y)
    for p, q, a, b in blocks:
        c = i_power(p - q)
        H = _matrix(tuple(tuple(c * e for e in row[a:b]) for row in G[a:b]), b - a)
        try:
            if not hermitian_pd(H):
                return ("leading minor %d of i^(p-q) %s on I^{%d,%d} not positive"
                        % (first_nonpositive_minor(H), name, p, q))
        except NotHermitian:
            return "i^(p-q) %s not Hermitian on I^{%d,%d}" % (name, p, q)
    return None


def check_hr1(d):
    """HR1: isotropy, and F^p (+) conj F^{n-p+1} = V for every p.

    Directness is tested for p <= (n+1)/2 only: the meet at n+1-p is the
    conjugate of the meet at p, so the two are zero together."""
    F = d.filtration
    return check_isotropy(d) and all(
        intersect(F.step(p), conj_space(F.step(d.n - p + 1))).dim == 0
        for p in range((d.n + 1) // 2 + 1))


def check_isotropy(d):
    """The pairing half of HR1 alone: Q(F^p, F^{n-p+1}) = 0 with complementary
    step dimensions.  Boundary filtrations satisfy this but not directness.

    Tested for p <= (n+1)/2 only: Q^T = (-1)^n Q, so the pair at n+1-p has
    the transposed Gram matrix up to sign, and the same step dimensions."""
    F = d.filtration
    for p in range((d.n + 1) // 2 + 1):
        Fp, Fc = F.step(p), F.step(d.n - p + 1)
        if Fp.dim + Fc.dim != d.dim or \
                not d.polarization.gram(Fp.basis.entries, Fc.basis.entries).is_zero():
            return False
    return True


def validate_phs(d):
    """Report {hr1, hr2, spans, ok}; the datum is a PHS iff all three hold,
    and ok says whether they do.  `spans` says whether the pieces V^{p,q}
    together span V.  HR1 and the Hodge decomposition are each computed
    once, and each tests half the pairs (p, n+1-p) or (p, q), the other half
    following from Q's parity and conjugation.  Where HR1 holds the pieces
    are independent, so their dims decide `spans`; elsewhere one rank of
    all their basis rows does.  HR2 is tested only where HR1 holds; when it
    fails, `hr2_witness` is the polarization_fault sentence naming the piece."""
    hr1 = check_hr1(d)
    decomposition = hodge_decomposition(d)
    rows = tuple(v for _, _, space in decomposition for v in space.basis.entries)
    spans = (len(rows) if hr1 else rank(_matrix(rows, d.dim))) == d.dim
    fault = polarization_fault(d.polarization, decomposition) if hr1 else None
    hr2 = hr1 and fault is None
    report = {"hr1": hr1, "hr2": hr2, "spans": spans, "ok": hr1 and hr2 and spans}
    if fault:
        report["hr2_witness"] = fault
    return report


def labelled_filtration(n, basis):
    """The weight n filtration of a basis of C^dim whose vectors are labelled
    by bidegree, a list of (vector, (p, q)): F^p is the span of the vectors
    labelled (a, b) with a >= p, and F^0 the whole space."""
    dim = len(basis)
    return HodgeFiltration(n, [Subspace.full(dim)] + [
        _span(dim, [v for v, (a, _) in basis if a >= p])
        for p in range(1, n + 1)])


def string_labels(n, top, length):
    """The Deligne bidegrees of the weight n N-string at top = (p, q), level
    by level: (p - a, q - a) for a < length = p + q - n + 1, followed by its
    conjugate (q - a, p - a) when p != q."""
    p, q = top
    if length < 1 or p + q - n + 1 != length:
        raise ValueError("weight %d has no string of length %d at %s"
                         % (n, length, top))
    return [label for a in range(length)
            for label in ([(p - a, q - a)] if p == q else [(p - a, q - a), (q - a, p - a)])]


def string_block(n, top, length):
    """One N-string of weight n as a (Q, N, labelled basis) block: u at
    top = (p, q) and N^a u at (p - a, q - a) for a < length = p + q - n + 1,
    the labels string_labels(n, top, length).

    A real string (p = q) has the basis e_a = N^a u.  Otherwise u = x + iy
    comes with its conjugate, the basis is x_a, y_a with N^a u = x_a + i y_a,
    and the labelled vectors are N^a u and N^a conj(u), level by level.  Q
    pairs N^a u with N^b conj(u) only, a + b = length - 1, where it takes the
    value (-1)^a i^(q-p); this sign makes HR2 hold on the primitive u.
    """
    labels = string_labels(n, top, length)
    p, q = top
    c = i_power(q - p)
    # [[Q(x_0, x_b), Q(x_0, y_b)], [Q(y_0, x_b), Q(y_0, y_b)]], b = length - 1,
    # the real form of Q(u, N^b conj u) = c
    half = Fraction(1, 2)
    pair = [[c]] if p == q else [
        [GaussianRational(c.re * half), GaussianRational(-c.im * half)],
        [GaussianRational(c.im * half), GaussianRational(c.re * half)]]
    r = len(pair)  # real vectors per level
    dim = r * length
    Qent = [[ZERO] * dim for _ in range(dim)]
    Nent = [[ZERO] * dim for _ in range(dim)]
    vectors = []
    for a in range(length):
        b = length - 1 - a
        for j in range(r):
            for k in range(r):
                Qent[r * a + j][r * b + k] = -pair[j][k] if a % 2 else pair[j][k]
            if a + 1 < length:
                Nent[r * (a + 1) + j][r * a + j] = ONE
        x = unit_vector(dim, r * a)
        vectors += [x] if r == 1 else [x[:r * a + 1] + (y,) + x[r * a + 2:] for y in (I, -I)]
    return (_matrix(tuple(map(tuple, Qent)), dim), _matrix(tuple(map(tuple, Nent)), dim),
            list(zip(vectors, labels)))


def block_sum(blocks):
    """The block-diagonal (Q, N, basis) of (Q, N, basis) blocks, each block's
    labelled vectors padded out to its own coordinates."""
    dim = sum(Q.rows for Q, _, _ in blocks)
    Qent = [[ZERO] * dim for _ in range(dim)]
    Nent = [[ZERO] * dim for _ in range(dim)]
    basis = []
    off = 0
    for Q, N, labelled in blocks:
        d = Q.rows
        for i in range(d):
            Qent[off + i][off:off + d] = Q.entries[i]
            Nent[off + i][off:off + d] = N.entries[i]
        pad = (ZERO,) * (dim - off - d)
        basis += [((ZERO,) * off + tuple(v) + pad, label) for v, label in labelled]
        off += d
    return _matrix(tuple(map(tuple, Qent)), dim), _matrix(tuple(map(tuple, Nent)), dim), basis


def pure_blocks(h):
    """The length-1 string blocks of the model PHS: h^{p,q} of them at each
    (p, q) with p >= q, p from n down."""
    n = h.n
    return [string_block(n, (p, n - p), 1)
            for p in range(n, (n - 1) // 2, -1) for _ in range(h.hpq(p, n - p))]


def model_phs(h):
    """Canonical PHS with the given Hodge numbers, the sum of pure_blocks(h):
    its basis vectors u^{p,q}_a are labelled by their Hodge type (p, q),
    conj(u^{p,q}_a) = u^{q,p}_a, and Q pairs u^{p,q}_a against u^{q,p}_a only."""
    if h.dim == 0:
        raise InadmissibleHodgeNumbers("empty structure")
    Q, _, basis = block_sum(pure_blocks(h))
    return HodgeDatum(h.dim, PolarizationForm(h.n, Q), labelled_filtration(h.n, basis))
