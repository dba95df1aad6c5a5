"""Limiting mixed Hodge structures.

Weight filtrations of nilpotent endomorphisms, Deligne splittings, the
nilpotent-orbit validator (weight filtration + induced graded Hodge
structures + (-1,-1) rule + polarized primitives), disc sampling, the
induced structure on g = End(V,Q), reduced limit filtrations, Hodge-Tate
predicates, and the diagonal Levi subalgebra.

A datum the package builds comes from labelled_datum and is certified when
it is built; a datum read from a file is certified by validate_lmhs.
"""

import reprlib
from fractions import Fraction

from .gq import (
    GaussianRational, Immutable, MatrixGQ, ScalarTable, Subspace, ZERO, ONE, I, gq,
    intersect, ssum, conj_space, apply_matrix, maps_into,
    image, nilpotent_exp, nilpotent_powers, nilpotent_kernels,
    inverse, rank, _matrix, _canonical, _span, _json_rows,
)
from .hodge import (
    HodgeDatum, HodgeFiltration, PolarizationForm, validate_phs, polarization_fault,
    labelled_filtration,
)


HALF = GaussianRational(Fraction(1, 2))


class NotMhs(ValueError):
    pass


class NonRSplit(ValueError):
    pass


class BracketEscape(AssertionError):
    pass


class WeightFiltration(Immutable):
    """Increasing filtration, stored per level.  It keeps no center: an LMHS
    of weight n has W = W(N)[-n], centered at n (Cattani-Kaplan-Schmid 1986),
    and the callers pass n."""

    __slots__ = ("levels",)

    def __init__(self, levels):
        # levels: dict level -> Subspace over a contiguous range
        keys = sorted(levels)
        for a, b in zip(keys, keys[1:]):
            if b != a + 1:
                raise ValueError("levels must be contiguous")
            if not levels[b].contains(levels[a]):
                raise ValueError("filtration must be increasing")
        object.__setattr__(self, "levels", dict(levels))

    @property
    def ambient_dim(self):
        return next(iter(self.levels.values())).ambient_dim

    @property
    def min_level(self):
        return min(self.levels)

    @property
    def max_level(self):
        return max(self.levels)

    def level(self, k):
        if k < self.min_level:
            return Subspace.zero(self.ambient_dim)
        if k > self.max_level:
            return self.levels[self.max_level]
        return self.levels[k]

    def gr_dim(self, k):
        return self.level(k).dim - self.level(k - 1).dim

    def __eq__(self, other):
        if not isinstance(other, WeightFiltration):
            return NotImplemented
        lo = min(self.min_level, other.min_level)
        hi = max(self.max_level, other.max_level)
        return all(self.level(k) == other.level(k) for k in range(lo, hi + 1))


def weight_filtration(N, center, powers=None, kernels=None):
    """Monodromy weight filtration of a nilpotent N, centered at `center`.

    Uses W_k = sum_j ker(N^{k+j+1}) cap im(N^j) (centered at 0), then
    certifies it (_check_weight).  The terms come from tables: `powers` =
    nilpotent_powers(N) and `kernels` = nilpotent_kernels(powers), passed in
    when the caller has them (an LmhsDatum keeps both), and im N^j, solved
    once per j.  Terms with k + j + 1 <= 0 (zero kernel) or j >= deg (zero
    image) vanish.  When k + j + 1 >= deg the kernel is the whole space, and
    for j = 0 the image is, so gq.intersect returns the other side without a
    solve.  Each level is summed by one reduction.  No meet is memoized: in
    one call each pair (k + j + 1, j) occurs once.
    """
    if powers is None:
        powers = nilpotent_powers(N)
    if kernels is None:
        kernels = nilpotent_kernels(powers)
    dim = N.rows
    deg = len(powers) - 1
    d = deg - 1  # N^(d+1) = 0, N^d != 0
    ims = [Subspace.full(dim)] + [image(P) for P in powers[1:deg]]

    levels = {}
    for k in range(-d, d + 1):
        vecs = []
        for j in range(max(0, -k), deg):
            vecs.extend(intersect(kernels[min(k + j + 1, deg)], ims[j]).basis.entries)
        levels[center + k] = _span(dim, vecs)
    W = WeightFiltration(levels)
    _check_weight(N, W, powers, center)
    return W


def _check_weight(N, W, powers, c):
    """Certify that W is the monodromy weight filtration of N about the
    center c: the caller's, which is the weight n for an LMHS.

    With N^(d+1) = 0 and N^d != 0 that is the unique filtration with
    W_{c+d} = V, W_{c-d-1} = 0, N W_k inside W_{k-2}, and N^k mapping
    Gr_{c+k} onto Gr_{c-k} of the same dim (Deligne, Weil II 1.6).  Raises
    AssertionError naming the first level that fails.

    Each test runs on the vectors new_k that level k adds: the rows of W_k's
    rref basis whose pivot is not one of W_{k-1}'s.  The pivots of nested
    rref bases are nested and rows with distinct leading columns are
    independent, so W_k = W_{k-1} + span(new_k).  With W_{c-d-1} = 0 tested
    first, N W_k lies in W_{k-2} for every k exactly when N new_k does, by
    induction from the bottom, and the first failing level is the same.  The
    inclusions, tested by reduction, give N^k W_{c+k-1} inside W_{c-k-1}, so
    N^k is onto Gr_{c-k} when N^k new_{c+k} and W_{c-k-1} span a space of
    dim W_{c-k}: one rank, with no subspace built.  Where Gr_{c+k} and
    Gr_{c-k} are both 0 there is no rank: N^k is onto the zero piece.
    """
    dim = N.rows
    d = len(powers) - 2
    if W.level(c + d).dim != dim:
        raise AssertionError("W_%d is not the whole space" % (c + d))
    if W.level(c - d - 1).dim:
        raise AssertionError("W_%d is not zero" % (c - d - 1))
    new = {}
    for k in range(c - d, c + d + 1):
        new[k], target = _new_rows(W, k), W.level(k - 2)
        if target.dim < dim and not all(target.contains_vector(N.matvec(v)) for v in new[k]):
            raise AssertionError("N W_%d not inside W_%d" % (k, k - 2))
    for k in range(1, d + 1):
        if W.gr_dim(c + k) != W.gr_dim(c - k):
            raise AssertionError("Gr_%d and Gr_%d differ in dim" % (c + k, c - k))
        if not new[c + k]:
            continue
        vecs = tuple(powers[k].matvec(v) for v in new[c + k])
        if rank(_matrix(vecs + W.level(c - k - 1).basis.entries, dim)) != W.level(c - k).dim:
            raise AssertionError("N^%d not onto Gr_%d" % (k, c - k))


def _new_rows(W, k):
    """The rows of W_k's rref basis whose pivot is not one of W_{k-1}'s."""
    below, S = set(W.level(k - 1).pivots), W.level(k)
    return [v for v, p in zip(S.basis.entries, S.pivots) if p not in below]


def _labelled_weight(bg, n, d):
    """The W, centered at the weight n, that a labelled splitting bg gives:
    W_k is the sum of the pieces I^{p,q} with p + q <= k, at the levels
    n - d, ..., n + d that weight_filtration lays out when N^(d+1) = 0 and
    N^d != 0.  _certify_splitting certifies it.  A level with as many vectors
    as the one below it holds the same pieces, and is that level."""
    levels, count = {}, -1
    for k in range(n - d, n + d + 1):
        vecs = [v for p, q, s in bg.nodes if p + q <= k for v in s.basis.entries]
        levels[k] = levels[k - 1] if len(vecs) == count else _span(bg.ambient_dim, vecs)
        count = len(vecs)
    return WeightFiltration(levels)


class LmhsDatum(Immutable):
    """(V, Q, F) plus a real nilpotent N and its weight filtration.

    `powers` is (N^0, ..., N^deg), ending at the first zero power, and
    `kernels` is (ker N^0, ..., ker N^deg), solved on first use and kept.  The
    Deligne splitting is computed on first use and kept (`deligne_splitting`),
    unless the datum was built with it, and so is the report of
    validate_lmhs.  The constructor checks that N is real, nilpotent, in
    End(V, Q) and maps each F^p into F^{p-1}.  A datum the package builds
    comes from labelled_datum and is certified when it is built; one read
    from a file (a given W) is certified by validate_lmhs.
    """

    __slots__ = ("hodge", "N", "W", "powers", "_kernels", "_given_W",
                 "_splitting", "_report")

    def __init__(self, hodge, N, W=None):
        self._fill(hodge, N, W, None)

    def _fill(self, hodge, N, W, splitting):
        # Check N and set every field.  Given W or a splitting, never both.
        # With neither, W is solved (weight_filtration), which certifies it.
        # A W (read from a file) is certified by validate_lmhs.  A splitting
        # (labelled_datum's pieces) gives W, and both are certified here
        # (_certify_splitting), which raises NotMhs
        dim = hodge.dim
        if N.rows != dim or N.cols != dim:
            raise ValueError("N has wrong shape")
        if not N.is_real():
            raise ValueError("N must be real")
        powers = nilpotent_powers(N)
        # Q^T = (-1)^n Q, so N^T Q = (-1)^n (QN)^T: one product
        QN = hodge.polarization.Q * N
        QNt = QN.transpose()
        if not (QN - QNt if hodge.n % 2 else QN + QNt).is_zero():
            raise ValueError("N is not in End(V, Q)")
        # on the labelled path F was read off the labels, so a failure is a
        # label fault: NotMhs, as the splitting's certificate raises
        F = hodge.filtration
        fault = ValueError if splitting is None else NotMhs
        for p in range(1, hodge.n + 1):
            if not maps_into(N, F.step(p), F.step(p - 1)):
                raise fault("N F^%d not inside F^%d" % (p, p - 1))
        for name, val in (("hodge", hodge), ("N", N), ("powers", powers), ("_kernels", None),
                          ("_given_W", W is not None),
                          ("_splitting", splitting), ("_report", None)):
            object.__setattr__(self, name, val)
        if W is None:
            W = (weight_filtration(N, hodge.n, powers, self.kernels) if splitting is None
                 else _labelled_weight(splitting, hodge.n, len(powers) - 2))
        object.__setattr__(self, "W", W)
        if splitting is not None:
            _certify_splitting(self, splitting)

    @property
    def dim(self):
        return self.hodge.dim

    @property
    def n(self):
        return self.hodge.n

    def power(self, k):
        """N^k, zero past the nilpotency degree."""
        return self.powers[min(k, len(self.powers) - 1)]

    @property
    def kernels(self):
        if self._kernels is None:
            object.__setattr__(self, "_kernels", nilpotent_kernels(self.powers))
        return self._kernels

    def to_json(self):
        obj = self.hodge.to_json()
        obj["N"] = self.N.to_json()
        obj["W"] = {str(k): self.W.levels[k].to_json() for k in sorted(self.W.levels)}
        return obj

    @staticmethod
    def from_json(obj):
        """The datum of its JSON form, the one reader of the datum format: an
        LmhsDatum when obj has an "N" or a "W", else the pure HodgeDatum.
        ValueError names a value of the wrong type or shape, a bad F or W key
        (_json_index) or a weight past the bound below; KeyError a missing
        key.  Q, N and the F steps and W levels share one ScalarTable and one
        table of subspaces, local to the call, so each distinct scalar string
        is parsed once and each distinct row list put in rref once."""
        if not isinstance(obj, dict):
            raise ValueError("a datum must be a JSON object, got %s" % reprlib.repr(obj))
        scalars, spaces = ScalarTable(), {}
        dim = _json_count(obj, "dim")
        n = _json_count(obj, "weight")
        Q = MatrixGQ.from_json(obj["Q"], scalars)
        if (Q.rows, Q.cols) != (dim, dim):
            raise ValueError("Q is %dx%d, but dim is %d" % (Q.rows, Q.cols, dim))
        F = obj["F"]
        if not isinstance(F, dict):
            raise ValueError("'F' must be an object from steps to rows, got %s"
                             % reprlib.repr(F))
        for key in F:
            if not 0 <= _json_index(key, "F step") <= n:
                raise ValueError("F step %r is not one of 0..%d" % (key, n))
        # with V != 0, a valid datum lists every step above its least Hodge
        # index p0 <= (n + dim - 1)/2, so at least (n - dim + 1)/2 of them:
        # past that, refuse before building n + 1 steps
        if n > 2 * len(F) + dim:
            raise ValueError("weight %d is more than 2*len(F) + dim = %d: too few F "
                             "steps for a valid datum" % (n, 2 * len(F) + dim))

        def space(rows, name):
            # a repeated row list is put in rref once and builds no matrix
            try:
                entries = _json_rows(rows, scalars)
                key = tuple(map(tuple, rows))
                S = spaces.get(key)
                if S is None:
                    S = spaces[key] = Subspace(dim, MatrixGQ(entries))
                return S
            except ValueError as e:
                raise ValueError("%s: %s" % (name, e)) from None

        # a step left out is the whole space, and so is an empty F^0
        steps = [Subspace.full(dim) if str(p) not in F or p == 0 and F["0"] == []
                 else space(F[str(p)], "F^%d" % p) for p in range(n + 1)]
        hodge = HodgeDatum(dim, PolarizationForm(n, Q), HodgeFiltration(n, steps))
        if "N" not in obj and "W" not in obj:
            return hodge
        N = MatrixGQ.from_json(obj["N"], scalars)
        W = None
        if "W" in obj:
            if not isinstance(obj["W"], dict):
                raise ValueError("'W' must be an object from levels to rows, got %s"
                                 % reprlib.repr(obj["W"]))
            levels = {}
            for k, rows in obj["W"].items():
                level = _json_index(k, "W level")
                levels[level] = space(rows, "W_%d" % level)
            if levels:
                W = WeightFiltration(levels)
        return LmhsDatum(hodge, N, W)


def _json_count(obj, key):
    """obj[key], which must be a non-negative int (not a bool, float or string)."""
    v = obj[key]
    if type(v) is not int or v < 0:
        raise ValueError("%r must be a non-negative integer, got %s"
                         % (key, reprlib.repr(v)))
    return v


def _json_index(key, name):
    """The int that a JSON object key names, F step or W level: ValueError
    naming the key, as `name`, unless it is written as str(int) writes it,
    so that no two keys of one object name the same index ("1" and "01"),
    and no key is read past its spaces (" 1")."""
    try:
        k = int(key)
    except ValueError:
        raise ValueError("%s %r is not an integer" % (name, key)) from None
    if str(k) != key:
        raise ValueError("%s %r is not written as %r" % (name, key, str(k)))
    return k


class Bigrading(Immutable):
    """Finite collection of bigraded pieces in direct sum.  Rows with pairwise
    distinct leading columns are independent, so the sum is reduced only
    when the rref pivots of the pieces collide (unit spans never do)."""

    __slots__ = ("ambient_dim", "nodes")

    def __init__(self, ambient_dim, nodes):
        nodes = [(p, q, s) for (p, q, s) in nodes if s.dim > 0]
        nodes.sort(key=lambda t: (t[0], t[1]))
        pivots = [c for _, _, s in nodes for c in s.pivots]
        if len(set(pivots)) != len(pivots):
            vecs = [v for _, _, s in nodes for v in s.basis.entries]
            if _span(ambient_dim, vecs).dim != len(vecs):
                raise NotMhs("pieces are not in direct sum")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "nodes", tuple(nodes))

    def dims(self):
        return {(p, q): s.dim for p, q, s in self.nodes}

    def piece(self, p, q):
        for a, b, s in self.nodes:
            if (a, b) == (p, q):
                return s
        return Subspace.zero(self.ambient_dim)

    def total(self):
        return sum(s.dim for _, _, s in self.nodes)


def labelled_datum(n, Q, N, basis):
    """The LmhsDatum of the weight n form Q and N on C^dim with the splitting
    that the labels of `basis`, a list of (vector, (p, q)), give: F^p is the
    span of the vectors labelled (a, b) with a >= p
    (hodge.labelled_filtration), I^{p,q} the span of those labelled (p, q),
    and W_k the sum of the pieces with p + q <= k (_labelled_weight).  The
    one constructor of the data the package builds (the classify
    constructors' and the Levi datum); LmhsDatum checks N, and
    _certify_splitting W and the pieces.  NotMhs names the first clause that
    fails: the direct sum of the pieces (Bigrading), then the Griffiths test
    N F^p inside F^(p-1), then the certificate."""
    dim = Q.rows
    hodge = HodgeDatum(dim, PolarizationForm(n, Q), labelled_filtration(n, basis))
    pieces = {}
    for v, label in basis:
        pieces.setdefault(label, []).append(v)
    L = object.__new__(LmhsDatum)
    L._fill(hodge, N, None, Bigrading(dim, [(p, q, _span(dim, vs))
                                            for (p, q), vs in pieces.items()]))
    return L


def deligne_splitting(L):
    """The canonical splitting I^{p,q} of an LMHS: the labelled one that a
    datum of labelled_datum was certified with, or else the standard
    formula, solved and checked on first use.  Later calls return the same
    (immutable) Bigrading.
    """
    bg = L._splitting
    if bg is None:
        bg = _deligne_splitting(L)
        object.__setattr__(L, "_splitting", bg)
    return bg


def _deligne_splitting(L):
    """I^{p,q} = F^p cap W_l cap (conj F^q cap W_l
    + sum_{j>=1} conj F^{q-j} cap W_{l-j-1}), with l = p + q
    (Cattani-Kaplan-Schmid 1986), checked to be a direct sum that
    recovers W and F.

    The formula is solved only where the piece can be nonzero.  In a mixed
    Hodge structure dim I^{p,q} = dim Gr_F^p Gr^W_l, which is
    d = dim(F^p cap W_l) - dim(F^{p+1} cap W_l) - dim(F^p cap W_{l-1})
    + dim(F^{p+1} cap W_{l-1}); the meets F^a cap W_k are memoized by (a, k)
    within the call, and a (p, q) with d = 0 gets no conjugate sum and no
    meet.  This is exact: where the full formula's pieces pass Bigrading and
    _check_reconstruction, F^a and W_k are sums of them, so each piece has
    dim d, the skipped ones were 0 and the Bigrading is the same.  Where
    they fail, the datum is no mixed Hodge structure, and this splitting
    fails too (with the same or another NotMhs message), or it passes and
    clause (b) of validate_lmhs fails: pieces that recover W and F and pass
    (b) make each Gr^W a Hodge structure.  So validate_lmhs gives the same
    "ok" either way.

    The conjugate terms are the meets conj F^a cap W_k.  When W_k is real,
    conj F^a cap W_k = conj(F^a cap W_k): the conjugate of the memoized meet,
    with no solve.  W is real once _check_weight has passed, since N is; a
    given W that fails it may have a level that is not, and there the meet
    is solved.  Each level is tested for realness once.  For a <= 0 a meet
    is W_k and for a > n it is 0.  gq.intersect returns 0 for a level below
    W, and X itself for a level that is the whole space, without a solve.
    The j-sum stops at j = max(q, 1): past it conj F^{q-j} is the whole
    space, so each later term is a W level inside the last one.  The terms
    of the sum are reduced once.
    """
    W, n, dim = L.W, L.n, L.dim
    steps = [L.hodge.filtration.step(a) for a in range(n + 2)]  # F^{n+1} = 0
    table, conj_table, real = {}, {}, {}

    def meet(a, k):  # F^a cap W_k, memoized, a clamped to 0..n+1
        key = min(max(a, 0), n + 1), k
        if key not in table:
            table[key] = intersect(steps[key[0]], W.level(k))
        return table[key]

    def conj_meet(a, k):  # conj F^a cap W_k, memoized the same way
        key = min(max(a, 0), n + 1), k
        if key not in conj_table:
            if k not in real:
                real[k] = W.level(k).basis.is_real()
            conj_table[key] = (conj_space(meet(a, k)) if real[k] else
                               intersect(conj_space(steps[key[0]]), W.level(k)))
        return conj_table[key]

    nodes = []
    for p in range(n + 1):
        for q in range(n + 1):
            lev = p + q  # the weight level of I^{p,q}
            if not (meet(p, lev).dim - meet(p + 1, lev).dim
                    - meet(p, lev - 1).dim + meet(p + 1, lev - 1).dim):
                continue
            vecs = list(conj_meet(q, lev).basis.entries)
            for j in range(1, max(q, 1) + 1):
                vecs.extend(conj_meet(q - j, lev - j - 1).basis.entries)
            nodes.append((p, q, intersect(meet(p, lev), _span(dim, vecs))))
    bg = Bigrading(dim, nodes)  # it drops the zero pieces
    _check_reconstruction(L, bg)
    return bg


def _check_reconstruction(L, bg):
    """Every W_k is the sum of the pieces of weight level <= k, and every F^p
    the sum of the pieces I^{a,b} with a >= p.  The pieces are in direct sum
    (Bigrading checks it), so each sum is tested by containment and
    dimension (_is_sum), and none is built."""
    if bg.total() != L.dim:
        raise NotMhs("splitting does not span")
    n, W = L.n, L.W
    for k in range(W.min_level, W.max_level + 1):
        if not _is_sum(W.level(k), [s for p, q, s in bg.nodes if p + q <= k]):
            raise NotMhs("weight filtration not recovered at level %d" % k)
    for p0 in range(n + 1):
        if not _is_sum(L.hodge.filtration.step(p0), [s for p, _, s in bg.nodes if p >= p0]):
            raise NotMhs("Hodge filtration not recovered at step %d" % p0)


def _is_sum(X, pieces):
    # X is the sum of pieces in direct sum when it holds each and has their total dim
    return X.dim == sum(s.dim for s in pieces) and all(X.contains(s) for s in pieces)


def _certify_splitting(L, bg):
    """Certify that a labelled Bigrading bg, in direct sum by construction,
    is the Deligne splitting of L, with no formula solved.  F^p (1 <= p <= n)
    and W_k (n - d <= k <= n + d) were read off bg (labelled_datum), so what
    is left is: L.W is the weight filtration of N (_check_weight), whose
    W_{n+d} = V makes the pieces span; each label has 0 <= p <= n and
    p + q >= n - d, which makes F^0, F^{n+1} and the W levels below n - d
    sums of the pieces too; and conj I^{p,q} lies in I^{q,p} +
    sum_{a<q, b<p} I^{a,b}.  Only the Deligne splitting has these properties
    (Cattani-Kaplan-Schmid 1986, Thm 2.13).  The rule is read as an equality
    first: where conj I^{p,q} = I^{q,p}, as on every string block, no sum is
    built.  Raises NotMhs naming the first failing clause."""
    try:
        _check_weight(L.N, L.W, L.powers, L.n)
    except AssertionError as e:
        raise NotMhs("labelled W is not the weight filtration of N: %s" % e) from None
    n, low = L.n, L.n - len(L.powers) + 2
    for p, q, _ in bg.nodes:
        if not 0 <= p <= n or p + q < low:
            raise NotMhs("label (%d, %d) outside 0 <= p <= %d, p + q >= %d" % (p, q, n, low))
    for p, q, s in bg.nodes:
        conj = conj_space(s)
        if conj == bg.piece(q, p):
            continue
        vecs = [v for a, b, t in bg.nodes if (a, b) == (q, p) or (a < q and b < p)
                for v in t.basis.entries]
        if not _span(L.dim, vecs).contains(conj):
            raise NotMhs("conj I^{%d,%d} not inside I^{%d,%d} + sum_{a<%d,b<%d} I^{a,b}"
                         % (p, q, q, p, q, p))


def is_r_split(bg):
    for p, q, s in bg.nodes:
        if conj_space(s) != bg.piece(q, p):
            return False
    return True


def is_hodge_tate(dims):
    """Whether the {(p, q): dim} map has nonzero dims on the diagonal only."""
    return all(p == q for (p, q), d in dims.items() if d)


def _primitive_pieces(L, bg):
    """Per level k: pieces I^{p,q} cap ker N^{k+1} with p+q-n = k (centered)."""
    n, out = L.n, {}
    kmax = L.W.max_level - n
    kernels = L.kernels
    for k in range(0, kmax + 1):
        ker_k = kernels[min(k + 1, len(kernels) - 1)]
        pieces = []
        for p, q, s in bg.nodes:
            if p + q - n != k:
                continue
            piece = intersect(s, ker_k)
            if piece.dim:
                pieces.append((p, q, piece))
        out[k] = pieces
    return out


def validate_lmhs(L):
    """Nilpotent-orbit certificate, one clause per requirement.

    (a) W is the weight filtration of N
    (b) F induces a Hodge structure on each graded piece
    (c) N has type (-1,-1) for the splitting
    (d) the twisted pairings polarize the primitive pieces

    The report is made once per datum and kept (_validate_lmhs); each call
    returns a copy of it.
    """
    if L._report is None:
        object.__setattr__(L, "_report", _validate_lmhs(L))
    return dict(L._report)


def _validate_lmhs(L):
    """The report of validate_lmhs.

    A W given from outside (read from a file) is certified by _check_weight,
    not recomputed; a W solved or certified at construction is not certified
    again.  When (a)
    fails, `weight_filtration_witness` names the failing level, and when
    (b) or (c) fails, `graded_hodge_witness` or
    `minus_one_minus_one_witness` names the first failing piece I^{p,q}.
    (b) is read as an equality first: where conj I^{p,q} = I^{q,p}, as on
    every R-split datum, no sum with W_{l-1} is built.  When (d) fails,
    `polarized_primitives_witness` names the first primitive level k and
    piece I^{p,q}, and why Q_k does not polarize it
    (hodge.polarization_fault): the piece is not Q_k-orthogonal to another,
    its block is not Hermitian, or a leading minor (by index) is not
    positive.
    """
    report = {"weight_filtration": True}
    if L._given_W:
        try:
            _check_weight(L.N, L.W, L.powers, L.n)
        except AssertionError as e:
            report["weight_filtration"] = False
            report["weight_filtration_witness"] = str(e)
    try:
        bg = deligne_splitting(L)
    except NotMhs as e:
        report["graded_hodge"] = False
        report["minus_one_minus_one"] = False
        report["polarized_primitives"] = False
        report["error"] = str(e)
        report["ok"] = False
        return report

    # (b): each graded level decomposes, with conjugation symmetry mod lower
    # weight; conj I^{p,q} = I^{q,p} (every R-split datum) needs no sum
    for p, q, s in bg.nodes:
        conj, other = conj_space(s), bg.piece(q, p)
        if conj == other:
            continue
        lower = L.W.level(p + q - 1)
        target = ssum(other, lower) if lower.dim else other
        if not target.contains(conj):
            report["graded_hodge_witness"] = ("conj I^{%d,%d} not inside I^{%d,%d} + W_%d"
                                              % (p, q, q, p, p + q - 1))
            break
    okb = report["graded_hodge"] = "graded_hodge_witness" not in report

    for p, q, s in bg.nodes:
        if not maps_into(L.N, s, bg.piece(p - 1, q - 1)):
            report["minus_one_minus_one_witness"] = ("N I^{%d,%d} not inside I^{%d,%d}"
                                                     % (p, q, p - 1, q - 1))
            break
    okc = report["minus_one_minus_one"] = "minus_one_minus_one_witness" not in report

    for k, pieces in _primitive_pieces(L, bg).items():
        fault = polarization_fault(L.hodge.polarization, pieces, L.power(k), "Q_%d" % k)
        if fault:
            report["polarized_primitives_witness"] = fault
            break
    okd = report["polarized_primitives"] = "polarized_primitives_witness" not in report
    report["ok"] = report["weight_filtration"] and okb and okc and okd
    return report


def disc_sample(L, ys):
    """Check that e^{iyN} F is a polarized Hodge structure at each sampled y > 0."""
    out = {"ok": True, "samples": []}
    n = L.n
    for y in ys:
        E = nilpotent_exp(L.N, GaussianRational(0, Fraction(y)), L.powers)
        steps = [Subspace.full(L.dim)]
        for p in range(1, n + 1):
            steps.append(apply_matrix(E, L.hodge.filtration.step(p)))
        moved = HodgeDatum(L.dim, L.hodge.polarization, HodgeFiltration(n, steps))
        rep = validate_phs(moved)
        out["samples"].append({"y": str(y), "ok": rep["ok"], "clauses": rep})
        if not rep["ok"]:
            out["ok"] = False
    return out


class AdjointLmhs(Immutable):
    """The LMHS induced on g = End(V, Q), in the frame of the splitting.

    `frame` (P) has the rref bases of the pieces I^{p,q} of V as columns,
    `labels[a]` is the bidegree x_a of column a and `form` is Q' = P^T Q P.
    g is Lambda^2 V (n even) or S^2 V (n odd) through Q: with e = (-1)^(n+1)
    the `elements` X_ab = Q'^-1 (E_ab + e E_ba), as sparse rows, for the
    `pairs` a <= b (a < b for n even) are a basis, and X_ab has bidegree
    (n, n) - x_a - x_b.  The pairs are sorted by it, so the pieces of I_g
    are coordinate subspaces, and W_k and F^p on g are sums of them.  Frame
    coordinates are read off Q'X (_g_coords).  `killing_proxy` is tr(X_i X_j).
    """

    __slots__ = ("n", "frame", "labels", "form", "pairs", "elements", "I_g",
                 "killing_proxy", "N_coords", "N_ad")

    def __init__(self, *values):
        for name, val in zip(AdjointLmhs.__slots__, values, strict=True):
            object.__setattr__(self, name, val)

    @property
    def dim_g(self):
        return len(self.pairs)


def _g_pairs(labels, n):
    """(bidegree, a, b) for each basis element X_ab of g, sorted: a <= b for
    n odd (S^2 V), a < b for n even (Lambda^2 V)."""
    first = 1 - n % 2
    return sorted(((n - x[0] - y[0], n - x[1] - y[1]), a, b) for a, x in enumerate(labels)
                  for b, y in enumerate(labels[a + first:], a + first))


def _g_coords(QX, index, sign):
    """The coordinates {k: c} of a frame matrix X, from the rows of Q'X and
    the index {(a, b): k} of the pairs: its entries on and above the
    diagonal, halved on it when sign = 1.  None when Q'X is not
    sign-symmetric (X is not in g) or has an entry at no pair."""
    c = {}
    for i, row in enumerate(QX):
        for j, e in row.items():
            if e and (QX[j].get(i, ZERO) != (e if sign > 0 else -e)
                      or i <= j and (i, j) not in index):
                return None
            if e and i <= j:
                c[index[i, j]] = e * HALF if i == j else e
    return c


def _unit_span(dim, indices):
    """The span of the unit vectors e_k for ascending `indices`, in rref; the
    unit vectors are the rows of the shared Subspace.full(dim)."""
    indices, units = tuple(indices), Subspace.full(dim).basis.entries
    return _canonical(dim, _matrix(tuple(units[k] for k in indices), dim, indices))


def _sparse_rows(M):
    """The sparse rows of M: per row, {col: entry} at its nonzero entries."""
    return [{j: e for j, e in enumerate(row) if e} for row in M.entries]


def adjoint_lmhs(L):
    """The AdjointLmhs of an R-split L, with no solve.

    Q pairs I^{p,q} only with I^{n-p,n-q} (Cattani-Kaplan-Schmid 1986), which
    gives X_ab its bidegree: NotMhs names the first pair of labels that do
    not sum to (n, n) where Q' is not 0.  N's coordinates are read off
    Q'N' = P^T (Q N) P, which certifies that N lies in g: Q'N' = -N'^T Q',
    with N' = R Q'N' and R = Q'^-1.  So, with Q'X_ab = E_ab + e E_ba,
    [N', X_ab] = -sum_i N'_ai X_ib - sum_i N'_bi X_ai, where X_ba = e X_ab
    and X_ii = 0 for n even: the column of ad N at X_ab is read by index off
    rows a and b of N'.  tr(X_ab X_cd) = -2 (e R_ad R_bc + R_ac R_bd) is
    formed at the pairs (c, d) met by the nonzero entries of rows a and b of R.
    """
    bg = deligne_splitting(L)
    if not is_r_split(bg):
        raise NonRSplit("adjoint induction implemented for R-split data only")
    n, sign = L.n, 1 if L.n % 2 else -1
    cols, labels = [], []
    for p, q, s in bg.nodes:
        cols.extend(s.basis.entries)
        labels.extend([(p, q)] * s.dim)
    pol = L.hodge.polarization
    Qf = pol.gram(cols, cols)  # Q' = P^T Q P
    for a, row in enumerate(Qf.entries):
        for b, e in enumerate(row):
            if e and (labels[a][0] + labels[b][0], labels[a][1] + labels[b][1]) != (n, n):
                raise NotMhs("Q pairs I^{%d,%d} with I^{%d,%d}, whose labels do not "
                             "sum to (%d, %d)" % (labels[a] + labels[b] + (n, n)))
    keyed = _g_pairs(labels, n)
    pairs = tuple((a, b) for _, a, b in keyed)
    index = {ab: k for k, ab in enumerate(pairs)}
    t = len(pairs)
    spans = {}  # bidegree -> its coordinates, ascending
    for k, (deg, _, _) in enumerate(keyed):
        spans.setdefault(deg, []).append(k)
    I_g = Bigrading(t, [(p, q, _unit_span(t, ks)) for (p, q), ks in spans.items()])

    R = inverse(Qf)
    Rcols, Re = _sparse_rows(R.transpose()), R.entries
    elements = []  # X_ab: column b is column a of R, column a is e times column b
    for a, b in pairs:
        rows = [{} for _ in cols]
        for i, r in Rcols[a].items():
            rows[i][b] = r + r if a == b else r
        for i, r in Rcols[b].items() if a != b else ():
            rows[i][a] = r if sign > 0 else -r
        elements.append(tuple(rows))
    killing = [[ZERO] * t for _ in range(t)]
    for k, (a, b) in enumerate(pairs):  # R is e-symmetric: rows and columns meet
        for l in {index.get((min(x, y), max(x, y))) for x in Rcols[a] for y in Rcols[b]}:
            if l is not None:
                c, d = pairs[l]
                u, v = Re[a][c] * Re[b][d], Re[a][d] * Re[b][c]
                killing[k][l] = (u + v if sign > 0 else u - v) * -2

    QN = pol.gram(cols, cols, L.N)  # Q'N'
    coeff = _g_coords(_sparse_rows(QN), index, sign)
    if coeff is None:
        raise NotMhs("N does not lie in the computed algebra")
    coeff = tuple(coeff.get(k, ZERO) for k in range(t))
    if not I_g.piece(-1, -1).contains_vector(coeff):
        raise NotMhs("N is not of type (-1,-1) in the adjoint bigrading")
    Nrows = _sparse_rows(R * QN)  # N'
    ad = [[ZERO] * t for _ in range(t)]
    for k, (a, b) in enumerate(pairs):
        terms = [(i, b, m) for i, m in Nrows[a].items()]
        terms += [(a, i, m) for i, m in Nrows[b].items()]
        for u, v, m in terms:  # [N', X_ab] = -sum m X_uv
            if u == v and sign < 0:
                continue  # X_ii = 0
            r = index.get((u, v) if u <= v else (v, u))
            if r is None:
                raise ValueError("[N, B] outside the span of g")
            ad[r][k] -= m if u <= v or sign > 0 else -m  # X_vu = e X_uv
    return AdjointLmhs(n, _matrix(tuple(cols), L.dim).transpose(), tuple(labels), Qf, pairs,
                       tuple(elements), I_g, _matrix(tuple(map(tuple, killing)), t),
                       coeff, _matrix(tuple(map(tuple, ad)), t))


def reduced_limit(bg, n):
    """Limit filtration F_inf^p = (+)_{q <= n-p} I^{.,q} of an R-split
    splitting that spans: the filtration of the pieces' vectors, each
    labelled (n - q, q)."""
    if not is_r_split(bg):
        raise NonRSplit("reduced limit needs an R-split splitting")
    if bg.total() != bg.ambient_dim:
        raise NotMhs("splitting does not span")
    return labelled_filtration(n, [(v, (n - q, q)) for _, q, s in bg.nodes
                                   for v in s.basis.entries])


def diagonal_levi(a):
    """The conjugation-stable Levi s = (+)_p I^{p,p}_g and its induced LMHS,
    in a real basis: (basis, an LmhsDatum on its coordinates, weight shifted
    by r to keep indices nonnegative); `basis` holds lists of pairs (k, c),
    each the element sum c X_k of g, which is P (sum c X_k) P^-1 on V.
    [s, s] inside s needs no bracket: adjoint_lmhs certifies the bidegree of
    each X_k, and [I^{a,b}_g, I^{c,d}_g] lies in I^{a+c,b+d}_g
    (Cattani-Kaplan-Schmid 1986).  For R-split data the rref basis
    of I^{q,p} is the conjugate of that of I^{p,q}, so conjugation permutes
    the frame (sigma) and takes X_ab to +-X_{sigma(a) sigma(b)}: each piece
    of s must be closed under that permutation.  It gets the real basis X
    (conj X = X), iX (conj X = -X), and X + conj X, i(X - conj X), in which
    N_s = ad N (N in s, mapping s into s) and -killing_proxy are real.  The
    datum is labelled_datum's, on the unit vectors of that basis, each
    labelled (p + r, p + r) for its piece I^{p,p}_g: Hodge-Tate by its labels,
    and certified when it is built.
    """
    sign = 1 if a.n % 2 else -1
    index = {ab: k for k, ab in enumerate(a.pairs)}
    diag = [(p, sub.pivots) for p, q, sub in a.I_g.nodes if p == q]
    s_idx = [k for _, ks in diag for k in ks]
    outside = sorted(set(range(a.dim_g)).difference(s_idx))
    ts, first = len(s_idx), a.labels.index
    sigma = [first((q, p)) + i - first((p, q)) for i, (p, q) in enumerate(a.labels)]
    basis, read = [], []  # the real basis and the rows of its inverse, over g
    for _, ks in diag:
        for k in ks:
            c, d = (sigma[e] for e in a.pairs[k])
            ck = index.get((min(c, d), max(c, d)))
            if ck not in ks:
                raise BracketEscape("s is not conjugation stable")
            s = 1 if c <= d else sign  # conj X_k = s X_ck
            if ck == k:
                basis.append([(k, ONE if s > 0 else I)])
                read.append([(k, ONE if s > 0 else -I)])
            elif ck > k:
                basis += [[(k, ONE), (ck, gq(s))], [(k, I), (ck, I * -s)]]
                read += [[(k, HALF), (ck, HALF * s)], [(k, -I * HALF), (ck, I * HALF * s)]]
    if any(a.N_coords[k] for k in outside):
        raise BracketEscape("N escapes the diagonal Levi")
    ad, K = a.N_ad.entries, a.killing_proxy.entries
    if any(ad[k][j] for k in outside for j in s_idx):
        raise ValueError("[N, s] outside the span of s")

    def over_s(rows):  # the matrix over s of rows of (g-index, entry) pairs
        return _matrix(tuple(tuple(dict(row).get(k, ZERO) for k in s_idx) for row in rows), ts)

    def block(M):  # the s x s block of a matrix over g
        return _matrix(tuple(tuple(M[k][j] for j in s_idx) for k in s_idx), ts)

    T = over_s(basis).transpose()
    N_s = over_s(read) * block(ad) * T
    tracef = (T.transpose() * block(K) * T).scale(-1)

    r = max((abs(p) for p, _ in diag), default=0)
    labels = [(p + r, p + r) for p, ks in diag for _ in ks]
    return basis, labelled_datum(2 * r, tracef, N_s,
                                 list(zip(Subspace.full(ts).basis.entries, labels)))
