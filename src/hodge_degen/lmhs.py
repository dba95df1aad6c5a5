"""Limiting mixed Hodge structures.

Weight filtrations of nilpotent endomorphisms, Deligne splittings, the
nilpotent-orbit validator (weight filtration + induced graded Hodge
structures + (-1,-1) rule + polarized primitives), disc sampling, the
induced structure on g = End(V,Q), reduced limit filtrations, Hodge-Tate
predicates, and the diagonal Levi subalgebra.
"""

import reprlib
from fractions import Fraction

from .gq import (
    GaussianRational, MatrixGQ, Subspace, ZERO, unit_vector,
    intersect, ssum, conj_space, apply_matrix, maps_into, preimage, kernel,
    image, complement_mod, nilpotent_exp, nilpotent_powers, nilpotent_kernels,
    solver, inverse, rank, _matrix, _canonical,
)
from .hodge import (
    HodgeDatum, HodgeFiltration, PolarizationForm, validate_phs, polarizes,
)


class NotMhs(ValueError):
    pass


class NonRSplit(ValueError):
    pass


class BracketEscape(AssertionError):
    pass


class WeightFiltration:
    """Increasing filtration, stored per level, centered at `center`."""

    __slots__ = ("center", "levels")

    def __init__(self, center, levels):
        # levels: dict level -> Subspace over a contiguous range
        keys = sorted(levels)
        for a, b in zip(keys, keys[1:]):
            if b != a + 1:
                raise ValueError("levels must be contiguous")
            if not levels[b].contains(levels[a]):
                raise ValueError("filtration must be increasing")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "levels", dict(levels))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

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
        if self.center != other.center:
            return False
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
        levels[center + k] = Subspace.from_vectors(dim, vecs)
    W = WeightFiltration(center, levels)
    _check_weight(N, W, powers)
    return W


def _check_weight(N, W, powers):
    """Certify that W is the monodromy weight filtration of N about W.center.

    With N^(d+1) = 0 and N^d != 0 that is the unique filtration with
    W_{c+d} = V, W_{c-d-1} = 0, N W_k inside W_{k-2}, and N^k mapping
    Gr_{c+k} onto Gr_{c-k} of the same dim (Deligne, Weil II 1.6).  Raises
    AssertionError naming the first level that fails.  The inclusions are
    tested by reduction (gq.maps_into) and give N^k W_{c+k} inside W_{c-k},
    so N^k is onto Gr_{c-k} when N^k W_{c+k} and W_{c-k-1} span a space of
    dim W_{c-k}: one rank, with no subspace built.
    """
    c = W.center
    d = len(powers) - 2
    if W.level(c + d).dim != N.rows:
        raise AssertionError("W_%d is not the whole space" % (c + d))
    if W.level(c - d - 1).dim:
        raise AssertionError("W_%d is not zero" % (c - d - 1))
    for k in range(c - d, c + d + 1):
        if not maps_into(N, W.level(k), W.level(k - 2)):
            raise AssertionError("N W_%d not inside W_%d" % (k, k - 2))
    for k in range(0, d + 1):
        if W.gr_dim(c + k) != W.gr_dim(c - k):
            raise AssertionError("Gr_%d and Gr_%d differ in dim" % (c + k, c - k))
        low = W.level(c - k - 1).basis.entries
        vecs = tuple(powers[k].matvec(v) for v in W.level(c + k).basis.entries)
        if rank(_matrix(vecs + low, N.rows)) != W.level(c - k).dim:
            raise AssertionError("N^%d not onto Gr_%d" % (k, c - k))


class LmhsDatum:
    """(V, Q, F) plus a real nilpotent N and its weight filtration.

    `powers` is (N^0, ..., N^deg), ending at the first zero power, and
    `kernels` is (ker N^0, ..., ker N^deg), solved on first use and kept.  The
    Deligne splitting is computed on first use and kept (`deligne_splitting`);
    diagonal_levi stores a certified one instead.
    """

    __slots__ = ("hodge", "N", "W", "powers", "_kernels", "_given_W",
                 "_splitting")

    def __init__(self, hodge, N, W=None):
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
        F = hodge.filtration
        for p in range(1, hodge.n + 1):
            if not maps_into(N, F.step(p), F.step(p - 1)):
                raise ValueError("N F^%d not inside F^%d" % (p, p - 1))
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "_kernels", None)
        object.__setattr__(self, "_splitting", None)
        # validate_lmhs checks a W given from outside; one computed here has
        # already passed _check_weight (diagonal_levi clears the flag once it
        # has certified the W it gives)
        object.__setattr__(self, "_given_W", W is not None)
        if W is None:
            W = weight_filtration(N, hodge.n, powers, self.kernels)
        object.__setattr__(self, "W", W)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @property
    def dim(self):
        return self.hodge.dim

    @property
    def n(self):
        return self.hodge.n

    @property
    def center(self):
        return self.W.center

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
        hodge = HodgeDatum.from_json(obj)
        N = MatrixGQ.from_json(obj["N"])
        W = None
        if "W" in obj:
            if not isinstance(obj["W"], dict):
                raise ValueError("'W' must be an object from levels to rows, got %s"
                                 % reprlib.repr(obj["W"]))
            levels = {}
            for k, rows in obj["W"].items():
                try:
                    level = int(k)
                except ValueError:
                    raise ValueError("W level %r is not an integer" % k) from None
                try:
                    levels[level] = Subspace(hodge.dim, MatrixGQ.from_json(rows))
                except ValueError as e:
                    raise ValueError("W_%d: %s" % (level, e)) from None
            if levels:
                W = WeightFiltration(hodge.n, levels)
        return LmhsDatum(hodge, N, W)


class Bigrading:
    """Finite collection of bigraded pieces that sum directly to the ambient space."""

    __slots__ = ("ambient_dim", "nodes")

    def __init__(self, ambient_dim, nodes):
        nodes = [(p, q, s) for (p, q, s) in nodes if s.dim > 0]
        nodes.sort(key=lambda t: (t[0], t[1]))
        vecs = [v for _, _, s in nodes for v in s.basis.entries]
        if Subspace.from_vectors(ambient_dim, vecs).dim != len(vecs):
            raise NotMhs("pieces are not in direct sum")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "nodes", tuple(nodes))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def dims(self):
        return {(p, q): s.dim for p, q, s in self.nodes}

    def piece(self, p, q):
        for a, b, s in self.nodes:
            if (a, b) == (p, q):
                return s
        return Subspace.zero(self.ambient_dim)

    def total(self):
        return sum(s.dim for _, _, s in self.nodes)


def deligne_splitting(L):
    """The canonical splitting I^{p,q} of an LMHS, by the standard formula.

    Computed and checked once per datum; later calls return the same
    (immutable) Bigrading.
    """
    bg = L._splitting
    if bg is None:
        bg = _deligne_splitting(L)
        object.__setattr__(L, "_splitting", bg)
    return bg


def _deligne_splitting(L):
    """I^{p,q} = F^p cap W_l cap (conj F^q cap W_l
    + sum_{j>=1} conj F^{q-j} cap W_{l-j-1}), with l = p + q + c - n
    (Cattani-Kaplan-Schmid 1986), checked to be a direct sum that
    recovers W and F.

    The conjugate terms come from two tables built once per datum: conj F^a
    for a = 1..n, and the meets conj F^a cap W_k, memoized by (a, k).  For
    a <= 0 a meet is W_k and for a > n it is 0.  gq.intersect returns 0 for
    a level below W, and X itself for a level that is the whole space,
    without a solve.  The j-sum stops at j = max(q, 1): past it conj F^{q-j}
    is the whole space, so each later term is a W level inside the last
    one.  The terms of the sum are reduced once.  F^p cap W_l is needed
    for one (p, q) only, so it is not memoized.
    """
    F = L.hodge.filtration
    W = L.W
    n = L.n
    c = L.center
    dim = L.dim
    conj_steps = ([Subspace.full(dim)]
                  + [conj_space(F.step(a)) for a in range(1, n + 1)]
                  + [Subspace.zero(dim)])
    meets = {}

    def conj_meet(a, k):
        a = min(max(a, 0), n + 1)
        if (a, k) not in meets:
            meets[a, k] = intersect(conj_steps[a], W.level(k))
        return meets[a, k]

    nodes = []
    for p in range(n + 1):
        for q in range(n + 1):
            lev = c - n + p + q  # weight level of I^{p,q} relative to W's center
            A = intersect(F.step(p), W.level(lev))
            if A.dim == 0:
                continue
            vecs = list(conj_meet(q, lev).basis.entries)
            for j in range(1, max(q, 1) + 1):
                vecs.extend(conj_meet(q - j, lev - j - 1).basis.entries)
            piece = intersect(A, Subspace.from_vectors(dim, vecs))
            if piece.dim:
                nodes.append((p, q, piece))
    bg = Bigrading(dim, nodes)
    _check_reconstruction(L, bg)
    return bg


def _check_reconstruction(L, bg):
    """Every W_k is the sum of the pieces of weight level <= k, and every F^p
    the sum of the pieces I^{a,b} with a >= p.  The pieces are in direct sum
    (Bigrading checks it), so each sum is tested by containment and
    dimension (_is_sum), and none is built."""
    if bg.total() != L.dim:
        raise NotMhs("splitting does not span")
    c, n = L.center, L.n
    W = L.W
    for k in range(W.min_level, W.max_level + 1):
        if not _is_sum(W.level(k), [s for p, q, s in bg.nodes if c - n + p + q <= k]):
            raise NotMhs("weight filtration not recovered at level %d" % k)
    for p0 in range(n + 1):
        if not _is_sum(L.hodge.filtration.step(p0), [s for p, _, s in bg.nodes if p >= p0]):
            raise NotMhs("Hodge filtration not recovered at step %d" % p0)


def _is_sum(X, pieces):
    # X is the sum of pieces in direct sum when it holds each and has their total dim
    return X.dim == sum(s.dim for s in pieces) and all(X.contains(s) for s in pieces)


def _check_splitting(L, bg):
    """Certify that bg is the Deligne splitting of L.

    bg must recover W and F (_check_reconstruction), and conj I^{p,q} must
    lie in I^{q,p} + sum_{a<q, b<p} I^{a,b}.  Only the Deligne splitting
    has these properties (Cattani-Kaplan-Schmid 1986, Thm 2.13).  Raises
    NotMhs naming the first failing piece.
    """
    _check_reconstruction(L, bg)
    for p, q, s in bg.nodes:
        vecs = [v for a, b, t in bg.nodes if (a, b) == (q, p) or (a < q and b < p)
                for v in t.basis.entries]
        if not Subspace.from_vectors(L.dim, vecs).contains(conj_space(s)):
            raise NotMhs("conj I^{%d,%d} not inside I^{%d,%d} + sum_{a<%d,b<%d} I^{a,b}"
                         % (p, q, q, p, q, p))


def is_r_split(bg):
    for p, q, s in bg.nodes:
        if conj_space(s) != bg.piece(q, p):
            return False
    return True


def is_hodge_tate(bg_or_dims):
    if isinstance(bg_or_dims, Bigrading):
        dims = bg_or_dims.dims()
    else:
        dims = bg_or_dims
    return all(p == q for (p, q), d in dims.items() if d)


def qk_form(L, k):
    """Gram matrix of Q_k(v, w) = Q(v, N^k w) on a lift of Gr_{center+k}.

    With the conventions of the constructors in this package the polarization
    direction on every primitive piece comes out positive with no extra sign.
    """
    assert k >= 0
    lift = complement_mod(L.W.level(L.center + k), L.W.level(L.center + k - 1))
    vecs = lift.basis.entries
    return L.hodge.polarization.gram(vecs, vecs, L.power(k))


def primitives(L):
    """Primitive subspaces, one lift per k >= 0.

    Gr_{c+k,prim} = ker(N^{k+1}: Gr_{c+k} -> Gr_{c-k-2}); returned as the
    canonical lift inside W_{c+k} (rows reduced against W_{c+k-1}).
    """
    c = L.center
    out = []
    kmax = L.W.max_level - c
    for k in range(0, kmax + 1):
        upstairs = L.W.level(c + k)
        target = L.W.level(c - k - 3)
        S = intersect(upstairs, preimage(L.power(k + 1), target))
        P = complement_mod(S, L.W.level(c + k - 1))
        out.append((k, P))
    return out


def _primitive_pieces(L, bg):
    """Per level k: pieces I^{p,q} cap ker N^{k+1} with p+q-n = k (centered)."""
    c, n = L.center, L.n
    out = {}
    kmax = L.W.max_level - c
    kernels = L.kernels
    for k in range(0, kmax + 1):
        ker_k = kernels[min(k + 1, len(kernels) - 1)]
        pieces = []
        for p, q, s in bg.nodes:
            if (c - n + p + q) - c != k:
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

    A W given from outside is certified by _check_weight, not recomputed;
    when (a) fails, `weight_filtration_witness` names the failing level.
    """
    report = {"weight_filtration": True}
    if L._given_W:
        try:
            _check_weight(L.N, L.W, L.powers)
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

    # (b): each graded level decomposes, with conjugation symmetry mod lower weight
    okb = True
    c, n = L.center, L.n
    for p, q, s in bg.nodes:
        lower = L.W.level(c - n + p + q - 1)
        target = ssum(bg.piece(q, p), lower) if lower.dim else bg.piece(q, p)
        if not target.contains(conj_space(s)):
            okb = False
    report["graded_hodge"] = okb

    okc = all(maps_into(L.N, s, bg.piece(p - 1, q - 1)) for p, q, s in bg.nodes)
    report["minus_one_minus_one"] = okc

    okd = all(polarizes(L.hodge.polarization, pieces, L.power(k))
              for k, pieces in _primitive_pieces(L, bg).items())
    report["polarized_primitives"] = okd
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
        good = rep["hr1"] and rep["hr2"] and rep["spans"]
        out["samples"].append({"y": str(y), "ok": good, "clauses": rep})
        if not good:
            out["ok"] = False
    return out


class AdjointLmhs:
    """Induced limiting mixed Hodge structure on g = End(V, Q).

    Everything is expressed in coordinates over g_basis; the bigrading, the
    filtrations and the trace form live on that coordinate space.  The
    reduction of the flattened g_basis is kept (private `_solve`): it maps a
    flattened matrix to its g-coordinates, or to None outside g.
    """

    __slots__ = ("g_basis", "I_g", "W_g", "F_g", "killing_proxy", "N_coords",
                 "N_ad", "dimV", "_solve")

    def __init__(self, g_basis, I_g, W_g, F_g, killing_proxy, N_coords, N_ad, dimV,
                 solve):
        for name, val in (("g_basis", g_basis), ("I_g", I_g), ("W_g", W_g),
                          ("F_g", F_g), ("killing_proxy", killing_proxy),
                          ("N_coords", N_coords), ("N_ad", N_ad), ("dimV", dimV),
                          ("_solve", solve)):
            object.__setattr__(self, name, val)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @property
    def dim_g(self):
        return len(self.g_basis)


def _solve_block_elements(Qp, blocks, sizes, offsets, dim):
    """Elements xi of End with the given block support and Q xi + xi^T Q = 0.

    blocks: list of (target_node, source_node) index pairs; unknowns are the
    entries of those blocks in the I-adapted basis.  Returns a list of
    full dim x dim matrices (in the adapted basis).
    """
    unknowns = []  # (row, col) in the adapted basis
    for tgt, src in blocks:
        for a in range(sizes[tgt]):
            for b in range(sizes[src]):
                unknowns.append((offsets[tgt] + a, offsets[src] + b))
    if not unknowns:
        return []
    pos = {rc: idx for idx, rc in enumerate(unknowns)}
    rows = []
    # constraint (Q xi)_{ab} + (xi^T Q)_{ab} = 0; only equations touching unknowns
    touched = set()
    for (r, ccol) in unknowns:
        for a in range(dim):
            if not Qp[a, r].is_zero():
                touched.add((a, ccol))
        for b in range(dim):
            if not Qp[r, b].is_zero():
                touched.add((ccol, b))
    for (a, b) in sorted(touched):
        row = [ZERO] * len(unknowns)
        hit = False
        for c in range(dim):
            if (c, b) in pos and not Qp[a, c].is_zero():
                row[pos[(c, b)]] = row[pos[(c, b)]] + Qp[a, c]
                hit = True
            if (c, a) in pos and not Qp[c, b].is_zero():
                row[pos[(c, a)]] = row[pos[(c, a)]] + Qp[c, b]
                hit = True
        if hit:
            rows.append(row)
    vecs = (kernel(MatrixGQ(rows)) if rows else Subspace.full(len(unknowns))).basis.entries
    mats = []
    for v in vecs:
        ent = [[ZERO] * dim for _ in range(dim)]
        for val, (r, ccol) in zip(v, unknowns):
            ent[r][ccol] = val
        mats.append(MatrixGQ(ent))
    return mats


def _unit_span(dim, indices):
    """The span of the unit vectors e_k for ascending `indices`, in rref."""
    indices = tuple(indices)
    return _canonical(dim, _matrix(tuple(unit_vector(dim, k) for k in indices),
                                   dim, indices))


def _sparse_rows(M):
    """Per row of M, the (col, entry) pairs of its nonzero entries."""
    return [[(j, e) for j, e in enumerate(row) if e] for row in M.entries]


def _bracket(X, Y):
    """[X, Y] = XY - YX, flattened, from the nonzero entries of X and Y given
    per row (_sparse_rows): each nonzero X[i][k] meets the nonzeros of Y's
    row k, and each nonzero Y[i][k] those of X's row k."""
    dim = len(X)
    out = [ZERO] * (dim * dim)
    for i in range(dim):
        base = i * dim
        for k, x in X[i]:
            for j, y in Y[k]:
                out[base + j] += x * y
        for k, y in Y[i]:
            for j, x in X[k]:
                out[base + j] -= y * x
    return out


def adjoint_lmhs(L):
    """Bigrading, filtrations and trace form induced on g = End(V, Q).

    Each I^{p,q}_g is solved for in the frame adapted to the splitting of V
    and conjugated back.  g_basis lists the pieces in turn, so every
    I^{p,q}_g, W_g level and F_g step is a coordinate subspace.  The
    flattened g_basis is reduced once (gq.solver); that reduction gives N's
    coordinates and the columns of ad N, and is kept for diagonal_levi.  Each
    [N, B] is formed from the nonzero entries of N and B (_bracket).  The
    trace form is trace(B_i B_j) = sum_{a,b} B_i[a][b] B_j[b][a], for i <= j.
    """
    bg = deligne_splitting(L)
    if not is_r_split(bg):
        raise NonRSplit("adjoint induction implemented for R-split data only")
    dim = L.dim
    node_list = [(p, q) for p, q, _ in bg.nodes]
    sizes = {}
    offsets = {}
    cols = []
    off = 0
    for p, q, s in bg.nodes:
        sizes[(p, q)] = s.dim
        offsets[(p, q)] = off
        off += s.dim
        cols.extend(s.basis.entries)
    P = MatrixGQ(cols).transpose()  # columns are the adapted basis
    Pinv = inverse(P)
    Qp = L.hodge.polarization.gram(cols, cols)  # form in the adapted basis

    # candidate bidegrees for nonzero I^{p,q}_g
    deltas = sorted({(p2 - p1, q2 - q1) for p1, q1 in node_list for p2, q2 in node_list})
    basis = []
    coord_nodes = []  # (p, q, first coordinate, count)
    for dp, dq in deltas:
        blocks = [((p + dp, q + dq), (p, q)) for p, q in node_list
                  if (p + dp, q + dq) in sizes]
        mats_adapted = _solve_block_elements(Qp, blocks, sizes, offsets, dim)
        if mats_adapted:
            coord_nodes.append((dp, dq, len(basis), len(mats_adapted)))
            basis.extend(P * M * Pinv for M in mats_adapted)
    t = len(basis)

    def coord_subspace(selector):
        return _unit_span(t, [k for p, q, start, count in coord_nodes if selector(p, q)
                              for k in range(start, start + count)])

    I_g = Bigrading(t, [(p, q, coord_subspace(lambda a, b, p=p, q=q: (a, b) == (p, q)))
                        for p, q, _, _ in coord_nodes])

    degs = sorted({p + q for p, q, _, _ in coord_nodes})
    lo, hi = (min(degs), max(degs)) if degs else (0, 0)
    W_levels = {k: coord_subspace(lambda a, b, k=k: a + b <= k) for k in range(lo, hi + 1)}
    W_g = WeightFiltration(0, W_levels)
    ps = sorted({p for p, q, _, _ in coord_nodes}) or [0]
    F_g = {p0: coord_subspace(lambda a, b, p0=p0: a >= p0)
           for p0 in range(min(ps), max(ps) + 1)}

    nonzero = [[(x, e) for x, e in enumerate(B.flatten()) if not e.is_zero()]
               for B in basis]
    flipped = [B.transpose().flatten() for B in basis]
    killing = [[ZERO] * t for _ in range(t)]
    for i in range(t):
        for j in range(i, t):
            killing[i][j] = killing[j][i] = sum(
                (e * flipped[j][x] for x, e in nonzero[i] if flipped[j][x]), ZERO)
    killing = MatrixGQ(killing, cols=t)

    solve = solver([B.flatten() for B in basis])
    coeff = solve(L.N.flatten())
    if coeff is None:
        raise NotMhs("N does not lie in the computed algebra")
    # N must sit in bidegree (-1,-1)
    if not I_g.piece(-1, -1).contains_vector(coeff):
        raise NotMhs("N is not of type (-1,-1) in the adjoint bigrading")

    # ad(N) in g-coordinates
    N_rows = _sparse_rows(L.N)
    ad_cols = []
    for B in basis:
        col = solve(_bracket(N_rows, _sparse_rows(B)))
        if col is None:
            raise ValueError("[N, B] outside the span of g")
        ad_cols.append(col)
    N_ad = MatrixGQ(ad_cols).transpose()
    return AdjointLmhs(basis, I_g, W_g, F_g, killing, coeff, N_ad, dim, solve)


def reduced_limit(bg, n):
    """Limit filtration F_inf^p = (+)_{q <= n-p} I^{.,q} of an R-split splitting."""
    if not is_r_split(bg):
        raise NonRSplit("reduced limit needs an R-split splitting")
    dim = bg.ambient_dim
    return HodgeFiltration(n, [Subspace.full(dim)] + [
        Subspace.from_vectors(dim, [v for _, q, s in bg.nodes if q <= n - p
                                    for v in s.basis.entries])
        for p in range(1, n + 1)])


def diagonal_levi(a):
    """The conjugation-stable Levi s = (+)_p I^{p,p}_g, with its induced LMHS.

    Returns (s_basis, datum) where datum is an LmhsDatum on the coordinate
    space of s (weight shifted to keep filtration indices nonnegative).
    Every I^{p,q}_g is a coordinate subspace of g, so s is a set of
    g-coordinate indices and s_basis the g_basis elements at them.  An
    element lies in s when its g-coordinates (from the reduction kept on `a`)
    vanish off those indices.  [s, s] inside s (each pair once, each bracket
    formed from the nonzero entries of the pair), conjugation stability and N
    in s are checked.  N_s is N_ad restricted to s, checked to map s into s;
    F_s is read off the indices of the pieces, and the trace form is
    -killing_proxy restricted to s.  The induced W and splitting are read
    off the indices too: the piece I^{p,p}_g becomes I^{p+r,p+r} at weight
    level 2(p + r).  Neither is recomputed; W is certified by _check_weight
    and the splitting by _check_splitting, kept on the datum, and asserted
    Hodge-Tate.
    """
    diag = [(p, sub.pivots) for p, q, sub in a.I_g.nodes if p == q]
    idx = sorted(k for _, ks in diag for k in ks)
    ts = len(idx)
    pos = {k: i for i, k in enumerate(idx)}
    outside = [k for k in range(a.dim_g) if k not in pos]
    s_basis = [a.g_basis[k] for k in idx]

    def in_s(flat):
        coords = a._solve(flat)
        if coords is None:
            raise ValueError("matrix outside the span of g")
        return all(coords[k].is_zero() for k in outside)

    sparse = [_sparse_rows(B) for B in s_basis]
    for i, Bi in enumerate(s_basis):
        for Sj in sparse[i + 1:]:
            if not in_s(_bracket(sparse[i], Sj)):
                raise BracketEscape("[s, s] escapes s")
        if not in_s(Bi.conj().flatten()):
            raise BracketEscape("s is not conjugation stable")
    if any(not a.N_coords[k].is_zero() for k in outside):
        raise BracketEscape("N escapes the diagonal Levi")

    # induced data in s-coordinates
    ad = a.N_ad.entries
    if any(not ad[k][j].is_zero() for k in outside for j in idx):
        raise ValueError("[N, s] outside the span of s")
    N_s = MatrixGQ([[ad[k][j] for j in idx] for k in idx], cols=ts)
    r = max((abs(p) for p, _ in diag), default=0)
    n_s = 2 * r

    def span_of(keep):
        return _unit_span(ts, sorted(pos[k] for p, ks in diag if keep(p) for k in ks))

    F_s = HodgeFiltration(n_s, [Subspace.full(ts)] + [
        span_of(lambda p: p >= p0 - r) for p0 in range(1, n_s + 1)])
    levels = [2 * (p + r) for p, _ in diag] or [n_s]
    W_s = WeightFiltration(n_s, {k: span_of(lambda p: 2 * (p + r) <= k)
                                 for k in range(min(levels), max(levels) + 1)})
    K = a.killing_proxy.entries
    tracef = MatrixGQ([[-K[i][j] for j in idx] for i in idx], cols=ts)
    hodge = HodgeDatum(ts, PolarizationForm(n_s, tracef), F_s)
    datum = LmhsDatum(hodge, N_s, W_s)
    _check_weight(N_s, W_s, datum.powers)
    split = Bigrading(ts, [(p + r, p + r, span_of(lambda x: x == p)) for p, _ in diag])
    _check_splitting(datum, split)
    # both certified: validate_lmhs and deligne_splitting take them as computed
    object.__setattr__(datum, "_given_W", False)
    object.__setattr__(datum, "_splitting", split)
    if not is_hodge_tate(split):
        raise BracketEscape("induced diagonal-Levi structure is not Hodge-Tate")
    return s_basis, datum
