"""Classifiers and constructors for extremal degenerations.

Minimal (codimension-one) degeneration types with explicit low-rank
witnesses; the Hodge-Tate feasibility gate and constructor; closed-orbit
constraint checkers; principal-nilpotent limiting structures for the
classical families.

Every constructor is a sum of N-strings, each one hodge.string_block: a
(Q, N, basis) block with every basis vector labelled by its Deligne bidegree
(p, q).  One assembly path, _direct_sum, hands the sum to
lmhs.labelled_datum, which reads F, W and the splitting off the labels and
certifies them, so that neither W nor the splitting is solved.

A minimal type is one long string plus a pure rest, which give its table,
admissibility and witness; kind II's h^{m,m} odd is the one other rule.
"""

from collections import Counter

from .gq import Immutable
from .hodge import HodgeNumbers, string_labels, string_block, block_sum, pure_blocks
from .lmhs import NotMhs, labelled_datum, validate_lmhs, is_hodge_tate
from .diagrams import triples


class InfeasibleType(ValueError):
    pass


class GateFailed(ValueError):
    pass


class ParityViolation(ValueError):
    pass


class OddWeightNonHT(ValueError):
    pass


class MinimalType(Immutable):
    """One admissible minimal degeneration: kind I (2-strings) or II (3-string)."""

    __slots__ = ("kind", "p_o", "q_o", "i_table")

    def __init__(self, kind, p_o, q_o, i_table):
        i_table = {k: v for k, v in i_table.items() if v}
        for (p, q), v in i_table.items():
            if v < 0:
                raise InfeasibleType("negative multiplicity at (%d, %d)" % (p, q))
            if i_table.get((q, p), 0) != v:
                raise InfeasibleType("i-table not symmetric")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p_o", p_o)
        object.__setattr__(self, "q_o", q_o)
        object.__setattr__(self, "i_table", i_table)

    def triples(self):
        return triples(self.i_table)

    def __repr__(self):
        return "MinimalType(%s, p_o=%s, q_o=%s)" % (self.kind, self.p_o, self.q_o)


def _long_string(n, kind, p_o, q_o):
    """(top, length) of a minimal type's one long string: for kind II the
    real 3-string at (m+1, m+1), m = n/2; for kind I the 2-string at
    (p_o+1, q_o), real when p_o+1 = q_o and with its conjugate otherwise."""
    if kind == "II":
        return (n // 2 + 1, n // 2 + 1), 3
    return (p_o + 1, q_o), 2


def _rest(n, h, labels):
    """The HodgeNumbers left when each label (p, q) takes one class of
    V^{p,n-p}, or None when some V^{p,n-p} runs short."""
    taken = Counter(p for p, _ in labels)
    if any(h.hpq(p, n - p) < k for p, k in taken.items()):
        return None
    return HodgeNumbers(n, [h.hpq(p, n - p) - taken[p] for p in range(n, -1, -1)])


def minimal_types(n, h):
    """All minimal degeneration types admissible for weight n Hodge numbers h:
    of kind I for p_o < n/2 and kind II when h^{m,m} is odd, those whose long
    string leaves a rest.  A table is the string's labels plus the rest."""
    candidates = [("I", p_o, n - p_o) for p_o in range((n + 1) // 2)]
    if n % 2 == 0 and h.hpq(n // 2, n // 2) % 2:
        candidates.append(("II", n // 2 - 1, n // 2 + 1))
    out = []
    for kind, p_o, q_o in candidates:
        labels = string_labels(n, *_long_string(n, kind, p_o, q_o))
        rest = _rest(n, h, labels)
        if rest is not None:
            table = Counter(labels)
            table.update({(p, n - p): rest.hpq(p, n - p) for p in range(n + 1)})
            out.append(MinimalType(kind, p_o, q_o, table))
    return out


def _direct_sum(n, blocks):
    """Assemble an LmhsDatum from (Q, N, basis) blocks, `basis` a list of
    (vector, (p, q)) labelled by Deligne bidegree, with no formula solved:
    F, W and the splitting are read off the labels and certified
    (lmhs.labelled_datum).  Labels that the certificate rejects raise
    InfeasibleType with its text and the labels.
    """
    Q, N, basis = block_sum(blocks)
    try:
        return labelled_datum(n, Q, N, basis)
    except NotMhs as e:
        raise InfeasibleType("labels %s are not the Deligne splitting: %s"
                             % (dict(Counter(label for _, label in basis)), e)) from None


def minimal_witness(t, n, h):
    """Explicit LMHS realizing a minimal type: its long string block plus the
    pure rest, certified by _direct_sum to split as t.i_table."""
    if (t.kind, t.p_o, t.q_o, t.i_table) not in [
            (u.kind, u.p_o, u.q_o, u.i_table) for u in minimal_types(n, h)]:
        raise InfeasibleType("type not admissible for these Hodge numbers")
    block = string_block(n, *_long_string(n, t.kind, t.p_o, t.q_o))
    rest = _rest(n, h, [label for _, label in block[2]])
    L = _direct_sum(n, [block] + pure_blocks(rest))
    if not validate_lmhs(L)["ok"]:
        raise InfeasibleType("witness fails the nilpotent-orbit certificate")
    return L


def ht_gate(n, h):
    """h^{n,0} <= h^{n-1,1} <= ... <= h^{n-m,m}."""
    m = n // 2
    vals = [h.hpq(n - k, k) for k in range(m + 1)]
    return all(a <= b for a, b in zip(vals, vals[1:]))


def ht_plan(n, h):
    """The multiplicities d_k of the real strings e^{n-k} -> ... -> e^k that
    realize a Hodge-Tate limit, k = 0, ..., n // 2."""
    if not ht_gate(n, h):
        raise GateFailed("Hodge numbers do not pass the monotone gate")
    m = n // 2
    d = [h.hpq(n, 0)]
    for k in range(1, m + 1):
        d.append(h.hpq(n - k, k) - h.hpq(n - k + 1, k - 1))
    return tuple(d)


def ht_construct(n, h):
    """Hodge-Tate degeneration as a direct sum of real strings, top first."""
    blocks = [string_block(n, (n - k, n - k), n - 2 * k + 1)
              for k, dk in enumerate(ht_plan(n, h)) for _ in range(dk)]
    if not blocks:
        raise GateFailed("empty structure")
    rest = _rest(n, h, [label for _, _, basis in blocks for _, label in basis])
    if rest is None or rest.dim:
        raise AssertionError("Hodge-Tate plan misses the Hodge numbers %s" % (h.h,))
    return _direct_sum(n, blocks)


def cp_orb_check(dims, strings=()):
    """Necessary constraints on an adjoint splitting for a closed-orbit limit.

    dims: a {(p, q): dim} map; strings: iterable of {"top": (p, q),
    "length": L} N-string descriptors.
    """
    dims = {k: v for k, v in dims.items() if v}
    c1 = all(not (p > 0 > q and p != -q) and not (q > 0 > p and q != -p)
             for p, q in dims)
    c2 = all(not (abs(p) >= 3 and abs(p) % 2 == 1 and q == -p) for p, q in dims)
    c3 = all(abs(p - q) <= 2 for p, q in dims if p + q != 0)
    c4 = True
    for s in strings:
        top = tuple(s["top"])
        length = s["length"]
        nodes = [(top[0] - j, top[1] - j) for j in range(length)]
        if any(q - p == 2 for p, q in nodes) or any(p - q == 2 for p, q in nodes):
            if length % 4 != 3:
                c4 = False
    report = {
        "no_mixed_quadrant": c1,
        "no_odd_antidiagonal": c2,
        "bandwidth_two": c3,
        "string_length_mod4": c4,
    }
    report["ok"] = c1 and c2 and c3 and c4
    return report


def period_closed_check(dims, n):
    """Necessary shape of a period-domain LMHS whose limit meets the closed orbit.

    Input is the {(p, q): dim} map of the splitting.  Either it is
    Hodge-Tate, or (weight even) the non-HT clauses are checked.  The result
    is only ever "consistent with" the closed orbit.
    """
    if is_hodge_tate(dims):
        return {"branch": "hodge-tate", "consistent_with_closed_orbit": True}
    dims = {k: v for k, v in dims.items() if v}
    if n % 2:
        raise OddWeightNonHT("odd weight limits meeting the closed orbit "
                             "must be Hodge-Tate")
    m = n // 2

    def prim(p, q):
        return dims.get((p, q), 0) - dims.get((p + 1, q + 1), 0)

    report = {"branch": "non-hodge-tate"}
    ok_a = ok_b = ok_c = True
    kmax = max(p + q for p, q in dims) - n
    for k in range(0, kmax + 1):
        for (p, q) in list(dims):
            if p + q != n + k or prim(p, q) <= 0:
                continue
            if k > 0:
                if p != q:
                    ok_a = False
                elif k % 4 != 2:
                    ok_b = False
            else:
                if p != q and (p, q) not in ((m + 1, m - 1), (m - 1, m + 1)):
                    ok_c = False
    vshape = all(p == q or (p, q) in ((m + 1, m - 1), (m - 1, m + 1))
                 for p, q in dims)
    report["prim_offdiag_only_at_k0"] = ok_a
    report["prim_levels_2_mod_4"] = ok_b
    report["middle_prim_adjacent_only"] = ok_c
    report["v_shape"] = vshape
    report["consistent_with_closed_orbit"] = ok_a and ok_b and ok_c and vshape
    return report


def _principal_weight(family, param):
    """The weight of a principal family's V; ParityViolation unless `family`
    is a principal family and `param` fits it."""
    if family in ("sp", "so_odd"):
        if param < 1:
            raise ParityViolation("need %s >= 1" % ("n" if family == "sp" else "m"))
        return 2 * param - 1 if family == "sp" else 2 * param
    if family in ("so_even_mm", "so_even_m2m"):
        if param < 2 or param % 2:
            raise ParityViolation("need m even, m >= 2")
        return 2 * param - 2
    raise ParityViolation("unknown family %r" % family)


def principal_lmhs(family, param):
    """Principal-nilpotent limiting structures for the classical families.

    sp(n): dim 2n, weight 2n-1, h = (1,...,1)
    so_odd(m): dim 2m+1, weight 2m, h = (1,...,1)
    so_even_mm / so_even_m2m (m even): dim 2m, weight 2m-2,
        h = (1,...,1,2,1,...,1), with the extra vector w in I^{m-1,m-1}
    """
    weight = _principal_weight(family, param)
    if family in ("sp", "so_odd"):
        # b_a = N^a v at I^{weight-a, weight-a}
        return _direct_sum(weight, [string_block(weight, (weight, weight), weight + 1)])
    # so_even: the two real forms so(m,m), so(m+2,m) share this normal form
    return _direct_sum(weight, [string_block(weight, (param - 1, param - 1), 1),
                                string_block(weight, (weight, weight), weight + 1)])


def principal_neutral_char(family, param):
    """Characteristic vector of the neutral element over the matching root system.

    Built from the V-eigenvalues of the sl2 neutral element Y (string
    positions), evaluated on the simple roots in orthogonal coordinates.
    """
    from .roots import build_root_system, GradingElement, characteristic_vector
    weight = _principal_weight(family, param)
    rs = build_root_system({"sp": "C", "so_odd": "B"}.get(family, "D"), param)
    evals = [weight - 2 * i for i in range(param)]  # the positions of the top string
    vals = []
    for a in rs.simple_roots:
        coords = rs.orthogonal(a)
        vals.append(sum(c * e for c, e in zip(coords, evals)))
    Y = GradingElement(vals)
    return characteristic_vector(rs, Y)
