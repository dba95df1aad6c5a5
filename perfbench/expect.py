"""The benchmark's own expectations, derived from the theory, not the program.

Splitting dimensions are {(p, q): dim I^{p,q}}.  Every check here returns a
list of problems (empty when the output is right), so the tests can feed it
corrupted outputs and see it object.
"""

import re
from collections import Counter

# dim g for the Lie algebras of the root-system sweep
LIE_DIM = {"A": lambda r: r * (r + 2), "B": lambda r: r * (2 * r + 1),
           "C": lambda r: r * (2 * r + 1), "D": lambda r: r * (2 * r - 1),
           "G": lambda r: 14, "F": lambda r: 52}

# dimension of the representation named in a catalog payload
REP_DIM = {"g2-7": 7, "f4-26": 26}


def principal_hodge(family, param):
    """(weight, h) of the principal-nilpotent limits, h listed h^{n,0} first."""
    if family == "sp":
        return 2 * param - 1, (1,) * (2 * param)
    if family == "so_odd":
        return 2 * param, (1,) * (2 * param + 1)
    if family in ("so_even_mm", "so_even_m2m"):
        n = 2 * param - 2
        h = [1] * (n + 1)
        h[n // 2] = 2
        return n, tuple(h)
    raise ValueError("unknown family %r" % family)


def minimal_dims(n, h, kind, p_o, q_o):
    """Splitting of a minimal degeneration: the pure h with N-strings cut in.

    Kind I has a 2-string I^{p_o+1,q_o} -> I^{p_o,q_o-1} and its conjugate
    (one string when it is self-conjugate); kind II has one 3-string
    I^{m+1,m+1} -> I^{m,m} -> I^{m-1,m-1}, m = n/2.  A node I^{a,b} takes
    its class from h^{a,n-a}.
    """
    dims = Counter({(n - i, i): x for i, x in enumerate(h) if x})
    if kind == "II":
        m = n // 2
        strings = [[(m + 1, m + 1), (m, m), (m - 1, m - 1)]]
    else:
        s = [(p_o + 1, q_o), (p_o, q_o - 1)]
        c = [(b, a) for a, b in s]
        strings = [s] if sorted(c) == sorted(s) else [s, c]
    for s in strings:
        for a, b in s:
            dims[(a, n - a)] -= 1
            dims[(a, b)] += 1
    return {k: v for k, v in dims.items() if v}


def hodge_tate_dims(n, h):
    """Hodge-Tate: everything on the diagonal, I^{p,p} of dimension h^{p,n-p}."""
    return {(n - i, n - i): x for i, x in enumerate(h) if x}


def principal_dims(family, param):
    """One diagonal N-string through every (p, p), p = 0..n (plus w for so_even)."""
    n, h = principal_hodge(family, param)
    return hodge_tate_dims(n, h)


_CASE = re.compile(r"^(minimal|ht)/n=(\d+),h=([\d,]+?)(?:,(I|II)\((\d+),(\d+)\))?$")
_PRINCIPAL = re.compile(r"^principal/(\w+)\((\d+)\)$")


def corpus_expectation(cid):
    """(weight, h, splitting dims) for a corpus case id of `verify-corpus`."""
    m = _PRINCIPAL.match(cid)
    if m:
        fam, param = m.group(1), int(m.group(2))
        n, h = principal_hodge(fam, param)
        return n, h, principal_dims(fam, param)
    m = _CASE.match(cid)
    if not m:
        raise ValueError("unknown corpus case id %r" % cid)
    n, h = int(m.group(2)), tuple(int(x) for x in m.group(3).split(","))
    if m.group(1) == "ht":
        return n, h, hodge_tate_dims(n, h)
    return n, h, minimal_dims(n, h, m.group(4), int(m.group(5)), int(m.group(6)))


def splitting_problems(dims, n, h, want):
    """Problems with splitting dims of a weight-n datum with Hodge numbers h."""
    out = []
    dims = {k: v for k, v in dims.items() if v}
    if sum(dims.values()) != sum(h):
        out.append("dims sum to %d, dim V is %d" % (sum(dims.values()), sum(h)))
    if any(dims.get((q, p)) != d for (p, q), d in dims.items()):
        out.append("dims not symmetric under (p,q) <-> (q,p)")
    for a in range(n + 1):
        got = sum(d for (p, _), d in dims.items() if p == a)
        if got != h[n - a]:
            out.append("F-level %d holds %d classes, h^{%d,%d} is %d"
                       % (a, got, a, n - a, h[n - a]))
    if dims != want:
        out.append("dims %s differ from the expected %s"
                   % (sorted(dims.items()), sorted(want.items())))
    return out


# ----------------------------------------------------------- validate-json

def report_problems(kind, code, report):
    """Problems with one `hodge-degen validate` verdict on a generated file."""
    clauses = ("weight_filtration", "graded_hodge", "minus_one_minus_one",
               "polarized_primitives")
    if kind == "moved":
        bad = [c for c in clauses if report.get(c) is not True]
        if code != 0 or report.get("ok") is not True or bad:
            return ["moved datum: exit %s, failing %s" % (code, bad or ["ok"])]
    elif kind == "neg-q":
        if code != 1 or report.get("polarized_primitives") is not False:
            return ["negated Q: exit %s, polarized_primitives %r"
                    % (code, report.get("polarized_primitives"))]
    elif kind == "shift-w":
        if code != 1 or report.get("weight_filtration") is not False:
            return ["shifted W: exit %s, weight_filtration %r"
                    % (code, report.get("weight_filtration"))]
    else:
        raise ValueError("unknown file kind %r" % kind)
    return []


# ----------------------------------------------------------------- tables

def catalog_problems(entry, got):
    """Problems with a recomputed catalog entry, from dimension counts alone."""
    payload = entry["payload"]
    out = []
    if entry["kind"] == "period-domain":
        V = {(p, q): d for p, q, d in got["V"]["nodes"]}
        total = sum(V.values())
        if total != payload["dim"]:
            out.append("V dims sum to %d, dim is %d" % (total, payload["dim"]))
        if any(V.get((q, p)) != d for (p, q), d in V.items()):
            out.append("V dims not symmetric")
        return out
    rank, letter = payload["rank"], payload["type"]
    if "involution" in payload:
        return orbit_problems(payload["involution"], payload["L"], got["dim_R_orbit"],
                              got["dim_C_dual"], got["closed"])
    V = sum(d for _, _, d in got["V"]["nodes"])
    if V != REP_DIM[payload["rep"]]:
        out.append("V dims sum to %d, the representation has dim %d"
                   % (V, REP_DIM[payload["rep"]]))
    adj = {(p, q): d for p, q, d in got["adjoint"]["nodes"]}
    out += adjoint_problems(letter, rank, adj)
    return out


def adjoint_problems(letter, rank, adj):
    out = []
    if sum(adj.values()) != LIE_DIM[letter](rank):
        out.append("adjoint dims sum to %d, dim g is %d"
                   % (sum(adj.values()), LIE_DIM[letter](rank)))
    if any(adj.get((q, p)) != d for (p, q), d in adj.items()):
        out.append("adjoint dims not symmetric")
    return out


def orbit_problems(involution, L, dR, dC, closed):
    """Compact: dim_R = 2 dim_C, closed iff L is even on every root (iff every
    value on a simple root is even).  Split: dim_R = dim_C and closed."""
    out = []
    if involution == "compact":
        if dR != 2 * dC:
            out.append("compact: dim_R_orbit %d != 2 * dim_C_dual %d" % (dR, dC))
        if closed != all(v % 2 == 0 for v in L):
            out.append("compact: closed is %r for L = %s" % (closed, list(L)))
    elif involution == "split":
        if dR != dC:
            out.append("split: dim_R_orbit %d != dim_C_dual %d" % (dR, dC))
        if closed is not True:
            out.append("split: orbit not closed for L = %s" % (list(L),))
    else:
        raise ValueError("no expectation for involution %r" % involution)
    return out


def diagram_problems(fmt, nodes, text):
    """A rendered diagram marks each node once: by dimension 1 or >= 2."""
    ones = sum(1 for *_, d in nodes if d == 1)
    many = sum(1 for *_, d in nodes if d >= 2)
    if fmt == "ascii":
        got = (text.count("*"), text.count("@"))
    else:
        rings = text.count('fill="none"')  # a ring and a dot per node of dim >= 2
        got = (text.count("<circle") - 2 * rings, rings)
    if got != (ones, many):
        return ["%s diagram marks %s nodes of dim 1 and >= 2, expected %s"
                % (fmt, got, (ones, many))]
    return []
