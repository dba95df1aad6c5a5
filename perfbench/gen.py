"""Inputs of the validate-json workload, made from a seed.

Each base datum is moved by a random g in Aut(V, Q) over Q: the Cayley
transform g = (I - X)^-1 (I + X) of a sparse random X in the Lie algebra
{X : X^T Q + Q X = 0}.  The move keeps Q and gives N, F and W dense
coordinates.  All arithmetic here is the benchmark's own (Fractions), so the
inputs do not depend on the program's linear algebra; only the base data
come from the program's constructors.
"""

import json
import os
import random
from fractions import Fraction

# ------------------------------------------------------------- scalars
# A scalar is a pair (re, im) of Fractions, written in the datum format
# "a/b", "c/d*i" or "a/b+c/d*i".


def parse(s):
    s = s.replace(" ", "")
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1].rstrip("*")
    cut = max(body.rfind("+"), body.rfind("-"))
    re_txt, im_txt = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    if im_txt in ("", "+", "-"):
        im_txt += "1"
    return (Fraction(re_txt) if re_txt else Fraction(0), Fraction(im_txt))


def _frac(f):
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def fmt(z):
    re, im = z
    if im == 0:
        return _frac(re)
    im_txt = _frac(im) + "*i"
    if re == 0:
        return im_txt
    return _frac(re) + ("+" if im > 0 else "") + im_txt


# ------------------------------------------------ rational matrices (real)

def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col) if a and b), Fraction(0))
             for col in Bt] for row in A]


def transpose(A):
    return [list(r) for r in zip(*A)]


def inverse(M):
    """Gauss-Jordan inverse over Q; None when M is singular."""
    n = len(M)
    A = [list(row) + identity(n)[i] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        d = A[col][col]
        A[col] = [x / d for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def preserves(g, Q):
    """g^T Q g == Q, exactly."""
    return matmul(matmul(transpose(g), Q), g) == Q


def cayley_element(Q, rng, nonzeros):
    """A random g with g^T Q g = Q, drawn as the Cayley transform of a sparse X.

    X = Q^-1 A with A^T = -eps A when Q^T = eps Q, so X^T Q + Q X = 0.
    Draws again while I - X is singular.
    """
    n = len(Q)
    eps = 1 if Q == transpose(Q) else -1
    Qinv = inverse(Q)
    while True:
        A = [[Fraction(0)] * n for _ in range(n)]
        for _ in range(nonzeros):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j and eps == 1:
                continue  # a skew A has a zero diagonal
            v = Fraction(rng.choice((-2, -1, 1, 2)))
            A[i][j] += v
            if i != j:
                A[j][i] -= eps * v
        X = matmul(Qinv, A)
        I = identity(n)
        inv = inverse([[I[i][j] - X[i][j] for j in range(n)] for i in range(n)])
        if inv is None:
            continue
        g = matmul(inv, [[I[i][j] + X[i][j] for j in range(n)] for i in range(n)])
        if not preserves(g, Q):
            raise AssertionError("Cayley transform left Aut(V, Q)")
        return g


# ------------------------------------------------------------ moving data

def _apply(g, vec):
    # g real, vec complex: (g v)_i = sum_j g_ij v_j
    out = []
    for row in g:
        re = sum((a * v[0] for a, v in zip(row, vec) if a and v[0]), Fraction(0))
        im = sum((a * v[1] for a, v in zip(row, vec) if a and v[1]), Fraction(0))
        out.append((re, im))
    return out


def _move_rows(g, rows):
    return [[fmt(z) for z in _apply(g, [parse(s) for s in row])] for row in rows]


def real_matrix(rows):
    out = []
    for row in rows:
        vals = [parse(s) for s in row]
        if any(im for _, im in vals):
            raise ValueError("expected a real matrix")
        out.append([re for re, _ in vals])
    return out


def move(obj, g, with_w):
    """The datum obj (JSON form) in the coordinates v -> g v.

    Q is unchanged because g preserves it; N becomes g N g^-1; every row
    vector of F and W is mapped by g.
    """
    Q = real_matrix(obj["Q"])
    ginv = matmul(matmul(inverse(Q), transpose(g)), Q)  # g^-1 = Q^-1 g^T Q
    N = real_matrix(obj["N"])
    out = {"dim": obj["dim"], "weight": obj["weight"], "Q": obj["Q"],
           "N": [[fmt((x, Fraction(0))) for x in row]
                 for row in matmul(matmul(g, N), ginv)],
           "F": {p: _move_rows(g, rows) for p, rows in obj["F"].items()}}
    if with_w:
        out["W"] = {k: _move_rows(g, rows) for k, rows in obj["W"].items()}
    return out


def negate_q(obj):
    """The same datum with -Q: the primitive pieces are no longer polarized."""
    out = dict(obj)
    out["Q"] = [[fmt((-re, -im)) for re, im in map(parse, row)] for row in obj["Q"]]
    return out


def shift_w(obj):
    """The same datum with W_k replaced by W_{k-1}: W is no longer N's."""
    out = dict(obj)
    out["W"] = {str(int(k) + 1): rows for k, rows in obj["W"].items()}
    return out


# ------------------------------------------------------------------ files

# Nonzero entries drawn per dimension of V for X.  About four per dimension
# make g fully dense, so the cost of a moved datum varies little between
# draws (one per dimension left it varying by 35-40% between seeds).
NONZEROS_PER_DIM = 4


def copies(obj, rng):
    """The four files made from one base: [(name, kind, datum JSON)].

    Two copies moved by independent draws of g, one with W and one without;
    the one without W with Q negated; the one with W with W shifted.
    """
    Q = real_matrix(obj["Q"])
    with_w = move(obj, cayley_element(Q, rng, NONZEROS_PER_DIM * len(Q)), True)
    no_w = move(obj, cayley_element(Q, rng, NONZEROS_PER_DIM * len(Q)), False)
    return [("moved-w", "moved", with_w), ("moved", "moved", no_w),
            ("neg-q", "neg-q", negate_q(no_w)), ("shift-w", "shift-w", shift_w(with_w))]


def write_files(bases, seed, outdir):
    """Write every copy of every base; return [(path, kind, base label)].

    bases: [(label, datum JSON)].  The draws depend on the seed and the label
    only, so the same seed gives byte-identical files.
    """
    os.makedirs(outdir, exist_ok=True)
    out = []
    for label, obj in bases:
        rng = random.Random("%d/%s" % (seed, label))
        for name, kind, datum in copies(obj, rng):
            path = os.path.join(outdir, "%s.%s.json" % (label, name))
            with open(path, "w") as fh:
                json.dump(datum, fh, sort_keys=True)
            out.append((path, kind, label))
    return out
