"""Seeded rational Cayley transforms in Aut(V, Q), and data moved by them.

g = (I - X)^-1 (I + X) with X^T Q + Q X = 0 satisfies g^T Q g = Q.  All
arithmetic here is on Fractions, so a moved datum does not depend on the
linear algebra it is used to test.  Data go in and out through their JSON
form, which the package parses with its checked constructors.
"""

from fractions import Fraction

from hodge_degen.gq import GaussianRational, format_scalar, parse_scalar


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(r) for r in zip(*A)]


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col) if a and b), Fraction(0))
             for col in Bt] for row in A]


def inverse(M):
    """Gauss-Jordan inverse over Q; None when M is singular."""
    n = len(M)
    A = [list(row) + unit for row, unit in zip(M, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        d = A[col][col]
        A[col] = [x / d for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def cayley_element(Q, rng, nonzeros):
    """A random g with g^T Q g = Q: the Cayley transform of X = Q^-1 A, with
    `nonzeros` draws into A and A^T = -eps A when Q^T = eps Q.  Draws again
    while I - X is singular."""
    n = len(Q)
    eps = 1 if Q == transpose(Q) else -1
    Qinv = inverse(Q)
    I = identity(n)
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
        inv = inverse([[I[i][j] - X[i][j] for j in range(n)] for i in range(n)])
        if inv is None:
            continue
        g = matmul(inv, [[I[i][j] + X[i][j] for j in range(n)] for i in range(n)])
        if matmul(matmul(transpose(g), Q), g) != Q:  # explicit, so it runs under python -O
            raise AssertionError("the Cayley element does not preserve Q")
        return g


def _pairs(rows):
    # JSON scalar strings -> (re, im) Fraction pairs
    return [[(z.re, z.im) for z in map(parse_scalar, row)] for row in rows]


def _strings(rows):
    return [[format_scalar(GaussianRational(re, im)) for re, im in row] for row in rows]


def real_matrix(rows):
    """The Fraction matrix of a real JSON matrix."""
    return [[re for re, _ in row] for row in _pairs(rows)]


def _move_rows(g, rows):
    # each row vector v -> g v
    out = []
    for v in _pairs(rows):
        out.append([(sum((a * x for a, (x, _) in zip(grow, v)), Fraction(0)),
                     sum((a * y for a, (_, y) in zip(grow, v)), Fraction(0)))
                    for grow in g])
    return _strings(out)


def move(obj, g, with_w):
    """The datum obj (JSON form) in the coordinates v -> g v: Q is kept, N
    becomes g N g^-1, and every row vector of F (and of W when with_w; W is
    dropped otherwise) is mapped by g."""
    Q, N = real_matrix(obj["Q"]), real_matrix(obj["N"])
    ginv = matmul(matmul(inverse(Q), transpose(g)), Q)  # g^-1 = Q^-1 g^T Q
    out = {"dim": obj["dim"], "weight": obj["weight"], "Q": obj["Q"],
           "N": _strings([[(x, 0) for x in row] for row in matmul(matmul(g, N), ginv)]),
           "F": {p: _move_rows(g, rows) for p, rows in obj["F"].items()}}
    if with_w:
        out["W"] = {k: _move_rows(g, rows) for k, rows in obj["W"].items()}
    return out
