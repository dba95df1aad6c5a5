"""Root-vector normal forms of the boundary: for a weight n period domain with
dim V = d, one nilpotent N in g = End(V, Q) per root of sp(d) (n odd) or
so(d) (n even), each a sum of two matrix units.  They are the data of the
boundary-exhaustion checks, not of any package path.
"""

from hodge_degen.gq import MatrixGQ, gq, ZERO, ONE
from hodge_degen.classify import ParityViolation


def normal_forms(n, d):
    """Root-vector normal forms for a weight n period domain with dim V = d.

    Returns (Q, forms) where forms is a list of (tag, N) with N in End(V, Q).
    """
    if n % 2:
        if d % 2:
            raise ParityViolation("odd weight needs even dimension")
        c = d // 2
        Qe = [[ZERO] * d for _ in range(d)]
        for i in range(c):
            Qe[i][c + i] = ONE
            Qe[c + i][i] = gq(-1)
        forms = []
        for i in range(c):
            for j in range(c):
                if i != j:
                    forms.append(("sp:e%d_%d" % (i, j),
                                  _units(d, [(i, j, 1), (c + j, c + i, -1)])))
                if i <= j:
                    forms.append(("sp:lower%d_%d" % (i, j),
                                  _units(d, [(c + i, j, 1), (c + j, i, 1)])))
                    forms.append(("sp:upper%d_%d" % (i, j),
                                  _units(d, [(i, c + j, 1), (j, c + i, 1)])))
    else:
        c = d // 2
        Qe = [[ZERO] * d for _ in range(d)]
        for i in range(c):
            Qe[i][c + i] = ONE
            Qe[c + i][i] = ONE
        if d % 2:
            Qe[d - 1][d - 1] = ONE
        forms = []
        for i in range(c):
            for j in range(c):
                if i != j:
                    forms.append(("so:e%d_%d" % (i, j),
                                  _units(d, [(i, j, 1), (c + j, c + i, -1)])))
                if i < j:
                    forms.append(("so:lower%d_%d" % (i, j),
                                  _units(d, [(c + i, j, 1), (c + j, i, -1)])))
                    forms.append(("so:upper%d_%d" % (i, j),
                                  _units(d, [(i, c + j, 1), (j, c + i, -1)])))
        if d % 2:
            last = d - 1
            for i in range(c):
                forms.append(("so:tail_low%d" % i,
                              _units(d, [(last, i, 1), (c + i, last, -1)])))
                forms.append(("so:tail_up%d" % i,
                              _units(d, [(last, c + i, 1), (i, last, -1)])))
    Q = MatrixGQ(Qe)
    for tag, N in forms:
        if not (Q * N + N.transpose() * Q).is_zero():
            raise AssertionError("form %s is not in g" % tag)
    return Q, forms


def _units(d, entries):
    M = [[ZERO] * d for _ in range(d)]
    for i, j, v in entries:
        M[i][j] = gq(v)
    return MatrixGQ(M)
