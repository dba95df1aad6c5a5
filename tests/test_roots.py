"""Root systems, grading elements, bigradings, sl2 data, real-form orbits."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hodge_degen import roots
from hodge_degen.gq import MatrixGQ, inverse
from hodge_degen.roots import (
    build_root_system, GradingElement, rep_weights, adjoint_bigrading,
    rep_bigrading, characteristic_vector, named_involution, compact_involution,
    split_involution, cayley_involution, orbit_dims, closed_orbit_criterion,
    InvolutionDatum,
    UnsupportedType, HalfIntegralityViolation, NotNormalizable,
    EntryOutOfRange, InconsistentInvolutions, NonIntegralGrading,
)


# ------------------------------------------------------------ enumeration

def test_root_counts():
    assert len(build_root_system("A", 2).all_roots) == 6
    assert len(build_root_system("A", 3).all_roots) == 12
    assert len(build_root_system("B", 3).all_roots) == 18
    assert len(build_root_system("C", 3).all_roots) == 18
    assert len(build_root_system("D", 4).all_roots) == 24
    assert len(build_root_system("G", 2).all_roots) == 12
    assert len(build_root_system("F", 4).all_roots) == 48


CLOSURE_SYSTEMS = ([("A", r) for r in range(1, 7)] + [(t, r) for t in "BC" for r in range(2, 7)]
                   + [("D", r) for r in range(3, 7)] + [("G", 2), ("F", 4)])


@pytest.mark.parametrize("letter, rank", CLOSURE_SYSTEMS)
def test_roots_are_the_closure_of_the_simple_roots(letter, rank):
    # the closure of the simple roots under the simple reflections, each
    # applied as its matrix by a mat-vec
    rs = build_root_system(letter, rank)
    reflections = [roots.reflection_matrix(rs, s) for s in rs.simple_roots]
    found, frontier = set(rs.simple_roots), list(rs.simple_roots)
    while frontier:
        frontier = [b for b in {matvec(S, a) for a in frontier for S in reflections}
                    if b not in found]
        found.update(frontier)
    assert rs.all_roots == tuple(sorted(found))


@pytest.mark.parametrize("letter, rank", CLOSURE_SYSTEMS)
def test_all_roots_are_the_negated_positives_then_the_positives(letter, rank):
    # the order compact_involution reads -alpha_i = alpha_{n-1-i} off: the
    # positive half, every coordinate nonnegative, sorted, and before it its
    # negation in reverse
    rs = build_root_system(letter, rank)
    half = len(rs.all_roots) // 2
    negatives, positives = rs.all_roots[:half], rs.all_roots[half:]
    assert all(min(a) >= 0 for a in positives) and list(positives) == sorted(positives)
    assert negatives == tuple(tuple(-x for x in a) for a in reversed(positives))


def test_unsupported_type():
    with pytest.raises(UnsupportedType):
        build_root_system("E", 8)


def test_cartan_matrices_standard():
    assert build_root_system("A", 2).cartan_matrix == ((2, -1), (-1, 2))
    # the G2 convention here: alpha_1 short, <alpha_2, alpha_1 vee> = -3
    C = build_root_system("G", 2).cartan_matrix
    assert sorted([C[0][1], C[1][0]]) == [-3, -1]
    assert C[0][0] == C[1][1] == 2
    C4 = build_root_system("F", 4).cartan_matrix
    assert C4 == ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))


@pytest.mark.parametrize("letter, rank", [(t, r) for t in "ABCD" for r in (3, 4, 5)]
                         + [("G", 2), ("F", 4)])
def test_cartan_inverse(letter, rank):
    C = MatrixGQ(build_root_system(letter, rank).cartan_matrix)
    assert inverse(C) * C == MatrixGQ.identity(rank)
    with pytest.raises(ValueError, match="not invertible"):
        inverse(MatrixGQ(C.entries[:-1] + C.entries[:1]))


def test_highest_root_g2():
    # the G2 convention of the roots module: highest root 3 alpha_1 + 2 alpha_2
    rs = build_root_system("G", 2)
    assert max(rs.all_roots, key=lambda a: (sum(a), a)) == (3, 2)


def test_short_long_split_counts():
    rs = build_root_system("G", 2)
    assert len(rs.short_roots()) == 6
    rs = build_root_system("F", 4)
    assert len(rs.short_roots()) == 24


def test_fundamental_weight_pairing():
    # <omega_i, alpha_j vee> = delta_ij, omega_i the rows of the inverse
    # Cartan matrix in simple-root coordinates
    for tl, r in (("A", 3), ("B", 2), ("G", 2), ("F", 4)):
        rs = build_root_system(tl, r)
        inv = inverse(MatrixGQ(rs.cartan_matrix))
        for i in range(r):
            omega = [inv[i, j].re for j in range(r)]
            for j in range(r):
                beta = rs.simple_roots[j]
                val = Fraction(2 * rs._form(omega, beta), rs._form(beta, beta))
                assert val == (1 if i == j else 0)


def test_rep_weights_masses():
    rs = build_root_system("G", 2)
    assert sum(m for _, m in rep_weights(rs, "g2-7")) == 7
    rs = build_root_system("F", 4)
    assert sum(m for _, m in rep_weights(rs, "f4-26")) == 26


@pytest.mark.parametrize("letter,rank,name,message", [
    ("F", 4, "g2-7", "g2-7 needs a G2 root system"),
    ("G", 2, "f4-26", "f4-26 needs an F4 root system"),
    ("G", 2, "e8-248", "unknown representation 'e8-248'"),
])
def test_rep_weights_rejects_another_group_or_name(letter, rank, name, message):
    with pytest.raises(UnsupportedType, match="^%s$" % message):
        rep_weights(build_root_system(letter, rank), name)


# ------------------------------------------------------------ gradings

def test_adjoint_bigrading_mass_and_symmetry():
    rs = build_root_system("F", 4)
    L = GradingElement((1, 1, 1, 1))
    dims = adjoint_bigrading(rs, L, None)
    assert sum(dims.values()) == 52
    for (p, q), d in dims.items():
        assert dims.get((-p, -q), 0) == d or (p, q) == (0, 0)


def test_rep_bigrading_half_integrality():
    rs = build_root_system("G", 2)
    w = rep_weights(rs, "g2-7")
    with pytest.raises(HalfIntegralityViolation):
        rep_bigrading(w, GradingElement((1, 1)), None, 5)  # odd weight shift


# ------------------------------------------------------------ sl2 data

def test_characteristic_vector_examples():
    rs = build_root_system("A", 2)
    # principal: all 2; normalizes from a negative chamber too
    assert characteristic_vector(rs, GradingElement((2, 2))) == (2, 2)
    assert characteristic_vector(rs, GradingElement((-1, 1))) in ((1, 0), (0, 1))


def test_characteristic_vector_range_check():
    rs = build_root_system("A", 2)
    with pytest.raises(EntryOutOfRange):
        characteristic_vector(rs, GradingElement((4, 0)))
    with pytest.raises(NotNormalizable):
        characteristic_vector(rs, GradingElement((Fraction(1, 2), 0)))


# ------------------------------------------------------------ involutions

def test_named_involutions_consistent():
    rs = build_root_system("G", 2)
    for name in ("compact", "split", "cayley:1,0"):
        inv = named_involution(rs, name)
        assert isinstance(inv, InvolutionDatum)
    with pytest.raises(UnsupportedType):
        named_involution(rs, "bogus")


@pytest.mark.parametrize("sigma, message", [
    (((1, 1), (0, 1)), "sigma is not an involution"),
    (((1, 0), (0, -1)), "does not permute roots"),  # alpha_1 + alpha_2 to (1, -1)
    (((1, 0, 5), (0, 1, 7)), "sigma is not an involution"),  # not square
])
def test_each_involution_check_enforced(sigma, message):
    with pytest.raises(InconsistentInvolutions, match=message):
        InvolutionDatum(sigma, build_root_system("A", 2))


def test_diagram_flip_has_no_imaginary_root():
    # the diagram flip of A2 swaps alpha_1 and alpha_2 and fixes their sum:
    # no root is imaginary; under -1 (compact) every root is
    rs = build_root_system("A", 2)
    flip = InvolutionDatum(((0, 1), (1, 0)), rs)
    assert [rs.all_roots[j] for j in flip._conj] == [matvec(((0, 1), (1, 0)), a)
                                                      for a in rs.all_roots]
    assert not any(flip._imag)
    assert all(compact_involution(rs)._imag) and not any(split_involution(rs)._imag)


@pytest.mark.parametrize("letter, rank", CLOSURE_SYSTEMS)
def test_compact_and_split_equal_the_checked_involutions(letter, rank):
    # the compact and split involutions are read off the root order with no
    # check; the checked constructor, which squares sigma and looks up each
    # image, gives the same data for sigma = -I and I
    rs = build_root_system(letter, rank)
    one = tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))
    for trusted, sigma in ((compact_involution(rs), tuple(tuple(-x for x in row) for row in one)),
                           (split_involution(rs), one)):
        checked = InvolutionDatum(sigma, rs)
        assert (trusted._conj, trusted._imag) == (checked._conj, checked._imag)


# the root systems of the benchmark's tables sweep
SWEEP_SYSTEMS = [(t, r) for t in "ABCD" for r in (3, 4, 5)] + [("G", 2), ("F", 4)]


@pytest.mark.parametrize("letter, rank", SWEEP_SYSTEMS)
def test_sigma_alone_gives_the_imaginary_roots(letter, rank):
    # _conj and _imag of the compact, the split and every Cayley involution,
    # against sigma applied to each root by a mat-vec and looked up
    rs = build_root_system(letter, rank)
    names = ["compact", "split"] + ["cayley:" + ",".join(map(str, beta))
                                    for beta in positive_roots(rs)]
    for name in names:
        sigma = reference_sigma(rs, name)
        images = [matvec(sigma, a) for a in rs.all_roots]
        inv = named_involution(rs, name)
        assert inv._conj == tuple(rs.all_roots.index(sa) for sa in images), name
        assert inv._imag == tuple(sa == tuple(-x for x in a)
                                  for a, sa in zip(rs.all_roots, images)), name


def test_orbit_dims_open_orbit_compact_form():
    rs = build_root_system("G", 2)
    L = GradingElement((1, 1))
    info = orbit_dims(rs, L, compact_involution(rs))
    # open orbit: real dimension is twice the complex flag dimension
    assert info["dim_R_orbit"] == 2 * info["dim_C_dual"] == 12
    assert info["dim_KR_orbit"] == 2
    assert not closed_orbit_criterion(rs, L, compact_involution(rs))


def test_orbit_dims_closed_orbit_split_form():
    rs = build_root_system("G", 2)
    L = GradingElement((1, 1))
    info = orbit_dims(rs, L, split_involution(rs))
    assert info["dim_R_orbit"] == info["dim_KR_orbit"] == 6
    assert closed_orbit_criterion(rs, L, split_involution(rs))


def test_closed_criterion_matches_dimension_equality():
    # closed <=> the real orbit has no CR directions <=> dim_R == dim_KR
    for tl, r, L in (("G", 2, (1, 1)), ("C", 2, (1, 1)), ("A", 2, (1, 0)),
                     ("B", 2, (1, 1)), ("D", 3, (1, 1, 1))):
        rs = build_root_system(tl, r)
        Lg = GradingElement(L)
        for name in ("compact", "split"):
            inv = named_involution(rs, name)
            info = orbit_dims(rs, Lg, inv)
            assert closed_orbit_criterion(rs, Lg, inv) == \
                (info["dim_R_orbit"] == info["dim_KR_orbit"]), (tl, r, name)


def test_cayley_involution_intermediate_orbit():
    rs = build_root_system("G", 2)
    L = GradingElement((1, 1))
    inv = cayley_involution(rs, rs.simple_roots[1])
    info = orbit_dims(rs, L, inv)
    assert info["dim_R_orbit"] == 11 and info["dim_KR_orbit"] == 3
    assert not closed_orbit_criterion(rs, L, inv)


def test_closed_criterion_does_not_recompute_orbit_dims(monkeypatch):
    calls = []
    dims = roots.orbit_dims
    monkeypatch.setattr(roots, "orbit_dims",
                        lambda *args: calls.append(args) or dims(*args))
    rs = build_root_system("F", 4)
    L = GradingElement((1, 1, 1, 1))
    for name in ("compact", "split", "cayley:1,2,3,1"):
        roots.closed_orbit_criterion(rs, L, named_involution(rs, name))
    assert calls == []


def test_half_integral_grading_rejected_everywhere():
    # alpha(L) = -7/2 on the first root (-3, -2), named in integer coordinates
    rs = build_root_system("G", 2)
    half = GradingElement((Fraction(1, 2), 1))
    whole = GradingElement((1, 1))
    inv = split_involution(rs)
    for call in (lambda: adjoint_bigrading(rs, half, None),
                 lambda: adjoint_bigrading(rs, whole, half),
                 lambda: orbit_dims(rs, half, inv),
                 lambda: closed_orbit_criterion(rs, half, inv)):
        with pytest.raises(NonIntegralGrading, match=r"on \(-3, -2\)$"):
            call()


# ------------------------------------------------------------ orbit layer oracle

SYSTEMS = ([(t, r) for t in "ABC" for r in range(1, 5)]
           + [("D", r) for r in range(2, 5)] + [("G", 2), ("F", 4)])


def positive_roots(rs):
    return [a for a in rs.all_roots if min(a) >= 0]


def matvec(M, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in M)


@st.composite
def orbit_cases(draw):
    """(type, rank, involution name, L values)."""
    letter, rank = draw(st.sampled_from(SYSTEMS))
    name = draw(st.sampled_from(("compact", "split", "cayley")))
    if name == "cayley":
        beta = draw(st.sampled_from(positive_roots(build_root_system(letter, rank))))
        name = "cayley:" + ",".join(map(str, beta))
    values = draw(st.lists(st.sampled_from((-1, 0, 1, 2)),
                           min_size=rank, max_size=rank))
    return letter, rank, name, tuple(values)


def reference_sigma(rs, name):
    """The matrix of conj for a named involution: -1 (compact), 1 (split) or
    -s_beta (cayley:beta)."""
    one = tuple(tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank))
    if name == "split":
        return one
    S = one if name == "compact" else roots.reflection_matrix(
        rs, tuple(int(x) for x in name.split(":")[1].split(",")))
    return tuple(tuple(-x for x in row) for row in S)


def reference_orbit_layer(rs, L, sigma):
    """orbit_dims and closed_orbit_criterion from the definitions: Fraction
    alpha(L), and conj applied to each root as the matrix sigma; the Cartan
    involution is -sigma on the roots."""
    sets = {"O": [], "le0le0": [], "ge0ge0x": [], "plus_minus": [], "minus_plus": []}
    dim_C = dim_KR = half_count = 0
    for a in rs.all_roots:
        conj = matvec(sigma, a)
        x, y = L(a), L(conj)
        assert x.denominator == y.denominator == 1
        dim_C += x > 0
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
        if conj == tuple(-c for c in a):
            dim_KR += x > 0 and x % 2 == 0
        elif not (x <= 0 and y >= 0):
            half_count += 1
    assert half_count % 2 == 0
    dims = {"dim_R_orbit": len(sets["O"]), "dim_KR_orbit": dim_KR + half_count // 2,
            "dim_C_dual": dim_C}
    closed = all(matvec(sigma, a) == tuple(-c for c in a) and L(a) % 2 == 0
                 for a in sets["minus_plus"])
    return dims, closed


@settings(max_examples=60, deadline=None)
@example(case=("F", 4, "cayley:1,2,3,1", (1, -1, 2, 0)))
@example(case=("A", 2, "cayley:0,1", (-1, 1)))  # a real root with x < 0, y = 0
@given(case=orbit_cases())
def test_orbit_layer_matches_definitions(case):
    letter, rank, name, values = case
    rs = build_root_system(letter, rank)
    inv = named_involution(rs, name)
    L = GradingElement(values)
    dims, closed = reference_orbit_layer(rs, L, reference_sigma(rs, name))
    assert orbit_dims(rs, L, inv) == dims
    assert closed_orbit_criterion(rs, L, inv) == closed


# ------------------------------------------------------------ root data oracle

def orthogonal_simples(letter, rank):
    """The simple roots in orthogonal coordinates, as Fractions: the
    module's doubled int vectors halved."""
    return [tuple(Fraction(x, 2) for x in u) for u in roots._doubled_simples(letter, rank)]


def reference_root_system(letter, rank):
    """Root data as first written: each root reflected in orthogonal
    coordinates with Fraction arithmetic, the Cartan matrix from orthogonal
    dot products, and squared lengths by orthogonal dot products.  `involution(sigma)`
    gives (_conj, _imag) by Fraction mat-vecs on every root."""
    orth = orthogonal_simples(letter, rank)

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def orthogonal(coords):
        return tuple(sum(c * root[i] for c, root in zip(coords, orth))
                     for i in range(len(orth[0])))

    def pairing(coords, beta):
        b = orthogonal(beta)
        return 2 * dot(orthogonal(coords), b) / dot(b, b)

    simples = [tuple(Fraction(int(j == i)) for j in range(rank)) for i in range(rank)]
    found, frontier = set(simples), set(simples)
    while frontier:
        nxt = set()
        for a in frontier:
            for s in simples:
                c = pairing(a, s)
                b = tuple(x - c * y for x, y in zip(a, s))
                if b not in found:
                    found.add(b)
                    nxt.add(b)
        frontier = nxt
    found |= {tuple(-x for x in a) for a in found}
    all_roots = tuple(sorted(found))
    cartan = tuple(tuple(pairing(si, sj) for sj in simples) for si in simples)
    lengths = {a: dot(orthogonal(a), orthogonal(a)) for a in all_roots}
    positive = [a for a in all_roots if min(a) >= 0]

    def matvec(M, v):
        return tuple(sum(x * y for x, y in zip(row, v)) for row in M)

    def involution(sigma):
        conj, imag = [], []
        for a in all_roots:
            sa = matvec(sigma, a)
            conj.append(all_roots.index(sa))
            imag.append(sa == tuple(-x for x in a))
        return tuple(conj), tuple(imag)

    def reflection(beta):
        cols = [tuple(x - pairing(s, beta) * y for x, y in zip(s, beta)) for s in simples]
        return tuple(tuple(col[i] for col in cols) for i in range(rank))

    return {"all_roots": all_roots, "cartan_matrix": cartan,
            "short_roots": [a for a in all_roots if lengths[a] == min(lengths.values())],
            "positive_roots": positive, "reflection": reflection, "involution": involution}


ORACLE_SYSTEMS = ([("A", r) for r in range(1, 8)] + [(t, r) for t in "BC" for r in range(2, 7)]
                  + [("D", r) for r in range(3, 7)] + [("G", 2), ("F", 4)])


@pytest.mark.parametrize("letter, rank", ORACLE_SYSTEMS)
def test_root_data_matches_reference(letter, rank):
    rs = build_root_system(letter, rank)
    ref = reference_root_system(letter, rank)
    assert rs.all_roots == ref["all_roots"]
    assert all(type(x) is int for a in rs.all_roots + rs.simple_roots for x in a)
    assert rs.cartan_matrix == ref["cartan_matrix"]
    assert rs.short_roots() == ref["short_roots"]
    one = [[Fraction(int(j == i)) for j in range(rank)] for i in range(rank)]
    neg = [[-x for x in row] for row in one]
    cases = [("compact", neg), ("split", one)]
    for beta in ref["positive_roots"][:5]:
        cases.append(("cayley:" + ",".join(map(str, beta)),
                      [[-x for x in row] for row in ref["reflection"](beta)]))
    for name, sigma in cases:
        inv = named_involution(rs, name)
        assert (inv._conj, inv._imag) == ref["involution"](sigma), name


def test_non_integral_involution_rejected():
    # an involution whose first column sends alpha_1 to (1, 1/2), which is
    # not a root
    sigma = ((1, 0), (Fraction(1, 2), -1))
    with pytest.raises(InconsistentInvolutions, match="does not permute roots"):
        InvolutionDatum(sigma, build_root_system("A", 2))


@pytest.mark.parametrize("rank", [0, -1, "2", 2.0, True])
def test_bad_rank_rejected(rank):
    with pytest.raises(UnsupportedType):
        build_root_system("A", rank)


@pytest.mark.parametrize("name, message", [
    ("cayley:0,0", r"\(0, 0\) is not a root of A2"),
    ("cayley:2,0", r"\(2, 0\) is not a root of A2"),
    ("cayley:1", r"needs 2 coordinates, got 1"),
    ("cayley:1,0,0", r"needs 2 coordinates, got 3"),
    ("cayley:1/2,1", r"'1/2,1' is not a list of integers"),
    ("cayley:", r"'' is not a list of integers"),
])
def test_bad_cayley_root_rejected(name, message):
    with pytest.raises(UnsupportedType, match=message):
        named_involution(build_root_system("A", 2), name)


def test_grading_length_must_match_rank():
    rs = build_root_system("A", 2)
    for values in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="needs 2 values, got %d" % len(values)):
            adjoint_bigrading(rs, GradingElement(values), None)


@pytest.mark.parametrize("values", [5, "12", None, [True, 1], [0.5, 1], ["a", 1],
                                    ["1/0", 1], [None, 1]])
def test_grading_element_needs_a_list_of_rationals(values):
    with pytest.raises(ValueError, match="must be a list of rationals"):
        GradingElement(values)


def test_grading_element_reads_rational_strings():
    assert GradingElement(["1/2", 1, Fraction(3, 2)]).values == \
        (Fraction(1, 2), Fraction(1), Fraction(3, 2))


@pytest.mark.parametrize("ints, other", [
    ((1, 0, 2), ("1", "0", "2")),
    ((-3, 5), (Fraction(-3), Fraction(10, 2))),
    ((), ()),
])
def test_int_gradings_equal_their_rational_forms(ints, other):
    # a tuple or list of ints takes the int path (d = 1, no lcm); it gives
    # the values, the scaling and the equality of the same values given as
    # strings or Fractions
    ref = GradingElement(list(other))
    for values in (ints, list(ints)):
        L = GradingElement(values)
        assert L.values == ref.values and all(type(v) is Fraction for v in L.values)
        assert L._scaled == ref._scaled == (tuple(ints), 1)
        assert L == ref and ref == L


@pytest.mark.parametrize("values", [[True, 1], (True, 1), [1, False], [0.5, 1], (0.5, 1)])
def test_bools_and_floats_miss_the_int_path(values):
    with pytest.raises(ValueError, match="must be a list of rationals"):
        GradingElement(values)


def test_levels_kept_per_grading():
    rs = build_root_system("F", 4)
    L = GradingElement((1, 0, 2, 1))
    lev = roots._levels(rs, L)
    assert roots._levels(rs, GradingElement((1, 0, 2, 1))) is lev
    assert lev == tuple(L(a) for a in rs.all_roots)


# ------------------------------------------------------------ int root layer oracle

INT_LAYER_SYSTEMS = sorted(set([(t, r) for t in "ABCD" for r in (3, 4, 5)]
                               + [("G", 2), ("F", 4), ("B", 2), ("C", 2), ("D", 4)]))


@pytest.mark.parametrize("letter, rank", INT_LAYER_SYSTEMS)
def test_int_root_layer_matches_fraction_reference(letter, rank):
    # the systems of the benchmark sweep and the catalog's: the int Gram
    # matrix (the Fraction one times the lcm of its denominators), the
    # Cartan matrix 2 (a_i, a_j) / (a_j, a_j), the roots and the short roots
    # equal the Fraction reference
    rs = build_root_system(letter, rank)
    ref = reference_root_system(letter, rank)
    orth = orthogonal_simples(letter, rank)
    gram = [[sum(a * b for a, b in zip(u, v)) for v in orth] for u in orth]
    scale = math.lcm(*(x.denominator for row in gram for x in row))
    assert rs._gram == tuple(tuple(x * scale for x in row) for row in gram)
    assert [rs.orthogonal(s) for s in rs.simple_roots] == orth
    assert rs.cartan_matrix == tuple(tuple(2 * gram[i][j] / gram[j][j] for j in range(rank))
                                     for i in range(rank)) == ref["cartan_matrix"]
    assert all(type(x) is int for row in rs._gram + rs.cartan_matrix for x in row)
    assert rs.all_roots == ref["all_roots"]
    assert rs.short_roots() == ref["short_roots"]


@pytest.mark.parametrize("letter, rank", [("A", 1), ("B", 3), ("C", 4), ("G", 2), ("F", 4)])
def test_half_integral_levels_name_the_first_root(letter, rank):
    # alpha(L) for L = 1/2 on the last simple root and 1 elsewhere: _levels
    # names the first root, in all_roots order, whose level is not an
    # integer, and keeps nothing
    rs = build_root_system(letter, rank)
    L = GradingElement((1,) * (rank - 1) + ("1/2",))
    first = next(a for a in rs.all_roots if L(a).denominator != 1)
    with pytest.raises(NonIntegralGrading) as e:
        roots._levels(rs, L)
    assert str(e.value) == "alpha(L) not an integer on %s" % (first,)
    assert rs._level_cache == {}


def test_equal_gradings_share_one_level_entry():
    rs = build_root_system("G", 2)
    a, b = GradingElement(("2/2", 1)), GradingElement((1, 1))
    assert a.values == b.values and all(type(v) is Fraction for v in a.values)
    lev = roots._levels(rs, a)
    assert roots._levels(rs, b) is lev and len(rs._level_cache) == 1
    assert lev == tuple(x + y for x, y in rs.all_roots)


@pytest.mark.parametrize("letter, rank, values, message", [
    ("G", 2, (Fraction(1, 2), 1), "alpha(L) not an integer on (-3, -2)"),
    ("G", 2, ("1/3", 0), "alpha(L) not an integer on (-2, -1)"),
    ("F", 4, ("1/2", "1/2", 0, "1/3"), "alpha(L) not an integer on (-2, -3, -4, -2)"),
])
def test_non_integral_grading_text(letter, rank, values, message):
    with pytest.raises(NonIntegralGrading) as e:
        adjoint_bigrading(build_root_system(letter, rank), GradingElement(values), None)
    assert str(e.value) == message


@pytest.mark.parametrize("letter, rank, rep, L, Y, n, p, q", [
    ("G", 2, "g2-7", (1, 1), None, 5, "11/2", "-1/2"),
    ("G", 2, "g2-7", ("1/2", 1), (1, 1), 6, "5/2", "3/2"),
    ("G", 2, "g2-7", (1, 1), ("1/2", 0), 6, "9/2", "1"),
    ("F", 4, "f4-26", (1, 1, 1, 1), ("1/3", 0, 0, 0), 16, "47/3", "0"),
    ("F", 4, "f4-26", ("1/2", 0, 0, 0), None, 16, "17/2", "15/2"),
])
def test_half_integrality_violation_text(letter, rank, rep, L, Y, n, p, q):
    # the first weight that lands off the lattice, named by its exact (p, q)
    rs = build_root_system(letter, rank)
    with pytest.raises(HalfIntegralityViolation) as e:
        rep_bigrading(rep_weights(rs, rep), GradingElement(L),
                      GradingElement(Y) if Y else None, n)
    assert str(e.value) == "weight lands at non-integral (p, q) = (%s, %s)" % (p, q)
