"""Pure polarized Hodge structures: model construction, the two bilinear
relations, JSON round trips, and oracles for the Hodge-Riemann checks."""

import functools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hodge_degen import cli, hodge
from hodge_degen.gq import (
    GaussianRational, MatrixGQ, Subspace, gq, ZERO, ONE, unit_vector, i_power,
    intersect, conj_space, apply_matrix, nilpotent_exp, hermitian_pd, rank,
)
from hodge_degen.hodge import (
    HodgeDatum, HodgeFiltration, PolarizationForm, HodgeNumbers,
    hodge_decomposition, check_hr1, check_isotropy, validate_phs, model_phs,
    labelled_filtration, block_sum, pure_blocks, polarization_fault,
    InconsistentFiltration, InadmissibleHodgeNumbers,
)
from hodge_degen.lmhs import LmhsDatum, deligne_splitting, is_r_split, reduced_limit


def sym_h(n, max_entry=3):
    half = (n + 1) // 2
    free = half + ((n + 1) % 2)
    return st.tuples(*[st.integers(0, max_entry)] * free).map(
        lambda c: tuple(c) + tuple(reversed(c[:half])))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), sym_h(n))))
def test_model_phs_is_valid(nh):
    n, h = nh
    if sum(h) == 0:
        return
    hn = HodgeNumbers(n, h)
    d = model_phs(hn)
    rep = validate_phs(d)
    assert rep == {"hr1": True, "hr2": True, "spans": True, "ok": True}
    # h^{p,n-p} = dim V^{p,n-p}, and f^p = sum of h^{a,n-a} over a >= p
    assert tuple(s.dim for _, _, s in hodge_decomposition(d)) == hn.h
    assert d.filtration.f_vector() == tuple(sum(hn.h[:n - p + 1]) for p in range(n + 1))


def test_model_phs_rejects_empty():
    with pytest.raises(InadmissibleHodgeNumbers):
        model_phs(HodgeNumbers(2, (0, 0, 0)))


@pytest.mark.parametrize("n,h", [(1, (1, 1)), (2, (2, 3, 2)), (3, (1, 2, 2, 1)),
                                 (4, (1, 0, 2, 0, 1))])
def test_model_phs_steps_are_the_filtration_of_its_labels(n, h):
    hn = HodgeNumbers(n, h)
    Q, _, basis = block_sum(pure_blocks(hn))
    d = model_phs(hn)
    assert d.polarization.Q == Q
    assert d.filtration == labelled_filtration(n, basis)
    # each label is its vector's Hodge type
    for p, q, s in hodge_decomposition(d):
        assert s == Subspace.from_vectors(d.dim, [v for v, t in basis if t == (p, q)])


def test_labelled_filtration_steps():
    e = [unit_vector(3, k) for k in range(3)]
    F = labelled_filtration(2, [(e[0], (0, 2)), (e[1], (2, 0)), (e[2], (1, 1))])
    assert F.steps[0] == Subspace.full(3)
    assert F.steps[1] == Subspace.from_vectors(3, [e[1], e[2]])
    assert F.steps[2] == Subspace.from_vectors(3, [e[1]])


def test_hodge_numbers_validation():
    with pytest.raises(InadmissibleHodgeNumbers):
        HodgeNumbers(2, (1, 0, 2))  # not symmetric
    with pytest.raises(InadmissibleHodgeNumbers):
        HodgeNumbers(1, (1, 1, 1))  # wrong length
    with pytest.raises(InadmissibleHodgeNumbers, match="weight must be non-negative, got -1"):
        HodgeNumbers(-1, ())
    assert HodgeNumbers(3, (1, 2, 2, 1)).hpq(2, 1) == 2
    assert HodgeNumbers(3, (1, 2, 2, 1)).hpq(2, 2) == 0


@pytest.mark.parametrize("n, h, message", [
    (2, (1.5, 1, 1.9), "Hodge number 0 must be an integer, got 1.5"),
    (2, (1, True, 1), "Hodge number 1 must be an integer, got True"),
    (2, (1, 1, Fraction(1)), r"Hodge number 2 must be an integer, got Fraction\(1, 1\)"),
    (2.0, (1, 1, 1), "the weight must be an integer, got 2.0"),
    (True, (1, 1), "the weight must be an integer, got True"),
    (Fraction(2), (1, 1, 1), r"the weight must be an integer, got Fraction\(2, 1\)"),
])
def test_hodge_numbers_reject_non_integers_by_name(n, h, message):
    # int() would truncate 1.5 and 1.9 to h = (1, 1, 1), and keep n = 2.0
    with pytest.raises(InadmissibleHodgeNumbers, match=message):
        HodgeNumbers(n, h)


def test_polarization_parity_enforced():
    with pytest.raises(ValueError):
        PolarizationForm(1, MatrixGQ.identity(2))  # odd weight needs skew
    with pytest.raises(ValueError):
        PolarizationForm(2, MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]]))
    with pytest.raises(ValueError):
        PolarizationForm(2, MatrixGQ.zero(2, 2))  # degenerate


@pytest.mark.parametrize("n, message", [
    (2.0, r"the weight must be an integer, got 2\.0"),
    (True, r"the weight must be an integer, got True"),
    (Fraction(2), r"the weight must be an integer, got Fraction\(2, 1\)"),
])
def test_polarization_rejects_a_non_integer_weight_by_name(n, message):
    # 2.0 passed every check and then broke to_json
    with pytest.raises(ValueError, match=message):
        PolarizationForm(n, MatrixGQ.identity(2))
    assert PolarizationForm(2, MatrixGQ.identity(2)).n == 2


def test_filtration_must_decrease():
    full = Subspace.full(2)
    line = Subspace.from_vectors(2, [[ONE, ZERO]])
    other = Subspace.from_vectors(2, [[ZERO, ONE]])
    HodgeFiltration(2, [full, line, line])
    with pytest.raises(InconsistentFiltration):
        HodgeFiltration(2, [full, line, other])
    with pytest.raises(InconsistentFiltration):
        HodgeFiltration(1, [line, line])  # F^0 not full


def test_hr_sign_flip_breaks_hr2_not_hr1():
    # negating Q preserves isotropy/directness but kills positivity
    d = model_phs(HodgeNumbers(2, (1, 1, 1)))
    flipped = HodgeDatum(
        d.dim, PolarizationForm(2, d.polarization.Q.scale(-1)), d.filtration)
    assert check_hr1(flipped)
    assert validate_phs(flipped) == {
        "hr1": True, "hr2": False, "spans": True, "ok": False,
        "hr2_witness": "leading minor 1 of i^(p-q) h on I^{2,0} not positive"}
    assert check_isotropy(flipped)


def test_hr2_requires_hr1():
    # weight 1, F^1 not isotropic: Q(e1, e1 + e2) != 0
    Q = MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]])
    full = Subspace.full(2)
    bad = HodgeDatum(2, PolarizationForm(1, Q), HodgeFiltration(
        1, [full, Subspace.from_vectors(2, [[ONE, ONE]])]))
    assert not check_hr1(bad)
    # HR2 is not tested where HR1 fails, so there is no witness for it
    rep = validate_phs(bad)
    assert not rep["hr1"] and not rep["hr2"] and "hr2_witness" not in rep


def test_spans_is_the_dimension_of_the_sum_of_the_pieces(monkeypatch):
    # HR1 fails on the first two data.  On the weight 1 datum of
    # test_hr2_requires_hr1, V^{1,0} = V^{0,1} = F^1 is one line: the dims
    # sum to 2, but the pieces span a line.  On the weight 2 one, Q =
    # diag(1, 2) is not isotropic on F^1 = F^2 = span(1, i), yet V^{2,0} and
    # V^{0,2} = conj V^{2,0} span V.  HR1 holds on the model PHS, whose
    # pieces are then independent: their dims decide, with no rank.
    full = Subspace.full(2)
    line = HodgeDatum(2, PolarizationForm(1, MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]])),
                      HodgeFiltration(1, [full, Subspace.from_vectors(2, [[ONE, ONE]])]))
    F = Subspace.from_vectors(2, [[ONE, gq("i")]])
    plane = HodgeDatum(2, PolarizationForm(2, MatrixGQ([[ONE, ZERO], [ZERO, gq(2)]])),
                       HodgeFiltration(2, [full, F, F]))
    model = model_phs(HodgeNumbers(3, (1, 2, 2, 1)))
    assert validate_phs(line) == {"hr1": False, "hr2": False, "spans": False, "ok": False}

    def spans_and_ranks(d):
        calls = []
        monkeypatch.setattr(hodge, "rank", lambda M: calls.append(M) or rank(M))
        rep = validate_phs(d)
        return rep["hr1"], rep["spans"], len(calls)
    assert [spans_and_ranks(d) for d in (line, plane, model)] == [
        (False, False, 1), (False, True, 1), (True, True, 0)]


@pytest.mark.parametrize("flip", [1, -1])
def test_validate_phs_builds_hr1_and_decomposition_once(flip, monkeypatch):
    calls = {"check_hr1": 0, "hodge_decomposition": 0}
    for name in calls:
        body = getattr(hodge, name)

        def counted(d, _name=name, _body=body):
            calls[_name] += 1
            return _body(d)

        monkeypatch.setattr(hodge, name, counted)
    d = model_phs(HodgeNumbers(3, (1, 2, 2, 1)))
    d = HodgeDatum(d.dim, PolarizationForm(3, d.polarization.Q.scale(flip)),
                   d.filtration)
    rep = validate_phs(d)
    witness = rep.pop("hr2_witness", None)
    assert rep == {"hr1": True, "hr2": flip == 1, "spans": True, "ok": flip == 1}
    assert (witness is None) == (flip == 1)
    assert calls == {"check_hr1": 1, "hodge_decomposition": 1}


def test_weight1_elliptic_curve_datum():
    # classical h = (1, 1): F^1 = span(e1 + i e2), Q the standard symplectic form
    Q = MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]])
    F1 = Subspace.from_vectors(2, [[ONE, gq("i")]])
    d = HodgeDatum(2, PolarizationForm(1, Q), HodgeFiltration(
        1, [Subspace.full(2), F1]))
    assert validate_phs(d)["ok"]
    # conjugate line fails HR2 (wrong orientation)
    dbar = HodgeDatum(2, PolarizationForm(1, Q), HodgeFiltration(
        1, [Subspace.full(2), Subspace.from_vectors(2, [[ONE, gq("-i")]])]))
    rep = validate_phs(dbar)
    assert rep["hr1"] and not rep["hr2"] and "hr2_witness" in rep


def test_decomposition_conjugation_symmetry():
    d = model_phs(HodgeNumbers(3, (1, 2, 2, 1)))
    pieces = {(p, q): s for p, q, s in hodge_decomposition(d)}
    from hodge_degen.gq import conj_space
    for (p, q), s in pieces.items():
        assert conj_space(s) == pieces[(q, p)]


def test_json_roundtrip():
    d = model_phs(HodgeNumbers(2, (1, 2, 1)))
    blob = json.dumps(d.to_json(), sort_keys=True)
    d2 = LmhsDatum.from_json(json.loads(blob))
    assert type(d2) is HodgeDatum
    assert d2.polarization.Q == d.polarization.Q
    assert d2.filtration == d.filtration
    assert json.dumps(d2.to_json(), sort_keys=True) == blob


def test_step_clamping():
    d = model_phs(HodgeNumbers(1, (1, 1)))
    F = d.filtration
    assert F.step(-3) == Subspace.full(2)
    assert F.step(5).dim == 0
    assert F.f_vector() == (2, 1)


# ------------------------------------------------- Hodge-Riemann oracles
# PolarizationForm.gram walks only nonzero entries, check_isotropy and
# check_hr1 test p <= (n+1)/2 only, and hodge_decomposition meets only the
# pieces with p >= q: the other pairs follow from Q^T = (-1)^n Q and from
# conjugation.  The dense Gram matrix, the full p-loops and a polarization
# test with its own Hermitian check are kept here as oracles, and must give the same
# matrices, subspaces and verdicts, on failing data too.

def dense_gram(form, us, vs, M=None):
    Qv = MatrixGQ([form.Q.matvec(v if M is None else M.matvec(v)) for v in vs],
                  cols=form.Q.rows)
    return MatrixGQ([Qv.matvec(u) for u in us], cols=len(vs))


def isotropy_oracle(d):
    F = d.filtration
    for p in range(d.n + 2):
        Fp, Fc = F.step(p), F.step(d.n - p + 1)
        if Fp.dim + Fc.dim != d.dim or \
                not dense_gram(d.polarization, Fp.basis.entries, Fc.basis.entries).is_zero():
            return False
    return True


def hr1_oracle(d):
    F = d.filtration
    return isotropy_oracle(d) and all(
        intersect(F.step(p), conj_space(F.step(d.n - p + 1))).dim == 0
        for p in range(d.n + 2))


def decomposition_oracle(d):
    F = d.filtration
    return [(p, d.n - p, intersect(F.step(p), conj_space(F.step(d.n - p))))
            for p in range(d.n, -1, -1)]


def polarizes_oracle(form, pieces, M=None):
    vecs, blocks = [], []
    for p, q, s in pieces:
        blocks.append((i_power(p - q), len(vecs), len(vecs) + s.dim))
        vecs.extend(s.basis.entries)
    G = dense_gram(form, vecs, [tuple(x.conj() for x in v) for v in vecs], M).entries
    if any(not G[i][j].is_zero() for _, a, b in blocks for i in range(a, b)
           for j in range(len(vecs)) if not a <= j < b):
        return False
    for c, a, b in blocks:
        H = MatrixGQ([[c * e for e in row[a:b]] for row in G[a:b]])
        if H.rows and not (H == H.conj_transpose() and hermitian_pd(H)):
            return False
    return True


def phs_report_oracle(d):
    hr1 = hr1_oracle(d)
    decomposition = decomposition_oracle(d)
    # the pieces span V when their sum is V, whether or not HR1 holds
    spans = Subspace.from_vectors(
        d.dim, [v for _, _, s in decomposition for v in s.basis.entries]).dim == d.dim
    hr2 = hr1 and polarizes_oracle(d.polarization, decomposition)
    return {"hr1": hr1, "hr2": hr2, "spans": spans, "ok": hr1 and hr2 and spans}


def assert_matches_oracles(d, what):
    """The new checks against the oracles on d; returns the report.  An HR2
    witness is there exactly when HR1 holds and HR2 fails."""
    assert check_isotropy(d) == isotropy_oracle(d), what
    assert hodge_decomposition(d) == decomposition_oracle(d), what
    report = validate_phs(d)
    witness = report.pop("hr2_witness", None)
    assert report == phs_report_oracle(d), what
    assert (witness is not None) == (report["hr1"] and not report["hr2"]), what
    return report


@functools.cache
def corpus():
    return tuple((cid, thunk()) for cid, _, _, thunk in cli.corpus_cases())


def with_form(d, Q):
    return HodgeDatum(d.dim, PolarizationForm(d.n, Q), d.filtration)


def moved(d, g):
    """g F with the same Q: g need not preserve Q."""
    return HodgeDatum(d.dim, d.polarization, HodgeFiltration(
        d.n, [apply_matrix(g, X) for X in d.filtration.steps]))


def tilt(dim):
    # I plus ones above the diagonal: F stays a filtration, Q(F^p, F^{n+1-p})
    # is no longer zero in general
    return MatrixGQ([[ONE if j >= i else ZERO for j in range(dim)] for i in range(dim)])


def corpus_hodge_data():
    """Per corpus case: the disc samples e^{iyN} F at y = 1 and 2 (the data
    disc_sample checks) and the reduced limit filtration (R-split data)."""
    for cid, L in corpus():
        for y in (1, 2):
            E = nilpotent_exp(L.N, GaussianRational(0, Fraction(y)), L.powers)
            yield "%s/y=%d" % (cid, y), moved(L.hodge, E)
        bg = deligne_splitting(L)
        if is_r_split(bg):
            yield cid + "/reduced-limit", HodgeDatum(
                L.dim, L.hodge.polarization, reduced_limit(bg, L.n))


def test_hr_checks_match_the_oracles_on_the_corpus():
    samples = boundary = non_isotropic = 0
    for what, d in corpus_hodge_data():
        report = assert_matches_oracles(d, what)
        negated = assert_matches_oracles(with_form(d, d.polarization.Q.scale(-1)), what + "/-Q")
        tilted = moved(d, tilt(d.dim))
        assert_matches_oracles(tilted, what + "/tilted")
        if what.endswith("/reduced-limit"):
            boundary += check_isotropy(d) and not report["hr1"]
        else:
            # each disc sample is a PHS; Q negated keeps HR1 and breaks HR2
            assert report["ok"] and negated["hr1"] and not negated["hr2"], what
            samples += 1
            non_isotropic += not check_isotropy(tilted)
    assert samples == 2 * len(corpus()) == 164
    # reduced limits that pass isotropy and fail directness, and tilted
    # samples that fail isotropy, are among the data
    assert boundary and non_isotropic


@pytest.mark.parametrize("flip", [1, -1])
def test_hr_checks_match_the_oracles_on_tilted_model_data(flip):
    d = model_phs(HodgeNumbers(3, (1, 2, 2, 1)))
    d = with_form(d, d.polarization.Q.scale(flip))
    assert assert_matches_oracles(d, "model")["hr2"] == (flip == 1)
    tilted = moved(d, tilt(d.dim))
    assert not check_isotropy(tilted)
    assert assert_matches_oracles(tilted, "tilted") == {
        "hr1": False, "hr2": False, "spans": True, "ok": False}


def test_sparse_gram_matches_dense_on_the_corpus():
    # M in {None, N, N^2}, over the splitting's vectors and their conjugates
    for cid, L in corpus():
        form = L.hodge.polarization
        vecs = [v for _, _, s in deligne_splitting(L).nodes for v in s.basis.entries]
        conj = [tuple(x.conj() for x in v) for v in vecs]
        for M in (None, L.N, L.power(2)):
            for us, vs in ((vecs, vecs), (vecs, conj), (conj, vecs[:2])):
                assert form.gram(us, vs, M) == dense_gram(form, us, vs, M), cid


def per_term_gram(form, us, vs, M=None):
    """[Q(u, M v)], each term of each sum a reduced scalar of its own: the
    reference for gram, which sums each entry on ints and reduces it once."""
    Q = form.Q.entries
    out = []
    for u in us:
        line = []
        for v in vs:
            if M is not None:
                v = [sum((a * e for a, e in zip(row, v)), ZERO) for row in M.entries]
            acc = ZERO
            for i, a in enumerate(u):
                for j, e in enumerate(v):
                    acc = acc + a * Q[i][j] * e
            line.append(acc)
        out.append(line)
    return MatrixGQ(out, cols=len(vs))


# a denominator of its own per entry, so that the sums cross-multiply
own_denominators = st.fractions(min_value=-4, max_value=4, max_denominator=9)
dense_scalars = st.one_of(st.builds(GaussianRational, own_denominators, own_denominators),
                          st.just(ZERO), st.just(ONE))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gram_matches_the_per_term_reference(data):
    dim = data.draw(st.integers(1, 4))
    n = data.draw(st.sampled_from((0, 1) if dim % 2 == 0 else (0,)))
    upper = data.draw(st.lists(own_denominators, min_size=dim * dim, max_size=dim * dim))
    sign = -1 if n % 2 else 1
    Q = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            x = GaussianRational(upper[i * dim + j])
            Q[i][j], Q[j][i] = (x, x * sign) if i != j else (x if sign == 1 else ZERO,) * 2
    Q = MatrixGQ(Q)
    assume(rank(Q) == dim)
    form = PolarizationForm(n, Q)
    vectors = st.lists(st.lists(dense_scalars, min_size=dim, max_size=dim), max_size=3)
    us, vs = data.draw(vectors), data.draw(vectors)
    M = data.draw(st.one_of(st.none(), st.lists(
        st.lists(dense_scalars, min_size=dim, max_size=dim), min_size=dim, max_size=dim)))
    M = None if M is None else MatrixGQ(M)
    G = form.gram(us, vs, M)
    assert G == per_term_gram(form, us, vs, M)
    assert all(type(e) is GaussianRational for row in G.entries for e in row)


def test_polarization_fault_rejects_a_block_that_is_not_hermitian():
    # weight 0, Q = I on C^2, one piece (0, 0): the block is M itself
    form = PolarizationForm(0, MatrixGQ.identity(2))
    pieces = [(0, 0, Subspace.full(2))]
    for M, ok in (([[1, 1], [0, 1]], False), ([[2, 1], [1, 1]], True),
                  ([[1, 2], [2, 1]], False)):
        M = MatrixGQ(M)
        assert (polarization_fault(form, pieces, M) is None) == \
            polarizes_oracle(form, pieces, M) == ok


def test_polarization_fault_names_the_piece_and_why():
    # weight 0, Q = I on C^2: on the piece (0, 0) = C^2 the block is M itself
    form = PolarizationForm(0, MatrixGQ.identity(2))
    whole = [(0, 0, Subspace.full(2))]
    for M, fault in (([[2, 1], [1, 1]], None),
                     ([[1, 1], [0, 1]], "i^(p-q) h not Hermitian on I^{0,0}"),
                     ([[-1, 0], [0, 1]], "leading minor 1 of i^(p-q) h on I^{0,0} not positive"),
                     ([[1, 2], [2, 1]], "leading minor 2 of i^(p-q) h on I^{0,0} not positive")):
        assert polarization_fault(form, whole, MatrixGQ(M)) == fault
    # two lines that Q pairs: the orthogonality fault comes first, and names
    # the form as the caller does
    lines = [(0, 0, Subspace.from_vectors(2, [[1, 0]])),
             (1, -1, Subspace.from_vectors(2, [[1, 1]]))]
    assert polarization_fault(form, lines, None, "Q_0") == "I^{0,0} not Q_0-orthogonal to I^{1,-1}"
