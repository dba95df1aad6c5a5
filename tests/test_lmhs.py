"""Limiting mixed Hodge structures: weight filtrations, Deligne splittings,
validation clauses, adjoint structures, reduced limits."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hodge_degen import cli, lmhs
from hodge_degen.gq import (
    MatrixGQ, Subspace, gq, ZERO, ONE, apply_matrix, nilpotent_exp, rank,
    NotNilpotent, intersect, ssum, conj_space, kernel, image, nilpotent_powers,
)
from hodge_degen.hodge import (
    HodgeDatum, HodgeFiltration, PolarizationForm, HodgeNumbers, model_phs,
    check_isotropy, is_valid_phs,
)
from hodge_degen.lmhs import (
    WeightFiltration, weight_filtration, LmhsDatum, Bigrading,
    deligne_splitting, is_r_split, is_hodge_tate, qk_form, primitives,
    validate_lmhs, disc_sample, adjoint_lmhs, reduced_limit, diagonal_levi,
    NotMhs, NonRSplit,
)
from hodge_degen.classify import (
    atomic_block, _direct_sum, _phs_block, minimal_types, minimal_witness,
    ht_construct,
)


def jordan_sum(sizes):
    """Nilpotent with one Jordan block per size."""
    dim = sum(sizes)
    ent = [[ZERO] * dim for _ in range(dim)]
    off = 0
    for s in sizes:
        for i in range(s - 1):
            ent[off + i + 1][off + i] = ONE
        off += s
    return MatrixGQ(ent)


# ------------------------------------------------------- weight filtration

@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_weight_filtration_graded_dims_from_block_sizes(sizes):
    N = jordan_sum(sizes)
    W = weight_filtration(N, 0)
    # a size-s block contributes one dimension at levels s-1, s-3, ..., -(s-1)
    expected = {}
    for s in sizes:
        for k in range(-(s - 1), s, 2):
            expected[k] = expected.get(k, 0) + 1
    got = {k: W.gr_dim(k) for k in range(-4, 5) if W.gr_dim(k)}
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_weight_filtration_n_shifts_by_two(sizes):
    N = jordan_sum(sizes)
    W = weight_filtration(N, 0)
    for k in range(-4, 5):
        assert W.level(k - 2).contains(apply_matrix(N, W.level(k)))


def test_weight_filtration_hard_lefschetz_single_block():
    N = jordan_sum([4])
    W = weight_filtration(N, 0)
    # N^3 maps Gr_3 onto Gr_{-3}
    assert W.gr_dim(3) == W.gr_dim(-3) == 1


def test_weight_filtration_center_shift():
    N = jordan_sum([2])
    W0 = weight_filtration(N, 0)
    W5 = weight_filtration(N, 5)
    assert W5.gr_dim(6) == W0.gr_dim(1) == 1
    assert W5.gr_dim(4) == W0.gr_dim(-1) == 1


# ------------------------------------------------------- reference formulas

def reference_weight_filtration(N, center):
    """W_k = sum_j ker N^{k+j+1} cap im N^j, every term solved afresh."""
    powers = nilpotent_powers(N)
    dim, deg = N.rows, len(powers) - 1
    levels = {}
    for k in range(1 - deg, deg):
        acc = Subspace.zero(dim)
        for j in range(max(0, -k), deg):
            term = intersect(kernel(powers[min(k + j + 1, deg)]), image(powers[j]))
            acc = ssum(acc, term)
        levels[center + k] = acc
    return WeightFiltration(center, levels)


def reference_splitting_nodes(L):
    """I^{p,q} = F^p cap W_l cap (conj F^q cap W_l + sum_{j>=1}
    conj F^{q-j} cap W_{l-j-1}), l = p + q + c - n, one (p, q, j) at a time,
    the j-sum running until W_{l-j-1} = 0."""
    F, W, n, c = L.hodge.filtration, L.W, L.n, L.center
    nodes = []
    for p in range(n + 1):
        for q in range(n + 1):
            lev = c - n + p + q
            A = intersect(F.step(p), W.level(lev))
            B = intersect(conj_space(F.step(q)), W.level(lev))
            j = 1
            while W.level(lev - j - 1).dim:
                B = ssum(B, intersect(conj_space(F.step(q - j)),
                                      W.level(lev - j - 1)))
                j += 1
            piece = intersect(A, B)
            if piece.dim:
                nodes.append((p, q, piece))
    return nodes


def _non_r_split_datum():
    # weight 1 two-string with F^1 = span(v + i Nv): conj I^{1,1} != I^{1,1}
    Q = MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]])
    F1 = Subspace.from_vectors(2, [[ONE, gq("i")]])
    hodge = HodgeDatum(2, PolarizationForm(1, Q),
                       HodgeFiltration(1, [Subspace.full(2), F1]))
    return LmhsDatum(hodge, jordan_sum([2]))


def _corpus_datum(cid):
    return next(t for c, _, _, t in cli.corpus_cases() if c == cid)()


def _moved_by_exp_i_n(L):
    """(e^{iN} F, N): a limiting structure again, and not R-split, whose
    pieces need the whole j-sum of the formula."""
    E = nilpotent_exp(L.N, gq("i"))
    F = L.hodge.filtration
    steps = [apply_matrix(E, F.step(p)) for p in range(L.n + 1)]
    hodge = HodgeDatum(L.dim, L.hodge.polarization, HodgeFiltration(L.n, steps))
    return LmhsDatum(hodge, L.N)


ORACLE_DATA = {
    "minimal": lambda: _corpus_datum("minimal/n=3,h=2,1,1,2,I(0,3)"),
    "ht": lambda: _corpus_datum("ht/n=3,h=1,1,1,1"),
    "principal": lambda: _corpus_datum("principal/so_odd(2)"),
    "non-r-split": _non_r_split_datum,
    "non-r-split-weight-3": lambda: _moved_by_exp_i_n(_corpus_datum("principal/sp(2)")),
    "pure": lambda: LmhsDatum(model_phs(HodgeNumbers(2, (1, 1, 1))),
                              MatrixGQ.zero(3, 3)),
    "diagonal-levi": lambda: diagonal_levi(
        adjoint_lmhs(ht_construct(2, HodgeNumbers(2, (1, 2, 1)))))[1],
}


@pytest.mark.parametrize("name", sorted(ORACLE_DATA))
def test_splitting_and_weight_filtration_match_reference(name):
    L = ORACLE_DATA[name]()
    assert L.W == reference_weight_filtration(L.N, L.center)
    assert list(deligne_splitting(L).nodes) == reference_splitting_nodes(L)
    assert validate_lmhs(L)["ok"]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(-3, 3))
def test_weight_filtration_matches_reference(sizes, center):
    N = jordan_sum(sizes)
    assert weight_filtration(N, center) == reference_weight_filtration(N, center)


# ------------------------------------------------------- Deligne splitting

def test_atomic_block_splitting_nodes():
    n, k = 4, 1
    L = _direct_sum(n, [atomic_block(n, k, 2)])
    bg = deligne_splitting(L)
    assert bg.dims() == {(1, 1): 2, (2, 2): 2, (3, 3): 2}
    assert is_r_split(bg) and is_hodge_tate(bg)


def test_splitting_is_computed_once_per_datum():
    L = ht_construct(2, HodgeNumbers(2, (1, 2, 1)))
    assert deligne_splitting(L) is deligne_splitting(L)


@pytest.mark.parametrize("cid", ["minimal/n=1,h=1,1,I(0,1)", "principal/sp(2)"])
def test_check_case_splits_each_datum_once(cid, monkeypatch):
    seen = []  # the data themselves, so that no id is reused
    body = lmhs._deligne_splitting

    def counted(L):
        seen.append(L)
        return body(L)

    monkeypatch.setattr(lmhs, "_deligne_splitting", counted)
    thunk = next(t for c, _, _, t in cli.corpus_cases() if c == cid)
    L = thunk()
    assert cli.check_case(cid, L) == cid
    # L, its JSON round trip, and the diagonal-Levi datum
    assert len(seen) == 3
    assert len({id(x) for x in seen}) == len(seen)


def test_splitting_reconstructs_both_filtrations():
    L = ht_construct(3, HodgeNumbers(3, (1, 2, 2, 1)))
    bg = deligne_splitting(L)
    c, n = L.center, L.n
    for p in range(n + 1):
        fdim = sum(s.dim for r, s_, s in bg.nodes if r >= p)
        assert L.hodge.filtration.step(p).dim == fdim
    for k in range(-n, n + 1):
        wdim = sum(s.dim for r, s_, s in bg.nodes if r + s_ <= c + k)
        assert L.W.level(c + k).dim == wdim


def test_n_has_type_minus_one_minus_one():
    L = ht_construct(2, HodgeNumbers(2, (1, 2, 1)))
    bg = deligne_splitting(L)
    for p, q, s in bg.nodes:
        tgt = bg.piece(p - 1, q - 1)
        assert tgt.contains(apply_matrix(L.N, s))


def test_pure_structure_is_trivial_lmhs():
    d = model_phs(HodgeNumbers(2, (1, 1, 1)))
    L = LmhsDatum(d, MatrixGQ.zero(3, 3))
    bg = deligne_splitting(L)
    assert bg.dims() == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert validate_lmhs(L)["ok"]


def test_non_nilpotent_n_raises():
    d = model_phs(HodgeNumbers(0, (2,)))
    N = MatrixGQ([[ZERO, ONE], [ONE, ZERO]])
    with pytest.raises(NotNilpotent):
        LmhsDatum(d, N)
    with pytest.raises(NotNilpotent):
        weight_filtration(N, 0)


def test_incompatible_filtration_raises():
    # N does not shift a generic model filtration into itself
    d = model_phs(HodgeNumbers(2, (1, 1, 1)))
    N = jordan_sum([3])
    with pytest.raises((NotMhs, ValueError)):
        LmhsDatum(d, N)


# ------------------------------------------------------- validation clauses

def test_validate_clauses_pass_on_witnesses():
    hn = HodgeNumbers(3, (1, 1, 1, 1))
    for t in minimal_types(3, hn):
        L = minimal_witness(t, 3, hn)
        rep = validate_lmhs(L)
        assert rep == {"weight_filtration": True, "graded_hodge": True,
                       "minus_one_minus_one": True,
                       "polarized_primitives": True, "ok": True}


def test_validate_detects_polarization_sign_flip():
    L = ht_construct(2, HodgeNumbers(2, (1, 1, 1)))
    flipped = LmhsDatum(
        HodgeDatum(L.hodge.dim,
                   PolarizationForm(2, L.hodge.polarization.Q.scale(-1)),
                   L.hodge.filtration),
        L.N, L.W)
    rep = validate_lmhs(flipped)
    assert not rep["polarized_primitives"]
    assert not rep["ok"]


def test_validate_detects_wrong_weight_filtration():
    L = ht_construct(2, HodgeNumbers(2, (1, 1, 1)))
    wrong = WeightFiltration(2, {k: Subspace.full(3) for k in range(-1, 5)})
    rep = validate_lmhs(LmhsDatum(L.hodge, L.N, wrong))
    assert not rep["weight_filtration"]
    assert not rep["ok"]


def test_qk_form_symmetric_on_top_primitive():
    L = _direct_sum(2, [atomic_block(2, 0)])
    prim = primitives(L)
    assert [(k, s.dim) for k, s in prim] == [(0, 0), (1, 0), (2, 1)]
    H = qk_form(L, 2)
    assert H == H.transpose()  # even k: symmetric twisted pairing


# ------------------------------------------------------- nilpotent orbit

def test_disc_sample_accepts_and_moves():
    L = ht_construct(2, HodgeNumbers(2, (1, 2, 1)))
    out = disc_sample(L, (1, 2, 10))
    assert out["ok"] and len(out["samples"]) == 3
    # the raw limit filtration itself is not a PHS
    assert not is_valid_phs(L.hodge)


def test_disc_sample_flags_bad_orbit():
    L = ht_construct(2, HodgeNumbers(2, (1, 1, 1)))
    flipped = LmhsDatum(
        HodgeDatum(3, PolarizationForm(2, L.hodge.polarization.Q.scale(-1)),
                   L.hodge.filtration), L.N, L.W)
    assert not disc_sample(flipped, (1,))["ok"]


# ------------------------------------------------------- adjoint structure

def test_adjoint_of_three_string():
    L = _direct_sum(2, [atomic_block(2, 0)])
    a = adjoint_lmhs(L)
    assert a.dim_g == 3  # sl2 inside sp(Q)
    assert a.I_g.dims() == {(-1, -1): 1, (0, 0): 1, (1, 1): 1}
    assert rank(a.killing_proxy) == 3
    assert a.I_g.piece(-1, -1).contains_vector(a.N_coords)


def test_adjoint_requires_r_split():
    # weight 1 two-string with F^1 = span(v + i Nv): conj I^{1,1} != I^{1,1}
    Q = MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]])
    N = jordan_sum([2])
    F1 = Subspace.from_vectors(2, [[ONE, gq("i")]])
    hodge = HodgeDatum(2, PolarizationForm(1, Q),
                       HodgeFiltration(1, [Subspace.full(2), F1]))
    L = LmhsDatum(hodge, N)
    assert not is_r_split(deligne_splitting(L))
    with pytest.raises(NonRSplit):
        adjoint_lmhs(L)


def test_complex_pair_witness_is_still_r_split():
    # the paired 2-string block is defined over R even though its pieces are
    # genuinely off-diagonal
    hn = HodgeNumbers(3, (2, 1, 1, 2))
    t = [u for u in minimal_types(3, hn) if u.q_o - u.p_o >= 2][0]
    L = minimal_witness(t, 3, hn)
    bg = deligne_splitting(L)
    assert is_r_split(bg)
    assert not is_hodge_tate(bg)


def test_adjoint_hodge_tate_both_directions():
    for h in ((1, 1, 1), (1, 2, 1)):
        L = ht_construct(2, HodgeNumbers(2, h))
        a = adjoint_lmhs(L)
        assert all(p == q for (p, q), d in a.I_g.dims().items() if d)


# ------------------------------------------------------- reduced limit, Levi

def test_reduced_limit_fixed_and_isotropic():
    L = ht_construct(3, HodgeNumbers(3, (1, 1, 1, 1)))
    bg = deligne_splitting(L)
    F = reduced_limit(bg, 3)
    d = HodgeDatum(L.hodge.dim, L.hodge.polarization, F)
    assert check_isotropy(d)
    E = nilpotent_exp(L.N, ONE)
    for p in range(4):
        assert apply_matrix(E, F.step(p)) == F.step(p)
    # boundary point: the full direct-sum condition fails
    assert not is_valid_phs(d)


def test_diagonal_levi_of_hodge_tate():
    L = ht_construct(2, HodgeNumbers(2, (1, 2, 1)))
    a = adjoint_lmhs(L)
    basis, datum = diagonal_levi(a)
    assert len(basis) == datum.hodge.dim
    bg = deligne_splitting(datum)
    assert is_hodge_tate(bg)
    assert validate_lmhs(datum)["weight_filtration"]


# ------------------------------------------------------- serialization

def test_lmhs_json_roundtrip():
    L = ht_construct(2, HodgeNumbers(2, (1, 2, 1)))
    blob = json.dumps(L.to_json(), sort_keys=True)
    L2 = LmhsDatum.from_json(json.loads(blob))
    assert L2.N == L.N
    assert L2.W == L.W
    assert deligne_splitting(L2).dims() == deligne_splitting(L).dims()
    assert json.dumps(L2.to_json(), sort_keys=True) == blob
