"""Degeneration classifiers: minimal types and witnesses, the Hodge-Tate
gate, closed-orbit checks, principal constructors, normal-form exhaustion."""

import itertools
import json
import os
import re

import pytest

from hodge_degen.gq import MatrixGQ, Subspace, ZERO, ONE, gq, rank
from hodge_degen.hodge import HodgeNumbers, string_block, string_labels
from hodge_degen.lmhs import (
    LmhsDatum, NotMhs, weight_filtration, deligne_splitting, validate_lmhs,
    is_hodge_tate, is_r_split, disc_sample, adjoint_lmhs, diagonal_levi, labelled_datum,
)
from hodge_degen.roots import build_root_system, GradingElement, adjoint_bigrading
from hodge_degen import classify, cli, lmhs
from hodge_degen.classify import (
    MinimalType, minimal_types, minimal_witness, ht_gate, ht_plan,
    ht_construct, cp_orb_check, period_closed_check, principal_lmhs,
    principal_neutral_char, InfeasibleType, GateFailed, ParityViolation,
    OddWeightNonHT, _direct_sum,
)

from normal_forms import normal_forms

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def figure_h(n, diag):
    off, dia = (2, 3) if diag else (1, 2)
    h = [off] * (n + 1)
    if n % 2 == 0:
        h[n // 2] = dia
    return HodgeNumbers(n, h)


# ------------------------------------------------------------ minimal types

@pytest.mark.parametrize("key,weights", [("generic_h", range(1, 5)),
                                         ("unit_h", range(1, 6))])
def test_minimal_types_match_golden_figures(key, weights):
    golden = load_golden("minimal_figures.json")[key]
    for n in weights:
        hn = figure_h(n, diag=(key == "generic_h"))
        got = sorted(
            ({"kind": t.kind, "p_o": t.p_o, "q_o": t.q_o, "nodes": t.triples()}
             for t in minimal_types(n, hn)),
            key=lambda d: (d["kind"], d["p_o"]))
        want = sorted(golden[str(n)], key=lambda d: (d["kind"], d["p_o"]))
        assert got == want, "weight %d" % n


def test_minimal_type_table_symmetry_enforced():
    with pytest.raises(InfeasibleType):
        MinimalType("I", 0, 2, {(0, 1): 1})
    with pytest.raises(InfeasibleType):
        MinimalType("I", 0, 2, {(0, 1): -1, (1, 0): -1})


def test_kind2_requires_odd_middle():
    assert not any(t.kind == "II"
                   for t in minimal_types(2, HodgeNumbers(2, (1, 2, 1))))
    assert any(t.kind == "II"
               for t in minimal_types(2, HodgeNumbers(2, (1, 1, 1))))
    # and a class to move: h^{m-1,m+1} >= 1
    assert minimal_types(2, HodgeNumbers(2, (0, 1, 0))) == []


def test_adjacent_admissibility_needs_two_middle_classes():
    # q_o - p_o = 2 consumes two classes at the midpoint
    assert not any(t.kind == "I"
                   for t in minimal_types(2, HodgeNumbers(2, (1, 1, 1))))
    assert any(t.kind == "I"
               for t in minimal_types(2, HodgeNumbers(2, (1, 2, 1))))


def reference_minimal_types(n, h):
    """(kind, p_o, q_o, table) of each minimal type, each table written out
    by hand and each admissibility rule stated as its own count."""
    def pure():
        return {(p, n - p): h.hpq(p, n - p) for p in range(n + 1) if h.hpq(p, n - p)}

    def move(t, minus, plus):
        for k in minus:
            t[k] = t.get(k, 0) - 1
        for k in plus:
            t[k] = t.get(k, 0) + 1

    out = []
    for p_o in range((n + 1) // 2):
        q_o = n - p_o
        if h.hpq(p_o, q_o) < 1:
            continue
        if q_o - p_o == 2 and h.hpq(p_o + 1, q_o - 1) < 2:
            continue
        if q_o - p_o > 2 and h.hpq(p_o + 1, q_o - 1) < 1:
            continue
        t = pure()
        move(t, [(p_o, q_o), (p_o + 1, q_o - 1)], [(p_o + 1, q_o), (p_o, q_o - 1)])
        if p_o + 1 != q_o:  # the conjugate 2-string
            move(t, [(q_o, p_o), (q_o - 1, p_o + 1)], [(q_o, p_o + 1), (q_o - 1, p_o)])
        out.append(("I", p_o, q_o, t))
    m = n // 2
    if n % 2 == 0 and h.hpq(m, m) % 2 == 1 and h.hpq(m - 1, m + 1) >= 1:
        t = pure()
        move(t, [(m - 1, m + 1), (m + 1, m - 1)], [(m + 1, m + 1), (m - 1, m - 1)])
        out.append(("II", m - 1, m + 1, t))
    return [(kind, p_o, q_o, {k: v for k, v in t.items() if v})
            for kind, p_o, q_o, t in out]


def test_minimal_types_match_the_hand_written_tables():
    # every symmetric h with n <= 8 and entries <= 3, zero included: 1704
    cases = [HodgeNumbers(n, c + c[:(n + 1) // 2][::-1]) for n in range(9)
             for c in itertools.product(range(4), repeat=n // 2 + 1)]
    assert len(cases) == 1704
    for h in cases:
        got = [(t.kind, t.p_o, t.q_o, t.i_table) for t in minimal_types(h.n, h)]
        assert got == reference_minimal_types(h.n, h), h


def test_mass_conservation():
    for n in range(1, 5):
        hn = figure_h(n, diag=True)
        for t in minimal_types(n, hn):
            assert sum(t.i_table.values()) == hn.dim


# ------------------------------------------------------------ witnesses

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_witnesses_validate_and_split_correctly(n):
    hn = figure_h(n, diag=True)
    for t in minimal_types(n, hn):
        L = minimal_witness(t, n, hn)
        assert validate_lmhs(L)["ok"]
        assert deligne_splitting(L).dims() == t.i_table
        assert L.hodge.dim == hn.dim


@pytest.mark.parametrize("n", range(1, 9))
def test_string_pair_sign_is_fixed_by_hr2(n):
    # the pair 2-string of each kind I type, with the sign string_block gives
    # Q(u, N conj u) = i^(q-p), validates, and with Q negated it does not
    kinds = [t for t in minimal_types(n, figure_h(n, diag=True))
             if t.kind == "I" and t.q_o - t.p_o >= 2]
    assert len(kinds) == n // 2  # p_o = 0, ..., n // 2 - 1
    for t in kinds:
        Q, N, basis = string_block(n, (t.p_o + 1, t.q_o), 2)
        for s in (1, -1):
            L = _direct_sum(n, [(Q.scale(s), N, basis)])
            assert validate_lmhs(L)["ok"] == (s == 1), (t, s)


# every string top (p, q), p >= q, of weight n <= 6 whose bottom
# (n - q, n - p) is a bidegree: 49 blocks
SMALL_TOPS = [(n, (p, q)) for n in range(1, 7) for p in range(n + 1)
              for q in range(p + 1) if p + q >= n]


def test_every_small_string_block_is_an_lmhs():
    assert len(SMALL_TOPS) == 49
    for n, (p, q) in SMALL_TOPS:
        length = p + q - n + 1
        Q, N, basis = string_block(n, (p, q), length)
        L = _direct_sum(n, [(Q, N, basis)])  # the label certificate
        assert validate_lmhs(L)["ok"], (n, p, q)
        assert Q.rows == (1 if p == q else 2) * length
        assert string_labels(n, (p, q), length) == [label for _, label in basis]


def test_string_block_rejects_a_wrong_length():
    # the length of a string is p + q - n + 1: 3 here
    with pytest.raises(ValueError, match="no string of length 2"):
        string_block(2, (2, 2), 2)


def test_witness_rejects_inadmissible_type():
    hn = HodgeNumbers(2, (1, 2, 1))
    t = MinimalType("II", 0, 2, {(0, 0): 1, (2, 2): 1, (1, 1): 2})
    with pytest.raises(InfeasibleType):
        minimal_witness(t, 2, hn)


# ------------------------------------------------------------ HT gate

def test_gate_examples():
    assert not ht_gate(2, HodgeNumbers(2, (2, 1, 2)))
    assert ht_gate(2, HodgeNumbers(2, (1, 2, 1)))
    assert ht_gate(4, HodgeNumbers(4, (1, 2, 4, 2, 1)))
    assert not ht_gate(4, HodgeNumbers(4, (2, 1, 4, 1, 2)))


def test_plan_multiplicities():
    plan = ht_plan(4, HodgeNumbers(4, (1, 2, 4, 2, 1)))
    assert plan == (1, 1, 2)
    with pytest.raises(GateFailed):
        ht_plan(2, HodgeNumbers(2, (2, 1, 2)))


def test_construct_matches_h_and_is_ht():
    for n, h in ((2, (1, 1, 1)), (2, (1, 2, 1)), (3, (1, 1, 1, 1)),
                 (4, (1, 1, 2, 1, 1))):
        L = ht_construct(n, HodgeNumbers(n, h))
        bg = deligne_splitting(L)
        assert is_hodge_tate(bg.dims())
        assert validate_lmhs(L)["ok"]
        assert {p: d for (p, q), d in bg.dims().items()} == \
            {p: h[n - p] for p in range(n + 1) if h[n - p]}


def test_atomic_block_is_self_dual_string():
    # the real 2-string e^2 -> e^1 of weight 3, listed top first
    Q, N, basis = string_block(3, (2, 2), 2)
    assert rank(MatrixGQ(N.entries)) == 1
    assert (Q + Q.transpose()).is_zero()  # odd weight: skew
    assert [label for _, label in basis] == [(2, 2), (1, 1)]


# ------------------------------------------------------------ labelled blocks

def test_direct_sum_rejects_a_wrong_label():
    # (0, 1) for (0, 0) leaves F as it is, but W read off the labels is no
    # weight filtration of N: the error names the labels and the clause
    Q, N, basis = string_block(2, (2, 2), 3)
    rest, (v, _) = basis[:-1], basis[-1]  # v at the bottom, (0, 0)
    with pytest.raises(InfeasibleType) as e:
        _direct_sum(2, [(Q, N, rest + [(v, (0, 1))])])
    assert "(0, 1): 1" in str(e.value) and "(0, 0)" not in str(e.value)
    assert str(e.value).endswith(": labelled W is not the weight filtration of N: "
                                 "N W_2 not inside W_0")
    # a wrong Hodge index moves F itself: F^1 = V has no splitting at all
    with pytest.raises(InfeasibleType, match=r"^labels \{\(2, 2\): 1, \(1, 1\): 2\} "):
        _direct_sum(2, [(Q, N, rest + [(v, (1, 1))])])


def test_labelled_w_and_splitting_are_the_solved_ones():
    # every datum built from labels, the 82 corpus cases, the 49 small
    # string blocks and the diagonal-Levi data of the 80 corpus cases with
    # g != 0, has the W and the splitting that weight_filtration and the
    # formula solve from its F and N alone, and W's levels
    data = [(cid, thunk()) for cid, _, _, thunk in cli.corpus_cases()]
    data += [((n, top), _direct_sum(n, [string_block(n, top, top[0] + top[1] - n + 1)]))
             for n, top in SMALL_TOPS]
    data += [((cid, "levi"), diagonal_levi(a)[1]) for cid, L in data[:82]
             for a in [adjoint_lmhs(L)] if a.dim_g]
    assert len(data) == 82 + 49 + 80
    for key, L in data:
        assert not L._given_W and L._splitting is not None, key
        solved = LmhsDatum(L.hodge, L.N)
        assert L.W == weight_filtration(L.N, L.n) == solved.W, key
        assert sorted(L.W.levels) == sorted(solved.W.levels), key
        assert list(L._splitting.nodes) == list(lmhs._deligne_splitting(solved).nodes), key


def _labelled_basis(L, relabel=None, tilt=None):
    """The basis of L's splitting, each vector labelled by its piece, with
    the labels in `relabel` swapped and, for tilt = (target, by), the first
    vector of the piece `target` plus the first of `by`."""
    bg, relabel = deligne_splitting(L), relabel or {}
    basis = [(v, relabel.get((p, q), (p, q))) for p, q, s in bg.nodes for v in s.basis.entries]
    if tilt:
        (target, by), i = tilt, [label for _, label in basis].index(tilt[0])
        w = bg.piece(*by).basis.entries[0]
        basis[i] = (tuple(a + b for a, b in zip(basis[i][0], w)), target)
    return basis


SPLIT_CASE = "minimal/n=1,h=2,2,I(0,1)"  # I^{0,0}, I^{1,0}, I^{0,1}, I^{1,1}


def _split_case():
    return next(t for c, _, _, t in cli.corpus_cases() if c == SPLIT_CASE)()


def test_label_certificate_rejects_pieces_not_in_direct_sum():
    # e_2, at (0, 0) of the real 3-string of weight 2, swapped for e_1: the
    # pieces I^{1,1} and I^{0,0} are the same line.  F is that of the
    # string, and the splitting solved from it has the labels' dims, but
    # _direct_sum fails closed on the certificate's text
    Q, N, basis = string_block(2, (2, 2), 3)
    bad = basis[:2] + [(basis[1][0], (0, 0))]
    with pytest.raises(NotMhs, match="^pieces are not in direct sum$"):
        labelled_datum(2, Q, N, bad)
    with pytest.raises(InfeasibleType) as e:
        _direct_sum(2, [(Q, N, bad)])
    assert str(e.value) == ("labels {(2, 2): 1, (1, 1): 1, (0, 0): 1} are not the "
                            "Deligne splitting: pieces are not in direct sum")


def test_label_certificate_rejects_a_w_that_is_not_the_weight_filtration():
    # e_2 labelled (0, 1) for (0, 0): W_0, read off the labels, is 0, and
    # N W_2 = N <e_1, e_2> is not; _direct_sum gives the certificate's text
    # with the labels
    Q, N, basis = string_block(2, (2, 2), 3)
    bad = basis[:2] + [(basis[2][0], (0, 1))]
    with pytest.raises(NotMhs) as e:
        labelled_datum(2, Q, N, bad)
    assert str(e.value) == "labelled W is not the weight filtration of N: N W_2 not inside W_0"
    with pytest.raises(InfeasibleType) as e:
        _direct_sum(2, [(Q, N, bad)])
    assert str(e.value) == ("labels {(2, 2): 1, (1, 1): 1, (0, 1): 1} are not the "
                            "Deligne splitting: labelled W is not the weight "
                            "filtration of N: N W_2 not inside W_0")


@pytest.mark.parametrize("n, top, labels, message", [
    # N = 0 on the pure pair of weight 2 labelled (1, 0), (0, 1): W_2 = V
    # holds them, but they lie below it, so F^1 = <u> and F^2 = 0 are no
    # Hodge structure of weight 2; the conjugation rule and clauses (b)-(d)
    # of validate_lmhs, which read only the pieces, pass them
    (2, (2, 0), [(1, 0), (0, 1)], "label (0, 1) outside 0 <= p <= 2, p + q >= 2"),
    # a label with p < 0 lies outside F^0 = V
    (0, (0, 0), [(-1, 1)], "label (-1, 1) outside 0 <= p <= 0, p + q >= 0"),
])
def test_label_certificate_rejects_a_label_outside_f_or_w(n, top, labels, message):
    Q, N, basis = string_block(n, top, 1)
    bad = [(v, label) for (v, _), label in zip(basis, labels)]
    with pytest.raises(NotMhs) as e:
        labelled_datum(n, Q, N, bad)
    assert str(e.value) == message


def test_label_certificate_on_swapped_labels():
    # the basis of the split case with two labels swapped.  F and W are read
    # off the labels, so neither can be missed: with (1, 1) and (0, 0)
    # swapped, W is no weight filtration of N; with (1, 0) and (0, 1)
    # swapped, the pieces are the Deligne splitting of the F they give, and
    # that F is not polarized (clause (d)).  The verdicts of a splitting
    # tested against a foreign F or W are _check_reconstruction's, on the
    # solved path (test_lmhs.py, reference_check_reconstruction)
    L = _split_case()
    Q = L.hodge.polarization.Q
    with pytest.raises(NotMhs, match=r"^labelled W is not the weight filtration of N: "
                                     r"N W_0 not inside W_-2$"):
        labelled_datum(1, Q, L.N, _labelled_basis(L, {(1, 1): (0, 0), (0, 0): (1, 1)}))
    M = labelled_datum(1, Q, L.N, _labelled_basis(L, {(1, 0): (0, 1), (0, 1): (1, 0)}))
    assert M.hodge.filtration != L.hodge.filtration and M.W == L.W
    assert list(M._splitting.nodes) == list(
        lmhs._deligne_splitting(LmhsDatum(M.hodge, M.N)).nodes)
    rep = validate_lmhs(M)
    assert rep["weight_filtration"] and rep["graded_hodge"] and rep["minus_one_minus_one"]
    assert rep["polarized_primitives_witness"] == (
        "leading minor 1 of i^(p-q) Q_0 on I^{0,1} not positive")


def test_label_certificate_rejects_a_piece_that_breaks_the_conjugation_rule():
    # I^{1,1} tilted by a vector of I^{1,0} spans the same F and W, and the
    # pieces recover both, but its conjugate meets I^{0,1}: the dims of the
    # labels are those of the splitting, so the old check of dims alone
    # passed it; _direct_sum fails closed on the certificate's text
    L = _split_case()
    tilted = _labelled_basis(L, tilt=((1, 1), (1, 0)))
    with pytest.raises(NotMhs) as e:
        labelled_datum(1, L.hodge.polarization.Q, L.N, tilted)
    assert str(e.value) == "conj I^{1,1} not inside I^{1,1} + sum_{a<1,b<1} I^{a,b}"
    with pytest.raises(InfeasibleType) as e:
        _direct_sum(1, [(L.hodge.polarization.Q, L.N, tilted)])
    assert str(e.value).endswith(
        " are not the Deligne splitting: conj I^{1,1} not inside I^{1,1} + "
        "sum_{a<1,b<1} I^{a,b}")
    v = next(v for v, label in tilted if label == (1, 1))
    assert Subspace.from_vectors(L.dim, [v]) != deligne_splitting(L).piece(1, 1)


def test_label_certificate_accepts_a_splitting_that_is_not_r_split():
    # weight 1, N e_0 = e_1, F^1 = <e_0 + i e_1>: I^{1,1} = F^1 is not its
    # own conjugate, which lies in I^{1,1} + I^{0,0}, so the rule needs the
    # sum, and the labelled pieces are the solved splitting
    i = gq("i")
    Q, N = MatrixGQ([[0, 1], [-1, 0]]), MatrixGQ([[0, 0], [1, 0]])
    basis = [((ONE, i), (1, 1)), ((ZERO, ONE), (0, 0))]
    L = labelled_datum(1, Q, N, basis)
    assert not L._given_W and not is_r_split(L._splitting)
    solved = LmhsDatum(L.hodge, L.N)
    assert L.W == solved.W
    assert list(L._splitting.nodes) == list(lmhs._deligne_splitting(solved).nodes)
    assert validate_lmhs(L)["ok"]


def test_labelled_datum_keeps_the_griffiths_test():
    # the 2-string at (2, 1) of weight 2 with its bottom labels (1, 0) and
    # (0, 1) swapped: N u, for u at the top, is no longer in F^1, and the
    # F test of LmhsDatum._fill says so, as it did before the labels were
    # certified: these pieces stay conjugate and give the F they are read
    # with, so the certificate alone would pass them.  _direct_sum names
    # the labels, as for every other label fault
    Q, N, basis = string_block(2, (2, 1), 2)
    swapped = basis[:2] + [(basis[2][0], (0, 1)), (basis[3][0], (1, 0))]
    with pytest.raises(ValueError, match=r"^N F\^2 not inside F\^1$"):
        labelled_datum(2, Q, N, swapped)
    with pytest.raises(InfeasibleType) as e:
        _direct_sum(2, [(Q, N, swapped)])
    assert str(e.value) == ("labels {(2, 1): 1, (1, 2): 1, (0, 1): 1, (1, 0): 1} are not "
                            "the Deligne splitting: N F^2 not inside F^1")


def kind2_witness():
    """The minimal witness of the one type of h = (2,1,2), of kind II: the
    real 3-string at (2, 2) plus a pure (2, 0) + (0, 2), not Hodge-Tate."""
    hn = HodgeNumbers(2, (2, 1, 2))
    [t] = minimal_types(2, hn)
    assert t.kind == "II"
    return minimal_witness(t, 2, hn)


def _certified(monkeypatch, build):
    """The datum `build` returns, checked to come from one _direct_sum call
    that left the splitting it certified on the datum."""
    made = []
    assemble = classify._direct_sum

    def spy(n, blocks):
        made.append(assemble(n, blocks))
        return made[-1]

    monkeypatch.setattr(classify, "_direct_sum", spy)
    L = build()
    assert made == [L] and L._splitting is not None
    return L


@pytest.mark.parametrize("family,param,extra", [
    ("sp", 1, None), ("sp", 3, None), ("so_odd", 1, None), ("so_odd", 3, None),
    ("so_even_mm", 2, (1, 1)), ("so_even_mm", 4, (3, 3)),
    ("so_even_m2m", 2, (1, 1)), ("so_even_m2m", 4, (3, 3))])
def test_principal_families_pass_the_label_certificate(family, param, extra,
                                                      monkeypatch):
    L = _certified(monkeypatch, lambda: principal_lmhs(family, param))
    # one string b_a at (w - a, w - a), plus w at (m - 1, m - 1) for so_even
    dims = {(a, a): 1 for a in range(L.n + 1)}
    if extra:
        dims[extra] += 1
    assert deligne_splitting(L).dims() == dims


def test_non_ht_instance_passes_the_label_certificate(monkeypatch):
    L = _certified(monkeypatch, kind2_witness)
    assert deligne_splitting(L).dims() == {(0, 0): 1, (1, 1): 1, (2, 2): 1,
                                           (2, 0): 1, (0, 2): 1}


# ------------------------------------------------------------ closed orbit

def test_cp_orb_on_golden_pattern():
    pat = load_golden("closed_orbit_pattern.json")
    dims = {(p, q): d for p, q, d in pat["nodes"]}
    strings = [{"top": tuple(s["top"]), "length": s["length"]}
               for s in pat["strings"]]
    assert cp_orb_check(dims, strings)["ok"]


def test_cp_orb_violations():
    assert not cp_orb_check({(3, -1): 1})["no_mixed_quadrant"]
    assert not cp_orb_check({(3, -3): 1})["no_odd_antidiagonal"]
    assert not cp_orb_check({(4, 1): 1})["bandwidth_two"]
    bad = cp_orb_check({(0, 0): 1}, strings=[{"top": (1, 3), "length": 5}])
    assert not bad["string_length_mod4"]


def test_period_closed_non_ht_instance():
    L = kind2_witness()
    assert validate_lmhs(L)["ok"]
    dims = deligne_splitting(L).dims()
    # h^{2,0} = i^{2,0}_prim + i^{2,2}_prim
    h20 = L.hodge.filtration.step(2).dim
    i20_prim = dims.get((2, 0), 0) - dims.get((3, 1), 0)
    i22_prim = dims.get((2, 2), 0) - dims.get((3, 3), 0)
    assert h20 == i20_prim + i22_prim == 2
    rep = period_closed_check(dims, 2)
    assert rep["branch"] == "non-hodge-tate"
    assert rep["consistent_with_closed_orbit"]


def test_period_closed_rejects_weight4_string():
    dims = {(p, p): 1 for p in range(5)}
    dims[(1, 3)] = dims[(3, 1)] = 1
    rep = period_closed_check(dims, 4)
    assert not rep["prim_levels_2_mod_4"]
    assert not rep["consistent_with_closed_orbit"]


def test_period_closed_odd_weight_must_be_ht():
    with pytest.raises(OddWeightNonHT):
        period_closed_check({(1, 2): 1, (2, 1): 1}, 3)
    assert period_closed_check({(0, 0): 1, (1, 1): 1}, 1)["branch"] == \
        "hodge-tate"


# ------------------------------------------------------------ principal

@pytest.mark.parametrize("family,param,dim,weight", [
    ("sp", 1, 2, 1), ("sp", 2, 4, 3), ("sp", 3, 6, 5),
    ("so_odd", 1, 3, 2), ("so_odd", 2, 5, 4), ("so_odd", 3, 7, 6),
    ("so_even_mm", 2, 4, 2), ("so_even_m2m", 2, 4, 2),
])
def test_principal_families(family, param, dim, weight):
    L = principal_lmhs(family, param)
    assert (L.hodge.dim, L.hodge.n) == (dim, weight)
    assert validate_lmhs(L)["ok"]
    cv = principal_neutral_char(family, param)
    assert set(cv) == {2}


ROOT_TYPE = {"sp": "C", "so_odd": "B", "so_even_mm": "D", "so_even_m2m": "D"}


@pytest.mark.parametrize("family,param", [
    ("sp", 1), ("sp", 2), ("sp", 3), ("so_odd", 2), ("so_odd", 3),
    ("so_even_mm", 2), ("so_even_m2m", 2),
])
def test_principal_adjoint_bigrading_matches_roots(family, param):
    # the same bigrading of g twice: by linear algebra on V, and by roots,
    # where alpha sits at (alpha(Y) - alpha(L), alpha(L)) with L = Y/2
    Y = GradingElement(principal_neutral_char(family, param))
    L = GradingElement([v / 2 for v in Y.values])
    rs = build_root_system(ROOT_TYPE[family], param)
    got = adjoint_lmhs(principal_lmhs(family, param)).I_g.dims()
    assert got == adjoint_bigrading(rs, L, Y)


def test_principal_hodge_numbers():
    L = principal_lmhs("sp", 2)
    assert L.hodge.filtration.f_vector() == (4, 3, 2, 1)
    L = principal_lmhs("so_even_mm", 2)
    # h = (1, 2, 1): the extra class w sits in the middle
    assert L.hodge.filtration.f_vector() == (4, 3, 1)


@pytest.mark.parametrize("construct", [principal_lmhs, principal_neutral_char])
@pytest.mark.parametrize("family, param, message", [
    ("so_even_mm", 3, "need m even, m >= 2"), ("so_even_m2m", 0, "need m even, m >= 2"),
    ("sp", 0, "need n >= 1"), ("sp", -3, "need n >= 1"), ("so_odd", 0, "need m >= 1"),
    ("su", 2, "unknown family 'su'"),
])
def test_principal_parity_violations(construct, family, param, message):
    # both constructors take the same parameters: principal_neutral_char gave
    # (0,) for sp(0) and sp(-3)
    with pytest.raises(ParityViolation, match="^%s$" % re.escape(message)):
        construct(family, param)


# ------------------------------------------------------------ normal forms

def all_form_cases():
    for n in (1, 2, 3, 4):
        for d in range(2, 8):
            if n % 2 and d % 2:
                continue
            yield n, d


def test_normal_forms_rank_and_nilpotency():
    for n, d in all_form_cases():
        Q, forms = normal_forms(n, d)
        # so(2) has no root vectors at all; everything else does
        assert forms or (n % 2 == 0 and d == 2), (n, d)
        for tag, N in forms:
            assert (Q * N + N.transpose() * Q).is_zero(), tag
            assert rank(N) <= 2, tag
            assert (N * N * N).is_zero(), tag


def test_normal_forms_are_one_per_root():
    # sp(2c) for odd weight, so(d) for even: one form per root of C_c, B_c or
    # D_c, c = d // 2; so(2) has none
    for n in range(1, 5):
        for d in range(2, 9):
            if n % 2 and d % 2:
                continue
            _, forms = normal_forms(n, d)
            kind = "C" if n % 2 else "B" if d % 2 else "D"
            roots = 0 if kind == "D" and d == 2 else \
                len(build_root_system(kind, d // 2).all_roots)
            assert len(forms) == roots, (n, d)
            seen = set()
            for tag, N in forms:
                assert N.entries not in seen and N.scale(-1).entries not in seen, tag
                seen.add(N.entries)


def test_three_step_forms_only_for_odd_middle():
    for n, d in all_form_cases():
        if n % 2:
            continue
        _, forms = normal_forms(n, d)
        has3 = any(not (N * N).is_zero() for _, N in forms)
        # d odd corresponds to odd middle Hodge number h^{m,m}
        assert has3 == (d % 2 == 1), (n, d)


def test_normal_forms_odd_weight_needs_even_dim():
    with pytest.raises(ParityViolation):
        normal_forms(1, 3)
