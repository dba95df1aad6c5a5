"""Degeneration classifiers: minimal types and witnesses, the Hodge-Tate
gate, closed-orbit checks, principal constructors, normal-form exhaustion."""

import itertools
import json
import os
import re

import pytest

from hodge_degen.gq import MatrixGQ, rank
from hodge_degen.hodge import HodgeNumbers, string_block, string_labels
from hodge_degen.lmhs import (
    deligne_splitting, validate_lmhs, is_hodge_tate, disc_sample, adjoint_lmhs,
)
from hodge_degen.roots import build_root_system, GradingElement, adjoint_bigrading
from hodge_degen import classify
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


def test_every_small_string_block_is_an_lmhs():
    # every string top (p, q), p >= q, of weight n <= 6 whose bottom
    # (n - q, n - p) is a bidegree: 49 blocks
    tops = [(n, (p, q)) for n in range(1, 7) for p in range(n + 1)
            for q in range(p + 1) if p + q >= n]
    assert len(tops) == 49
    for n, (p, q) in tops:
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
    # (0, 1) for (0, 0) leaves F as it is, so the splitting is computed and
    # its dims differ from the labels' count
    Q, N, basis = string_block(2, (2, 2), 3)
    rest, (v, _) = basis[:-1], basis[-1]  # v at the bottom, (0, 0)
    with pytest.raises(InfeasibleType) as e:
        _direct_sum(2, [(Q, N, rest + [(v, (0, 1))])])
    assert "(0, 0)" in str(e.value) and "(0, 1)" in str(e.value)
    # a wrong Hodge index moves F itself: F^1 = V has no splitting at all
    with pytest.raises(InfeasibleType, match="labels"):
        _direct_sum(2, [(Q, N, rest + [(v, (1, 1))])])


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
