"""Pure polarized Hodge structures: model construction, the two bilinear
relations, JSON round trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hodge_degen import hodge
from hodge_degen.gq import MatrixGQ, Subspace, gq, ZERO, ONE, unit_vector
from hodge_degen.hodge import (
    HodgeDatum, HodgeFiltration, PolarizationForm, HodgeNumbers,
    hodge_decomposition, check_hr1, check_hr2, check_isotropy, validate_phs,
    is_valid_phs, hodge_numbers, model_phs, model_basis, labelled_filtration,
    InconsistentFiltration, InadmissibleHodgeNumbers, Hr1Prerequisite,
)


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
    assert hodge_numbers(d) == hn


def test_model_phs_rejects_empty():
    with pytest.raises(InadmissibleHodgeNumbers):
        model_phs(HodgeNumbers(2, (0, 0, 0)))


@pytest.mark.parametrize("n,h", [(1, (1, 1)), (2, (2, 3, 2)), (3, (1, 2, 2, 1)),
                                 (4, (1, 0, 2, 0, 1))])
def test_model_phs_steps_are_the_filtration_of_its_labels(n, h):
    hn = HodgeNumbers(n, h)
    Q, basis = model_basis(hn)
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
    assert HodgeNumbers(3, (1, 2, 2, 1)).hpq(2, 1) == 2
    assert HodgeNumbers(3, (1, 2, 2, 1)).hpq(2, 2) == 0


def test_polarization_parity_enforced():
    with pytest.raises(ValueError):
        PolarizationForm(1, MatrixGQ.identity(2))  # odd weight needs skew
    with pytest.raises(ValueError):
        PolarizationForm(2, MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]]))
    with pytest.raises(ValueError):
        PolarizationForm(2, MatrixGQ.zero(2, 2))  # degenerate


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
    assert not check_hr2(flipped)
    assert check_isotropy(flipped)


def test_hr2_requires_hr1():
    # weight 1, F^1 not isotropic: Q(e1, e1 + e2) != 0
    Q = MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]])
    full = Subspace.full(2)
    bad = HodgeDatum(2, PolarizationForm(1, Q), HodgeFiltration(
        1, [full, Subspace.from_vectors(2, [[ONE, ONE]])]))
    assert not check_hr1(bad)
    with pytest.raises(Hr1Prerequisite):
        check_hr2(bad)
    rep = validate_phs(bad)
    assert not rep["hr1"] and not rep["hr2"]


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
    assert rep == {"hr1": True, "hr2": flip == 1, "spans": True, "ok": flip == 1}
    assert calls == {"check_hr1": 1, "hodge_decomposition": 1}


def test_weight1_elliptic_curve_datum():
    # classical h = (1, 1): F^1 = span(e1 + i e2), Q the standard symplectic form
    Q = MatrixGQ([[ZERO, ONE], [gq(-1), ZERO]])
    F1 = Subspace.from_vectors(2, [[ONE, gq("i")]])
    d = HodgeDatum(2, PolarizationForm(1, Q), HodgeFiltration(
        1, [Subspace.full(2), F1]))
    assert is_valid_phs(d)
    # conjugate line fails HR2 (wrong orientation)
    dbar = HodgeDatum(2, PolarizationForm(1, Q), HodgeFiltration(
        1, [Subspace.full(2), Subspace.from_vectors(2, [[ONE, gq("-i")]])]))
    assert check_hr1(dbar) and not check_hr2(dbar)


def test_decomposition_conjugation_symmetry():
    d = model_phs(HodgeNumbers(3, (1, 2, 2, 1)))
    pieces = {(p, q): s for p, q, s in hodge_decomposition(d)}
    from hodge_degen.gq import conj_space
    for (p, q), s in pieces.items():
        assert conj_space(s) == pieces[(q, p)]


def test_json_roundtrip():
    d = model_phs(HodgeNumbers(2, (1, 2, 1)))
    blob = json.dumps(d.to_json(), sort_keys=True)
    d2 = HodgeDatum.from_json(json.loads(blob))
    assert d2.polarization.Q == d.polarization.Q
    assert d2.filtration == d.filtration
    assert json.dumps(d2.to_json(), sort_keys=True) == blob


def test_step_clamping():
    d = model_phs(HodgeNumbers(1, (1, 1)))
    F = d.filtration
    assert F.step(-3) == Subspace.full(2)
    assert F.step(5).dim == 0
    assert F.f_vector() == (2, 1)
