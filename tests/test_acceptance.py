"""Acceptance criteria, one test per criterion, one pass/fail line each."""

import itertools
import json
import os
import time

from hodge_degen.gq import rank
from hodge_degen.hodge import HodgeNumbers
from hodge_degen.lmhs import (
    deligne_splitting, validate_lmhs, is_hodge_tate, is_r_split, disc_sample,
    adjoint_lmhs,
)
from hodge_degen.classify import (
    minimal_types, minimal_witness, ht_gate, ht_construct, cp_orb_check,
    period_closed_check, principal_lmhs, principal_neutral_char,
)
from hodge_degen.roots import (
    build_root_system, GradingElement, rep_weights, rep_bigrading,
    adjoint_bigrading,
)
from hodge_degen.diagrams import triples
from hodge_degen import cli

from normal_forms import normal_forms

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def report(k, label, ok):
    print("[ACCEPTANCE %d] %s: %s" % (k, label, "PASS" if ok else "FAIL"))
    assert ok, label


def figure_h(n, generic):
    off, dia = (2, 3) if generic else (1, 2)
    h = [off] * (n + 1)
    if n % 2 == 0:
        h[n // 2] = dia
    return HodgeNumbers(n, h)


def gate_passing_small(max_dim=8, max_entry=3):
    for n in range(1, 5):
        half = (n + 1) // 2
        free = half + ((n + 1) % 2)
        for combo in itertools.product(range(max_entry + 1), repeat=free):
            h = tuple(combo) + tuple(reversed(combo[:half]))
            if 0 < sum(h) <= max_dim:
                hn = HodgeNumbers(n, h)
                if ht_gate(n, hn):
                    yield n, hn


def test_acceptance_1_minimal_figures():
    t0 = time.monotonic()
    ok = True
    figs = golden("minimal_figures.json")
    for key, weights in (("generic_h", range(1, 5)), ("unit_h", range(1, 6))):
        for n in weights:
            hn = figure_h(n, generic=(key == "generic_h"))
            got = sorted((t.kind, t.p_o, t.q_o, t.triples())
                         for t in minimal_types(n, hn))
            want = sorted((d["kind"], d["p_o"], d["q_o"],
                           sorted(map(list, d["nodes"])))
                          for d in figs[key][str(n)])
            ok = ok and got == want
    ok = ok and (time.monotonic() - t0) < 1.0
    report(1, "minimal-degeneration node sets, both figure families", ok)


def test_acceptance_2_g2_catalog():
    t0 = time.monotonic()
    rs = build_root_system("G", 2)
    L = GradingElement((1, 1))
    w7 = rep_weights(rs, "g2-7")
    rows = golden("g2_rows.json")
    ok = True
    for name, row in rows.items():
        Y = GradingElement(row["Y"]) if row["Y"] else None
        ok = ok and triples(rep_bigrading(w7, L, Y, 6)) == row["V"]
        adj = triples(adjoint_bigrading(rs, L, Y))
        if "adjoint" in row:
            ok = ok and adj == row["adjoint"]
        ok = ok and sum(d for *_, d in adj) == 14
    # the closed-orbit row, stated explicitly: diagonal with three doubled nodes
    closed = triples(adjoint_bigrading(rs, L, GradingElement((2, 2))))
    ok = ok and closed == [[p, p, 2 if abs(p) <= 1 else 1]
                           for p in range(-5, 6)]
    ok = ok and (time.monotonic() - t0) < 5.0
    report(2, "rank-2 exceptional catalog rows (V and adjoint)", ok)


def test_acceptance_3_f4_catalog():
    t0 = time.monotonic()
    rs = build_root_system("F", 4)
    L = GradingElement((1, 1, 1, 1))
    w26 = rep_weights(rs, "f4-26")
    rows = golden("f4_rows.json")
    ok = True
    for name, row in rows.items():
        Y = GradingElement(row["Y"])
        want = sorted([int(a) for a in k.split(",")] + [v]
                      for k, v in row["nodes"].items())
        ok = ok and triples(rep_bigrading(w26, L, Y, 16)) == want
        kmax = max(abs(Y(wt)) for wt, m in w26)
        ok = ok and int(kmax) + 1 == row["nil_order"]
    ok = ok and (time.monotonic() - t0) < 5.0
    report(3, "rank-4 exceptional catalog rows with nilpotency split", ok)


def test_acceptance_4_hodge_tate_gate_and_constructor():
    t0 = time.monotonic()
    ok = not ht_gate(2, HodgeNumbers(2, (2, 1, 2)))
    ok = ok and ht_gate(4, HodgeNumbers(4, (1, 2, 4, 2, 1)))
    for n, hn in gate_passing_small():
        L = ht_construct(n, hn)
        bg = deligne_splitting(L)
        ok = ok and validate_lmhs(L)["ok"] and is_hodge_tate(bg.dims())
        ok = ok and disc_sample(L, (1, 2, 10))["ok"]
        if L.hodge.dim >= 2:
            a = adjoint_lmhs(L)
            adims = a.I_g.dims()
            ok = ok and is_hodge_tate(adims)
            ok = ok and cp_orb_check(adims)["ok"]
    # converse direction: a non-HT splitting has a non-HT adjoint
    hn = HodgeNumbers(3, (2, 1, 1, 2))
    t = [u for u in minimal_types(3, hn) if u.q_o - u.p_o >= 2][0]
    Lw = minimal_witness(t, 3, hn)
    bgw = deligne_splitting(Lw)
    ok = ok and is_r_split(bgw) and not is_hodge_tate(bgw.dims())
    ok = ok and not is_hodge_tate(adjoint_lmhs(Lw).I_g.dims())
    ok = ok and (time.monotonic() - t0) < 30.0
    report(4, "Hodge-Tate gate, constructor, and adjoint equivalence", ok)


def test_acceptance_5_basic_boundary_exhaustion():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 5):
        for d in range(2, 8):
            if n % 2 and d % 2:
                continue
            Q, forms = normal_forms(n, d)
            has3 = False
            for tag, N in forms:
                ok = ok and (Q * N + N.transpose() * Q).is_zero()
                ok = ok and rank(N) <= 2 and (N * N * N).is_zero()
                has3 = has3 or not (N * N).is_zero()
            if n % 2 == 0:
                ok = ok and has3 == (d % 2 == 1)
            else:
                ok = ok and not has3
    ok = ok and (time.monotonic() - t0) < 30.0
    report(5, "boundary normal forms: rank <= 2, N^3 = 0, 3-step parity", ok)


def test_acceptance_6_closed_orbit_suite():
    t0 = time.monotonic()
    pat = golden("closed_orbit_pattern.json")
    dims = {(p, q): d for p, q, d in pat["nodes"]}
    strings = [{"top": tuple(s["top"]), "length": s["length"]}
               for s in pat["strings"]]
    ok = cp_orb_check(dims, strings)["ok"]
    for n, hn in gate_passing_small():
        L = ht_construct(n, hn)
        if L.hodge.dim >= 2:
            ok = ok and cp_orb_check(adjoint_lmhs(L).I_g.dims())["ok"]
    # the kind II minimal witness of h = (2,1,2): not Hodge-Tate, closed-orbit shape
    hn = HodgeNumbers(2, (2, 1, 2))
    [t] = minimal_types(2, hn)
    L = minimal_witness(t, 2, hn)
    d2 = deligne_splitting(L).dims()
    h20 = L.hodge.filtration.step(2).dim
    prim = lambda p, q: d2.get((p, q), 0) - d2.get((p + 1, q + 1), 0)
    ok = ok and validate_lmhs(L)["ok"]
    ok = ok and h20 == prim(2, 0) + prim(2, 2)
    ok = ok and t.kind == "II" and not is_hodge_tate(d2)
    ok = ok and period_closed_check(d2, 2)["consistent_with_closed_orbit"]
    synth = {(p, p): 1 for p in range(5)}
    synth[(1, 3)] = synth[(3, 1)] = 1
    rej = period_closed_check(synth, 4)
    ok = ok and not rej["prim_levels_2_mod_4"]
    ok = ok and not rej["consistent_with_closed_orbit"]
    report(6, "closed-orbit constraints accept/reject as printed", ok)


def test_acceptance_7_principal_constructors():
    t0 = time.monotonic()
    ok = True
    cases = [("sp", n, 2 * n, 2 * n - 1, [1] * (2 * n)) for n in (1, 2, 3)]
    cases += [("so_odd", m, 2 * m + 1, 2 * m, [1] * (2 * m + 1))
              for m in (1, 2, 3)]
    for fam in ("so_even_mm", "so_even_m2m"):
        h = [1, 2, 1]
        cases.append((fam, 2, 4, 2, h))
    for fam, p, dim, weight, h in cases:
        L = principal_lmhs(fam, p)
        ok = ok and (L.hodge.dim, L.hodge.n) == (dim, weight)
        ok = ok and validate_lmhs(L)["ok"]
        got_h = [0] * (weight + 1)
        for (a, b), m in deligne_splitting(L).dims().items():
            got_h[weight - a] += m
        ok = ok and got_h == h
        ok = ok and set(principal_neutral_char(fam, p)) == {2}
    ok = ok and (time.monotonic() - t0) < 10.0
    report(7, "principal-nilpotent families and characteristic vectors", ok)


def test_acceptance_8_property_corpus(capsys):
    t0 = time.monotonic()
    code = cli.main(["verify-corpus"])
    out = json.loads(capsys.readouterr().out)
    ok = code == 0 and out["ok"]
    ok = ok and (time.monotonic() - t0) < 60.0
    with capsys.disabled():
        report(8, "full property corpus (%d cases)" % out["cases"], ok)
