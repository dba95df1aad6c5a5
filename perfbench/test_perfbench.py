"""Tests of the benchmark's own checks and input generator.

    python3 perfbench/test_perfbench.py

Each check must pass the program's real output and reject a corrupted copy
of it; the validate-json generator must be deterministic per seed and stay
inside Aut(V, Q).
"""

import filecmp
import json
import os
import random
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import expect  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from hodge_degen import cli  # noqa: E402
from hodge_degen.hodge import HodgeNumbers  # noqa: E402
from hodge_degen.classify import minimal_types  # noqa: E402


def small_bases():
    return [(workloads.base_label(s), workloads.build_base(s)[0].to_json())
            for s in workloads.VALIDATE_BASES[:3]]


class Generator(unittest.TestCase):
    def test_same_seed_same_files_other_seed_other_files(self):
        bases = small_bases()
        with tempfile.TemporaryDirectory() as tmp:
            a = gen.write_files(bases, 7, os.path.join(tmp, "a"))
            b = gen.write_files(bases, 7, os.path.join(tmp, "b"))
            c = gen.write_files(bases, 8, os.path.join(tmp, "c"))
            self.assertEqual(len(a), 4 * len(bases))
            for (pa, *_), (pb, *_), (pc, *_) in zip(a, b, c):
                self.assertTrue(filecmp.cmp(pa, pb, shallow=False), pa)
                if "moved" in pa:
                    self.assertFalse(filecmp.cmp(pa, pc, shallow=False), pa)

    def test_every_draw_preserves_q_exactly(self):
        for spec in workloads.VALIDATE_BASES:
            Q = gen.real_matrix(workloads.build_base(spec)[0].to_json()["Q"])
            rng = random.Random(str(spec))
            for _ in range(3):
                g = gen.cayley_element(Q, rng, gen.NONZEROS_PER_DIM * len(Q))
                self.assertTrue(gen.preserves(g, Q), spec)
                self.assertNotEqual(g, gen.identity(len(Q)))
                self.assertGreater(sum(1 for row in g for x in row if x), len(Q) ** 2 // 2)

    def test_a_map_outside_aut_is_caught(self):
        Q = gen.real_matrix(workloads.build_base(workloads.VALIDATE_BASES[0])[0].to_json()["Q"])
        g = gen.identity(len(Q))
        g[0][0] = gen.Fraction(2)
        self.assertFalse(gen.preserves(g, Q))

    def test_scalars_round_trip(self):
        for s in ("0", "-3", "1/2", "-1/2*i", "1*i", "3/4+1/5*i", "-3/4-1/5*i"):
            self.assertEqual(gen.fmt(gen.parse(s)), s)

    def test_moved_copies_get_the_expected_verdicts(self):
        spec = workloads.VALIDATE_BASES[0]
        L, n, h, want = workloads.build_base(spec)
        with tempfile.TemporaryDirectory() as tmp:
            for path, kind, _ in gen.write_files([("b", L.to_json())], 3, tmp):
                code, text = workloads.call_cli(["validate", path])
                self.assertEqual(expect.report_problems(kind, code, json.loads(text)), [], path)


class Splitting(unittest.TestCase):
    def test_every_corpus_case_has_an_expectation(self):
        cases = cli.corpus_cases()
        self.assertEqual(len(cases), 82)
        for cid, *_ in cases:
            n, h, want = expect.corpus_expectation(cid)
            self.assertEqual(sum(want.values()), sum(h), cid)

    def test_minimal_table_agrees_with_the_classifier(self):
        for n in range(1, 5):
            for h in ((2,) * (n + 1), (1, 2, 2, 1), (2, 3, 2), (1, 1, 1, 1, 1)):
                if len(h) != n + 1:
                    continue
                for t in minimal_types(n, HodgeNumbers(n, h)):
                    self.assertEqual(expect.minimal_dims(n, h, t.kind, t.p_o, t.q_o),
                                     t.i_table, (n, h, t))

    def test_a_moved_node_is_rejected(self):
        n, h, want = expect.corpus_expectation("minimal/n=3,h=1,2,2,1,I(0,3)")
        self.assertEqual(expect.splitting_problems(want, n, h, want), [])
        (p, q), d = sorted(want.items())[0]
        bad = dict(want)
        del bad[(p, q)]
        bad[(p + 1, q)] = bad.get((p + 1, q), 0) + d
        self.assertTrue(expect.splitting_problems(bad, n, h, want))

    def test_an_off_diagonal_hodge_tate_node_is_rejected(self):
        n, h, want = expect.corpus_expectation("ht/n=2,h=1,2,1")
        bad = {(2, 2): 1, (1, 1): 1, (2, 0): 1, (0, 2): 1}
        bad.pop((2, 0))
        self.assertTrue(expect.splitting_problems(bad, n, h, want))

    def test_a_principal_string_with_a_gap_is_rejected(self):
        n, h, want = expect.corpus_expectation("principal/sp(2)")
        bad = dict(want)
        bad[(1, 1)] -= 1
        bad[(0, 0)] += 1
        self.assertTrue(expect.splitting_problems(bad, n, h, want))


class Verdicts(unittest.TestCase):
    GOOD = {"weight_filtration": True, "graded_hodge": True,
            "minus_one_minus_one": True, "polarized_primitives": True, "ok": True}

    def test_flipped_verdicts_are_rejected(self):
        self.assertEqual(expect.report_problems("moved", 0, self.GOOD), [])
        self.assertTrue(expect.report_problems("moved", 1, dict(self.GOOD, ok=False)))
        self.assertTrue(expect.report_problems("moved", 0, dict(self.GOOD, graded_hodge=False)))
        neg = dict(self.GOOD, polarized_primitives=False, ok=False)
        self.assertEqual(expect.report_problems("neg-q", 1, neg), [])
        self.assertTrue(expect.report_problems("neg-q", 0, self.GOOD))
        self.assertTrue(expect.report_problems("neg-q", 1, dict(neg, polarized_primitives=True)))
        shifted = dict(self.GOOD, weight_filtration=False, ok=False)
        self.assertEqual(expect.report_problems("shift-w", 1, shifted), [])
        self.assertTrue(expect.report_problems("shift-w", 1, dict(shifted, weight_filtration=True)))

    def test_corpus_report_must_say_one_case_ok(self):
        wl = workloads.Corpus(0)
        case = wl.ops[0]
        self.assertEqual(wl.check(case, (0, '{"cases": 1, "ok": true}\n')), [])
        self.assertTrue(wl.check(case, (1, '{"cases": 1, "first_failure": "x", "ok": false}\n')))
        self.assertTrue(wl.check(case, (0, '{"cases": 0, "ok": true}\n')))


class Tables(unittest.TestCase):
    def setUp(self):
        self.entries = {e["name"]: e for e in workloads.catalog_entries()}

    def test_stored_rows_pass_and_a_row_off_by_one_is_rejected(self):
        for name, e in self.entries.items():
            self.assertEqual(expect.catalog_problems(e, e["expected"]), [], name)
        e = self.entries["G2-row1"]
        got = json.loads(json.dumps(e["expected"]))
        got["V"]["nodes"][0][2] += 1
        self.assertTrue(expect.catalog_problems(e, got))
        got = json.loads(json.dumps(e["expected"]))
        got["adjoint"]["nodes"][0][2] += 1
        self.assertTrue(expect.catalog_problems(e, got))

    def test_orbit_rows_must_obey_the_involution(self):
        e = self.entries["G2-compact-open"]
        self.assertEqual(expect.catalog_problems(e, e["expected"]), [])
        flipped = dict(e["expected"], closed=not e["expected"]["closed"])
        self.assertTrue(expect.catalog_problems(e, flipped))
        e = self.entries["F4-split-closed"]
        self.assertTrue(expect.catalog_problems(e, dict(e["expected"], closed=False)))
        self.assertTrue(expect.catalog_problems(
            e, dict(e["expected"], dim_R_orbit=e["expected"]["dim_R_orbit"] + 1)))

    def test_catalog_line_and_diagram_checks(self):
        wl = workloads.Tables(0)
        self.assertEqual(wl.check(("catalog", "G2-row1"), (0, "G2-row1: match\n")), [])
        self.assertTrue(wl.check(("catalog", "G2-row1"), (1, "G2-row1: MISMATCH\n")))
        for fmt in ("ascii", "svg"):
            op = ("diagram", "G2-row1", "adjoint", fmt)
            out = workloads.call_cli(["diagram", "G2-row1", "--part", "adjoint", "--format", fmt])
            self.assertEqual(wl.check(op, out), [])
            mark = "*" if fmt == "ascii" else '<circle'
            self.assertTrue(wl.check(op, (0, out[1].replace(mark, " ", 1))))

    def test_sweep_rows_pass_and_corruptions_are_rejected(self):
        grads = ((0, 0), (1, 1), (2, 2), (1, 0))
        rows = workloads.sweep_root_system("G", 2, grads)
        self.assertEqual(workloads.sweep_problems("G", 2, grads, rows), [])
        values, adj, orbits = rows[1]
        bad_adj = dict(adj)
        bad_adj[(0, 0)] += 1
        self.assertTrue(workloads.sweep_problems("G", 2, grads, [rows[0], (values, bad_adj, orbits)] + rows[2:]))
        (dR, dC, closed), split = orbits
        bad_orbits = [(dR, dC, not closed), split]
        self.assertTrue(workloads.sweep_problems("G", 2, grads, [rows[0], (values, adj, bad_orbits)] + rows[2:]))
        self.assertTrue(workloads.sweep_problems("G", 2, grads, rows[:-1]))


if __name__ == "__main__":
    unittest.main()
