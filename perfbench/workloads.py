"""The three workloads: their inputs, their operations and their checks.

A workload is built by `setup(name, seed, outdir)`.  Its `ops` are run in
order, one at a time (a closed loop); one pass over `ops` is a round.
`run(op)` is all that is timed.  `check(op, out)` looks at one output after
its round, and `final_problems()` makes the checks that call the program
again, once after the timed rounds.  Each check compares the program's
output with expectations from `expect`, which are derived from the theory
and never from the program's own answers.
"""

import contextlib
import io
import itertools
import json
import os
import random

import expect
import gen

from hodge_degen import cli, roots
from hodge_degen.classify import (
    minimal_types, minimal_witness, ht_construct, principal_lmhs,
)
from hodge_degen.hodge import HodgeNumbers
from hodge_degen.lmhs import LmhsDatum, deligne_splitting


def call_cli(argv):
    """Run `hodge-degen <argv>` in this process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ----------------------------------------------------------------- corpus
# Every fourth case of the corpus, from the third on: 20 of the 82 cases,
# with all three families and both the light and heavy invariant paths.
# The whole corpus takes about 50 s, more than one run may last.
CORPUS_SLICE = slice(2, None, 4)


class Corpus:
    """`hodge-degen verify-corpus`, one corpus case per operation."""

    def __init__(self, seed):
        self.ops = cli.corpus_cases()[CORPUS_SLICE]
        random.Random(seed).shuffle(self.ops)
        self.data_per_round = len(self.ops)
        self.built = {}

    def run(self, case):
        # verify-corpus takes its cases from cli.corpus_cases: hand it this
        # one, and keep the datum it builds for the final checks.
        cid, n, hn, thunk = case

        def build():
            L = self.built[cid] = thunk()
            return L

        saved = cli.corpus_cases
        cli.corpus_cases = lambda limit=None: [(cid, n, hn, build)]
        try:
            return call_cli(["verify-corpus"])
        finally:
            cli.corpus_cases = saved

    def check(self, case, out):
        code, text = out
        if code != 0 or text.strip() != json.dumps({"cases": 1, "ok": True}, sort_keys=True):
            return ["%s: exit %d, %s" % (case[0], code, text.strip())]
        return []

    def final_problems(self):
        out = []
        for cid, L in sorted(self.built.items()):
            n, h, want = expect.corpus_expectation(cid)
            dims = deligne_splitting(L).dims()
            out += ["%s: %s" % (cid, p) for p in expect.splitting_problems(dims, n, h, want)]
        return out


# ---------------------------------------------------------- validate-json
# Bases at dims 4-13 and weights up to 11, each written four times (see
# gen.copies).  Chosen so one round takes about as long as a corpus round;
# principal sp(4) alone would cost as much as all of them together.
VALIDATE_BASES = (
    ("principal", "sp", 2),                          # dim 4, weight 3
    ("principal", "so_odd", 2),                      # dim 5, weight 4
    ("ht", 11, (0, 0, 0, 0, 1, 2, 2, 1, 0, 0, 0, 0)),  # dim 6, weight 11
    ("minimal", 3, (1, 2, 2, 1), "I", 0, 3),         # dim 6, weight 3
    ("minimal", 5, (1, 1, 1, 1, 1, 1), "I", 0, 5),   # dim 6, weight 5
    ("minimal", 2, (1, 11, 1), "II", 0, 2),          # dim 13, weight 2
)


def base_label(spec):
    return "-".join(".".join(map(str, x)) if isinstance(x, tuple) else str(x)
                    for x in spec)


def build_base(spec):
    """(LmhsDatum, weight, h, expected splitting dims) for one base spec."""
    if spec[0] == "principal":
        n, h = expect.principal_hodge(spec[1], spec[2])
        return principal_lmhs(spec[1], spec[2]), n, h, expect.principal_dims(*spec[1:])
    n, h = spec[1], spec[2]
    hn = HodgeNumbers(n, h)
    if spec[0] == "ht":
        return ht_construct(n, hn), n, h, expect.hodge_tate_dims(n, h)
    kind, p_o, q_o = spec[3:]
    t = next(t for t in minimal_types(n, hn) if (t.kind, t.p_o, t.q_o) == (kind, p_o, q_o))
    return minimal_witness(t, n, hn), n, h, expect.minimal_dims(n, h, kind, p_o, q_o)


class ValidateJson:
    """`hodge-degen validate <file>` on a stream of generated datum files."""

    def __init__(self, seed, outdir):
        bases, self.expected = [], {}
        for spec in VALIDATE_BASES:
            L, n, h, want = build_base(spec)
            bases.append((base_label(spec), L.to_json()))
            self.expected[base_label(spec)] = (n, h, want)
        self.ops = gen.write_files(bases, seed, os.path.join(outdir, "seed-%d" % seed))
        random.Random(seed).shuffle(self.ops)
        self.data_per_round = len(self.ops)

    def run(self, op):
        return call_cli(["validate", op[0]])

    def check(self, op, out):
        path, kind, _ = op
        code, text = out
        try:
            report = json.loads(text)
        except ValueError:
            return ["%s: not a JSON report: %r" % (path, text[:200])]
        return ["%s: %s" % (os.path.basename(path), p)
                for p in expect.report_problems(kind, code, report)]

    def final_problems(self):
        """Moved data keep their base's splitting: Aut(V, Q) acts on it."""
        out = []
        for path, kind, label in sorted(self.ops):
            if kind != "moved":
                continue
            with open(path) as fh:
                L = LmhsDatum.from_json(json.load(fh))
            n, h, want = self.expected[label]
            dims = deligne_splitting(L).dims()
            out += ["%s: %s" % (os.path.basename(path), p)
                    for p in expect.splitting_problems(dims, n, h, want)]
        return out


# ----------------------------------------------------------------- tables
# The root systems of the sweep, and how many gradings L with entries in
# {0, 1, 2} each one gets: L = 0, 1, 2 on every simple root, and the rest
# drawn from the seed.  The cost of a grading hardly depends on which one it
# is, so the round costs the same on every seed.  All 3^5 gradings of a
# rank-5 system would take about 15 s each, a whole sweep about 60 s.
SWEEP = [(t, r) for t in "ABCD" for r in (3, 4, 5)] + [("G", 2), ("F", 4)]
GRADINGS_PER_SYSTEM = 16
INVOLUTIONS = ("compact", "split")


def sweep_gradings(rank, rng):
    every = list(itertools.product((0, 1, 2), repeat=rank))
    if len(every) <= GRADINGS_PER_SYSTEM:
        return every
    fixed = [(v,) * rank for v in (0, 1, 2)]
    rest = [g for g in every if g not in fixed]
    return fixed + rng.sample(rest, GRADINGS_PER_SYSTEM - len(fixed))


def catalog_entries():
    d = cli.catalog_dir()
    out = []
    for fn in sorted(os.listdir(d)):
        if fn.endswith(".json"):
            with open(os.path.join(d, fn)) as fh:
                out.append(json.load(fh))
    return out


def sweep_root_system(letter, rank, gradings):
    """Gradings of one root system through the bigrading and orbit layers.

    Calls go through the module, so that a traced run sees them.
    """
    rs = roots.build_root_system(letter, rank)
    invs = [roots.named_involution(rs, name) for name in INVOLUTIONS]
    rows = []
    for values in gradings:
        L = roots.GradingElement(values)
        orbits = []
        for inv in invs:
            dims = roots.orbit_dims(rs, L, inv)
            orbits.append((dims["dim_R_orbit"], dims["dim_C_dual"],
                           roots.closed_orbit_criterion(rs, L, inv)))
        rows.append((values, roots.adjoint_bigrading(rs, L, None), orbits))
    return rows


class Tables:
    """`hodge-degen catalog` and `diagram` for every entry, and a root-system sweep."""

    def __init__(self, seed):
        self.entries = {e["name"]: e for e in catalog_entries()}
        self.ops = []
        for name, e in self.entries.items():
            self.ops.append(("catalog", name))
            for part in ("V", "adjoint"):
                if part in e["expected"]:
                    self.ops += [("diagram", name, part, fmt) for fmt in ("ascii", "svg")]
        rng = random.Random(seed)
        self.ops += [("sweep", letter, rank, tuple(sweep_gradings(rank, rng)))
                     for letter, rank in SWEEP]
        rng.shuffle(self.ops)
        self.data_per_round = sum(1 for e in self.entries.values()
                                  if e["kind"] == "period-domain")

    def run(self, op):
        if op[0] == "catalog":
            return call_cli(["catalog", op[1]])
        if op[0] == "diagram":
            return call_cli(["diagram", op[1], "--part", op[2], "--format", op[3]])
        return sweep_root_system(*op[1:])

    def check(self, op, out):
        if op[0] == "catalog":
            code, text = out
            if code != 0 or text != "%s: match\n" % op[1]:
                return ["catalog %s: exit %d, %r" % (op[1], code, text[:200])]
            return []
        if op[0] == "diagram":
            code, text = out
            nodes = self.entries[op[1]]["expected"][op[2]]["nodes"]
            if code != 0:
                return ["diagram %s: exit %d" % (op[1], code)]
            return ["diagram %s %s: %s" % (op[1], op[2], p)
                    for p in expect.diagram_problems(op[3], nodes, text)]
        return sweep_problems(*op[1:], out)

    def final_problems(self):
        out = []
        for name, e in sorted(self.entries.items()):
            got = cli.recompute_entry(e)
            out += ["catalog %s: %s" % (name, p) for p in expect.catalog_problems(e, got)]
        return out


def sweep_problems(letter, rank, gradings, rows):
    out = []
    if [r[0] for r in rows] != list(gradings):
        out.append("%s%d: swept %d gradings, expected %d" % (letter, rank, len(rows), len(gradings)))
    positive = (expect.LIE_DIM[letter](rank) - rank) // 2
    for values, adj, orbits in rows:
        tag = "%s%d L=%s" % (letter, rank, list(values))
        probs = expect.adjoint_problems(letter, rank, adj)
        for name, (dR, dC, closed) in zip(INVOLUTIONS, orbits):
            probs += expect.orbit_problems(name, values, dR, dC, closed)
            if all(values) and dC != positive or not any(values) and dC != 0:
                probs.append("%s: dim_C_dual %d" % (name, dC))
        out += ["%s: %s" % (tag, p) for p in probs]
    return out


def setup(name, seed, outdir):
    if name == "corpus":
        return Corpus(seed)
    if name == "validate-json":
        return ValidateJson(seed, os.path.join(outdir, "validate-json"))
    if name == "tables":
        return Tables(seed)
    raise ValueError("unknown workload %r" % name)
