"""Command line interface: validate, classify, diagram, catalog, verify-corpus.

Exit codes: 0 pass, 1 semantic failure, 2 input error, a catalog fault too.
All output is byte-deterministic (sorted node lists, canonical scalar
strings).  Catalog entry NAME lives in `<name lowercased>.json` (find_entries).
"""

import argparse
import functools
import itertools
import json
import os
import reprlib
import sys
from fractions import Fraction

from .gq import ONE, nilpotent_exp, maps_into
from .hodge import HodgeDatum, HodgeNumbers, validate_phs, check_isotropy, hodge_decomposition
from .lmhs import (
    LmhsDatum, deligne_splitting, validate_lmhs, is_hodge_tate, is_r_split,
    disc_sample, adjoint_lmhs, reduced_limit, diagonal_levi, NonRSplit,
)
from . import classify as cls
from .classify import (
    minimal_types, minimal_witness, ht_gate, ht_plan, ht_construct,
    cp_orb_check, period_closed_check, principal_lmhs, GateFailed, InfeasibleType,
)
from .diagrams import DiagramSpec, spec_from_dims, render, triples

CATALOG_ENV = "HODGE_DEGEN_CATALOG"


def catalog_dir():
    override = os.environ.get(CATALOG_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "catalog")


class UnknownEntry(KeyError):
    """No catalog entry has this name or alias; `names` are the entries there are."""

    def __init__(self, name, names):
        super().__init__(name)
        self.names = names


_KINDS = ("period-domain", "mumford-tate")


def _read_entry(d, fn):
    """The entry in catalog file `fn` of `d`, its own `<name lowercased>.json`;
    ValueError naming the file when it cannot be read or its envelope is wrong."""
    path = os.path.join(d, fn)
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except ValueError as e:  # not JSON, or not text
        raise ValueError("catalog file %s: %s" % (path, e)) from None
    if not isinstance(entry, dict):
        raise ValueError("catalog file %s: the entry is not a JSON object" % path)
    aliases = entry.get("aliases", [])
    for key, ok, what in (
            ("name", isinstance(entry.get("name"), str), "a string"),
            ("kind", entry.get("kind") in _KINDS, "%r or %r" % _KINDS),
            ("payload", isinstance(entry.get("payload"), dict), "an object"),
            ("expected", isinstance(entry.get("expected"), dict), "an object"),
            ("aliases", isinstance(aliases, list)
             and all(isinstance(a, str) for a in aliases), "a list of strings")):
        if not ok:
            raise ValueError("catalog file %s: key %r must be %s" % (path, key, what))
    if fn != entry["name"].lower() + ".json":
        raise ValueError("catalog file %s: entry %r belongs in %s.json"
                         % (path, entry["name"], entry["name"].lower()))
    return entry


def find_entries(name, group):
    """The catalog entries `name` answers, in file order, reading no other file:
    all if `name` is None, else its own and, if `group`, its `<name>-row*.json`;
    failing those, the first entry with `name` as an alias, or UnknownEntry."""
    d = catalog_dir()
    if not os.path.isdir(d):
        raise ValueError("the catalog directory %s is missing; %s sets it" % (d, CATALOG_ENV))
    files = sorted(fn for fn in os.listdir(d) if fn.endswith(".json"))
    if name is None:
        return [_read_entry(d, fn) for fn in files]
    low = name.lower()
    own, rows = low + ".json", low + "-row"
    mine = [fn for fn in files if fn == own or group and fn.startswith(rows)]
    if mine:
        return [_read_entry(d, fn) for fn in mine]
    names = []
    for fn in files:
        entry = _read_entry(d, fn)
        if any(a.lower() == low for a in entry.get("aliases", ())):
            return [entry]
        names.append(entry["name"])
    raise UnknownEntry(name, names)


def recompute_entry(entry):
    """Recompute the expected block of a catalog entry from its payload."""
    payload = entry["payload"]
    if entry["kind"] == "period-domain":
        L = LmhsDatum.from_json(payload)
        if not validate_lmhs(L)["ok"]:
            raise ValueError("payload fails validation")
        return {"V": {"nodes": triples(deligne_splitting(L).dims())}}
    from .roots import (
        build_root_system, GradingElement, rep_weights, rep_bigrading,
        adjoint_bigrading, named_involution, orbit_dims, closed_orbit_criterion,
    )
    rs = build_root_system(payload["type"], payload["rank"])
    L = GradingElement(payload["L"])
    if "involution" in payload:
        inv = named_involution(rs, payload["involution"])
        # orbit_dims gives dim_R_orbit, dim_KR_orbit and dim_C_dual
        return {**orbit_dims(rs, L, inv), "closed": closed_orbit_criterion(rs, L, inv)}
    Y = GradingElement(payload["Y"]) if payload.get("Y") else None
    w = rep_weights(rs, payload["rep"])
    V = rep_bigrading(w, L, Y, payload["weight"])
    adj = adjoint_bigrading(rs, L, Y)
    return {"V": {"nodes": triples(V)}, "adjoint": {"nodes": triples(adj)}}


def load_datum(obj):
    """LmhsDatum if the JSON carries an \"N\" or a \"W\" entry, else a pure
    HodgeDatum.  A missing key raises ValueError naming the key."""
    if not isinstance(obj, dict):
        raise ValueError("a datum must be a JSON object, got %s" % reprlib.repr(obj))
    try:
        if "N" in obj or "W" in obj:
            return LmhsDatum.from_json(obj)
        return HodgeDatum.from_json(obj)
    except KeyError as e:
        raise ValueError("missing key %s" % e) from None


def _emit(text, out):
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    try:
        with open(args.path) as fh:
            obj = json.load(fh)
        datum = load_datum(obj)
    except (OSError, ValueError, TypeError) as e:
        print(json.dumps({"error": str(e)}))
        return 2
    report = validate_lmhs(datum) if isinstance(datum, LmhsDatum) else validate_phs(datum)
    print(json.dumps(report, sort_keys=True))
    return 0 if report["ok"] else 1


def _parse_h(args):
    try:
        h = tuple(int(x) for x in args.h.split(","))
    except ValueError:
        raise ValueError("h must be comma-separated non-negative integers, got %r"
                         % args.h) from None
    return HodgeNumbers(args.n, h)


def cmd_classify(args):
    try:
        _check_paths(args, "input", "out")
        if args.input and args.mode != "closed-orbit":
            raise ValueError("--input reads a datum for --mode closed-orbit only")
        if args.out and args.mode == "closed-orbit":
            raise ValueError("--out writes witnesses for --mode minimal and hodge-tate only")
        hn = _parse_h(args)
    except (ValueError, TypeError) as e:
        print(json.dumps({"error": str(e)}))
        return 2
    L = None
    if args.input:
        try:
            with open(args.input) as fh:
                L = load_datum(json.load(fh))
            if not isinstance(L, LmhsDatum):
                raise ValueError("missing key 'N'")
            _check_input_datum(L, hn)
        except (OSError, ValueError, TypeError) as e:
            print(json.dumps({"error": str(e)}))
            return 2
    n = hn.n  # the datum's weight, when a datum is read
    report = {"weight": n, "h": list(hn.h), "mode": args.mode}
    witnesses = []  # (report entry, path, datum) for each --out file
    if args.mode == "minimal":
        types = minimal_types(n, hn)
        report["types"] = [
            {"kind": t.kind, "p_o": t.p_o, "q_o": t.q_o, "nodes": t.triples()}
            for t in types]
        if args.out:
            witnesses = [(report["types"][i], "%s.witness%d.json" % (args.out, i),
                          minimal_witness(t, n, hn)) for i, t in enumerate(types)]
    elif args.mode == "hodge-tate":
        report["gate"] = ht_gate(n, hn)
        if not report["gate"]:
            print(json.dumps(report, sort_keys=True))
            return 1
        report["atomic_multiplicities"] = list(ht_plan(n, hn))
        try:
            L = ht_construct(n, hn)
        except GateFailed as e:
            report["error"] = str(e)
            print(json.dumps(report, sort_keys=True))
            return 1
        report["nodes"] = triples(deligne_splitting(L).dims())
        if args.out:
            witnesses = [(report, args.out, L)]
    else:  # closed-orbit, the last mode the parser accepts
        if L is None:
            try:
                L = ht_construct(n, hn)
            except GateFailed as e:
                report["error"] = str(e)
                print(json.dumps(report, sort_keys=True))
                return 1
        try:
            report["period_check"] = period_closed_check(deligne_splitting(L).dims(), n)
        except cls.OddWeightNonHT as e:
            report["period_check"] = {"error": str(e),
                                      "consistent_with_closed_orbit": False}
        try:
            adj = adjoint_lmhs(L)
            report["adjoint_check"] = cp_orb_check(adj.I_g.dims())
        except NonRSplit:
            report["adjoint_check"] = None
        print(json.dumps(report, sort_keys=True))
        ok = report["period_check"].get("consistent_with_closed_orbit", False)
        return 0 if ok else 1
    for entry, path, witness in witnesses:
        try:
            _emit(json.dumps(witness.to_json(), sort_keys=True), path)
        except OSError as e:
            print(json.dumps({"error": str(e)}))
            return 2
        entry["witness"] = path
    print(json.dumps(report, sort_keys=True))
    return 0


_LMHS_CLAUSES = ("weight_filtration", "graded_hodge", "minus_one_minus_one",
                 "polarized_primitives")


def _failed_clauses(report):
    # the false clauses of a validate_lmhs report, comma separated
    return ",".join(c for c in _LMHS_CLAUSES if not report[c])


def _check_input_datum(L, hn):
    """ValueError unless the LMHS datum L has the weight and Hodge numbers of
    hn (h^{p,n-p} = dim F^p - dim F^{p+1}) and passes validate_lmhs; the
    message names both (n, h) or the first failing clause."""
    f = L.hodge.filtration.f_vector() + (0,)
    h = tuple(f[p] - f[p + 1] for p in range(L.n, -1, -1))
    if (L.n, h) != (hn.n, hn.h):
        raise ValueError("the datum has weight %d and h %s; the command line "
                         "gives weight %d and h %s"
                         % (L.n, ",".join(map(str, h)), hn.n, ",".join(map(str, hn.h))))
    rep = validate_lmhs(L)
    if not rep["ok"]:
        clause = next(c for c in _LMHS_CLAUSES if not rep[c])
        detail = rep.get(clause + "_witness") or rep.get("error")
        raise ValueError("the datum is not a limiting mixed Hodge structure: "
                         "clause %s fails%s" % (clause, ": " + detail if detail else ""))


def _spec_from_input(args):
    name_or_path = args.input
    if os.path.exists(name_or_path):
        if args.part != "V":
            raise ValueError("--part %s needs a catalog entry; a file has only its V diagram"
                             % args.part)
        with open(name_or_path) as fh:
            obj = json.load(fh)
        if isinstance(obj, dict) and "nodes" in obj:
            return DiagramSpec.from_json(obj)
        datum = load_datum(obj)
        if isinstance(datum, LmhsDatum):
            return spec_from_dims(deligne_splitting(datum).dims(), arrows=True)
        dims = {(p, q): s.dim for p, q, s in hodge_decomposition(datum)}
        return spec_from_dims(dims)
    entry, = find_entries(name_or_path, False)
    expected = entry["expected"]
    block = expected.get(args.part)
    if block is None:
        raise ValueError("catalog entry %r has no diagram block %r; its blocks: %s"
                         % (entry["name"], args.part, ", ".join(sorted(expected))))
    return DiagramSpec(block["nodes"])


def _check_paths(args, *options):
    for o in options:
        if getattr(args, o) == "":
            raise ValueError("--%s needs a file path, got an empty one" % o)


def cmd_diagram(args):
    try:
        _check_paths(args, "out")
        spec = _spec_from_input(args)
    except UnknownEntry as e:
        print("unknown input %s; catalog names: %s"
              % (e, ", ".join(e.names)), file=sys.stderr)
        return 2
    except KeyError as e:
        print("bad input: missing key %s" % e, file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError) as e:
        print("bad input: %s" % e, file=sys.stderr)
        return 2
    try:
        _emit(render(spec, args.format), args.out)
    except BrokenPipeError:
        raise  # stdout closed early: main's to handle
    except OSError as e:
        print("cannot write output: %s" % e, file=sys.stderr)
        return 2
    return 0


def cmd_catalog(args):
    try:
        entries = find_entries(args.name or None, True)
    except UnknownEntry as e:
        print("unknown catalog entry %r; available: %s"
              % (args.name, ", ".join(e.names)), file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(e, file=sys.stderr)
        return 2
    if not args.name:
        for entry in entries:
            print(entry["name"])
        return 0
    status = 0
    for entry in entries:
        name = entry["name"]
        try:
            got = recompute_entry(entry)
        except KeyError as e:
            print("catalog entry %r: payload is missing key %s" % (name, e),
                  file=sys.stderr)
            return 2
        except (ValueError, TypeError) as e:
            print("catalog entry %r: bad payload: %s" % (name, e), file=sys.stderr)
            return 2
        want = entry["expected"]
        if got == want:
            print("%s: match" % name)
        else:
            status = 1
            print("%s: MISMATCH" % name)
            for key in sorted(set(want) | set(got)):
                if want.get(key) != got.get(key):
                    print("  %s\n    expected: %s\n    got:      %s"
                          % (key, json.dumps(want.get(key), sort_keys=True),
                             json.dumps(got.get(key), sort_keys=True)))
    return status


# ---------------------------------------------------------------- corpus

def _symmetric_h(n, max_entry):
    half = (n + 1) // 2
    free = half + (1 if (n + 1) % 2 else 0)
    for combo in itertools.product(range(max_entry + 1), repeat=free):
        h = list(combo) + list(reversed(combo[:half]))
        if sum(h) == 0:
            continue
        yield HodgeNumbers(n, h)


def corpus_cases(limit=None):
    """Deterministic corpus: (case id, thunk returning an LmhsDatum)."""
    cases = []
    for n in range(1, 5):
        for hn in _symmetric_h(n, 2):
            for t in minimal_types(n, hn):
                cid = "minimal/n=%d,h=%s,%s(%d,%d)" % (
                    n, ",".join(map(str, hn.h)), t.kind, t.p_o, t.q_o)
                cases.append((cid, n, hn,
                              (lambda t=t, n=n, hn=hn:
                               minimal_witness(t, n, hn))))
    for n in range(1, 5):
        for hn in _symmetric_h(n, 3):
            if hn.dim > 8 or not ht_gate(n, hn):
                continue
            cid = "ht/n=%d,h=%s" % (n, ",".join(map(str, hn.h)))
            cases.append((cid, n, hn,
                          (lambda n=n, hn=hn: ht_construct(n, hn))))
    for fam, params in (("sp", (1, 2, 3, 4)), ("so_odd", (1, 2, 3, 4)),
                        ("so_even_mm", (2, 4)), ("so_even_m2m", (2, 4))):
        for p in params:
            cid = "principal/%s(%d)" % (fam, p)
            cases.append((cid, None, None,
                          (lambda fam=fam, p=p: principal_lmhs(fam, p))))
    if limit is not None:
        cases = cases[:limit]
    return cases


def check_case(cid, L, samples=(1, 2)):
    """Run every module invariant on one corpus element; returns failure id.

    `samples` are the values y > 0 at which disc_sample checks e^{iyN} F.
    The JSON round trip must give back Q, N, F and W (hence the splitting).
    An R-split L also gets the reduced-limit checks and, when g != 0, the
    adjoint ones (V Hodge-Tate implies g is, and the converse for g
    semisimple) and the diagonal-Levi datum, certified when it is built,
    which must pass validate_lmhs too.  A Levi datum that fails to build
    gives the exception's type and text in the id, and a failed
    validate_lmhs lists its false clauses (_LMHS_CLAUSES).
    """
    n = L.hodge.n
    report = validate_lmhs(L)
    if not report["ok"]:
        return cid + "/validate:" + _failed_clauses(report)
    bg = deligne_splitting(L)  # it spans: validate_lmhs certified it
    L2 = LmhsDatum.from_json(json.loads(json.dumps(L.to_json())))
    if (L2.hodge.polarization.Q != L.hodge.polarization.Q or L2.N != L.N
            or L2.hodge.filtration != L.hodge.filtration or L2.W != L.W):
        return cid + "/json-roundtrip"
    if not disc_sample(L, samples)["ok"]:
        return cid + "/disc-sample"
    if not is_r_split(bg):
        return cid  # r-split-only invariants below do not apply
    # reduced limit: exp(N)-fixed and first-relation isotropy
    F = reduced_limit(bg, n)
    d = HodgeDatum(L.hodge.dim, L.hodge.polarization, F)
    if not check_isotropy(d):
        return cid + "/reduced-limit-isotropy"
    E = nilpotent_exp(L.N, ONE, L.powers)
    for p in range(n + 1):
        # E = exp(N) is invertible, so E F^p inside F^p is E F^p = F^p
        if not maps_into(E, F.step(p), F.step(p)):
            return cid + "/reduced-limit-exp-fixed"
    a = adjoint_lmhs(L)
    if a.dim_g == 0:
        return cid
    adims = a.I_g.dims()
    if is_hodge_tate(bg.dims()):
        if not is_hodge_tate(adims):
            return cid + "/adjoint-hodge-tate"
    elif a.dim_g > 1 and is_hodge_tate(adims):
        # the converse needs g semisimple; the one g = so(V, Q) or sp(V, Q)
        # that is not is so(2), dim g = 1, which lies in I^{0,0}_g
        return cid + "/adjoint-hodge-tate-converse"
    try:
        report = validate_lmhs(diagonal_levi(a)[1])
    except Exception as e:
        return "%s/diagonal-levi:%s: %s" % (cid, type(e).__name__, e)
    if not report["ok"]:
        return cid + "/diagonal-levi-validate:" + _failed_clauses(report)
    return cid


def _parse_samples(text):
    """Comma separated positive rationals, such as "1,2" or "1/2,3"."""
    try:
        ys = tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError("--samples needs comma separated rationals, got %r"
                         % text) from None
    if not all(y > 0 for y in ys):
        raise ValueError("--samples must all be positive, got %r" % text)
    return ys


def cmd_verify_corpus(args):
    try:
        samples = _parse_samples(args.samples)
        if args.limit is not None and args.limit < 0:
            raise ValueError("--limit must be a non-negative count, got %d" % args.limit)
    except ValueError as e:
        print(json.dumps({"error": str(e)}))
        return 2
    cases = corpus_cases(args.limit)
    failures = []
    ran = 0
    for cid, n, hn, thunk in cases:
        try:
            L = thunk()
        except (InfeasibleType, GateFailed) as e:
            failures.append(cid + "/construct:" + str(e))
            break
        res = check_case(cid, L, samples=samples)
        ran += 1
        if res != cid:
            failures.append(res)
            break
    report = {"cases": ran, "ok": not failures}
    if failures:
        report["first_failure"] = failures[0]
    print(json.dumps(report, sort_keys=True))
    return 0 if not failures else 1


@functools.cache
def _parser():
    """The command line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="hodge-degen",
        description="Exact computation with degenerations of polarized "
                    "Hodge structures")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="validate a (limiting) Hodge datum file")
    p.add_argument("path")

    p = sub.add_parser("classify", help="classify degenerations for (n, h)")
    p.add_argument("n", type=int)
    p.add_argument("h", help="comma separated Hodge numbers, top first")
    p.add_argument("--mode", choices=("minimal", "hodge-tate", "closed-orbit"),
                   default="minimal")
    p.add_argument("--input", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("diagram", help="render a (p,q) lattice diagram")
    p.add_argument("input", help="JSON file or catalog entry name")
    p.add_argument("--format", choices=("json", "ascii", "svg"), default="ascii")
    p.add_argument("--part", choices=("V", "adjoint"), default="V")
    p.add_argument("--out", default=None)

    p = sub.add_parser("catalog", help="list or reproduce golden entries")
    p.add_argument("name", nargs="?", default=None)

    p = sub.add_parser("verify-corpus", help="run all invariants on the corpus")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--samples", default="1,2",
                   help="comma separated y > 0 for the disc samples e^{iyN} F")
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # looked up now, so that a cmd_* function replaced on the module runs
        code = globals()["cmd_" + args.cmd.replace("-", "_")](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: the rest goes to devnull, so exit flushes quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
