"""Spans around the calls into each module of hodge_degen, made from outside.

`Tracer.install()` replaces every public function of the package's modules
with a wrapper at every module binding (modules import names with
`from .gq import rref`, so patching gq alone would miss most calls), plus a
few methods.  A span records name, start, end, parent and the operation it
belongs to; spans stay in memory until `write`.  Untraced runs never import
this module.
"""

import inspect
import json
import time

MODULES = ("gq", "hodge", "lmhs", "classify", "roots", "diagrams", "cli")

# Scalar helpers called once per matrix entry: wrapping them would multiply
# the run time and bury the layers under their own overhead.
SKIP = {"gq.gq", "gq.i_power", "gq.format_scalar"}

# (span name, module, class, attribute) of the methods that are traced as well.
METHODS = (("gq.matmul", "gq", "MatrixGQ", "__mul__"),
           ("gq.contains_vector", "gq", "Subspace", "contains_vector"),
           ("lmhs.LmhsDatum.from_json", "lmhs", "LmhsDatum", "from_json"))


class Tracer:
    def __init__(self):
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.stack = [-1]
        self.current_op = -1
        self.max_cells = 0  # largest rref input, rows * cols
        self._undo = []

    # ------------------------------------------------------------ wrapping
    def wrap(self, span, fn):
        """fn, recording a span named span around each call."""
        name, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name.append(span)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        if span == "gq.rref":
            def traced_rref(M, _inner=traced):
                cells = M.rows * M.cols
                if cells > tracer.max_cells:
                    tracer.max_cells = cells
                return _inner(M)
            return traced_rref
        return traced

    def install(self):
        import importlib
        mods = {m: importlib.import_module("hodge_degen." + m) for m in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                span = "%s.%s" % (short, attr)
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and span not in SKIP):
                    wrappers[id(obj)] = self.wrap(span, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for span, short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(span, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(span, raw))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []

    # ------------------------------------------------------------- results
    def spans(self):
        """Per span: (name, start, end, parent index, operation index)."""
        return list(zip(self.name, self.start, self.end, self.parent, self.op))

    def totals(self):
        """{name: [calls, total_s, self_s]}; self = duration - child durations.

        Children run inside their parent and one at a time, so the time the
        child spans cover is the sum of their durations.
        """
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i, span in enumerate(self.name):
            d = self.end[i] - self.start[i]
            t = out.setdefault(span, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += d
            t[2] += d - child[i]
        return out

    def write(self, path):
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        t0 = min(self.start, default=0.0)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "names": names,
                       "spans": [[index[n], round(s - t0, 7), round(e - t0, 7), p, o]
                                 for n, s, e, p, o in self.spans()]}, fh,
                      separators=(",", ":"))


# The per-layer metrics of BENCHMARK.json: (metric, span, field).
LAYER_METRICS = (
    [("gq.%s.%s" % (f, k), "gq." + f, k)
     for f in ("rref", "kernel", "intersect", "ssum", "matmul", "contains_vector",
               "parse_scalar", "hermitian_pd") for k in ("calls", "self_s")]
    + [("lmhs.%s.%s" % (f, k), "lmhs." + f, k)
       for f in ("weight_filtration", "deligne_splitting") for k in ("calls", "self_s", "per_datum")]
    + [("lmhs.%s.self_s" % f, "lmhs." + f, "self_s")
       for f in ("validate_lmhs", "disc_sample", "reduced_limit")]
    + [("hodge.%s.self_s" % f, "hodge." + f, "self_s") for f in ("validate_phs", "check_isotropy")]
    + [("lmhs.%s.%s" % (f, k), "lmhs." + f, k)
       for f in ("adjoint_lmhs", "diagonal_levi") for k in ("calls", "self_s")]
    + [("lmhs.LmhsDatum.from_json.self_s", "lmhs.LmhsDatum.from_json", "self_s")]
    + [("classify.%s.total_s" % f, "classify." + f, "total_s")
       for f in ("minimal_witness", "ht_construct", "principal_lmhs")]
    + [("roots.%s.%s" % (f, k), "roots." + f, k)
       for f in ("build_root_system", "orbit_dims", "closed_orbit_criterion",
                 "adjoint_bigrading", "rep_bigrading", "named_involution")
       for k in ("calls", "self_s")]
    + [("diagrams.render.%s" % k, "diagrams.render", k) for k in ("calls", "self_s")]
    + [("cli.main.%s" % k, "cli.main", k) for k in ("calls", "self_s")]
    + [("cli.check_case.self_s", "cli.check_case", "self_s")]
)


def layer_metrics(totals, rounds, data_per_round):
    """Every per-layer metric, per round; per_datum is calls per datum handled."""
    out = {}
    for metric, span, field in LAYER_METRICS:
        calls, total, self_s = totals.get(span, (0, 0.0, 0.0))
        if field == "calls":
            out[metric] = (calls / rounds, "count")
        elif field == "per_datum":
            out[metric] = (calls / rounds / data_per_round if data_per_round else 0.0, "count")
        else:
            out[metric] = ({"total_s": total, "self_s": self_s}[field] / rounds, "s")
    return out
