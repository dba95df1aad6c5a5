"""Lattice (p,q)-diagrams: node lists, ASCII and SVG renderers, JSON specs.

Rendering is byte-deterministic: nodes are kept as sorted [p, q, dim]
triples and all geometry is integer. ASCII marks dim-1 nodes '*', dim >= 2
nodes '@', axes '.'; SVG uses a fixed 20px lattice with filled circles for
dim 1 and stroked rings for dim >= 2.
"""

import json
import reprlib

from .gq import Immutable

CELL = 20  # px per lattice step
R_FILL = 4
R_RING = 7


class DiagramSpec(Immutable):
    """Sorted node triples, axis ranges holding them and optional N-arrows, all ints."""

    __slots__ = ("nodes", "p_range", "q_range", "arrows")

    def __init__(self, nodes, p_range=None, q_range=None, arrows=()):
        trip = sorted(_ints(t, 3, "node") for t in nodes)
        if any(d <= 0 for _, _, d in trip):
            raise ValueError("node dims must be positive")
        if len({(p, q) for p, q, _ in trip}) != len(trip):
            raise ValueError("duplicate node position")
        arrows = tuple(tuple(_ints(a, 2, "arrow")) for a in arrows)
        object.__setattr__(self, "nodes", trip)
        object.__setattr__(self, "arrows", arrows)
        for axis, key, given in ((0, "p_range", p_range), (1, "q_range", q_range)):
            # every node and both ends of every arrow, (p, q) to (p - 1, q - 1)
            at = [t[axis] for t in trip] + [a[axis] - k for a in arrows for k in (0, 1)]
            lo, hi = (min(at + [0]), max(at + [0])) if given is None else _ints(given, 2, key)
            if not (lo <= hi and all(lo <= c <= hi for c in at)):
                raise ValueError("%s %s must be [lo, hi], lo <= hi, holding every node "
                                 "and arrow end" % (key, reprlib.repr(given)))
            object.__setattr__(self, key, (lo, hi))

    def to_json(self):
        obj = {"nodes": [list(t) for t in self.nodes],
               "p_range": list(self.p_range), "q_range": list(self.q_range)}
        if self.arrows:
            obj["arrows"] = [list(a) for a in self.arrows]
        return obj

    @staticmethod
    def from_json(obj):
        return DiagramSpec(obj["nodes"], obj.get("p_range"), obj.get("q_range"),
                           obj.get("arrows", ()))

    def __eq__(self, other):
        if not isinstance(other, DiagramSpec):
            return NotImplemented
        return self.nodes == other.nodes


def _ints(values, n, what):
    """`values` as a list of n ints, not bools, floats or strings."""
    if isinstance(values, (list, tuple)) and len(values) == n and \
            all(type(v) is int for v in values):
        return list(values)
    raise ValueError("%s %s must be %d integers" % (what, reprlib.repr(values), n))


def triples(dims):
    """Sorted [p, q, dim] lists of the nonzero nodes of a {(p, q): dim} map."""
    return sorted([p, q, d] for (p, q), d in dims.items() if d)


def spec_from_dims(dims, arrows=False):
    """Build a DiagramSpec from a {(p, q): dim} map (or Bigrading.dims())."""
    nodes = triples(dims)
    arr = []
    if arrows:
        pos = {(p, q) for p, q, _ in nodes}
        arr = sorted((p, q) for p, q in pos if (p - 1, q - 1) in pos)
    return DiagramSpec(nodes, arrows=arr)


def render_ascii(spec):
    p_lo, p_hi = spec.p_range
    q_lo, q_hi = spec.q_range
    by_pos = {(p, q): d for p, q, d in spec.nodes}
    lines = []
    # q decreasing top to bottom, p increasing left to right
    for q in range(q_hi, q_lo - 1, -1):
        row = []
        for p in range(p_lo, p_hi + 1):
            d = by_pos.get((p, q), 0)
            if d >= 2:
                row.append("@")
            elif d == 1:
                row.append("*")
            elif p == 0 or q == 0:
                row.append(".")
            else:
                row.append(" ")
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines) + "\n"


def render_svg(spec):
    p_lo, p_hi = spec.p_range
    q_lo, q_hi = spec.q_range
    width = (p_hi - p_lo + 2) * CELL
    height = (q_hi - q_lo + 2) * CELL

    def xy(p, q):
        return (p - p_lo + 1) * CELL, (q_hi - q + 1) * CELL

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (width, height, width, height)]
    # axes through (0, 0) when visible
    if p_lo <= 0 <= p_hi:
        x0, _ = xy(0, 0)
        out.append('<line x1="%d" y1="0" x2="%d" y2="%d" '
                   'stroke="#ccc" stroke-width="1"/>' % (x0, x0, height))
    if q_lo <= 0 <= q_hi:
        _, y0 = xy(0, 0)
        out.append('<line x1="0" y1="%d" x2="%d" y2="%d" '
                   'stroke="#ccc" stroke-width="1"/>' % (y0, width, y0))
    for p, q in spec.arrows:
        x1, y1 = xy(p, q)
        x2, y2 = xy(p - 1, q - 1)
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                   'stroke="#888" stroke-width="1"/>' % (x1, y1, x2, y2))
    for p, q, d in spec.nodes:
        x, y = xy(p, q)
        if d >= 2:
            out.append('<circle cx="%d" cy="%d" r="%d" fill="none" '
                       'stroke="#000" stroke-width="2"/>' % (x, y, R_RING))
            out.append('<circle cx="%d" cy="%d" r="%d" fill="#000"/>'
                       % (x, y, R_FILL - 1))
        else:
            out.append('<circle cx="%d" cy="%d" r="%d" fill="#000"/>'
                       % (x, y, R_FILL))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render(spec, fmt):
    if fmt == "json":
        return json.dumps(spec.to_json(), sort_keys=True) + "\n"
    if fmt == "ascii":
        return render_ascii(spec)
    if fmt == "svg":
        return render_svg(spec)
    raise ValueError("unknown format %r" % fmt)
