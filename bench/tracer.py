"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent): one call into a wrapped public
function.  ``installed(recorder)`` wraps every target in ``TARGETS`` and
patches each cyclotome module namespace that holds the same object (for
example ``relations.d_form`` as well as ``forms.d_form``), so calls made
inside the package are seen.  Three very hot leaf functions (``pmul``,
``pdivexact``, ``DynkinQuiver.adjacent``) are counted but get no span; their
time stays in the caller's self time.

Spans live in flat arrays and are written once, when the run ends, in a
small binary format: one JSON header line, then the name, start, end and
parent columns as native-endian arrays ('H', 'd', 'd', 'i').

The per-layer metric names are ``<module>.<function>.<stat>``; ``PER_LAYER``
lists them with their units and direction, and ``layer_metrics`` computes
them from a recorder.
"""

from __future__ import annotations

import array
import importlib
import json
import re
import sys
from contextlib import contextmanager
from time import perf_counter

SPAN_FORMAT = "cyclotome-bench-spans/1"
COLUMNS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "i"))

RELATION_VERIFIERS = (
    "verify_ek",
    "verify_ef",
    "verify_kk",
    "verify_serre",
    "verify_same_form",
    "verify_same_n",
    "chevalley_exponent_table",
)

_SAME_N = re.compile(r"on all (\d+)\^2 ordered pairs")
_SAME_FORM = re.compile(r"on all (\d+) eligible ordered pairs")


def check_pairs(name: str):
    """("same-n", N^2) or ("same-form", N) for the one check that covers N pairs."""
    hit = _SAME_N.search(name)
    if hit:
        return "same-n", int(hit.group(1)) ** 2
    hit = _SAME_FORM.search(name)
    if hit:
        return "same-form", int(hit.group(1))
    return None


def _frozen(a):
    t = type(a)
    if t is int or t is tuple or t is str or t is bool:
        return a
    if t is dict:
        return ("dict", tuple(sorted(a.items())))
    if t is list:
        return ("list", tuple(_frozen(x) for x in a))
    try:
        hash(a)
    except TypeError:
        return ("id", id(a))
    return a


def argument_key(args, kwargs) -> tuple:
    """A hashable stand-in for a call's arguments (dicts by their items)."""
    key = tuple(_frozen(a) for a in args)
    if kwargs:
        key += tuple(sorted((k, _frozen(v)) for k, v in kwargs.items()))
    return key


class Recorder:
    """Spans in parallel arrays, plus integer counters keyed by metric name."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array.array("H")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.counts: dict[str, int] = {}
        self._keys: dict[str, set] = {}
        self._merged_distinct: dict[str, int] = {}
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name_ids)

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span measured elsewhere (the import, synthetic tests)."""
        sid = len(self.name_ids)
        self.name_ids.append(self.name_id(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return sid

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def distinct(self) -> dict[str, int]:
        out = dict(self._merged_distinct)
        for name, keys in self._keys.items():
            out[name] = out.get(name, 0) + len(keys)
        return out

    # -- wrappers --

    def span(self, name, fn, distinct=False, after=None):
        nid = self.name_id(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack
        keys = self._keys.setdefault(name, set()) if distinct else None

        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(argument_key(args, kwargs))
            sid = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        key = name + ".calls"
        counts = self.counts
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def yield_counter(self, name, fn):
        key = name + ".yielded"
        counts = self.counts
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        counted.__wrapped__ = fn
        return counted

    # -- persistence --

    def write(self, path) -> None:
        header = {
            "format": SPAN_FORMAT,
            "byteorder": sys.byteorder,
            "names": self.names,
            "count": len(self),
            "counts": self.counts,
            "distinct": self.distinct(),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_ids, self.starts, self.ends, self.parents):
                col.tofile(fh)

    def merge_file(self, path) -> None:
        """Append the spans and counters of a file written by ``write``."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            if header.get("format") != SPAN_FORMAT or header["byteorder"] != sys.byteorder:
                raise ValueError(f"{path}: not a span file of this format")
            n = header["count"]
            cols = []
            for _, code in COLUMNS:
                col = array.array(code)
                col.fromfile(fh, n)
                cols.append(col)
        remap = [self.name_id(name) for name in header["names"]]
        offset = len(self)
        name_ids, starts, ends, parents = cols
        self.name_ids.extend(remap[k] for k in name_ids)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.parents.extend(p + offset if p >= 0 else -1 for p in parents)
        for key, value in header["counts"].items():
            self.bump(key, value)
        for key, value in header["distinct"].items():
            self._merged_distinct[key] = self._merged_distinct.get(key, 0) + value


# -- derived quantities ----------------------------------------------------------

def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap; the covered time is the sum of their durations.
    """
    covered = [0.0] * len(parents)
    for k, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[k] - starts[k]
    return [ends[k] - starts[k] - covered[k] for k in range(len(parents))]


def per_name(recorder: Recorder) -> tuple[dict[str, int], dict[str, float]]:
    """(calls, summed self time) per span name."""
    selfs = self_times(recorder.parents, recorder.starts, recorder.ends)
    calls = [0] * len(recorder.names)
    self_s = [0.0] * len(recorder.names)
    for nid, s in zip(recorder.name_ids, selfs):
        calls[nid] += 1
        self_s[nid] += s
    names = recorder.names
    return (
        {names[k]: calls[k] for k in range(len(names))},
        {names[k]: self_s[k] for k in range(len(names))},
    )


# -- what is wrapped ------------------------------------------------------------------

def _count_solutions(rec, args, result):
    rec.bump("dominance.enumerate_l_dominant.solutions", len(result))


def _bareiss_cells(rec, args, result):
    rows = args[0]
    cells = len(rows) * len(rows[0]) if rows else 0
    rec.bump("serre.bareiss_rank.cells", cells)
    rec.bump("serre.bareiss_rank.nonzero", sum(1 for row in rows for x in row if x))


def _relation_counts(verifier):
    def after(rec, args, report):
        rec.bump(f"relations.{verifier}.checks", len(report.checks))
        for check in report.checks:
            found = check_pairs(check.name)
            if found:
                rec.bump(f"relations.{verifier}.pairs", found[1])
    return after


# (module, attribute or Class.method, layer name, kind, options)
TARGETS = [
    ("quiver", "euler_form", "quiver.euler_form", "span", {"distinct": True}),
    ("quiver", "DynkinQuiver.adjacent", "quiver.adjacent", "count", {}),
    ("derived", "ARQuiver.hom_dim", "derived.hom_dim", "span", {"distinct": True}),
    ("derived", "knit", "derived.knit", "span", {}),
    ("cyclic", "build_index", "cyclic.build_index", "span", {}),
    ("cyclic", "CycIndex.q_cartan_apply", "cyclic.q_cartan_apply", "span", {}),
    ("cyclic", "CycIndex.vertex_name", "cyclic.vertex_name", "span", {}),
    ("dominance", "v_f", "dominance.v_f", "span", {"distinct": True}),
    ("dominance", "iota", "dominance.iota", "span", {"distinct": True}),
    ("dominance", "cones", "dominance.cones", "span", {}),
    ("dominance", "enumerate_l_dominant", "dominance.enumerate_l_dominant", "span",
     {"distinct": True, "after": _count_solutions}),
    ("dominance", "kostant_multisets", "dominance.kostant_multisets", "yield", {}),
    ("dominance", "enumerate_l_dominant_bruteforce", "dominance.enumerate_l_dominant_bruteforce",
     "span", {}),
    ("dominance", "solve_w_tilde", "dominance.solve_w_tilde", "span", {}),
    ("forms", "d_form", "forms.d_form", "span", {}),
    ("forms", "phi", "forms.phi", "span", {}),
    ("forms", "script_n", "forms.script_n", "span", {}),
    ("forms", "twist_exponent", "forms.twist_exponent", "span", {}),
    *[
        ("relations", v, f"relations.{v}", "span", {"after": _relation_counts(v)})
        for v in RELATION_VERIFIERS
    ],
    ("serre", "bareiss_rank", "serre.bareiss_rank", "span", {"after": _bareiss_cells}),
    ("serre", "pmul", "serre.pmul", "count", {}),
    ("serre", "pdivexact", "serre.pdivexact", "count", {}),
    ("serre", "serre_quotient_dims", "serre.serre_quotient_dims", "span", {}),
    ("reflections", "hom_dim_bruteforce", "reflections.hom_dim_bruteforce", "span", {}),
    ("reflections", "matrix_rank", "reflections.matrix_rank", "span", {}),
    ("reflections", "indecomposable_rep", "reflections.indecomposable_rep", "span", {}),
    ("cli", "parse_sparse", "cli.parse_sparse", "span", {}),
    ("cli", "format_vector", "cli.format_vector", "span", {}),
]

# Every function and method defined in laurent.py is a span "laurent.<qualname>";
# their self times add up to laurent.self_s.
LAURENT_MODULE = "laurent"


def _laurent_targets():
    mod = importlib.import_module("cyclotome." + LAURENT_MODULE)
    out = []
    for name, obj in sorted(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, type):
            for attr, member in sorted(vars(obj).items()):
                if callable(member) or isinstance(member, classmethod):
                    out.append((LAURENT_MODULE, f"{name}.{attr}", f"laurent.{name}.{attr}", "span", {}))
        elif callable(obj):
            out.append((LAURENT_MODULE, name, f"laurent.{name}", "span", {}))
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cyclotome" or name.startswith("cyclotome."))]


@contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the duration of the block, then restore."""
    restore = []
    modules = _package_modules()
    try:
        for mod_name, attr, layer, kind, opts in TARGETS + _laurent_targets():
            module = importlib.import_module("cyclotome." + mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[member]
            fn = original.__func__ if isinstance(original, classmethod) else original
            if kind == "span":
                wrapper = recorder.span(layer, fn, **opts)
            elif kind == "count":
                wrapper = recorder.counter(layer, fn)
            else:
                wrapper = recorder.yield_counter(layer, fn)
            if isinstance(original, classmethod):
                wrapper = classmethod(wrapper)
            if owner_name:
                setattr(owner, member, wrapper)
                restore.append((owner, member, original))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        restore.append((m, key, original))
        yield recorder
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)


# -- per-layer metrics -----------------------------------------------------------------

# (layer, stat, unit, better)
PER_LAYER = [
    ("quiver.euler_form", "calls", "count", "lower"),
    ("quiver.euler_form", "self_s", "s", "lower"),
    ("quiver.euler_form", "distinct_ratio", "ratio", "higher"),
    ("quiver.adjacent", "calls", "count", "lower"),
    ("derived.hom_dim", "calls", "count", "lower"),
    ("derived.hom_dim", "self_s", "s", "lower"),
    ("derived.hom_dim", "distinct_ratio", "ratio", "higher"),
    ("dominance.v_f", "calls", "count", "lower"),
    ("dominance.v_f", "self_s", "s", "lower"),
    ("dominance.v_f", "distinct_ratio", "ratio", "higher"),
    ("dominance.iota", "calls", "count", "lower"),
    ("dominance.iota", "self_s", "s", "lower"),
    ("dominance.iota", "distinct_ratio", "ratio", "higher"),
    ("dominance.cones", "calls", "count", "lower"),
    *[(f"forms.{f}", stat, unit, "lower")
      for f in ("d_form", "phi", "script_n", "twist_exponent")
      for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("laurent", "self_s", "s", "lower"),
    *[(f"relations.{v}", stat, unit, better)
      for v in RELATION_VERIFIERS
      for stat, unit, better in (("self_s", "s", "lower"), ("checks", "count", "higher"))],
    ("relations.verify_same_n", "pairs", "count", "higher"),
    ("relations.verify_same_form", "pairs", "count", "higher"),
    ("dominance.enumerate_l_dominant", "calls", "count", "lower"),
    ("dominance.enumerate_l_dominant", "self_s", "s", "lower"),
    ("dominance.enumerate_l_dominant", "distinct_ratio", "ratio", "higher"),
    ("dominance.enumerate_l_dominant", "solutions", "count", "higher"),
    ("dominance.kostant_multisets", "yielded", "count", "lower"),
    ("dominance.enumerate_l_dominant_bruteforce", "calls", "count", "lower"),
    ("dominance.enumerate_l_dominant_bruteforce", "self_s", "s", "lower"),
    ("dominance.solve_w_tilde", "calls", "count", "lower"),
    ("dominance.solve_w_tilde", "self_s", "s", "lower"),
    ("cyclic.q_cartan_apply", "calls", "count", "lower"),
    ("cyclic.q_cartan_apply", "self_s", "s", "lower"),
    ("derived.knit", "calls", "count", "lower"),
    ("derived.knit", "self_s", "s", "lower"),
    ("cyclic.build_index", "calls", "count", "lower"),
    ("cyclic.build_index", "self_s", "s", "lower"),
    ("cyclic.vertex_name", "calls", "count", "lower"),
    ("cyclic.vertex_name", "self_s", "s", "lower"),
    ("cli.parse_sparse", "calls", "count", "lower"),
    ("cli.parse_sparse", "self_s", "s", "lower"),
    ("cli.format_vector", "self_s", "s", "lower"),
    ("cli", "import_s", "s", "lower"),
    ("serre.bareiss_rank", "calls", "count", "lower"),
    ("serre.bareiss_rank", "self_s", "s", "lower"),
    ("serre.bareiss_rank", "cells", "count", "lower"),
    ("serre.bareiss_rank", "nonzero_ratio", "ratio", "higher"),
    ("serre.pmul", "calls", "count", "lower"),
    ("serre.pdivexact", "calls", "count", "lower"),
    ("serre.serre_quotient_dims", "self_s", "s", "lower"),
    *[(f"reflections.{f}", stat, unit, "lower")
      for f in ("hom_dim_bruteforce", "matrix_rank", "indecomposable_rep")
      for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("trace", "wall_s", "s", "lower"),
    ("trace", "spans", "count", "lower"),
]

IMPORT_SPAN = "cli.import"


def layer_metrics(recorder: Recorder, wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, computed from one pass's spans and counters."""
    calls, self_s = per_name(recorder)
    distinct = recorder.distinct()
    counts = recorder.counts
    out = {}
    for layer, stat, _, _ in PER_LAYER:
        if stat == "calls":
            value = calls.get(layer, counts.get(layer + ".calls", 0))
        elif stat == "self_s":
            if layer == "laurent":
                value = sum(s for name, s in self_s.items() if name.startswith("laurent."))
            else:
                value = self_s.get(layer, 0.0)
        elif stat == "distinct_ratio":
            n = calls.get(layer, 0)
            value = distinct.get(layer, 0) / n if n else 0.0
        elif stat == "nonzero_ratio":
            cells = counts.get(layer + ".cells", 0)
            value = counts.get(layer + ".nonzero", 0) / cells if cells else 0.0
        elif (layer, stat) == ("cli", "import_s"):
            value = self_s.get(IMPORT_SPAN, 0.0)
        elif (layer, stat) == ("trace", "wall_s"):
            value = wall_s
        elif (layer, stat) == ("trace", "spans"):
            value = len(recorder)
        else:
            value = counts.get(f"{layer}.{stat}", 0)
        out[f"{layer}.{stat}"] = value
    return out
