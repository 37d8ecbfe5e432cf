"""Spans around calls into the library's public functions.

The tracer is installed from the benchmark only, in the traced run only:
each wrapped function is replaced at every module attribute that is bound
to it, because the package binds names with ``from .x import y`` and a
wrapper patched at one name would miss calls made through another.
Methods are patched on their class, which every caller reaches.

Per-element primitives (``FieldTower.add``, ``gfpoly.divmod_poly``,
``gfpoly.mod``, ``classify_trace_det``, ``CycNum`` arithmetic) are never
wrapped: they run 10^5 to 10^6 times per item and spans around them would
swamp the trace.

A span records its name, start, end, parent span and item id. Spans stay
in memory (flat arrays) and are written out once, when the run ends. The
self-time of a span is its duration minus the time covered by its
children; it is accumulated per name as spans close. Spans opened during
set-up (the warm-up item, item id -1) are accumulated apart from those of
the measured items, so set-up work is attributed without entering the
per-item metrics.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

LAYERS = (
    "fields", "gfpoly", "cyclo", "chars", "pgl2", "correlation",
    "ps_model", "modp", "sympow", "shintani", "cli",
)

# (span name, module, attribute path). An attribute path with a dot is a
# method, patched on its class; anything else is a module-level function,
# patched at every toric_correlator module attribute bound to it.
SPANS = [
    ("fields.tower_build", "fields", "FieldTower.__init__"),
    ("pgl2.group_init", "pgl2", "PGL2.__init__"),
    ("pgl2.orthogonality", "pgl2", "PGL2.orthogonality_check"),
    ("pgl2.invariant_dims", "pgl2", "PGL2.invariant_dims"),
    ("correlation.pair_counts", "correlation", "pair_class_counts"),
    ("correlation.corr_constant", "correlation", "corr_constant"),
    ("correlation.epsilon", "correlation", "epsilon"),
    ("correlation.regular_identity", "correlation", "regular_identity"),
    ("correlation.correlate_all", "correlation", "correlate_all"),
    ("cyclo.from_counter", "cyclo", "CycNum.from_counter"),
    ("cyclo.factor", "cyclo", "factor_cyclotomic_mod_p"),
    ("cyclo.handle_build", "cyclo", "PrimeIdealHandle.__init__"),
    ("cyclo.reduce", "cyclo", "PrimeIdealHandle.reduce"),
    ("gfpoly.powmod", "gfpoly", "powmod"),
    ("gfpoly.edf", "gfpoly", "equal_degree_factor"),
    ("modp.sweep", "modp", "sweep"),
    ("modp.rep_report", "modp", "rep_report"),
    ("modp.relabel_map", "modp", "root_relabel_map"),
    ("sympow.diamond", "sympow", "diamond_check"),
    ("sympow.st_report", "sympow", "st_report"),
    ("sympow.jh", "sympow", "jh_constituents"),
    ("shintani.operator_check", "shintani", "ShintaniOperator.check_all"),
    ("shintani.theorem", "shintani", "theorem_report"),
    ("shintani.lemma", "shintani", "lemma_checks"),
    ("ps_model.check", "ps_model", "PsModel.consistency_check"),
    ("chars.gauss_sum", "chars", "gauss_sum"),
    # the output path: report serialization, which the command line also
    # goes through; argparse itself is not measured
    ("cli.to_json", "correlation", "RepRecord.to_json_dict"),
    ("cli.to_json", "modp", "ModpReport.to_json_dict"),
    ("cli.to_json", "shintani", "BaseChangeReport.to_json_dict"),
]

# bytes per table entry: one list slot plus one int object, the computed
# (not measured) cost of FieldTower's exp, dlog and Zech lists
TABLE_ENTRY_BYTES = 8 + 28


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.item = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.setup_calls: dict[str, int] = {}
        self.setup_self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.top_level_s = 0.0
        self.table_mb_max = 0.0
        self.pair_groups: set[tuple[int, int]] = set()
        self.factor_keys: set[tuple] = set()
        self.factor_repeats = 0
        self.handle_keys: set[tuple] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_id[name] = nid
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.setup_calls[name] = 0
            self.setup_self_s[name] = 0.0
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._stack.pop()
        child = self._child.pop()
        setup = self.span_item[idx] < 0
        calls, self_s = (self.setup_calls, self.setup_self_s) if setup else (self.calls, self.self_s)
        calls[name] += 1
        self_s[name] += dur - child
        if self._child:
            self._child[-1] += dur
        elif not setup:
            # unattributed time is computed over the measured items only
            self.top_level_s += dur

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs once it returns."""
        layer = name.split(".", 1)[0]
        nid = self._nid(name)
        from toric_correlator.fields import ConsistencyError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except ConsistencyError as exc:
                # count an error once, in the innermost span it leaves
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.errors[layer] += 1
                raise
            finally:
                self._close(idx, name)
            if after is not None and self.item >= 0:
                after(args, out)
            return out

        return wrapper

    # -- hooks for the ratio metrics ---------------------------------------

    def _after_tower(self, args, _out) -> None:
        tower = args[0]
        entries = 2 * tower.order + tower.size
        self.table_mb_max = max(self.table_mb_max, entries * TABLE_ENTRY_BYTES / 2**20)

    def _after_pair_counts(self, args, _out) -> None:
        self.pair_groups.add((self.item, id(args[0])))

    def _after_factor(self, args, _out) -> None:
        key = (args[0], args[1], args[2] if len(args) > 2 else 0)
        if key in self.factor_keys:
            self.factor_repeats += 1
        self.factor_keys.add(key)

    def _after_handle(self, args, _out) -> None:
        handle = args[0]
        self.handle_keys.add((handle.k, handle.p, tuple(handle.factor)))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every span in SPANS into the loaded toric_correlator."""
        import toric_correlator  # noqa: F401  (loads every submodule)

        hooks = {
            "fields.tower_build": self._after_tower,
            "correlation.pair_counts": self._after_pair_counts,
            "cyclo.factor": self._after_factor,
            "cyclo.handle_build": self._after_handle,
        }
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "toric_correlator" or n.startswith("toric_correlator."))
        ]
        for name, mod_name, path in SPANS:
            module = sys.modules[f"toric_correlator.{mod_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__, hooks.get(name)))
                else:
                    new = self.wrap(name, raw, hooks.get(name))
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original, hooks.get(name))
            bound = 0
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrapped)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{name}: no module binds {mod_name}.{path}")

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def fired(self) -> set[str]:
        """Span names that fired during the measured items."""
        return {n for n, c in self.calls.items() if c}

    def layer_metrics(self, item_s: float) -> dict[str, float]:
        """Per-layer metrics by name; item_s is the total measured item time."""
        calls, self_s = self.calls, self.self_s

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "fields.tower_builds": calls["fields.tower_build"],
            "fields.tower_build_s": self_s["fields.tower_build"],
            "fields.setup_tower_builds": self.setup_calls["fields.tower_build"],
            "fields.setup_tower_build_s": self.setup_self_s["fields.tower_build"],
            "fields.table_mb_computed": self.table_mb_max,
            "pgl2.group_init_s": self_s["pgl2.group_init"],
            "pgl2.orthogonality_s": self_s["pgl2.orthogonality"],
            "pgl2.invariant_dims_s": self_s["pgl2.invariant_dims"],
            "correlation.pair_counts_calls": calls["correlation.pair_counts"],
            "correlation.pair_counts_s": self_s["correlation.pair_counts"],
            "correlation.pair_counts_reuse_ratio": ratio(
                len(self.pair_groups), calls["correlation.pair_counts"]
            ),
            "correlation.corr_constant_s": self_s["correlation.corr_constant"],
            "correlation.epsilon_s": self_s["correlation.epsilon"],
            "correlation.regular_identity_s": self_s["correlation.regular_identity"],
            "correlation.correlate_all_s": self_s["correlation.correlate_all"],
            "cyclo.from_counter_calls": calls["cyclo.from_counter"],
            "cyclo.from_counter_s": self_s["cyclo.from_counter"],
            "cyclo.factor_calls": calls["cyclo.factor"],
            "cyclo.factor_cache_hits": self.factor_repeats,
            "cyclo.factor_s": self_s["cyclo.factor"],
            "cyclo.factor_cache_hit_ratio": ratio(self.factor_repeats, calls["cyclo.factor"]),
            "cyclo.handle_builds": calls["cyclo.handle_build"],
            "cyclo.handle_distinct": len(self.handle_keys),
            "cyclo.handle_build_s": self_s["cyclo.handle_build"],
            "cyclo.handle_distinct_ratio": ratio(
                len(self.handle_keys), calls["cyclo.handle_build"]
            ),
            "cyclo.reduce_calls": calls["cyclo.reduce"],
            "cyclo.reduce_s": self_s["cyclo.reduce"],
            "gfpoly.powmod_calls": calls["gfpoly.powmod"],
            "gfpoly.powmod_s": self_s["gfpoly.powmod"],
            "gfpoly.edf_s": self_s["gfpoly.edf"],
            "modp.sweep_s": self_s["modp.sweep"],
            "modp.rep_report_s": self_s["modp.rep_report"],
            "modp.relabel_map_s": self_s["modp.relabel_map"],
            "sympow.diamond_s": self_s["sympow.diamond"],
            "sympow.st_report_s": self_s["sympow.st_report"],
            "sympow.jh_s": self_s["sympow.jh"],
            "shintani.operator_check_s": self_s["shintani.operator_check"],
            "shintani.theorem_s": self_s["shintani.theorem"],
            "shintani.lemma_s": self_s["shintani.lemma"],
            "ps_model.check_s": self_s["ps_model.check"],
            "chars.gauss_sum_s": self_s["chars.gauss_sum"],
            "cli.to_json_s": self_s["cli.to_json"],
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        out["bench.unattributed_s"] = max(0.0, item_s - self.top_level_s)
        return out

    def write(self, path: str) -> None:
        """Write every span as CSV (name, start, end, parent, item)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,item\n")
            names = self.names
            for i in range(len(self.span_start)):
                out.write(
                    f"{names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_item[i]}\n"
                )
