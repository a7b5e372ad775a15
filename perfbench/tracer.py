"""Span tracing of ckq's layers, installed from outside the package.

`Tracer.install()` replaces the functions and methods listed in
MODULE_SPANS / CLASS_SPANS with wrappers that record one span per call
(name, start, end, parent span, operation id).  A function imported into
another module with `from ... import` is replaced in every ckq module that
holds it; a method is replaced once, on its class.  `uninstall()` puts
every original object back.

Spans are kept in flat arrays and written out by `save()`.  Self time
("busy" time) is accumulated as calls return: a span's duration minus the
time its child spans cover.  Memo sizes are read from the objects each
operation created, after the operation ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# (module, function, span name)
MODULE_SPANS = (
    ("ckq.frt", "full_relations", "frt.relations"),
    ("ckq.frt", "rtt_relations", "frt.relations"),
    ("ckq.frt", "orthogonality_relations", "frt.relations"),
    ("ckq.frt", "rmatrix3", "frt.rmatrix"),
    ("ckq.frt", "cmatrix", "frt.rmatrix"),
    ("ckq.frt", "reduction_system", "frt.reduction_system"),
    ("ckq.frt", "rtt_rank", "frt.rank"),
    ("ckq.frt", "qybe_check", "frt.qybe"),
    ("ckq.frt", "counit_residual", "frt.counit"),
    ("ckq.frt", "antipode_check", "frt.antipode"),
    ("ckq.frt", "coproduct_compatibility", "frt.coproduct"),
    ("ckq.frt", "verify_contraction_transform", "frt.contraction"),
    ("ckq.free_algebra", "build_reduction", "free_algebra.build_reduction"),
    ("ckq.free_algebra", "_rref_rules", "free_algebra.rref"),
    ("ckq.free_algebra", "confluence_check", "free_algebra.confluence"),
    ("ckq.free_algebra", "relation_rank", "free_algebra.relation_rank"),
    ("ckq.dual", "verify_pairing_table", "dual.pairing"),
    ("ckq.dual", "pairing_table", "dual.pairing"),
    ("ckq.dual", "verify_L_relations", "dual.lrel"),
    ("ckq.dual", "verify_dual_commutators", "dual.commutators"),
    ("ckq.dual", "verify_sow_hopf", "dual.sow_hopf"),
    ("ckq.dual", "verify_duality_isomorphism", "dual.iso"),
    ("ckq.dual", "ser_mul", "dual.ser_mul"),
    ("ckq.pimenov", "pim_apply", "pimenov.pim_apply"),
    ("ckq.ck_classical", "ck_det", "ck_classical.ck_det"),
)
# every other public function of ck_classical is traced as this span
CK_OTHER = "ck_classical.other"

# (module, class, method, span name)
CLASS_SPANS = (
    ("ckq.free_algebra", "ReductionSystem", "reduce", "free_algebra.reduce"),
    ("ckq.free_algebra", "ReductionSystem", "_nf_term", "free_algebra.nf_term"),
    ("ckq.free_algebra", "ReductionSystem", "reduce_tensor", "free_algebra.reduce_tensor"),
    ("ckq.dual", "SowAlgebra", "mono_mul", "dual.mono_mul"),
    ("ckq.dmat", "DMatrix", "__matmul__", "dmat.matmul"),
    ("ckq.dmat", "DMatrix", "inv", "dmat.inv"),
    ("ckq.dmat", "DMatrix", "kron", "dmat.kron"),
    ("ckq.pimenov", "PimenovElement", "inv", "pimenov.inv"),
    ("ckq.ck_classical", "CKMatrix", "__matmul__", CK_OTHER),
)

ROOT = "cli"

# Frozen oracles of the quotient pipeline (valid for v != 0).
FROZEN_RULES = {"1,1": 280, "1,n": 178, "n,1": 186, "n,n": 114}
FROZEN_RANK = {"1,1": 46, "1,n": 44, "n,1": 44, "n,n": 29}
CONFLUENCE_TOL = 1e-9


def _sig_key(sig) -> str:
    return "j" + str(sig).replace(",", "")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._nid: dict[str, int] = {}
        self.calls: list[int] = []
        self.busy: list[float] = []
        # one entry per span, indexed by span id
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = [[-1, 0.0]]
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []
        self.counts = {
            "entries_computed": 0, "entries_reported": 0,
            "rs_inits_in_build": 0, "rref_cells": 0, "confluence_words": 0,
            "nf_hits": 0, "mono_hits": 0, "nf_entries": 0, "push_entries": 0,
        }
        self.rules: dict[str, int] = {}
        self._op_systems: list = []
        self._op_algebras: list = []
        self._op_gates: list[str] = []
        self._root = self._name(ROOT)

    # -- recording -----------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
        return self._nid[name]

    def wrap(self, fn, name: str, pre=None, post=None):
        """A stand-in for fn that records one span named `name` per call."""
        nid = self._name(name)
        calls, busy, stack = self.calls, self.busy, self.stack
        names, parents, ops = self.span_name.append, self.span_parent.append, self.span_op.append
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(args)
            parent = stack[-1]
            idx = len(ends)
            names(nid)
            parents(parent[0])
            ops(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = t1 - t0
                parent[1] += span
                busy[nid] += span - frame[1]
                calls[nid] += 1
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                post(args, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def _hook(self, fn, pre):
        """A stand-in for fn that only runs `pre(args)` first (no span)."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            pre(args)
            return fn(*args, **kwargs)

        hooked.__perfbench_traced__ = True
        return hooked

    # -- operations ----------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run one operation under a root span; returns (result, gate failure)."""
        self.op = op_id
        self._op_systems, self._op_algebras, self._op_gates = [], [], []
        result = self.wrap(fn, ROOT)()
        for rs in self._op_systems:
            self.counts["nf_entries"] += sum(len(m) for m in rs._memo.values())
        for alg in self._op_algebras:
            self.counts["push_entries"] += len(alg._push01_memo) + len(alg._push02_memo)
        self._op_systems, self._op_algebras = [], []
        return result, ("; ".join(self._op_gates) or None)

    # -- hooks -----------------------------------------------------------------

    def _on_entry(self, args) -> None:
        self.counts["entries_computed"] += 1

    def _on_report(self, args) -> None:
        self.counts["entries_reported"] += len(args[0])

    def _on_rs_init(self, args) -> None:
        self._op_systems.append(args[0])
        top = self.stack[-1][0]
        if top >= 0 and self.span_name[top] == self._nid["free_algebra.build_reduction"]:
            self.counts["rs_inits_in_build"] += 1

    def _on_alg_init(self, args) -> None:
        self._op_algebras.append(args[0])

    def _on_nf_term(self, args) -> None:
        rs, mask, word, strategy = args
        if (mask, word) in rs._memo[strategy]:
            self.counts["nf_hits"] += 1

    def _on_mono_mul(self, args) -> None:
        alg, k1, k2 = args
        if (k1, k2) in alg._mono_memo:
            self.counts["mono_hits"] += 1

    def _on_rref(self, args) -> None:
        elements = [e for e in args[0] if e.terms]
        columns = {k for e in elements for k in e.terms}
        self.counts["rref_cells"] += len(elements) * len(columns)

    def _after_reduction_system(self, args, rs) -> None:
        sig = str(args[0])
        self.rules[_sig_key(sig)] = len(rs)
        want = FROZEN_RULES.get(sig)
        if want is not None and len(rs) != want:
            self._op_gates.append(f"rule count {len(rs)} != {want} at {sig}")

    def _after_rank(self, args, rank) -> None:
        sig = str(args[0])
        want = FROZEN_RANK.get(sig)
        if want is not None and rank != want:
            self._op_gates.append(f"frt.rank {rank} != {want} at {sig}")

    def _after_confluence(self, args, result) -> None:
        self.counts["confluence_words"] += result["words_checked"]
        if not result["max_discrepancy"] <= CONFLUENCE_TOL:
            self._op_gates.append(f"confluence residual {result['max_discrepancy']:.3e}")

    # -- install / uninstall -----------------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ckq" or modname.startswith("ckq.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _replace_method(self, cls, meth: str, new) -> None:
        self._patches.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, new)

    def install(self) -> None:
        import ckq.cli  # noqa: F401  (loads every ckq module)

        mods = {m: sys.modules[m] for m in
                ("ckq.cli", "ckq.frt", "ckq.free_algebra", "ckq.dual", "ckq.dmat",
                 "ckq.pimenov", "ckq.ck_classical")}
        post = {
            "reduction_system": self._after_reduction_system,
            "rtt_rank": self._after_rank,
            "confluence_check": self._after_confluence,
        }
        pre = {"_rref_rules": self._on_rref}
        for modname, fname, span in MODULE_SPANS:
            orig = getattr(mods[modname], fname)
            self._replace_everywhere(
                orig, self.wrap(orig, span, pre=pre.get(fname), post=post.get(fname)))
        ck = mods["ckq.ck_classical"]
        named = {f for m, f, _ in MODULE_SPANS if m == "ckq.ck_classical"}
        for fname, orig in list(vars(ck).items()):
            if (inspect.isfunction(orig) and orig.__module__ == ck.__name__
                    and not fname.startswith("_") and fname not in named
                    and not inspect.isgeneratorfunction(orig)):
                self._replace_everywhere(orig, self.wrap(orig, CK_OTHER))
        method_pre = {"_nf_term": self._on_nf_term, "mono_mul": self._on_mono_mul}
        for modname, clsname, meth, span in CLASS_SPANS:
            cls = getattr(mods[modname], clsname)
            self._replace_method(
                cls, meth, self.wrap(cls.__dict__[meth], span, pre=method_pre.get(meth)))
        fa, dual, cli = mods["ckq.free_algebra"], mods["ckq.dual"], mods["ckq.cli"]
        self._replace_method(fa.ReductionSystem, "__init__",
                             self._hook(fa.ReductionSystem.__init__, self._on_rs_init))
        self._replace_method(dual.SowAlgebra, "__init__",
                             self._hook(dual.SowAlgebra.__init__, self._on_alg_init))
        self._replace_everywhere(cli._entry, self._hook(cli._entry, self._on_entry))
        self._replace_everywhere(cli._report, self._hook(cli._report, self._on_report))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure the trace yields, keyed by metric name."""
        m: dict[str, float] = {}
        layer_busy: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            if nid == self._root:
                continue
            m[f"{name}.calls"] = self.calls[nid]
            m[f"{name}.busy_s"] = self.busy[nid]
            layer = name.split(".")[0]
            layer_busy[layer] = layer_busy.get(layer, 0.0) + self.busy[nid]
        for layer, busy in layer_busy.items():
            m[f"{layer}.busy_s"] = busy
        c = self.counts
        m["cli.self_s"] = self.busy[self._root]
        m["cli.checks_computed"] = c["entries_computed"]
        m["cli.checks_reported"] = c["entries_reported"]
        m["cli.useful_ratio"] = _ratio(c["entries_reported"], c["entries_computed"])
        builds = self.calls[self._nid["free_algebra.build_reduction"]]
        m["free_algebra.completion_rounds"] = c["rs_inits_in_build"] - builds
        m["free_algebra.rref.cells"] = c["rref_cells"]
        for sig in FROZEN_RULES:
            m[f"free_algebra.rules.{_sig_key(sig)}"] = self.rules.get(_sig_key(sig), 0)
        m["free_algebra.nf_memo.entries"] = c["nf_entries"]
        m["free_algebra.nf_memo.hit_ratio"] = _ratio(
            c["nf_hits"], self.calls[self._nid["free_algebra.nf_term"]])
        m["free_algebra.confluence.words"] = c["confluence_words"]
        m["dual.mono_memo.hit_ratio"] = _ratio(
            c["mono_hits"], self.calls[self._nid["dual.mono_mul"]])
        m["dual.push_memo.entries"] = c["push_entries"]
        m["trace.spans"] = len(self.span_end)
        # the self times of all spans, cli root included, sum to the root spans' wall time
        m["trace.self_total_s"] = sum(self.busy)
        return m

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
