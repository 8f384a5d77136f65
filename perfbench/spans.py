"""Layer tracing from outside the program.

``Tracer.install`` wraps public functions of the ``zappatic`` modules.  A name
that a module pulled in with ``from ... import`` is a separate reference, so
after wrapping a function the tracer replaces every reference to the original
in every loaded ``zappatic`` module (``meet`` in ``arrangement``,
``constructions`` and ``scrolls``, ``compute_incidence`` in ``constructions``
and ``cli``, and so on).  ``uninstall`` restores every reference.

Each call is a span: the time between entry and return.  A span's self time
is its duration minus the duration of its child spans.  Counters are taken at
the same boundaries: kernel shapes, plane counts, file sizes and the
attachment records of each build.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# (module, attribute path) -> span name.  Every public entry point of a
# layer that the CLI or the benchmark reaches.
SPANS = {
    ("zappatic.linalg", "rank"): "linalg.rank",
    ("zappatic.linalg", "rref"): "linalg.rref",
    ("zappatic.linalg", "nullspace"): "linalg.nullspace",
    ("zappatic.linalg", "solve"): "linalg.solve",
    ("zappatic.linalg", "clear_denominators"): "linalg.clear_denominators",
    ("zappatic.linalg", "primitive"): "linalg.primitive",
    ("zappatic._bareiss", "rank"): "bareiss.rank",
    ("zappatic._bareiss", "rref"): "bareiss.rref",
    ("zappatic._bareiss_c", "rank"): "bareiss.compiled_rank",
    ("zappatic._bareiss_c", "rref"): "bareiss.compiled_rref",
    ("zappatic.projective", "meet"): "projective.meet",
    ("zappatic.projective", "span"): "projective.span",
    ("zappatic.projective", "span_subspaces"): "projective.span_subspaces",
    ("zappatic.projective", "quadrics_through"): "projective.quadrics_through",
    ("zappatic.projective", "quadric_rank"): "projective.quadric_rank",
    ("zappatic.projective", "plucker"): "projective.plucker",
    ("zappatic.projective", "dual_plane_in_klein"): "projective.dual_plane_in_klein",
    ("zappatic.projective", "Subspace.__init__"): "projective.Subspace",
    ("zappatic.projective", "Subspace.contains_point"): "projective.contains_point",
    ("zappatic.projective", "Subspace.contains"): "projective.contains",
    ("zappatic.projective", "Subspace.coords_of"): "projective.coords_of",
    ("zappatic.arrangement", "compute_incidence"): "arrangement.compute_incidence",
    ("zappatic.arrangement", "zappatic_report"): "arrangement.zappatic_report",
    ("zappatic.arrangement", "classify_point"): "arrangement.classify_point",
    ("zappatic.constructions", "build_X"): "constructions.build_X",
    ("zappatic.constructions", "build_Y"): "constructions.build_Y",
    ("zappatic.constructions", "build_Z"): "constructions.build_Z",
    ("zappatic.constructions", "chain_planes"): "constructions.chain_planes",
    ("zappatic.constructions", "cycle_planes"): "constructions.cycle_planes",
    ("zappatic.constructions", "attach_handle"): "constructions.attach_handle",
    ("zappatic.constructions", "cycle_from_chain"): "constructions.cycle_from_chain",
    ("zappatic.complexes", "build_dual_graph"): "complexes.build_dual_graph",
    ("zappatic.complexes", "homology"): "complexes.homology",
    ("zappatic.complexes", "build_torus_complex"): "complexes.build_torus_complex",
    ("zappatic.complexes", "to_dot"): "complexes.to_dot",
    ("zappatic.invariants", "invariants_of"): "invariants.invariants_of",
    ("zappatic.invariants", "smoothing_of"): "invariants.smoothing_of",
    ("zappatic.invariants", "hilbert_dim"): "invariants.hilbert_dim",
    ("zappatic.invariants", "quadric_count"): "invariants.quadric_count",
    ("zappatic.scrolls", "degenerate_balanced"): "scrolls.degenerate_balanced",
    ("zappatic.scrolls", "chain_feasible"): "scrolls.chain_feasible",
    ("zappatic.scrolls", "section_duality_check"): "scrolls.section_duality_check",
    ("zappatic.serialize", "read_arrangement"): "serialize.read",
    ("zappatic.serialize", "write_arrangement"): "serialize.write",
    ("zappatic.cli", "main"): "cli.main",
}

BUILDS = ("constructions.build_X", "constructions.build_Y", "constructions.build_Z")


class Tracer:
    """Span and counter collector for one traced phase."""

    def __init__(self):
        self.stack = []  # one [child seconds, span name] frame per open span
        self.spans = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counters = defaultdict(float)
        self._patches = []  # (owner, attribute, original)

    # -- counters taken at span boundaries ---------------------------------

    def _kernel(self, name, args, result):
        rows = args[0]
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        c = self.counters
        c["bareiss.ops_computed"] += nrows * ncols * min(nrows, ncols)
        c["bareiss.max_cols"] = max(c["bareiss.max_cols"], ncols)
        if all(INT64_MIN <= x <= INT64_MAX for row in rows for x in row):
            c["bareiss.int64_inputs"] += 1
        if name.startswith("bareiss.r") and sys.modules["zappatic.linalg"].backend_name() == "compiled":
            c["bareiss.fallback_calls"] += 1

    def _incidence(self, name, args, result):
        self.counters["arrangement.planes"] += len(args[0])

    def _build(self, name, args, result):
        if any(frame[1] in BUILDS for frame in self.stack):
            return  # build_Z recurses into itself for its base cycle
        self.counters["constructions.builds"] += 1
        self.counters["constructions.attachments"] += len(result.attachments)
        self.counters["constructions.retries"] += sum(r.retries for r in result.attachments)

    def _homology(self, name, args, result):
        g = args[0]
        self.counters["complexes.cells"] += g.num_vertices + g.num_edges + g.num_faces

    def _file_bytes(self, name, args, result):
        self.counters["serialize.bytes"] += os.path.getsize(args[0])

    HOOKS = {
        "bareiss.rank": _kernel,
        "bareiss.rref": _kernel,
        "bareiss.compiled_rank": _kernel,
        "bareiss.compiled_rref": _kernel,
        "arrangement.compute_incidence": _incidence,
        "constructions.build_X": _build,
        "constructions.build_Y": _build,
        "constructions.build_Z": _build,
        "complexes.homology": _homology,
        "serialize.read": _file_bytes,
        "serialize.write": _file_bytes,
    }

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn):
        stack = self.stack
        spans = self.spans
        hook = self.HOOKS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = spans[name]
                entry[0] += 1
                entry[1] += elapsed - frame[0]
            if hook is not None:
                # the counter's own cost is charged to no layer
                h0 = perf_counter()
                hook(self, name, args, result)
                if stack:
                    stack[-1][0] += perf_counter() - h0
            return result

        return span

    def install(self):
        """Wrap every function in SPANS at every reference to it."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for (module_name, path), name in SPANS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue  # the compiled kernel is optional
            owner = module
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            wrappers[id(original)] = (original, wrapper)
            self._patch(owner, attr, original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name != "zappatic" and not module_name.startswith("zappatic."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-layer metrics -------------------------------------------------

    def calls(self, name):
        return self.spans[name][0] if name in self.spans else 0

    def self_s(self, name):
        return self.spans[name][1] if name in self.spans else 0.0

    def layer_self_s(self, layer):
        return sum(v[1] for k, v in self.spans.items() if k.split(".")[0] == layer)

    def layer_calls(self, layer):
        return sum(v[0] for k, v in self.spans.items() if k.split(".")[0] == layer)

    def metrics(self):
        """The per-layer metrics, keyed by name: (value, unit)."""
        c = self.counters
        kernel_calls = sum(self.calls(f"bareiss.{op}") for op in
                           ("rank", "rref", "compiled_rank", "compiled_rref"))
        incidence = self.calls("arrangement.compute_incidence")
        attachments = c["constructions.attachments"]
        attempts = attachments + c["constructions.retries"]
        out = {}
        for op in ("rank", "rref", "nullspace", "solve"):
            out[f"linalg.{op}.calls"] = (self.calls(f"linalg.{op}"), "count")
        out["linalg.nullspace.self_s"] = (self.self_s("linalg.nullspace"), "s")
        out["linalg.clear_denominators.calls"] = (self.calls("linalg.clear_denominators"), "count")
        out["linalg.clear_denominators.self_s"] = (self.self_s("linalg.clear_denominators"), "s")
        out["linalg.self_s"] = (self.layer_self_s("linalg"), "s")
        out["bareiss.calls"] = (kernel_calls, "count")
        out["bareiss.self_s"] = (self.layer_self_s("bareiss"), "s")
        out["bareiss.ops_computed"] = (c["bareiss.ops_computed"], "count")
        out["bareiss.max_cols"] = (c["bareiss.max_cols"], "count")
        out["bareiss.int64_input_share"] = (
            c["bareiss.int64_inputs"] / kernel_calls if kernel_calls else 0.0, "ratio")
        out["bareiss.fallback_calls"] = (c["bareiss.fallback_calls"], "count")
        out["projective.meet.calls"] = (self.calls("projective.meet"), "count")
        out["projective.meet.self_s"] = (self.self_s("projective.meet"), "s")
        out["projective.span.calls"] = (self.calls("projective.span"), "count")
        out["projective.self_s"] = (self.layer_self_s("projective"), "s")
        out["arrangement.compute_incidence.calls"] = (incidence, "count")
        out["arrangement.compute_incidence.self_s"] = (
            self.self_s("arrangement.compute_incidence"), "s")
        out["arrangement.compute_incidence.planes_mean"] = (
            c["arrangement.planes"] / incidence if incidence else 0.0, "count")
        out["arrangement.zappatic_report.calls"] = (self.calls("arrangement.zappatic_report"), "count")
        out["arrangement.zappatic_report.self_s"] = (
            self.self_s("arrangement.zappatic_report"), "s")
        out["arrangement.classify_point.calls"] = (self.calls("arrangement.classify_point"), "count")
        out["arrangement.incidence_per_attachment"] = (
            incidence / attachments if attachments else 0.0, "ratio")
        out["constructions.builds"] = (c["constructions.builds"], "count")
        out["constructions.attachments"] = (attachments, "count")
        out["constructions.retries"] = (c["constructions.retries"], "count")
        out["constructions.attempt_success_ratio"] = (
            attachments / attempts if attempts else 0.0, "ratio")
        out["constructions.self_s"] = (self.layer_self_s("constructions"), "s")
        for fn in ("build_dual_graph", "homology"):
            out[f"complexes.{fn}.calls"] = (self.calls(f"complexes.{fn}"), "count")
            out[f"complexes.{fn}.self_s"] = (self.self_s(f"complexes.{fn}"), "s")
        out["complexes.cells"] = (c["complexes.cells"], "count")
        out["invariants.calls"] = (self.layer_calls("invariants"), "count")
        out["invariants.self_s"] = (self.layer_self_s("invariants"), "s")
        for fn in ("degenerate_balanced", "chain_feasible", "section_duality_check"):
            out[f"scrolls.{fn}.self_s"] = (self.self_s(f"scrolls.{fn}"), "s")
        out["scrolls.calls"] = (self.layer_calls("scrolls"), "count")
        for fn in ("read", "write"):
            out[f"serialize.{fn}.calls"] = (self.calls(f"serialize.{fn}"), "count")
            out[f"serialize.{fn}.self_s"] = (self.self_s(f"serialize.{fn}"), "s")
        out["serialize.bytes"] = (c["serialize.bytes"], "bytes")
        out["cli.main.calls"] = (self.calls("cli.main"), "count")
        out["cli.self_s"] = (self.layer_self_s("cli"), "s")
        return out

    def coverage_errors(self, workload):
        """Wrapper-coverage self-check.

        Every counter of a layer that the workload is predicted to exercise
        must be nonzero and the ``constructions`` counters must be zero on the
        read path, so that a call site that escaped wrapping fails loudly
        instead of undercounting.  The one cross-layer bound holds for any
        correct program: every ``linalg`` rank or rref reaches a kernel.
        """
        m = {k: v for k, (v, _unit) in self.metrics().items()}
        common = [
            "linalg.rank.calls", "linalg.rref.calls", "linalg.nullspace.calls",
            "linalg.clear_denominators.calls", "bareiss.calls", "bareiss.ops_computed",
            "projective.meet.calls", "arrangement.compute_incidence.calls",
            "arrangement.zappatic_report.calls", "arrangement.classify_point.calls",
            "complexes.build_dual_graph.calls", "complexes.homology.calls",
            "complexes.cells", "invariants.calls", "cli.main.calls",
        ]
        if workload == "analyze":
            nonzero = common + [
                "linalg.solve.calls", "projective.span.calls", "scrolls.calls",
                "scrolls.degenerate_balanced.self_s", "scrolls.chain_feasible.self_s",
                "scrolls.section_duality_check.self_s", "serialize.read.calls",
                "serialize.bytes",
            ]
            zero = ["constructions.builds", "constructions.attachments",
                    "constructions.retries", "constructions.self_s"]
        else:
            nonzero = common + [
                "projective.span.calls", "constructions.builds",
                "constructions.attachments", "constructions.self_s",
                "serialize.write.calls", "serialize.bytes",
            ]
            zero = ["scrolls.calls", "serialize.read.calls"]
        errors = [f"{k} is 0 but the workload exercises it" for k in nonzero if not m[k]]
        errors += [f"{k} is {m[k]} but must be 0 on {workload}" for k in zero if m[k]]
        if m["bareiss.calls"] < m["linalg.rank.calls"] + m["linalg.rref.calls"]:
            errors.append("fewer kernel calls than linalg rank/rref calls")
        return errors
