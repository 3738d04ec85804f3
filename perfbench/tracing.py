"""Spans around calls into the cloneops layers, and the per-layer metrics
derived from them.

A span records a name of the form ``<module>.<function>``, its start and
end (``time.perf_counter``, a system-wide monotonic clock on Linux), the
span that caused it, the job and workload it belongs to, and counters
attached by the caller.  Spans stay in memory and are written out when the
benchmark ends.

Two public calls run other layers internally (``verify_separation`` and the
ternary ``enumerate_centraliser``).  They get one parent span, and the
traced replay then repeats the inner public calls on the same inputs as
*probe* spans, whose parent is that span.  Probes run inside a
``trace.probes`` block after the parent call has returned, so:

* a span's self time is its duration, minus the part of its interval its
  ordinary children cover, minus the durations of its probe children;
* the probe block is the tracing overhead that the replay adds on purpose,
  and is subtracted from the traced wall time.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

PROBE_BLOCK = "trace.probes"

# metric name -> unit; the traced run reports every one of them
PER_LAYER_UNITS = {
    "commutation.ternary_s": "s",
    "commutation.candidates": "count",
    "commutation.survivors": "count",
    "commutation.survival_ratio": "ratio",
    "commutation.opset_s": "s",
    "commutation.opset_rows": "count",
    "commutation.opset_bytes": "bytes",
    "commutation.members_s": "s",
    "textio.emit_s": "s",
    "textio.emit_bytes": "bytes",
    "textio.parse_s": "s",
    "textio.parse_bytes": "bytes",
    "core.graph_s": "s",
    "core.graph_tuples": "count",
    "ppformula.eval_s": "s",
    "ppformula.assignments": "count",
    "ppformula.sat_ratio": "ratio",
    "ppformula.smt_s": "s",
    "ppformula.smt_bytes": "bytes",
    "clonegen.fragment_s": "s",
    "clonegen.fragment_members": "count",
    "synthesis.synth_s": "s",
    "synthesis.rows": "count",
    "synthesis.atoms": "count",
    "synthesis.atom_ratio": "ratio",
    "snow.build_s": "s",
    "snow.verify_s": "s",
    "snow.samples": "count",
    "snow.samples_per_s": "1/s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Collects the spans of one job."""

    def __init__(self, job: str, workload: str):
        self.job = job
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, probe: bool = False,
             start: float | None = None):
        """Time the body; yields the span record so the caller can add counters."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "job": self.job, "workload": self.workload, "probe": probe,
               "start": time.perf_counter() if start is None else start,
               "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """Self time of every span, keyed by (job, span id)."""
    kids: dict[tuple[str, int], list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault((s["job"], s["parent"]), []).append(s)
    out = {}
    for s in spans:
        children = kids.get((s["job"], s["id"]), [])
        covered = _covered(s["start"], s["end"],
                           [(c["start"], c["end"]) for c in children if not c["probe"]])
        probed = sum(_duration(c) for c in children if c["probe"])
        out[(s["job"], s["id"])] = max(0.0, _duration(s) - covered - probed)
    return out


def probe_seconds(spans: list[dict]) -> float:
    return sum(_duration(s) for s in spans if s["name"] == PROBE_BLOCK)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all its jobs), except
    trace.overhead_ratio, which needs the untraced wall time."""
    selfs = self_times(spans)

    def named(name, probe=None):
        return [s for s in spans if s["name"] == name
                and (probe is None or s["probe"] == probe)]

    def seconds(name, probe=None):
        return sum(_duration(s) for s in named(name, probe))

    def self_seconds(name, probe=None):
        return sum(selfs[(s["job"], s["id"])] for s in named(name, probe))

    def count(names, key, probe=None):
        names = [names] if isinstance(names, str) else names
        return sum(s["counts"].get(key, 0) for n in names for s in named(n, probe))

    emits = ["textio.emit_operations", "textio.emit_relations"]
    parses = ["textio.parse_operations", "textio.parse_relations",
              "textio.parse_tuple_lists"]
    builds = ["snow.snow_instance", "snow.snow_t", "snow.snow_f", "snow.snow_pp_formula"]
    m = {
        "commutation.ternary_s": self_seconds("commutation.enumerate_centraliser", False),
        "commutation.candidates": count("commutation.enumerate_centraliser",
                                        "candidates", False),
        "commutation.survivors": count("commutation.enumerate_centraliser",
                                       "survivors", False),
        "commutation.opset_s": seconds("commutation.OperationSet"),
        "commutation.opset_rows": count("commutation.OperationSet", "rows"),
        "commutation.opset_bytes": count("commutation.OperationSet", "bytes"),
        "commutation.members_s": seconds("commutation.members"),
        "textio.emit_s": sum(seconds(n) for n in emits),
        "textio.emit_bytes": count(emits, "bytes"),
        "textio.parse_s": sum(seconds(n) for n in parses),
        "textio.parse_bytes": count(parses, "bytes"),
        "core.graph_s": seconds("core.graph_of"),
        "core.graph_tuples": count("core.graph_of", "tuples"),
        "ppformula.eval_s": seconds("ppformula.eval_formula"),
        "ppformula.assignments": count("ppformula.eval_formula", "assignments"),
        "ppformula.smt_s": seconds("ppformula.emit_smt"),
        "ppformula.smt_bytes": count("ppformula.emit_smt", "bytes"),
        "clonegen.fragment_s": seconds("clonegen.clone_fragment"),
        "clonegen.fragment_members": count("clonegen.clone_fragment", "members"),
        "synthesis.synth_s": seconds("synthesis.synthesize_ppdef"),
        "synthesis.rows": count("synthesis.synthesize_ppdef", "rows"),
        "synthesis.atoms": count("synthesis.synthesize_ppdef", "atoms"),
        "snow.build_s": sum(seconds(n) for n in builds),
        "snow.verify_s": self_seconds("snow.verify_separation", False),
        "snow.samples": count("snow.verify_separation", "samples", False),
        "cli.self_s": sum(selfs[(s["job"], s["id"])] for s in spans
                          if s["parent"] is None),
    }
    m["commutation.survival_ratio"] = _ratio(m["commutation.survivors"],
                                             m["commutation.candidates"])
    m["ppformula.sat_ratio"] = _ratio(count("ppformula.eval_formula", "satisfied"),
                                      m["ppformula.assignments"])
    m["synthesis.atom_ratio"] = _ratio(
        m["synthesis.atoms"], count("synthesis.synthesize_ppdef", "selections"))
    m["snow.samples_per_s"] = _ratio(m["snow.samples"], m["snow.verify_s"])
    return m


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(it[name] for it in per_iteration)
            for name in per_iteration[0]}
