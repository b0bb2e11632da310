"""Layer spans recorded from outside the program, for the `--trace 1` run.

A layer is a public function of one finquot module.  `Tracer.install`
swaps the module attribute (in every namespace that calls it across a
module boundary) for a wrapper that records a span and the layer's counts;
`uninstall` puts the originals back.  Nothing under src/ changes, so spans
sit only at module boundaries.

After each `witness.separate` call the tracer makes probe calls on the
record's entry (`groups.scaled_difference`, `witness.polynomial_witness`,
`FieldHom.apply_matrix`).  They must reproduce `rec.hom`; they are child
spans of the separate span, so they split its time without adding to the
coverage of top-level spans.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer name -> the counts it reports beside .s, .calls and .errors.
LAYERS = {
    "groups.ball_enumerate": ("elements", "dedup_ratio"),
    "groups.word_evaluate": ("letters", "us_per_letter"),
    "groups.scaled_difference": (),
    "witness.polynomial_witness": (),
    "witness.separate": ("field_size_sum", "ext_fields"),
    "witness.FieldHom.apply_matrix": (),
    "witness.image_order": ("order_sum", "inexact"),
    "witness.verify_witness": ("rejected",),
    "profiler.ReductionScanner": ("homs", "order_sum", "inexact_homs"),
    "profiler.min_order": ("misses",),
    "serialize.encode": (),
    "serialize.decode": (),
    "serialize.resolve_spec": (),
    "serialize.profile_to_csv": (),
    "cli.main": ("exit_nonzero",),
}

# Counts that are ratios of other counts, and their units.
_DERIVED_UNITS = {"dedup_ratio": "ratio", "us_per_letter": "us"}

# Span fields, in the order they are stored and written out.
SPAN_FIELDS = ("op", "name", "parent", "start", "end", "error", "domain")


class Tracer:
    """In-memory spans and counts, one op id per op, split into passes."""

    def __init__(self, fq):
        self.fq = fq
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.pass_starts: list[int] = []
        self.pass_counts: list[defaultdict] = []
        self.probe_mismatches = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def begin_pass(self):
        self.pass_starts.append(len(self.spans))
        self.pass_counts.append(defaultdict(int))

    def add(self, layer: str, key: str, value=1):
        self.pass_counts[-1][(layer, key)] += value

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record one span; the parent is the innermost open span unless given."""
        if parent is None and self.stack:
            parent = self.stack[-1]
        index = len(self.spans)
        rec = [self.op, name, parent, time.perf_counter(), None, None, None]
        self.spans.append(rec)
        self.stack.append(index)
        try:
            yield index
        except Exception as exc:
            rec[5] = type(exc).__name__
            rec[6] = isinstance(exc, self.fq.errors.FinquotError)
            raise
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    # -- installing wrappers ---------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs, index)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        fq = self.fq
        for module in (fq.groups, fq.profiler):
            self._patch(module, "ball_enumerate",
                        self._wrap("groups.ball_enumerate", module.ball_enumerate, self._after_ball))
        self._patch(fq.groups, "word_evaluate",
                    self._wrap("groups.word_evaluate", fq.groups.word_evaluate, self._after_evaluate))
        for module in (fq.witness, fq.profiler):
            self._patch(module, "separate",
                        self._wrap("witness.separate", module.separate, self._after_separate))
        self._patch(fq.witness, "image_order",
                    self._wrap("witness.image_order", fq.witness.image_order, self._after_order))
        self._patch(fq.witness, "verify_witness",
                    self._wrap("witness.verify_witness", fq.witness.verify_witness, self._after_verify))
        for module in (fq.serialize, fq.cli):
            self._patch(module, "resolve_spec",
                        self._wrap("serialize.resolve_spec", module.resolve_spec))
        self._patch(fq.cli, "profile_to_csv",
                    self._wrap("serialize.profile_to_csv", fq.cli.profile_to_csv))
        scanner_cls = fq.profiler.ReductionScanner
        self._patch(fq.profiler, "ReductionScanner",
                    self._wrap("profiler.ReductionScanner", scanner_cls, self._after_scanner))
        self._patch(scanner_cls, "min_order", self._wrap("profiler.min_order", scanner_cls.min_order))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer counts ------------------------------------------------

    def _after_ball(self, out, args, kwargs, _index):
        spec, radius = args[0], args[1]
        shorter = sum(1 for el in out if el.word.length < radius)
        self.add("groups.ball_enumerate", "elements", len(out))
        # one product per label for the identity and for every element
        # that sits on a frontier before the last step
        self.add("groups.ball_enumerate", "candidates", len(spec.generators) * (1 + shorter))

    def _after_evaluate(self, _result, args, _kwargs, _index):
        self.add("groups.word_evaluate", "letters", args[1].length)

    def _after_separate(self, rec, args, kwargs, index):
        self.add("witness.separate", "field_size_sum", rec.field_size)
        self.add("witness.separate", "ext_fields", int(rec.hom.modulus is not None))
        spec, word = args[0], args[1]
        gamma = kwargs.get("gamma", args[2] if len(args) > 2 else None)
        try:
            self._probe(spec, word, gamma, rec, index)
        except Exception:
            self.probe_mismatches += 1

    def _probe(self, spec, word, gamma, rec, parent):
        fq = self.fq
        with self.span("groups.scaled_difference", parent):
            scaled = fq.groups.scaled_difference(spec, word, gamma)
        i, j = rec.entry
        with self.span("witness.polynomial_witness", parent):
            hom = fq.witness.polynomial_witness(spec.phi * scaled[i][j], spec.excluded_primes)
        if hom != rec.hom:
            self.probe_mismatches += 1
        for mat in spec.generators.values():
            with self.span("witness.FieldHom.apply_matrix", parent):
                rec.hom.apply_matrix(mat)

    def _after_order(self, result, _args, _kwargs, _index):
        order, exact = result
        self.add("witness.image_order", "order_sum", order)
        self.add("witness.image_order", "inexact", int(not exact))

    def _after_verify(self, result, _args, _kwargs, _index):
        self.add("witness.verify_witness", "rejected", int(not result[0]))

    def _after_scanner(self, scanner, _args, _kwargs, _index):
        orders = [h.order for h in scanner.homs]
        self.add("profiler.ReductionScanner", "homs", len(orders))
        self.add("profiler.ReductionScanner", "order_sum", sum(o for o in orders if o is not None))
        self.add("profiler.ReductionScanner", "inexact_homs", sum(1 for o in orders if o is None))

    # -- results ---------------------------------------------------------

    def pass_layers(self, k: int) -> tuple[dict, dict]:
        """Busy seconds and exact counts of pass k, keyed by metric name."""
        end = self.pass_starts[k + 1] if k + 1 < len(self.pass_starts) else len(self.spans)
        busy = defaultdict(float)
        counts = {f"{layer}.{key}": 0 for layer, keys in LAYERS.items()
                  for key in ("calls", "errors", *keys) if key not in _DERIVED_UNITS}
        for _op, name, _parent, start, stop, error, domain in self.spans[self.pass_starts[k]:end]:
            busy[name] += stop - start
            counts[f"{name}.calls"] += 1
            if error is not None and not domain:
                counts[f"{name}.errors"] += 1
            if name == "profiler.min_order" and error is not None and domain:
                counts["profiler.min_order.misses"] += 1
        for (layer, key), value in self.pass_counts[k].items():
            counts[f"{layer}.{key}"] = value
        return dict(busy), counts

    def top_level_seconds(self) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] is None)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, pass_walls: list[float], untraced_wall: float) -> tuple[dict, bool]:
    """Per-layer metrics (seconds averaged over traced passes, counts of one
    pass), and whether the counts repeated exactly in every traced pass."""
    per_pass = [tracer.pass_layers(k) for k in range(len(tracer.pass_starts))]
    counts = per_pass[0][1]
    repeat = all(c == counts for _, c in per_pass)
    n = len(per_pass)
    metrics = {}
    for layer, keys in LAYERS.items():
        seconds = sum(busy.get(layer, 0.0) for busy, _ in per_pass) / n
        metrics[f"{layer}.s"] = (seconds, "s")
        metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        metrics[f"{layer}.errors"] = (counts[f"{layer}.errors"], "count")
        for key in keys:
            if key == "dedup_ratio":
                cand = counts.get("groups.ball_enumerate.candidates", 0)
                value = counts["groups.ball_enumerate.elements"] / cand if cand else 0.0
            elif key == "us_per_letter":
                letters = counts["groups.word_evaluate.letters"]
                value = seconds * 1e6 / letters if letters else 0.0
            else:
                value = counts[f"{layer}.{key}"]
            metrics[f"{layer}.{key}"] = (value, _DERIVED_UNITS.get(key, "count"))
    traced_wall = sum(pass_walls)
    metrics["trace.overhead_ratio"] = (statistics.median(pass_walls) / untraced_wall, "ratio")
    metrics["trace.coverage"] = (tracer.top_level_seconds() / traced_wall, "ratio")
    return metrics, repeat
