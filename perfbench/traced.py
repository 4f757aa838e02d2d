"""The traced pass: per-module spans around the library's public functions.

For each CLI invocation of a pass, the traced pass calls the public
functions of `tracecodes` in the order the CLI uses them, each inside a
span named after the module that owns it, and derives the same answer
fields the gate reads from CLI output.  It then runs `tracecodes.cli.main`
in-process on the same arguments, in a `cli.main` span, and gates both.
Function caches are cleared before each of the two, so every invocation
builds its field tables cold, as a fresh CLI process does.

Only functions that the library keeps as public entry points are called.
A function that cannot be found is reported as an absent span and the
stages that need its result are skipped; the pass does not fail for it.
"""

from __future__ import annotations

import importlib
import io
import json
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import answers
from workloads import Argv, reduction_poly

# public function -> module that defines it (looked up there, then on the package)
API = {
    "GF2m": "field",
    "trace_coordinates": "field",
    "enumerate_defining_set": "codes",
    "generator_matrix": "codes",
    "weight_distribution": "codes",
    "pless_dual_counts": "analysis",
    "is_projective": "analysis",
    "ab_minimal": "analysis",
    "brute_minimal": "analysis",
    "conformance_sweep": "charsums",
    "build_omega": "sumsets",
    "check_sum_set": "sumsets",
    "main": "cli",
}

# charsums.family2 spans are recorded but not reported: the family-2 sum is
# only defined for odd m, and the benchmark runs charsums at m = 6
LAYER_TIMES = (
    "field.context", "field.tables", "codes.defining_set", "codes.generator_matrix",
    "codes.weights", "analysis.duals", "analysis.projective", "analysis.minimal",
    "charsums.plain", "charsums.family1", "charsums.family3",
    "sumsets.build_omega", "sumsets.check", "cli.main",
)
COUNTS = (
    "codes.defining_pairs", "codes.codewords", "analysis.exhaustive_minimal_runs",
    "charsums.records", "sumsets.transform_points", "cli.output_bytes",
)
# spans that only group others; their self time is the pass's remainder
STRUCTURAL = ("pass", "invocation")
# `verify` runs the exhaustive minimality check only up to this dimension
VERIFY_BRUTE_DIM = 12
SUMSET_VARIANTS = ("paper-column", "code-column")


@dataclass
class Tracer:
    """Spans and counts of one traced pass, kept in memory until the run ends.

    A span is (name, start, end, parent index, instance id); the instance id
    is shared by all spans of one CLI invocation.
    """

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    absent: set = field(default_factory=set)
    _stack: list = field(default_factory=list)
    instance: int = 0

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.instance])

    def self_times(self) -> Counter:
        """Span duration minus the part its child spans cover, summed per name."""
        totals: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][0]] -= end - start
        return totals


class Api:
    """Resolves the library's public functions by name; None when one is gone."""

    def __init__(self) -> None:
        package = importlib.import_module("tracecodes")
        self.modules = {"": package}
        for home in set(API.values()):
            try:
                self.modules[home] = importlib.import_module(f"tracecodes.{home}")
            except ImportError:
                pass
        self.functions = {
            name: getattr(self.modules.get(home), name, None) or getattr(package, name, None)
            for name, home in API.items()
        }

    def reset_caches(self) -> None:
        """Clear every memoized function, so tables are built cold."""
        for module in self.modules.values():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Stages:
    """Runs one invocation's stages through the library, recording spans and counts."""

    def __init__(self, api: Api, tracer: Tracer, seed: int) -> None:
        self.api, self.tracer, self.seed = api, tracer, seed

    def call(self, span: str, name: str, *args):
        """The public function `name` applied to args inside a span; None when it is absent."""
        fn = self.api.functions[name]
        if fn is None:
            self.tracer.absent.add(f"{span} ({name})")
            return None
        return self.timed(span, fn, *args)

    def timed(self, span: str, fn, *args):
        """fn(*args) inside a span; None, without calling fn, when an input is missing."""
        if any(a is None for a in args):
            return None
        self.tracer.open(span)
        try:
            return fn(*args)
        finally:
            self.tracer.close()

    def field(self, m: int):
        ctx = self.call("field.context", "GF2m", m, reduction_poly(m, self.seed))
        self.call("field.tables", "trace_coordinates", ctx)
        return ctx

    def code_report(self, family: int, m: int) -> dict:
        """The `verify` stages for one code, answered in the CLI's JSON field names."""
        ctx = self.field(m)
        dset = self.call("codes.defining_set", "enumerate_defining_set", ctx, family)
        code = self.call("codes.generator_matrix", "generator_matrix", ctx, dset)
        wd = self.call("codes.weights", "weight_distribution", code)
        n, k = (code.n, code.k) if code is not None else (None, None)
        duals = self.call("analysis.duals", "pless_dual_counts", wd, n, k)
        cols = self.call("analysis.projective", "is_projective", code)
        abm = self.call("analysis.minimal", "ab_minimal", wd)
        brute = None
        if code is not None and k <= VERIFY_BRUTE_DIM:
            brute = self.call("analysis.minimal", "brute_minimal", code)
            self.tracer.counts["analysis.exhaustive_minimal_runs"] += brute is not None
        report = {"family": family, "m": m}
        if dset is not None:
            self.tracer.counts["codes.defining_pairs"] += len(dset)
        if code is not None:
            report.update(n=n, k=k)
            if brute is not None or k > VERIFY_BRUTE_DIM:
                report["brute_minimal"] = brute
        if wd is not None:
            self.tracer.counts["codes.codewords"] += sum(wd.values())
            report["counts"] = answers.weight_counts(wd)
            report["d"] = min(w for w, c in wd.items() if w and c)
        if duals is not None:
            report.update(dual_weight1=duals[0], dual_weight2=duals[1])
            if cols is not None:
                report["projective"] = cols and tuple(duals) == (0, 0)
        if abm is not None:
            report["ab_minimal"] = abm
        return report

    def sweep(self, max_m: int) -> dict:
        rows, informational = [], []
        for family in (1, 2, 3):
            for m in range(2, max_m + 1):
                row = self.code_report(family, m)
                (informational if family == 2 and m % 2 == 0 else rows).append(row)
        return {"rows": rows, "informational": informational}

    def charsums(self, m: int) -> dict:
        ctx = self.field(m)
        sweep = self.api.functions["conformance_sweep"]
        if sweep is None or ctx is None:
            self.tracer.absent.add("charsums.* (conformance_sweep)")
            return {}
        records = []
        it = iter(sweep(ctx))
        while True:
            start = time.perf_counter()
            rec = next(it, None)
            end = time.perf_counter()
            if rec is None:
                break
            self.tracer.record(f"charsums.{rec.sum_name}", start, end)
            records.append((rec.sum_name, rec.a, rec.b, rec.oracle, rec.match))
        self.tracer.counts["charsums.records"] += len(records)
        answer = answers.charsum_answer(records)
        if reduction_poly(m, self.seed):
            del answer["records_digest"]  # pins (a, b) bitmasks of the default polynomial only
        return answer

    def sumset(self, family: int, m: int, s: int) -> dict:
        ctx = self.field(m)
        reports = {}
        for variant in SUMSET_VARIANTS:
            base = self.call("sumsets.build_omega", "build_omega", ctx, family, variant)
            if base is None:
                continue
            for zero in (False, True):
                omega = self.timed("sumsets.check", base.with_zero, zero)
                report = self.call("sumsets.check", "check_sum_set", omega, s)
                if report is None:
                    continue
                self.tracer.counts["sumsets.transform_points"] += 1 << omega.ambient_dim
                row = report.to_json_dict()
                reports[answers.sumset_key(variant, zero)] = {k: row[k] for k in answers.SUMSET_KEYS}
        answer = {"reports": reports}
        if len(reports) == 2 * len(SUMSET_VARIANTS):
            answer["any_sum_set"] = any(r["is_sum_set"] for r in reports.values())
        return answer

    def direct(self, argv: Argv) -> dict:
        opts = dict(zip(argv[1::2], map(int, argv[2::2])))
        command = argv[0]
        if command == "verify":
            return self.code_report(opts["--family"], opts["--m"])
        if command == "sweep":
            return self.sweep(opts["--max-m"])
        if command == "charsums":
            return self.charsums(opts["--m"])
        if command == "sumset":
            return self.sumset(opts["--family"], opts["--m"], opts["--s"])
        raise ValueError(f"no traced stages for command {command!r}")

    def cli(self, argv: Argv) -> tuple[int, str]:
        main = self.api.functions["main"]
        if main is None:
            self.tracer.absent.add("cli.main (main)")
            return -1, ""
        out = io.StringIO()

        def run() -> int:
            with redirect_stdout(out):
                try:
                    return main(list(argv) + ["--format", "json"])
                except SystemExit as exc:  # argparse exits on a usage error
                    return exc.code if isinstance(exc.code, int) else 2

        code = self.timed("cli.main", run)
        text = out.getvalue()
        self.tracer.counts["cli.output_bytes"] += len(text.encode())
        return code, text


def traced_pass(api: Api, reference: dict, order: list[Argv], seed: int):
    """Run one traced pass; returns (tracer, wall seconds, failure messages).

    Each invocation counts as two attempts: the traced stages' answer (on
    the seeded polynomial) is gated against the reference where it has
    fields, and the in-process CLI output against the reference in full.
    """
    tracer = Tracer()
    stages = Stages(api, tracer, seed)
    failures = []
    start = time.perf_counter()
    tracer.open("pass")
    for instance, argv in enumerate(order, 1):
        tracer.instance = instance
        tracer.open("invocation")
        api.reset_caches()
        key = answers.invocation_key(argv)
        try:
            answer = stages.direct(argv)
        except Exception as exc:  # a crash in the library is a failed invocation, not a crashed run
            failures.append(f"{key}: traced stages raised {exc!r}")
            answer = {}
        want = reference.get(key, {}).get("answer", {})
        if diffs := answers.compare(want, answer, partial=True):
            failures.append(f"{key} (traced): " + "; ".join(diffs))
        api.reset_caches()
        try:
            code, text = stages.cli(argv)
        except Exception as exc:
            failures.append(f"{key}: in-process cli.main raised {exc!r}")
        else:
            if diffs := answers.check(reference, argv, code, text):
                failures.append("; ".join(diffs) + " (in-process)")
        tracer.close()
    tracer.close()
    return tracer, time.perf_counter() - start, failures


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer self seconds and counts of one traced pass, plus its unaccounted remainder."""
    self_times = tracer.self_times()
    metrics = {f"{name}_s": self_times.get(name, 0.0) for name in LAYER_TIMES}
    metrics.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    layered = sum(t for name, t in self_times.items() if name not in STRUCTURAL)
    metrics["trace.remainder_s"] = wall - layered
    return metrics


def spans_jsonl(tracer: Tracer, pass_index: int) -> str:
    keys = ("name", "start", "end", "parent", "instance")
    return "\n".join(
        json.dumps({"pass": pass_index, "id": i, **dict(zip(keys, span))})
        for i, span in enumerate(tracer.spans)
    )
