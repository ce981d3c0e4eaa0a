"""Spans and work counters recorded around qrds's public functions.

The wrappers live here, on the benchmark side: ``patched`` swaps them into
every namespace of the ``qrds`` package that binds a wrapped function
(``from .catalog import eval_named`` in ``verify``, ``classical_sum`` and
``star_sum`` in ``bailey``, methods of ``LaurentSeries``) and restores the
originals afterwards.  Spans are (name, start, end, parent) rows kept in
memory and written out once the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

from qrds import bailey, catalog, hecke, ideals, series, verify

KERNEL = {
    "series.mul_binomial": series.LaurentSeries.mul_binomial,
    "series.div_binomial": series.LaurentSeries.div_binomial,
    "series.mul_monomial": series.LaurentSeries.mul_monomial,
    "series.add": series.LaurentSeries.__add__,
}
SPANNED = {
    "series.first_mismatch": series.first_mismatch,
    "catalog.eval_named": catalog.eval_named,
    "bailey.limit_form": bailey.limit_form,
    "bailey.verify_pair_relation": bailey.verify_pair_relation,
    "hecke.eval_blocks": hecke.eval_blocks,
    "ideals.ideal_series": ideals.ideal_series,
    "ideals.sieve_counts": ideals.sieve_counts,
    "ideals.canonical_reps": ideals.canonical_reps,
    "verify.verify_all": verify.verify_all,
    "verify.verify_theorem": verify.verify_theorem,
    "verify.verify_corollary": verify.verify_corollary,
    "verify.verify_sigma": verify.verify_sigma,
    "verify.lacunarity_report": verify.lacunarity_report,
}
SUMS = (catalog.classical_sum, catalog.star_sum)
REPORTS = ("verify.verify_theorem", "verify.verify_corollary", "verify.verify_sigma")

# Each per-layer metric and the end-to-end metric, on the workload, that it
# should move.  A metric listed here with no workload should stay unchanged.
PAIRING = {
    "series.{mul_binomial,div_binomial,mul_monomial,add}.{calls,s}":
        "pass_s and coeffs_per_s on verify-sweep and series-scan; unchanged on arith-legs",
    "series.coeff_ops": "pass_s and coeffs_per_s on verify-sweep and series-scan; unchanged on arith-legs",
    "series.first_mismatch.{calls,s}":
        "pass_s and coeffs_per_s on verify-sweep and series-scan; unchanged on arith-legs",
    "catalog.eval_named.{calls,s,self_s}":
        "pass_s and coeffs_per_s on verify-sweep and series-scan; unchanged on arith-legs",
    "catalog.eval_named.repeat_share": "ceiling of a cache's gain in pass_s on verify-sweep; 0 on series-scan",
    "catalog.{outer_terms,visible_term_share}": "pass_s on verify-sweep and series-scan (wasted tail terms)",
    "bailey.limit_form.{calls,s,self_s}": "pass_s on verify-sweep",
    "bailey.verify_pair_relation.s": "op_ms_p90 on series-scan",
    "hecke.eval_blocks.{calls,s}": "pass_s and op_ms_p50 on arith-legs",
    "ideals.{ideal_series,sieve_counts,canonical_reps}.{calls,s}": "pass_s and op_ms_p90 on arith-legs",
    "verify.{reports,self_s,report_s_max,report_s_sum}":
        "pass_s on verify-sweep; report_s_sum / report_s_max bounds a pool's gain (at most min(2, ratio) on 2 cores)",
    "trace.overhead_s": "none: traced pass_s minus untraced pass_s of the same pass",
}


def _namespaces():
    """Every qrds module, and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name != "qrds" and not name.startswith("qrds."):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("qrds"):
                yield value


@contextmanager
def patched(replacements: dict):
    """Bind ``replacements[original]`` wherever qrds binds ``original``."""
    by_id = {id(orig): new for orig, new in replacements.items()}
    saved = []
    try:
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                new = by_id.get(id(value))
                if new is not None:
                    saved.append((ns, attr, value))
                    setattr(ns, attr, new)
        yield
    finally:
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)


class Tracer:
    """Span recorder; ``replacements()`` gives the wrappers for ``patched``."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.coeff_ops = 0
        self.outer_terms = 0
        self.visible_terms = 0
        self.named_calls: list[tuple[str, int]] = []
        self.op_labels: list[str] = []

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _open(self, code: int) -> int:
        i = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_label: str):
        """Root span of one benchmark operation; its index identifies it."""
        self.op_labels.append(op_label)
        i = self._open(self._code("op"))
        try:
            yield
        finally:
            self._close(i)

    def _span(self, name: str, fn, after=None):
        code = self._code(name)

        def wrapper(*args, **kwargs):
            i = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_output(self, args, result) -> None:
        if isinstance(result, series.LaurentSeries) and not result.is_zero():
            self.coeff_ops += result.degree() - result.valuation() + 1

    def _record_named(self, args, result) -> None:
        self.named_calls.append((catalog.normalize_id(args[0]), args[1]))

    def _counting_sum(self, fn):
        def wrapper(terms, order, *args, **kwargs):
            def counted():
                for t in terms:
                    self.outer_terms += 1
                    v = t.valuation()
                    if v is not None and v <= order:
                        self.visible_terms += 1
                    yield t

            return fn(counted(), order, *args, **kwargs)

        return wrapper

    def replacements(self) -> dict:
        out = {fn: self._span(name, fn, self._count_output) for name, fn in KERNEL.items()}
        for name, fn in SPANNED.items():
            out[fn] = self._span(name, fn, self._record_named if fn is catalog.eval_named else None)
        for fn in SUMS:
            out[fn] = self._counting_sum(fn)
        return out

    # ------------------------------------------------------------ analysis

    def durations(self) -> tuple[list[float], list[float]]:
        """Inclusive and self time of every span."""
        total = [e - s for s, e in zip(self.start, self.end)]
        own = list(total)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= total[i]
        return total, own

    def layer_metrics(self) -> dict[str, float]:
        total, own = self.durations()
        calls = dict.fromkeys(self.names, 0)
        incl = dict.fromkeys(self.names, 0.0)
        excl = dict.fromkeys(self.names, 0.0)
        report_s = []
        for i, code in enumerate(self.name):
            name = self.names[code]
            calls[name] += 1
            incl[name] += total[i]
            excl[name] += own[i]
            if name in REPORTS:
                report_s.append(total[i])
        m: dict[str, float] = {}
        for name in list(KERNEL) + ["series.first_mismatch"]:
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.s"] = incl.get(name, 0.0)
        m["series.coeff_ops"] = self.coeff_ops
        for name in ("catalog.eval_named", "bailey.limit_form"):
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.s"] = incl.get(name, 0.0)
            m[f"{name}.self_s"] = excl.get(name, 0.0)
        m["catalog.eval_named.repeat_share"] = _repeat_share(self.named_calls)
        m["catalog.outer_terms"] = self.outer_terms
        m["catalog.visible_term_share"] = self.visible_terms / self.outer_terms if self.outer_terms else 0.0
        m["bailey.verify_pair_relation.s"] = incl.get("bailey.verify_pair_relation", 0.0)
        for name in ("hecke.eval_blocks", "ideals.ideal_series", "ideals.sieve_counts", "ideals.canonical_reps"):
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.s"] = incl.get(name, 0.0)
        m["verify.reports"] = len(report_s)
        m["verify.self_s"] = sum(v for k, v in excl.items() if k.startswith("verify."))
        m["verify.report_s_max"] = max(report_s, default=0.0)
        m["verify.report_s_sum"] = sum(report_s)
        return m

    def write(self, path) -> None:
        """Write the spans, one column per field, gzip-compressed JSON."""
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "op_labels": self.op_labels,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _repeat_share(calls: list[tuple[str, int]]) -> float:
    """Share of calls whose id was already evaluated at a horizon >= theirs."""
    best: dict[str, int] = {}
    repeats = 0
    for key, order in calls:
        if best.get(key, -1) >= order:
            repeats += 1
        best[key] = max(best.get(key, -1), order)
    return repeats / len(calls) if calls else 0.0
