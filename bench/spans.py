"""Per-layer call tracing for the traced benchmark run.

The benchmark never edits the library: it replaces each traced function, in
every ``rfiqsdc`` namespace that binds it, with a timing wrapper, and puts the
originals back afterwards. Rebinding every namespace matters because ``cli``
imports the pipeline functions by name and ``decoy`` imports scipy's ``linprog``
by name; patching only the defining module records nothing for calls made
through ``cli.run``.

Spans are aggregated as they close instead of being stored: per span name the
call count, busy time and self time (busy time minus the time covered by
traced callees), and per (caller, callee) pair the call count. Times are CPU
time of the process, like the end-to-end times.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

PACKAGE = "rfiqsdc"

# The functions named by the per-layer metrics, plus the pipeline functions
# that call them, so that self time and caller attribution stay exact. Cheap
# helpers called hundreds of times per point (poisson_pn, pair_stats, ...) are
# left out: wrapping them would cost more than the work they do.
TRACED = (
    ("photonics", "ba_observed"),
    ("photonics", "bab_stats"),
    ("decoy", "linprog"),
    ("decoy", "solve_lp"),
    ("decoy", "estimate_bounds"),
    ("security", "eve_gains"),
    ("security", "secrecy_capacity"),
    ("pipeline", "evaluate_point"),
    ("pipeline", "optimize_mu"),
    ("pipeline", "scan"),
    ("pipeline", "max_attenuation"),
    ("cli", "run"),
    ("cli", "load_config"),
    ("cli", "write_csv"),
    ("cli", "write_summary"),
)


class Tracer:
    """Span aggregates for one traced pass over a workload."""

    def __init__(self):
        self.calls = Counter()
        self.busy_s = Counter()
        self.self_s = Counter()
        self.calls_by_caller = Counter()  # (caller span or None, span)
        self.errors = Counter()  # (span, exception type name)
        self.flagged_points = 0
        self.bisection_attenuations = set()
        self._stack = []  # open spans: [name, seconds covered by callees]

    def wrap(self, name, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            caller = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.process_time()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                elapsed = time.process_time() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.calls[name] += 1
                self.busy_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.calls_by_caller[caller, name] += 1
            self._observe(name, caller, args, kwargs, result)
            return result

        return traced

    def _observe(self, name, caller, args, kwargs, result):
        if name == "pipeline.evaluate_point" and result.flags:
            self.flagged_points += 1
        elif name == "pipeline.optimize_mu" and caller == "pipeline.max_attenuation":
            attenuation = kwargs["attenuation_db"] if "attenuation_db" in kwargs else args[1]
            self.bisection_attenuations.add(attenuation)

    def counts(self) -> dict:
        """Every count the pass produced; repeated passes must agree exactly."""
        return {
            "calls": dict(self.calls),
            "calls_by_caller": {f"{caller}>{name}": n for (caller, name), n in self.calls_by_caller.items()},
            "errors": {f"{name}:{kind}": n for (name, kind), n in self.errors.items()},
            "flagged_points": self.flagged_points,
            "bisection_attenuations": sorted(self.bisection_attenuations),
        }

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this pass: name -> (value, unit)."""

        def ms(counter, name):
            return 1e3 * counter[name]

        evals = self.calls["pipeline.evaluate_point"]
        opts = self.calls["pipeline.optimize_mu"]
        evals_in_opt = self.calls_by_caller["pipeline.optimize_mu", "pipeline.evaluate_point"]
        # the bracket ends 0 dB and atten_hi_db are probed before bisecting
        steps = max(len(self.bisection_attenuations) - 2, 0)
        return {
            "decoy.linprog.calls": (self.calls["decoy.linprog"], "count"),
            "decoy.lp_per_point": (self.calls["decoy.linprog"] / evals if evals else 0.0, "lp/point"),
            "decoy.linprog.ms": (ms(self.busy_s, "decoy.linprog"), "ms"),
            "decoy.estimate_bounds.ms": (ms(self.busy_s, "decoy.estimate_bounds"), "ms"),
            "decoy.estimate_bounds.self_ms": (ms(self.self_s, "decoy.estimate_bounds"), "ms"),
            "decoy.solve_lp.self_ms": (ms(self.self_s, "decoy.solve_lp"), "ms"),
            "decoy.infeasible": (self.errors["decoy.solve_lp", "InfeasibleError"], "count"),
            "pipeline.evaluate_point.calls": (evals, "count"),
            "pipeline.evaluate_point.self_ms": (ms(self.self_s, "pipeline.evaluate_point"), "ms"),
            "pipeline.optimize_mu.calls": (opts, "count"),
            "pipeline.evals_per_opt": (evals_in_opt / opts if opts else 0.0, "evals/opt"),
            "pipeline.bisection_steps": (steps, "count"),
            "pipeline.flagged_frac": (self.flagged_points / evals if evals else 0.0, "fraction"),
            "photonics.ba_observed.ms": (ms(self.busy_s, "photonics.ba_observed"), "ms"),
            "photonics.bab_stats.ms": (ms(self.busy_s, "photonics.bab_stats"), "ms"),
            "security.eve_gains.ms": (ms(self.busy_s, "security.eve_gains"), "ms"),
            "security.secrecy_capacity.ms": (ms(self.busy_s, "security.secrecy_capacity"), "ms"),
            "cli.run.self_ms": (ms(self.self_s, "cli.run"), "ms"),
            "cli.load_config.ms": (ms(self.busy_s, "cli.load_config"), "ms"),
            "cli.write_csv.ms": (ms(self.busy_s, "cli.write_csv"), "ms"),
            "cli.write_summary.ms": (ms(self.busy_s, "cli.write_summary"), "ms"),
        }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Bind ``tracer``'s wrappers in every loaded ``rfiqsdc`` module, then restore.

    A traced name that the library no longer defines is skipped; its metrics
    then read zero.
    """
    modules = [
        module for name, module in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    saved = []
    for layer, func_name in TRACED:
        original = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), func_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(f"{layer}.{func_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
