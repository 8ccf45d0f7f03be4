"""wallclock-rng: clocks and unseeded/raw RNG inside deterministic modules.

The fault injector, chaos harness, and planner/replay paths promise bitwise
replay across threads, processes, and PYTHONHASHSEED values.  That promise
dies the moment a decision reads the wall clock or an RNG stream that is not
derived from the experiment seed:

* ``time.time()`` / ``datetime.now()`` — wall clock in a decision;
* ``random.*`` — the global Mersenne Twister, seeded from the OS;
* ``np.random.default_rng(...)`` (or legacy ``np.random.*`` draws) built
  outside :func:`repro.common.rng.derive_rng` — a raw seed is sometimes
  intentional (explicit int hyperparameters on ML models), but each such
  site must say so with a pragma.

``time.perf_counter`` / ``process_time`` are allowlisted: telemetry and
latency deadlines measure durations, they do not decide replayable outcomes.
:mod:`repro.common.rng` itself is exempt — it is the blessed wrapper.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import Finding, ModuleContext, Rule

#: Exact dotted names that read the wall clock.
_WALLCLOCK_CALLS = (
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.today",
    "datetime.datetime.utcnow",
    "datetime.date.today",
)
#: Modules whose attribute calls are flagged wholesale.
_RNG_MODULE_PREFIXES = ("random.", "numpy.random.")
#: Modules exempt from the rule (the blessed derivation wrapper itself).
_EXEMPT_MODULES = ("repro.common.rng",)


class WallClockRngRule(Rule):
    name = "wallclock-rng"
    description = (
        "wall-clock or non-derived RNG inside a deterministic module; route "
        "randomness through repro.common.rng.derive_rng and keep clocks out "
        "of replayable decisions (perf_counter telemetry is allowlisted)"
    )
    default_scope = (
        "repro.serving",
        "repro.common.chaos",
        "repro.optimizer",
        "repro.ml",
        "repro.core",
        "repro.execution",
        "repro.workload",
        "repro.experiments",
        "repro.reference",
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.module in _EXEMPT_MODULES:
            return ()
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imports.resolve(node.func)
            if dotted is None:
                continue
            if dotted in _WALLCLOCK_CALLS:
                findings.append(
                    ctx.finding(
                        node,
                        self.name,
                        f"{dotted}() reads the wall clock inside a "
                        "deterministic module; decisions must replay from "
                        "the seed (perf_counter telemetry is allowed)",
                    )
                )
                continue
            for prefix in _RNG_MODULE_PREFIXES:
                if dotted.startswith(prefix):
                    if dotted == "numpy.random.default_rng":
                        message = (
                            "np.random.default_rng outside "
                            "repro.common.rng.derive_rng; derive child "
                            "generators by name (derive_rng/RngFactory) or "
                            "pragma-justify the intentional raw seed"
                        )
                    else:
                        message = (
                            f"{dotted}() draws from a stream not derived "
                            "from the experiment seed; use "
                            "repro.common.rng.derive_rng"
                        )
                    findings.append(ctx.finding(node, self.name, message))
                    break
        return findings
