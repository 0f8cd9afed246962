"""In-memory spans around the public functions of each epioverlap layer.

A traced run wraps the functions in TARGETS for the duration of a
``with tracer.installed():`` block and restores them afterwards; an untraced
run never installs anything. Where a module imported a function by name
(``from .triples import find_conjugate_basis``), the copy in that module is
wrapped too, so calls are seen whichever name the caller uses.

Each span records its name, phase ("setup" or "timed"), start, end, the
span that was open when it began, and the run id. A layer is the module that
defines the function, and its self time is the span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("qstate", "mub", "triples", "bounds", "d3cert", "ontomodel",
          "expsim", "json_io", "cli")

# (defining module, attribute path) of every wrapped function
TARGETS = (
    ("cli", "main"),
    ("d3cert", "run_certificate"),
    ("d3cert", "optimize_all_triples"),
    ("d3cert", "certify_k"),
    ("triples", "find_conjugate_basis"),
    ("triples", "full_measurement"),
    ("mub", "generate_mub"),
    ("expsim", "design_from_mubs"),
    ("expsim", "run_experiment"),
    ("expsim", "aggregate_eps"),
    ("expsim", "experimental_k_bound"),
    ("bounds", "noisy_bound"),
    ("qstate", "Measurement.probabilities"),
    ("qstate", "random_state"),
    ("qstate", "random_unitary"),
    ("qstate", "basis_measurement"),
    ("qstate", "quantum_overlap"),
    ("ontomodel", "ks_model_d2"),
    ("ontomodel", "born_check"),
    ("ontomodel", "overlap_pair"),
    ("ontomodel", "verify_overlap_inequality"),
    ("json_io", "dumps"),
)

# span name -> attributes taken from a call's arguments and result
RECORDERS = {
    "triples.find_conjugate_basis": lambda args, result: {
        "restarts_used": result.restarts_used, "converged": result.converged},
    "expsim.run_experiment": lambda args, result: {"channel": args[1].channel.kind},
    "json_io.dumps": lambda args, result: {"bytes": len(result.encode())},
}

PACKAGE = "epioverlap"


class Tracer:
    """Records spans in memory; ``installed()`` wraps TARGETS while open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        # each span: [name, phase, start, end, parent index or None, attrs]
        self.spans: list = []
        self._open: list = []
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, open_spans = self.spans, self._open
        record = RECORDERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.phase, 0.0, None,
                    open_spans[-1] if open_spans else None, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_spans.pop()
            if record is not None:
                span[5] = record(args, result)
            return result

        return wrapper

    def _install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, path in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{module_name}.{path}", original)
            self._patch(owner, attr, original, wrapper)
            if not outer:
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for index, (name, phase, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run_id": self.run_id, "id": index, "parent": parent,
                    "name": name, "phase": phase, "start": start, "end": end,
                    **(attrs or {}),
                }) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _durations(spans, name, phase):
    return [end - start for n, p, start, end, _, _ in spans if n == name and p == phase]


def _ms(values, pick):
    return 1e3 * pick(values) if values else 0.0


def _search_metrics(spans, phase, prefix):
    searches = [s for s in spans
                if s[0] == "triples.find_conjugate_basis" and s[1] == phase]
    ms = _durations(spans, "triples.find_conjugate_basis", phase)
    converged = sum(1 for s in searches if s[5]["converged"])
    return {
        f"{prefix}triples.search.count": (len(searches), "count"),
        f"{prefix}triples.search.busy_s": (sum(ms), "s"),
        f"{prefix}triples.search.ms.p50": (_ms(ms, statistics.median), "ms"),
        f"{prefix}triples.search.ms.max": (_ms(ms, max), "ms"),
        f"{prefix}triples.restarts_used": (
            sum(s[5]["restarts_used"] for s in searches), "count"),
        f"{prefix}triples.converged_ratio": (
            converged / len(searches) if searches else 0.0, "ratio"),
    }


def counts(spans, phase="timed") -> dict:
    """The deterministic counts of one phase, for comparison with outputs."""
    def named(name):
        return [s for s in spans if s[0] == name and s[1] == phase]

    runs = {i for i, s in enumerate(spans) if s[0] == "expsim.run_experiment"}
    searches = named("triples.find_conjugate_basis")
    return {
        "triples.search.count": len(searches),
        "triples.restarts_used": sum(s[5]["restarts_used"] for s in searches),
        "expsim.settings_sampled": sum(
            1 for s in named("qstate.Measurement.probabilities") if s[4] in runs),
        "ontomodel.born_check.count": len(named("ontomodel.born_check")),
        "json_io.bytes": sum(s[5]["bytes"] for s in named("json_io.dumps")),
    }


def per_layer_metrics(spans, import_s: float, overhead_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit).

    Unprefixed metrics cover the timed section; ``setup.`` metrics and the
    design and MUB timings cover set-up, where noise_sweep runs its searches.
    """
    own = self_times(spans)

    def busy(name, phase="timed"):
        return sum(_durations(spans, name, phase))

    def self_of(name, phase):
        return sum(own[i] for i, s in enumerate(spans) if s[0] == name and s[1] == phase)

    runs_by_channel: dict = {"depolarizing": [], "misalignment": []}
    for name, phase, start, end, _, attrs in spans:
        if name == "expsim.run_experiment" and phase == "timed":
            runs_by_channel.setdefault(attrs["channel"], []).append(end - start)

    found = counts(spans)
    metrics = {}
    metrics.update(_search_metrics(spans, "timed", ""))
    metrics.update({
        "d3cert.optimize_all_triples.self_s": (
            self_of("d3cert.optimize_all_triples", "timed"), "s"),
        "d3cert.certify_k.s": (busy("d3cert.certify_k"), "s"),
        "expsim.design.s": (busy("expsim.design_from_mubs", "setup"), "s"),
        "expsim.design.self_s": (self_of("expsim.design_from_mubs", "setup"), "s"),
        "mub.generate_mub.s": (
            busy("mub.generate_mub", "setup") + busy("mub.generate_mub"), "s"),
        "expsim.run_experiment.busy_s": (busy("expsim.run_experiment"), "s"),
        "expsim.run_experiment.depolarizing.ms.p50": (
            _ms(runs_by_channel["depolarizing"], statistics.median), "ms"),
        "expsim.run_experiment.misalignment.ms.p50": (
            _ms(runs_by_channel["misalignment"], statistics.median), "ms"),
        "expsim.settings_sampled": (found["expsim.settings_sampled"], "count"),
        "qstate.probabilities.busy_s": (busy("qstate.Measurement.probabilities"), "s"),
        "expsim.aggregate_eps.busy_s": (busy("expsim.aggregate_eps"), "s"),
        "bounds.experimental_k_bound.busy_s": (busy("expsim.experimental_k_bound"), "s"),
        "json_io.dumps.busy_s": (busy("json_io.dumps"), "s"),
        "json_io.bytes": (found["json_io.bytes"], "bytes"),
        "ontomodel.born_check.count": (found["ontomodel.born_check.count"], "count"),
        "ontomodel.born_check.busy_s": (busy("ontomodel.born_check"), "s"),
        "ontomodel.overlap_pair.busy_s": (busy("ontomodel.overlap_pair"), "s"),
        "ontomodel.verify_overlap_inequality.s": (
            busy("ontomodel.verify_overlap_inequality"), "s"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })

    def layer_self(layer, phase):
        return sum(own[i] for i, s in enumerate(spans)
                   if s[1] == phase and s[0].split(".", 1)[0] == layer)

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self(layer, "timed"), "s")
    metrics.update(_search_metrics(spans, "setup", "setup."))
    for layer in ("triples", "qstate", "expsim"):
        metrics[f"setup.{layer}.self_s"] = (layer_self(layer, "setup"), "s")
    return metrics
