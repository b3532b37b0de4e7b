"""Suite runner: instantiate spaces, replay every structural fact as an
executable check, and emit deterministic machine/human-readable reports.

A run is fully determined by its :class:`SuiteConfig`; identical configs
produce byte-identical reports.  Every registered check that applies to a
config must contribute at least one entry, and the runner appends a final
self-audit entry that fails if any applicable check went missing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable

from .graph_build import Graph, GraphKind, build_graph
from .graph_metrics import SOLVER_BOUND, BoundExceededError, MetricsSummary, metrics
from .isomorphism import ISO_BUDGET
from .measure_space import ATOMIC, INTERVAL, AtomicSpace
from .vertex_universe import ZClass, sample_interval_classes

SUITES = ("measure_core", "comaximal", "zero_divisor", "annihilator",
          "weakly_zd", "quotient", "iso")
KIND_NAMES = tuple(k.value for k in GraphKind)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class SuiteConfig:
    """Everything that determines a verification run."""

    backend: str = "atomic"                  # atomic | interval
    atoms_min: int = 2
    atoms_max: int = 5
    weights: str = "unit"                    # unit | random-positive
    alphabet: int = 3                        # k for expanded-mode checks
    kinds: tuple[str, ...] = KIND_NAMES
    suites: tuple[str, ...] = SUITES
    sample_count: int = 100
    seed: int = 7
    max_cycle_len: int = 8
    oracle_atoms_max: int = 4
    clique_bound: int = SOLVER_BOUND
    chromatic_bound: int = SOLVER_BOUND
    dominating_bound: int = SOLVER_BOUND
    iso_budget: int = ISO_BUDGET
    output: str = "json"                     # json | text
    only: str | None = None                  # run a single check id

    def __post_init__(self):
        for f in fields(self):  # the int fields, known by their defaults
            value = getattr(self, f.name)
            if type(f.default) is int and type(value) is not int:
                raise TypeError(f"{f.name} must be an integer, got {value!r}")
        if self.backend not in (ATOMIC, INTERVAL):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.weights not in ("unit", "random-positive"):
            raise ValueError(f"unknown weights policy {self.weights!r}")
        if self.output not in ("json", "text"):
            raise ValueError(f"unknown output format {self.output!r}")
        if not 1 <= self.atoms_min <= self.atoms_max:
            raise ValueError("need 1 <= atoms_min <= atoms_max")
        if self.alphabet < 2:
            raise ValueError("alphabet must be at least 2")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.max_cycle_len < 3:
            raise ValueError("max_cycle_len must be at least 3")
        for name in ("clique_bound", "chromatic_bound", "dominating_bound", "iso_budget"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")
        for name in ("suites", "kinds"):
            if isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a list of names, got {getattr(self, name)!r}")
        if not self.suites:
            raise ValueError("suites must name at least one suite")
        bad = [s for s in self.suites if s not in SUITES]
        if bad:
            raise ValueError(f"unknown suites {bad}")
        bad = [k for k in self.kinds if k not in KIND_NAMES]
        if bad:
            raise ValueError(f"unknown kinds {bad}")
        if self.only is not None and not applicable_checks(self):
            raise ValueError(f"only={self.only!r} names no {self.backend}-backend check "
                             "in the selected suites")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        known = {f.name for f in fields(cls)}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown config keys {sorted(bad)}")
        coerced = {}
        for key, value in data.items():
            coerced[key] = tuple(value) if isinstance(value, list) else value
        return cls(**coerced)


@dataclass
class ReportEntry:
    check: str
    instance: str
    expected: str
    computed: str
    status: str
    note: str = ""
    witness: object = None
    repro: str = ""

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "instance": self.instance,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }
        if self.note:
            out["note"] = self.note
        if self.witness is not None:
            out["witness"] = self.witness
        if self.repro:
            out["repro"] = self.repro
        return out


@dataclass
class Report:
    config: SuiteConfig
    entries: list[ReportEntry]

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, SKIPPED: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(e.status == FAIL for e in self.entries)

    def coverage(self) -> dict[str, int]:
        cov: dict[str, int] = {}
        for e in self.entries:
            cov[e.check] = cov.get(e.check, 0) + 1
        return dict(sorted(cov.items()))

    def to_json(self) -> str:
        counts = self.counts()
        doc = {
            "config": self.config.to_dict(),
            "summary": {"pass": counts[PASS], "fail": counts[FAIL],
                        "skipped": counts[SKIPPED], "total": len(self.entries)},
            "coverage": self.coverage(),
            "entries": [e.to_dict() for e in self.entries],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        counts = self.counts()
        width = max((len(e.check) for e in self.entries), default=10)
        lines = [
            f"verification run: backend={self.config.backend} "
            f"atoms={self.config.atoms_min}..{self.config.atoms_max} "
            f"alphabet={self.config.alphabet} weights={self.config.weights} "
            f"seed={self.config.seed}",
            "",
        ]
        for e in self.entries:
            status = e.status.upper().ljust(7)
            lines.append(f"{status} {e.check.ljust(width)}  {e.instance}")
            if e.status != PASS:
                lines.append(f"        expected: {e.expected}")
                lines.append(f"        computed: {e.computed}")
                if e.note:
                    lines.append(f"        note: {e.note}")
                if e.repro:
                    lines.append(f"        repro: {e.repro}")
            elif e.note:
                lines.append(f"        note: {e.note}")
        lines.append("")
        lines.append(f"pass={counts[PASS]} fail={counts[FAIL]} "
                     f"skipped={counts[SKIPPED]} total={len(self.entries)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Outcome:
    """What one check instance found; the harness turns it into a report entry."""

    expected: object
    computed: object
    ok: bool
    witness: object = None
    note: str = ""
    instance: str | None = None   # replaces the label the harness derives


@dataclass(frozen=True)
class CheckDef:
    """One registered check and the domain of instances it runs on.

    An atomic check runs once per atom count n from ``n_min`` to ``n_max``
    (both clipped to the configured range, and to ``oracle_atoms_max`` when
    ``oracle_capped``) and, when ``per_mode``, once per mode at each n:
    ``fn(ctx, n, "quotient", None)``, then ``fn(ctx, n, "expanded", k)``.
    Otherwise it runs as ``fn(ctx, n, k)`` for k the configured alphabet plus
    any further ``alphabets``, ascending.  An interval check runs once, as
    ``fn(ctx)``.  Each call returns an :class:`Outcome`, or raises
    :class:`BoundExceededError` to skip its instance.
    """

    id: str
    suite: str                    # the id's prefix
    backend: str                  # atomic | interval
    kind: str | None              # the suite when it names a graph kind, else None
    fn: Callable
    n_min: int = 2
    n_max: int | None = None
    oracle_capped: bool = False
    per_mode: bool = False
    alphabets: tuple[int, ...] = ()
    needs_k3: str | None = None   # skip reason when the alphabet is below 3
    label: str = "n={n} k={k} expanded"
    skip_label: str = "n={n} k={k}"   # a per-mode check's label names its mode either way

    def instances(self, config: SuiteConfig):
        """``(n, mode, k)`` for every atomic instance, in report order."""
        hi = config.atoms_max if self.n_max is None else min(config.atoms_max, self.n_max)
        if self.oracle_capped:
            hi = min(hi, config.oracle_atoms_max)
        alphabets = sorted({config.alphabet, *self.alphabets})
        for n in range(max(config.atoms_min, self.n_min), hi + 1):
            if self.per_mode:
                yield n, "quotient", None
                yield n, "expanded", config.alphabet
            else:
                for k in alphabets:
                    yield n, None, k


REGISTRY: dict[str, CheckDef] = {}


def register(check_id: str, backend: str = ATOMIC, **domain):
    """Decorator adding one check, with its :class:`CheckDef` domain fields,
    to the global registry.  The suite is the id's prefix; a suite named
    after a graph kind gates on that kind."""
    suite = check_id.partition(".")[0]
    def wrap(fn):
        if check_id in REGISTRY:
            raise ValueError(f"duplicate check id {check_id}")
        REGISTRY[check_id] = CheckDef(check_id, suite, backend,
                                      suite if suite in KIND_NAMES else None, fn, **domain)
        return fn
    return wrap


def make_weights(n: int, policy: str, seed) -> tuple[Fraction, ...]:
    if policy == "unit":
        return tuple(Fraction(1) for _ in range(n))
    rng = random.Random(f"weights:{seed}:{n}")
    return tuple(Fraction(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(n))


class RunContext:
    """Per-run caches for spaces, graphs and metrics, all under the run's
    weight policy."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self._spaces: dict[int, AtomicSpace] = {}
        self._graphs: dict[tuple, Graph] = {}
        self._metrics: dict[int, tuple[Graph, MetricsSummary]] = {}
        self._interval_classes: list[ZClass] | None = None

    def space(self, n: int) -> AtomicSpace:
        if n not in self._spaces:
            self._spaces[n] = AtomicSpace(make_weights(n, self.config.weights, self.config.seed))
        return self._spaces[n]

    def interval_classes(self) -> list[ZClass]:
        if self._interval_classes is None:
            self._interval_classes = sample_interval_classes(
                self.config.seed, self.config.sample_count)
        return self._interval_classes

    def graph(self, n: int, kind: GraphKind, mode: str, alphabet: int | None = None) -> Graph:
        key = (n, kind, mode, alphabet)
        if key not in self._graphs:
            self._graphs[key] = build_graph(self.space(n), kind, mode, alphabet=alphabet)
        return self._graphs[key]

    def graph_metrics(self, g: Graph) -> MetricsSummary:
        """Metrics cached per graph object, keyed by ``id(g)`` so that a
        lookup never hashes the rows; the entry holds ``g``, so its id cannot
        be reused while it is cached."""
        entry = self._metrics.get(id(g))
        if entry is None:
            entry = self._metrics[id(g)] = (g, metrics(g))
        return entry[1]


def applicable_checks(config: SuiteConfig) -> list[CheckDef]:
    from . import checks  # noqa: F401  (populates REGISTRY on first import)

    out = []
    for check in REGISTRY.values():
        if check.backend != config.backend:
            continue
        if check.suite not in config.suites:
            continue
        if config.only is not None and check.id != config.only:
            continue
        out.append(check)
    return out


# Repro-line flags for non-default settings; oracle_atoms_max has no flag.
_REPRO_FLAGS = {"max_cycle_len": "--max-cycle-len", "iso_budget": "--budget", "kinds": "--kinds",
                "clique_bound": "--clique-bound", "chromatic_bound": "--chromatic-bound",
                "dominating_bound": "--dominating-bound"}


def _repro(config: SuiteConfig, check_id: str, n: int | None) -> str:
    """Command line that reruns one failing check instance."""
    if config.backend == INTERVAL:
        line = f"mrfgraph sample --samples {config.sample_count} --seed {config.seed}"
    else:
        atoms = f"{n}..{n}" if n is not None else f"{config.atoms_min}..{config.atoms_max}"
        line = (f"mrfgraph verify --atoms {atoms} --alphabet {config.alphabet} "
                f"--weights {config.weights} --seed {config.seed}")
    default = SuiteConfig()
    for name, flag in _REPRO_FLAGS.items():
        value = getattr(config, name)
        if value != getattr(default, name):
            line += f" {flag} {','.join(value) if isinstance(value, tuple) else value}"
    return f"{line} --only {check_id}"


def _entry(config: SuiteConfig, check_id: str, instance: str | None, n: int | None,
           outcome: Outcome) -> ReportEntry:
    return ReportEntry(
        check=check_id,
        instance=outcome.instance or instance,
        expected=str(outcome.expected),
        computed=str(outcome.computed),
        status=PASS if outcome.ok else FAIL,
        note=outcome.note,
        witness=outcome.witness,
        repro="" if outcome.ok else _repro(config, check_id, n),
    )


def _skip(check_id: str, instance: str, reason: str) -> ReportEntry:
    return ReportEntry(check=check_id, instance=instance, expected="",
                       computed="", status=SKIPPED, note=reason)


def _check_entries(check: CheckDef, ctx: RunContext) -> list[ReportEntry]:
    """Every entry one check contributes: one ``all`` skip when its kind is
    not selected or it needs k >= 3, else one entry per instance, in order,
    or one ``none`` skip when its domain is empty."""
    config = ctx.config
    if check.kind is not None and check.kind not in config.kinds:
        return [_skip(check.id, "all", f"kind {check.kind} not selected")]
    if check.needs_k3 is not None and config.alphabet < 3:
        return [_skip(check.id, "all", check.needs_k3)]
    if check.backend == INTERVAL:
        try:
            return [_entry(config, check.id, None, None, check.fn(ctx))]
        except BoundExceededError as exc:
            return [_skip(check.id, "all", str(exc))]
    entries = []
    for n, mode, k in check.instances(config):
        if mode is None:
            label, skip_label = check.label.format(n=n, k=k), check.skip_label.format(n=n, k=k)
        else:
            label = skip_label = f"n={n} {mode}" + (f" k={k}" if k is not None else "")
        try:
            outcome = check.fn(ctx, n, mode, k) if check.per_mode else check.fn(ctx, n, k)
        except BoundExceededError as exc:
            entries.append(_skip(check.id, skip_label, str(exc)))
            continue
        entries.append(_entry(config, check.id, label, n, outcome))
    return entries or [_skip(check.id, "none", "check produced no instances")]


def run_suite(config: SuiteConfig) -> Report:
    """Execute every applicable check and append a coverage self-audit."""
    ctx = RunContext(config)
    selected = applicable_checks(config)
    entries = [e for check in selected for e in _check_entries(check, ctx)]
    if config.only is None:
        expected_ids = sorted(c.id for c in selected)
        present = {e.check for e in entries}
        missing = [cid for cid in expected_ids if cid not in present]
        entries.append(ReportEntry(
            check="harness.coverage_complete",
            instance=f"{len(expected_ids)} applicable checks",
            expected="every applicable check reports",
            computed="complete" if not missing else f"missing: {missing}",
            status=PASS if not missing else FAIL,
        ))
    return Report(config, entries)


def render_report(report: Report) -> str:  # in the config's validated output format
    return report.to_json() if report.config.output == "json" else report.to_text()
