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
from .graph_metrics import BoundExceededError, MetricsSummary, metrics
from .measure_space import ATOMIC, INTERVAL, AtomicSpace, IntervalSpace
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
    clique_bound: int = 128
    chromatic_bound: int = 128
    dominating_bound: int = 128
    iso_budget: int = 200_000
    output: str = "json"                     # json | text
    only: str | None = None                  # run a single check id

    def __post_init__(self):
        if self.backend not in (ATOMIC, INTERVAL):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.weights not in ("unit", "random-positive"):
            raise ValueError(f"unknown weights policy {self.weights!r}")
        if not 1 <= self.atoms_min <= self.atoms_max:
            raise ValueError("need 1 <= atoms_min <= atoms_max")
        if self.alphabet < 2:
            raise ValueError("alphabet must be at least 2")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.max_cycle_len < 3:
            raise ValueError("max_cycle_len must be at least 3")
        bad = [s for s in self.suites if s not in SUITES]
        if bad:
            raise ValueError(f"unknown suites {bad}")
        bad = [k for k in self.kinds if k not in KIND_NAMES]
        if bad:
            raise ValueError(f"unknown kinds {bad}")

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
    suite: str
    backend: str                  # atomic | interval
    kind: str | None              # graph kind gate, or None
    fn: Callable
    n_min: int = 2
    n_max: int | None = None
    oracle_capped: bool = False
    per_mode: bool = False
    alphabets: tuple[int, ...] = ()
    needs_k3: str | None = None   # skip reason when the alphabet is below 3
    label: str = "n={n} k={k} expanded"
    skip_label: str = "n={n} k={k}"

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


def register(check_id: str, suite: str, backend: str = ATOMIC, kind: str | None = None,
             **domain):
    """Decorator adding one check, with its :class:`CheckDef` domain fields,
    to the global registry."""
    def wrap(fn):
        if check_id in REGISTRY:
            raise ValueError(f"duplicate check id {check_id}")
        REGISTRY[check_id] = CheckDef(check_id, suite, backend, kind, fn, **domain)
        return fn
    return wrap


def make_weights(n: int, policy: str, seed) -> tuple[Fraction, ...]:
    if policy == "unit":
        return tuple(Fraction(1) for _ in range(n))
    rng = random.Random(f"weights:{seed}:{n}")
    return tuple(Fraction(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(n))


class RunContext:
    """Per-run caches for spaces, graphs and metrics."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self._spaces: dict[tuple, AtomicSpace] = {}
        self._graphs: dict[tuple, Graph] = {}
        self._metrics: dict[tuple, MetricsSummary] = {}
        self._interval_space = IntervalSpace()
        self._interval_classes: list[ZClass] | None = None

    def space(self, n: int, policy: str | None = None) -> AtomicSpace:
        policy = policy or self.config.weights
        key = (n, policy)
        if key not in self._spaces:
            self._spaces[key] = AtomicSpace(make_weights(n, policy, self.config.seed))
        return self._spaces[key]

    @property
    def interval_space(self) -> IntervalSpace:
        return self._interval_space

    def interval_classes(self) -> list[ZClass]:
        if self._interval_classes is None:
            self._interval_classes = sample_interval_classes(
                self.config.seed, self.config.sample_count)
        return self._interval_classes

    def graph(self, n: int, kind: GraphKind, mode: str,
              alphabet: int | None = None, policy: str | None = None) -> Graph:
        key = (n, kind, mode, alphabet, policy or self.config.weights)
        if key not in self._graphs:
            self._graphs[key] = build_graph(self.space(n, policy), kind, mode,
                                            alphabet=alphabet)
        return self._graphs[key]

    def graph_metrics(self, g: Graph) -> MetricsSummary:
        key = (g.kind, g.mode, g.alphabet,
               g.space.n_atoms if isinstance(g.space, AtomicSpace) else None,
               g.space)
        if key not in self._metrics:
            self._metrics[key] = metrics(g)
        return self._metrics[key]


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


def _repro(config: SuiteConfig, check_id: str, n: int | None) -> str:
    atoms = f"{n}..{n}" if n is not None else f"{config.atoms_min}..{config.atoms_max}"
    cmd = (f"mrfgraph verify --backend {config.backend} --atoms {atoms} "
           f"--alphabet {config.alphabet} --weights {config.weights} --seed {config.seed} "
           f"--only {check_id}")
    if config.backend == INTERVAL:
        cmd += f" --samples {config.sample_count}"
    return cmd


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
    """Run one check over its domain: one entry per instance, in order."""
    config = ctx.config
    if check.needs_k3 is not None and config.alphabet < 3:
        return [_skip(check.id, "all", check.needs_k3)]
    if check.backend == INTERVAL:
        return [_entry(config, check.id, None, None, check.fn(ctx))]
    entries = []
    for n, mode, k in check.instances(config):
        try:
            outcome = check.fn(ctx, n, mode, k) if check.per_mode else check.fn(ctx, n, k)
        except BoundExceededError as exc:
            entries.append(_skip(check.id, check.skip_label.format(n=n, k=k), str(exc)))
            continue
        if mode is None:
            label = check.label.format(n=n, k=k)
        else:
            label = f"n={n} {mode}" + (f" k={k}" if k is not None else "")
        entries.append(_entry(config, check.id, label, n, outcome))
    return entries


def run_suite(config: SuiteConfig) -> Report:
    """Execute every applicable check and append a coverage self-audit."""
    ctx = RunContext(config)
    selected = applicable_checks(config)
    entries: list[ReportEntry] = []
    for check in selected:
        if check.kind is not None and check.kind not in config.kinds:
            entries.append(_skip(check.id, "all", f"kind {check.kind} not selected"))
            continue
        produced = _check_entries(check, ctx)
        if not produced:
            produced = [_skip(check.id, "none", "check produced no instances")]
        entries.extend(produced)
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


def render_report(report: Report, output: str | None = None) -> str:
    fmt = output or report.config.output
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text()
    raise ValueError(f"unknown output format {fmt!r}")
