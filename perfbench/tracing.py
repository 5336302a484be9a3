"""Traced in-process run of the ``rulemine mine`` pipeline.

``mine`` calls the package's public functions in the order ``cli._cmd_mine``
does, with one span around each layer call. Its report must be byte-equal
to the CLI child's, which shows the traced pipeline is the one users run.
Work counters are computed afterwards from the public results, outside
every span, so they add nothing to the span times.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from rulemine import (
    CohortSelector,
    CohortSpec,
    DerivationConfig,
    MiningConfig,
    build_catalog,
    canonical_itemset,
    derive_items,
    drop_sparse_patients,
    filter_cohort,
    generate_candidates,
    generate_cohort,
    generate_rules,
    item_frequencies,
    mine_frequent,
    parse_patient_csv,
    project,
    select_features,
    serialize_patient_csv,
    union_features,
)
from rulemine.cli import build_parser, emit_report
from workloads import COHORT_SEED, MALE_FRACTION, MORTALITY, PAPER_PLANTED, Workload

MB = 1024 * 1024


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    # tracemalloc bytes at entry and the peak while open (memory mode only)
    mem_start: int = 0
    mem_peak: int = 0


@dataclass
class Tracer:
    """Collects spans in memory; ``memory=True`` records tracemalloc peaks.

    Timing and allocation tracing are separate passes so that tracemalloc's
    cost does not inflate the span times.
    """

    run_id: str
    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    _open: list[Span] = field(default_factory=list)

    def _fold_peak(self) -> None:
        # tracemalloc keeps one peak; fold it into every open span before
        # a nested span resets it
        peak = tracemalloc.get_traced_memory()[1]
        for s in self._open:
            s.mem_peak = max(s.mem_peak, peak)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, parent, self.run_id, 0.0)
        self.spans.append(s)
        if self.memory:
            self._fold_peak()
            tracemalloc.reset_peak()
            s.mem_start = tracemalloc.get_traced_memory()[0]
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if self.memory:
                self._fold_peak()
            self._open.pop()

    def duration(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child_time[s.id]
        return out

    def peak_mb(self) -> dict[str, float]:
        """Per span name: the largest allocation peak above the span's entry."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = max(out.get(s.name, 0.0), (s.mem_peak - s.mem_start) / MB)
        return out


def synth(wl: Workload, tr: Tracer) -> str:
    """The workload's cohort CSV, generated in process like ``rulemine synth``."""
    a, b, joint = PAPER_PLANTED
    spec = CohortSpec(
        n=wl.n,
        marginals={name: float(p) for name, p in wl.marginals},
        planted_pairs=[(a, b, float(joint))],
        mortality=float(MORTALITY),
        male_fraction=float(MALE_FRACTION),
        seed=COHORT_SEED,
    )
    with tr.span("synth.generate"):
        table = generate_cohort(spec)
    with tr.span("synth.serialize"):
        return serialize_patient_csv(table)


@dataclass
class MineResult:
    report: str
    counters: dict[str, int]


def mine(argv: list[str], tr: Tracer) -> MineResult:
    """Run ``rulemine mine`` with ``argv`` in process, one span per layer call."""
    parser, _ = build_parser()
    args = parser.parse_args(argv)
    with tr.span("cli.mine"):
        with tr.span("ingest.parse"):
            with open(args.input, encoding="utf-8") as fh:
                table = parse_patient_csv(fh.read())
        rows_parsed = len(table)
        with tr.span("ingest.filter_cohort"):
            table = filter_cohort(table, args.cohort)
        cfg = DerivationConfig(
            age_buckets_enabled=args.derive_age,
            include_sex=args.derive_sex,
            include_outcome=args.derive_outcome,
            include_lab=args.derive_lab,
        )
        with tr.span("ingest.derive"):
            catalog = build_catalog(table, cfg)
            ts = derive_items(table, cfg, catalog)
        symptom_ids = [catalog.id_of(c) for c in table.symptom_columns]

        if args.no_select:
            selected = symptom_ids
        else:
            with tr.span("features.select"):
                selected = select_features(
                    item_frequencies(project(ts, symptom_ids)), args.feature_threshold
                )
                if any(r.outcome is not None for r in table.rows):
                    with tr.span("ingest.filter_cohort"):
                        deceased = filter_cohort(table, CohortSelector("deceased"))
                    if deceased.rows:
                        with tr.span("ingest.derive"):
                            ts_dec = derive_items(deceased, cfg, catalog)
                        freq_dec = item_frequencies(project(ts_dec, symptom_ids))
                        selected = union_features(
                            selected,
                            select_features(freq_dec, args.feature_threshold_deceased),
                        )
            with tr.span("features.project"):
                derived_ids = [
                    catalog.id_of(name) for name in cfg.derived_names() if name in catalog
                ]
                ts = project(ts, selected + derived_ids)
        clinical = canonical_itemset(selected)

        # entered on every run so the stage is always timed; it only tests
        # the flag when --min-symptoms is unset
        n_before_sparse = ts.n_transactions
        with tr.span("ingest.sparse"):
            if args.min_symptoms is not None:
                ts = drop_sparse_patients(ts, clinical, args.min_symptoms)

        target = None
        if args.target_consequent:
            target = canonical_itemset(
                catalog.id_of(name.strip()) for name in args.target_consequent.split(",")
            )
        mcfg = MiningConfig(
            min_support=args.min_support,
            min_confidence=args.min_confidence,
            min_lift=args.min_lift,
            max_len=args.max_len,
            target_consequent=target,
        )
        with tr.span("apriori.mine"):
            fi = mine_frequent(ts, mcfg)
        with tr.span("rules.generate"):
            rs = generate_rules(fi, mcfg)
        with tr.span("cli.report"):
            report = emit_report(rs, catalog, args.format)

    levels = fi.max_level()
    candidates = sum(
        len(generate_candidates(fi.level(k - 1))) for k in range(2, levels + 2)
    )
    counters = {
        "ingest.rows_parsed": rows_parsed,
        "ingest.rows_dropped_sparse": n_before_sparse - ts.n_transactions,
        "features.selected": len(selected),
        "apriori.candidates": candidates,
        "apriori.frequent": len(fi.counts),
        "apriori.frequent_k2": sum(1 for z in fi.counts if len(z) >= 2),
        "apriori.levels": levels,
        "rules.enumerated": sum(2 ** len(z) - 2 for z in fi.counts if len(z) >= 2),
        "rules.emitted": len(rs),
        "cli.report_bytes": len(report.encode("utf-8")),
    }
    return MineResult(report, counters)
