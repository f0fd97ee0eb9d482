"""Benchmark harness: repeated verified execution with per-phase timings.

Each query runs against throwaway clones of storage and ledger, so mutating
statements are repeatable; a run's wall time covers the whole verified
pipeline. Besides the per-query records the harness fits end-to-end time
against effective tuple count: the gateway's core performance property is
that this relationship is linear, with constant per-tuple lookup cost.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from .parser import parse
from .sqlast import QueryKind, classify, has_nested_select
from .verifier import Verifier

KIND_LETTER = {
    QueryKind.SELECT: "S",
    QueryKind.INSERT: "I",
    QueryKind.UPDATE: "U",
    QueryKind.DELETE: "D",
}


@dataclass
class BenchRecord:
    query_id: str
    kind_tag: str             # S, I, U, D; nested queries tagged e.g. "U(S)"
    tables: list[str]
    tuples_checked: int
    tuples_mutated: int
    tuples_effective: int
    mean_end_to_end: float
    min_end_to_end: float
    median_end_to_end: float
    per_tuple: float | None
    mean_ledger_lookup: float
    lookup_per_tuple: float | None
    mean_phases: dict | None = None

    def as_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "kind": self.kind_tag,
            "tables": self.tables,
            "tuples_checked": self.tuples_checked,
            "tuples_mutated": self.tuples_mutated,
            "tuples_effective": self.tuples_effective,
            "mean_end_to_end_s": self.mean_end_to_end,
            "min_end_to_end_s": self.min_end_to_end,
            "median_end_to_end_s": self.median_end_to_end,
            "per_tuple_s": self.per_tuple,
            "mean_ledger_lookup_s": self.mean_ledger_lookup,
            "lookup_per_tuple_s": self.lookup_per_tuple,
            "mean_phases_s": self.mean_phases,
        }


@dataclass
class LinearFit:
    slope: float
    intercept: float
    r2: float
    n_points: int


def effective_tuples(kind: QueryKind, checked: int, mutated: int) -> int:
    """Distinct tuples a query touched. Verified rows of UPDATE/DELETE are
    the mutated rows themselves, so only INSERT adds unseen tuples."""
    if kind is QueryKind.INSERT:
        return checked + mutated
    return checked


def kind_tag(q) -> str:
    tag = KIND_LETTER[classify(q)]
    if has_nested_select(q):
        tag += "(S)"
    return tag


def _timed_run(db, ledger, sql: str, principal: str = "peer-1"):
    """One verified run of ``sql`` against fresh clones of ``db`` and
    ``ledger``: (seconds, report). The clones are built and the garbage
    collected before the clock starts, and collection stays off until it
    stops, so a collection the cloning set off never lands inside the time
    of a short query."""
    v = Verifier(db.clone(), ledger.clone_in_memory(), principal)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _, report = v.process(sql)
        return time.perf_counter() - t0, report
    finally:
        if enabled:
            gc.enable()


def run_bench(db, ledger, queries: list[tuple[str, str]], runs: int = 5,
              principal: str = "peer-1") -> tuple[list[BenchRecord], LinearFit | None]:
    """Time every query ``runs`` times, after one warm-up run each.

    Runs go round by round over the queries, each round timing every query
    once, so a change in host speed during the benchmark falls on every
    query alike rather than on the few whose runs it overlaps."""
    times: list[list[float]] = [[] for _ in queries]
    phases: list[dict[str, list[float]]] = [{} for _ in queries]
    reports = [None] * len(queries)
    for round_no in range(runs + 1):
        for i, (_, sql) in enumerate(queries):
            dt, reports[i] = _timed_run(db, ledger, sql, principal)
            if round_no == 0:
                continue  # warm-up
            times[i].append(dt)
            for k, vsec in reports[i].elapsed.items():
                phases[i].setdefault(k, []).append(vsec)
    records = []
    for (qid, sql), t, ph, report in zip(queries, times, phases, reports):
        q = parse(sql)
        eff = effective_tuples(classify(q), report.tuples_checked, report.tuples_mutated)
        mean_t = statistics.fmean(t)
        mean_l = statistics.fmean(ph["ledger_lookup"])
        records.append(BenchRecord(
            query_id=qid,
            kind_tag=kind_tag(q),
            tables=report.tables_touched,
            tuples_checked=report.tuples_checked,
            tuples_mutated=report.tuples_mutated,
            tuples_effective=eff,
            mean_end_to_end=mean_t,
            min_end_to_end=min(t),
            median_end_to_end=statistics.median(t),
            per_tuple=mean_t / eff if eff else None,
            mean_ledger_lookup=mean_l,
            lookup_per_tuple=mean_l / report.tuples_checked if report.tuples_checked else None,
            mean_phases={k: statistics.fmean(v) for k, v in ph.items()},
        ))
    return records, fit_records(records)


def fit_records(records: list[BenchRecord]) -> LinearFit | None:
    """Least-squares fit of end-to-end time against effective tuples,
    excluding empty-result queries."""
    pts = [(r.tuples_effective, r.mean_end_to_end) for r in records if r.tuples_effective > 0]
    if len(pts) < 2:
        return None
    xs = [float(x) for x, _ in pts]
    ys = [y for _, y in pts]
    try:
        slope, intercept = statistics.linear_regression(xs, ys)
        r2 = statistics.correlation(xs, ys) ** 2
    except statistics.StatisticsError:
        return None
    return LinearFit(slope, intercept, r2, len(pts))


def parse_queries_file(text: str) -> list[tuple[str, str]]:
    """One query per non-empty line; ``#``/``--`` start comments. A line may
    carry an explicit id as ``id: sql``, otherwise queries are numbered."""
    out = []
    n = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("--"):
            continue
        n += 1
        qid = f"q{n:02d}"
        head, sep, rest = line.partition(":")
        if sep and head.replace("_", "").isalnum() and not head.lower().startswith(
            ("select", "insert", "update", "delete")
        ):
            qid, line = head.strip(), rest.strip()
        out.append((qid, line))
    return out
