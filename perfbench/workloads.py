"""Set-up, the three workloads, their correctness checks and their metrics.

One client in one process runs each workload closed loop: the next
statement starts when the previous one has finished and been checked.
Every workload repeats whole cycles of its stream (see ``streams``) after
one untimed warm-up cycle, so that every run measures the same statement
mix.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

from verity import cli
from verity.errors import TamperDetected, VerityError
from verity.fingerprint import row_id
from verity.fixtures import SF_PRESETS, generate_fixture
from verity.ledger import decode_block
from verity.values import Value

import streams
from oracle import Oracle, decimal_text, digest
from tracer import LAYER_METRICS, Tracer, instrument

WORKLOADS = ("read", "write", "cold_start")
# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("stmts_per_s", "1/s"),
    ("tuples_per_s", "1/s"),
    ("ledger_bytes_per_tx", "B/tx"),
    ("peak_rss_mb", "MB"),
]
# prefix of the workload's own latency names in the printed report
LATENCY_PREFIX = {"read": "read", "write": "write", "cold_start": "open"}
FIXTURE_PRESET = "0.001"
PEERS = 5
# One set-up costs about 10 s at SF 0.001; two per run keep the whole
# benchmark inside its time budget while still reporting a median.
SETUP_REPEATS = 2
# A run is a fixed number of cycles, about --seconds long at SF 0.001 on
# the machine the benchmark was defined on (README.md), so that a faster
# program runs the same statements and its percentiles stay comparable.
CYCLE_SECONDS = {"read": 5.0, "write": 1.2, "cold_start": 0.9}
# The write workload's tail falls among its range UPDATEs, two per cycle.
# Eleven cycles give 176 mutations, 22 of them range UPDATEs, so the tail
# percentile (ten samples beyond it) sits in the middle of that group.
MIN_CYCLES = {"read": 1, "write": 11, "cold_start": 1}
# Times are scaled to a nominal host speed (see SpeedProbe): the host this
# runs on changes speed by up to 2x within seconds. PROBE_NOMINAL_S is about
# the probe loop's time on the machine the benchmark was defined on. The
# loop slows down more than verity does when the host is contended; scaling
# by its slowdown to the power PROBE_EXPONENT left the least drift between
# two sets of ten runs of each workload (README.md).
PROBE_INTERVAL_S = 0.01
PROBE_MARGIN_S = 0.02
PROBE_LOOPS = 200
PROBE_NOMINAL_S = 75e-6
PROBE_EXPONENT = 0.75
TAMPERS_PER_CYCLE = 2
TAMPER_TEXT = "tampered by the benchmark"
_CHECKED_RE = re.compile(r"(\d+) tuple\(s\) checked")


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    end_to_end: dict = field(default_factory=dict)  # name -> value
    per_layer: dict = field(default_factory=dict)   # name -> value; traced runs only
    notes: list = field(default_factory=list)       # human-readable report lines

    @property
    def metrics(self) -> list[tuple[str, float, str]]:
        """(name, value, unit) of the reported metrics: the per-layer ones
        of a traced run, else the end-to-end ones."""
        if self.per_layer:
            return [(n, self.per_layer[n], u) for n, u in LAYER_METRICS]
        return [(n, self.end_to_end[n], u) for n, u in END_TO_END]

    def as_json(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, v, u in self.metrics},
        }


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``verity <argv>`` in process, with stdout and stderr sent to a sink."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def write_config(state_dir: str) -> str:
    path = os.path.join(state_dir, "verity.conf")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"ddl = schema.sql\ncsv_dir = .\nledger = ledger.dat\npeers = {PEERS}\n")
    return path


def init_state(fixture_dir: str, state_dir: str) -> float:
    """Copy the fixture to ``state_dir`` and run ``verity init`` there.
    Returns the seconds ``init`` took: loading the CSVs, bootstrapping the
    ledger, and persisting the ledger and the peer keys."""
    shutil.rmtree(state_dir, ignore_errors=True)
    shutil.copytree(fixture_dir, state_dir)
    conf = write_config(state_dir)
    t0 = perf_counter()
    rc, _, err = run_cli(["--config", conf, "init"])
    elapsed = perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"verity init failed ({rc}): {err.strip()}")
    return elapsed


def ledger_bytes_per_tx(path: str) -> float:
    """Ledger file bytes per transaction the file holds."""
    with open(path, "rb") as f:
        data = f.read()
    i = txs = 0
    while i < len(data):
        size = int.from_bytes(data[i:i + 4], "big")
        txs += len(decode_block(data[i + 4:i + 4 + size]).txs)
        i += 4 + size + 32
    return len(data) / txs


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the highest whole
    percentile with at least ten samples beyond it, by nearest rank. Below
    twenty samples no percentile above the median qualifies, and the
    median is reported."""
    n = len(samples)
    pct = max(50, 100 * (n - 10) // n)
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(samples)[rank - 1], pct, n - rank


class Sample(NamedTuple):
    """One statement that completed correctly."""

    kind: str
    seconds: float        # wall time at the nominal host speed
    raw_seconds: float    # wall time as measured
    tuples: int           # verified base tuples: checked plus inserted


class SpeedProbe:
    """Samples how fast the host runs, from a SIGALRM interval timer whose
    handler times PROBE_LOOPS iterations of a fixed loop of the kind verity
    runs (small tuples, strings and dict stores) that calls no verity code.
    No thread or process is started; the handler runs between bytecodes of
    whatever is executing, so it samples the speed a statement actually
    runs at. Garbage collection is off inside the loop, so a collection the
    program owes never lands in a sample. It costs about 1% of the time it
    covers. A statement's wall time is divided by ``slowdown`` over it."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        seen = {}
        for i in range(PROBE_LOOPS):
            key = (i, str(i))
            seen[key[1]] = hash(key)
        elapsed = perf_counter() - t0
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.seconds.append(elapsed)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than nominal verity ran from start to end: the
        median sample within PROBE_MARGIN_S of that interval over
        PROBE_NOMINAL_S, to the power PROBE_EXPONENT."""
        window = self.seconds[bisect.bisect_left(self.starts, start - PROBE_MARGIN_S):
                              bisect.bisect_right(self.starts, end + PROBE_MARGIN_S)]
        if not window:
            return 1.0
        return (statistics.median(window) / PROBE_NOMINAL_S) ** PROBE_EXPONENT


class Runner:
    """One workload over one set of post-init files. Subclasses give the
    cycle of statements and how to run and check one of them."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self.sql_of: list[str] = []  # statement text by operation id
        self.probe_seconds: list[float] = []  # every SpeedProbe sample

    def cycle(self) -> list[streams.Stmt]:
        raise NotImplementedError

    def execute(self, stmt: streams.Stmt) -> tuple[float, int, bool]:
        """Run one statement: (seconds, verified tuples, output correct)."""
        raise NotImplementedError

    def before(self, position: int, stmt: streams.Stmt):
        """Untimed work ahead of the statement at ``position`` of a cycle."""

    def finish(self):
        """Untimed checks after the last cycle."""

    def fail(self, what: str):
        self.failures.append(what)

    def timed(self, work):
        tr = self.tracer
        if tr is None:
            t0 = perf_counter()
            out = work()
            return perf_counter() - t0, out
        tr.on, tr.stmt = True, len(self.sql_of) - 1
        try:
            t0 = perf_counter()
            out = tr.call("bench.op", True, work)
            return perf_counter() - t0, out
        finally:
            tr.on = False

    def run_cycles(self, cycles: int) -> list[Sample]:
        """Run whole cycles; returns a sample for every statement that
        completed correctly."""
        done = []
        with SpeedProbe() as probe:
            for _ in range(cycles):
                for position, stmt in enumerate(self.cycle()):
                    self.before(position, stmt)
                    self.attempted += 1
                    self.sql_of.append(stmt.sql)
                    start = perf_counter()
                    try:
                        seconds, tuples, ok = self.execute(stmt)
                    except VerityError as exc:
                        self.fail(f"{stmt.sql}: {type(exc).__name__}: {exc}")
                        continue
                    if not ok:
                        self.fail(f"wrong result: {stmt.sql}")
                        continue
                    done.append((stmt.kind, start, seconds, tuples))
        self.probe_seconds += probe.seconds
        return [
            Sample(kind, seconds / probe.slowdown(start, start + seconds), seconds, tuples)
            for kind, start, seconds, tuples in done
        ]


class ReadRunner(Runner):
    """Verified SELECTs on an in-memory session, checked against sqlite,
    with seeded tamper probes between them."""

    def __init__(self, seed: int, conf: str, fixture_dir: str):
        super().__init__(seed)
        oracle = Oracle(fixture_dir)
        try:
            self.stmts = streams.read_cycle(oracle.shape(), seed)
            self.expected = {s.sql: oracle.expected(s) for s in self.stmts}
            self.positions = {s.sql: oracle.key_positions(s.tables) for s in self.stmts}
        finally:
            oracle.close()
        rng = random.Random(f"tamper:{seed}")
        targets = [i for i, s in enumerate(self.stmts) if s.tamper]
        self.tamper_at = set(rng.sample(targets, min(TAMPERS_PER_CYCLE, len(targets))))
        self.session = cli.open_session(cli.SessionConfig.from_file(conf))

    def cycle(self):
        return self.stmts

    def _correct(self, stmt, rows) -> bool:
        count, want = self.expected[stmt.sql]
        if stmt.kind == "agg":
            return len(rows) == 1 and decimal_text(rows[0][0].raw) == want
        keys = self.positions[stmt.sql]
        return len(rows) == count and digest(
            tuple(row[i].raw for i in keys) for row in rows) == want

    def execute(self, stmt):
        seconds, (rows, report) = self.timed(lambda: self.session.verifier.process(stmt.sql))
        return seconds, report.tuples_checked, self._correct(stmt, rows)

    def before(self, position, stmt):
        if position in self.tamper_at:
            self.tamper_probe(stmt)

    def tamper_probe(self, stmt):
        """Edit a tuple the statement reads behind the gateway's back; the
        statement must raise TamperDetected naming exactly that row, and a
        clean rerun after the restore must pass."""
        table, key = stmt.tamper
        column = streams.TAMPER_COLUMN[table]
        db = self.session.db
        pk = tuple(Value.integer(v) for v in key)
        old = db.get_row(table, pk).values[db.catalog.get(table).col_index(column)]
        db.raw_mutate(table, pk, column, Value.text(TAMPER_TEXT))
        self.attempted += 1
        try:
            self.session.verifier.process(stmt.sql)
            self.fail(f"missed tamper alert: {table} {key} under {stmt.sql}")
        except TamperDetected as exc:
            named = [a.row_id for a in exc.alerts]
            if named != [row_id(pk, table)]:
                self.fail(f"tamper alert named {named} for {table} {key}")
        finally:
            db.raw_mutate(table, pk, column, old)
        self.attempted += 1
        try:
            rows, _ = self.session.verifier.process(stmt.sql)
        except VerityError as exc:
            self.fail(f"false alert after restoring {table} {key}: {exc}")
        else:
            if not self._correct(stmt, rows):
                self.fail(f"wrong result after restoring {table} {key}")


class WriteRunner(Runner):
    """A long-lived session over a scratch copy of the post-init files, run
    as ``verity repl`` runs one: each statement is verified, and a mutated
    table's CSV is written back before the next statement."""

    def __init__(self, seed: int, conf: str, fixture_dir: str):
        super().__init__(seed)
        oracle = Oracle(fixture_dir)
        try:
            self.shape = oracle.shape()
        finally:
            oracle.close()
        self.conf = conf
        self.session = cli.open_session(cli.SessionConfig.from_file(conf))
        self.cycles = 0

    def cycle(self):
        stmts = streams.write_cycle(self.shape, self.seed, self.cycles)
        self.cycles += 1
        return stmts

    def execute(self, stmt):
        session = self.session

        def work():
            payload, report = session.verifier.process(stmt.sql)
            if stmt.is_mutation:
                session.writeback(payload.table)
            return payload, report

        seconds, (payload, report) = self.timed(work)
        if stmt.is_mutation:
            ok = payload.rows_affected == stmt.expect
            inserted = report.tuples_mutated if stmt.kind == "insert" else 0
            return seconds, report.tuples_checked + inserted, ok
        return seconds, report.tuples_checked, len(payload) == stmt.expect

    def finish(self):
        """Audit the live session and a session reopened from the files."""
        reopened = cli.open_session(cli.SessionConfig.from_file(self.conf))
        for name, session in (("live", self.session), ("reopened", reopened)):
            self.attempted += 1
            verifier = session.verifier
            mismatches = verifier.audit_counts()
            alerts, missing = verifier.audit_full()
            chain = session.ledger.verify_chain()
            if mismatches or alerts or missing or not chain.ok:
                self.fail(f"{name} session audit: {len(mismatches)} count mismatch(es), "
                          f"{len(alerts)} alert(s), {len(missing)} missing row(s), "
                          f"chain ok={chain.ok}")


class ColdStartRunner(Runner):
    """``verity exec`` of one small SELECT against the post-init files, in
    process through ``cli.main``: every operation loads the CSVs and the
    ledger from scratch."""

    def __init__(self, seed: int, conf: str):
        super().__init__(seed)
        self.conf = conf
        self.stmts = streams.cold_cycle()

    def cycle(self):
        return self.stmts

    def execute(self, stmt):
        argv = ["--config", self.conf, "exec", stmt.sql]
        seconds, (rc, out, err) = self.timed(lambda: run_cli(argv))
        checked = _CHECKED_RE.search(err)
        ok = rc == 0 and f"({stmt.expect} rows)" in out and checked is not None
        return seconds, int(checked.group(1)) if checked else 0, ok


def _runner(workload: str, seed: int, work_dir: str, fixture_dir: str) -> Runner:
    state = os.path.join(work_dir, "state")
    conf = os.path.join(state, "verity.conf")
    if workload == "read":
        return ReadRunner(seed, conf, fixture_dir)
    if workload == "write":
        scratch = os.path.join(work_dir, "write")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(state, scratch)
        return WriteRunner(seed, write_config(scratch), fixture_dir)
    return ColdStartRunner(seed, conf)


def latency_figures(workload: str, done: list[Sample], raw: bool = False) -> dict:
    """p50, tail and rates over the samples, at the reference host speed or,
    with ``raw``, as measured. Write latency counts mutations only."""
    secs = [d.raw_seconds if raw else d.seconds for d in done]
    lat = [s for s, d in zip(secs, done)
           if workload != "write" or d.kind in streams.MUTATION_KINDS]
    busy = sum(secs)
    value, pct, beyond = tail(lat) if lat else (0.0, 0, 0)
    return {
        "p50_ms": statistics.median(lat) * 1000 if lat else 0.0,
        "tail_ms": value * 1000,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "samples": len(lat),
        "busy_s": busy,
        "stmts_per_s": len(done) / busy if busy else 0.0,
        "tuples_per_s": sum(d.tuples for d in done) / busy if busy else 0.0,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work_dir: str,
                 fixture_seed: int = 42, counts: dict | None = None,
                 trace_path: str | None = None) -> Result:
    """Run one workload and return its metrics: the end-to-end ones, or with
    ``trace`` the per-layer ones from a traced pass. ``counts`` overrides the
    SF 0.001 table sizes (the tests use a tiny database)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    fixture_dir = os.path.join(work_dir, "fixture")
    state_dir = os.path.join(work_dir, "state")
    shutil.rmtree(fixture_dir, ignore_errors=True)
    generate_fixture(fixture_dir, counts=counts or SF_PRESETS[FIXTURE_PRESET], seed=fixture_seed)

    setup_tracer = Tracer()
    if trace:
        with instrument(setup_tracer):
            setup_tracer.on = True
            init_state(fixture_dir, state_dir)
            setup_tracer.on = False
        setups = []
    else:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            with SpeedProbe() as probe:
                start = perf_counter()
                raw_setups.append(init_state(fixture_dir, state_dir))
            setups.append(raw_setups[-1] / probe.slowdown(start, perf_counter()))

    runner = _runner(workload, seed, work_dir, fixture_dir)
    origin = perf_counter()
    runner.run_cycles(1)                                   # warm-up, untimed
    warm = perf_counter() - origin
    cycles = max(MIN_CYCLES[workload], round(seconds / CYCLE_SECONDS[workload]))
    gc.collect()
    done = runner.run_cycles(cycles)
    result = Result()
    if trace:
        result.per_layer, result.notes = _traced_pass(runner, cycles, done, trace_path, origin)
        result.per_layer["verifier.bootstrap_s"] = setup_tracer.total["verifier.bootstrap"]
    runner.finish()

    fig = latency_figures(workload, done)
    raw = latency_figures(workload, done, raw=True)
    ledger_path = os.path.join(work_dir, "write" if workload == "write" else "state",
                               "ledger.dat")
    result.end_to_end = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "p50_ms": fig["p50_ms"],
        "tail_ms": fig["tail_ms"],
        "stmts_per_s": fig["stmts_per_s"],
        "tuples_per_s": fig["tuples_per_s"],
        "ledger_bytes_per_tx": ledger_bytes_per_tx(ledger_path),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    prefix = LATENCY_PREFIX[workload]
    result.notes[:0] = [
        f"workload {workload}, seed {seed}: {cycles} timed cycle(s) after a "
        f"{warm:.2f} s warm-up cycle, {len(done)} statements in {raw['busy_s']:.2f} s",
        f"host speed: probe loop median {statistics.median(runner.probe_seconds) * 1e6:.2f} us "
        f"over {len(runner.probe_seconds)} samples against {PROBE_NOMINAL_S * 1e6:.2f} us "
        "nominal",
        f"{prefix}_p50_ms = {fig['p50_ms']:.3f} ms (median of {fig['samples']} samples; "
        f"{raw['p50_ms']:.3f} ms as measured)",
        f"{prefix}_tail_ms = {fig['tail_ms']:.3f} ms (p{fig['tail_pct']}, "
        f"{fig['tail_beyond']} of {fig['samples']} samples beyond it; "
        f"{raw['tail_ms']:.3f} ms as measured)",
        f"stmts_per_s as measured = {raw['stmts_per_s']:.4f}, "
        f"tuples_per_s as measured = {raw['tuples_per_s']:.2f}",
    ] + ([f"setup_s = {result.end_to_end['setup_s']:.3f} s (median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.3f}" for s in setups) + "; as measured: "
          + ", ".join(f"{s:.3f}" for s in raw_setups) + ")"] if setups else [])
    result.attempted = runner.attempted
    result.failed = len(runner.failures)
    result.notes.append(
        f"error_rate = {result.failed / max(result.attempted, 1):.4f} "
        f"({result.failed} of {result.attempted} operations failed)")
    result.notes += [f"FAILED: {f}" for f in runner.failures[:20]]
    return result


def _traced_pass(runner: Runner, cycles: int, done: list[Sample], trace_path: str | None,
                 origin: float) -> tuple[dict, list[str]]:
    """Run the timed cycles again with every layer wrapped. Returns the
    per-layer metrics and report lines."""
    tracer = Tracer()
    runner.tracer = tracer
    first_op = len(runner.sql_of)
    gc.collect()
    with instrument(tracer):
        traced = runner.run_cycles(cycles)
    runner.tracer = None
    layer = tracer.layer_metrics(len(runner.sql_of) - first_op)
    traced_rate = latency_figures("", traced)["stmts_per_s"]
    untraced_rate = latency_figures("", done)["stmts_per_s"]
    layer["trace.overhead_pct"] = (untraced_rate / traced_rate - 1) * 100 if traced_rate else 0.0
    if tracer.mismatches:
        runner.fail(f"{tracer.mismatches} wrapped time(s) exceed their report bucket")
    notes = [f"traced {len(traced)} operations; tracing overhead "
             f"{layer['trace.overhead_pct']:.1f}% of untraced stmts_per_s"]
    # the slowest statements, and the share of each that storage execution took
    per_sql = {}
    for _, name, t0, t1, _, stmt in tracer.spans:
        if name in ("bench.op", "storage.exec_select"):
            row = per_sql.setdefault(runner.sql_of[stmt], {"bench.op": [], "storage.exec_select": []})
            row[name].append(t1 - t0)
    slowest = sorted(per_sql.items(), key=lambda kv: -statistics.mean(kv[1]["bench.op"]))
    for sql, row in slowest[:3]:
        op_s = sum(row["bench.op"])
        notes.append(f"traced {op_s / len(row['bench.op']) * 1000:.1f} ms, storage execution "
                     f"{sum(row['storage.exec_select']) / op_s * 100:.1f}%: {sql[:100]}")
    if trace_path:
        tracer.write(trace_path, origin)
        notes.append(f"spans written to {trace_path}")
    return layer, notes
