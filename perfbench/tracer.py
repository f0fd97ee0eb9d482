"""Spans around verity's layer boundaries, recorded from outside ``src/``.

``instrument`` swaps wrappers in for the public entry points of every
module and restores the originals on exit. Two kinds of binding need
patching: functions that ``verity.verifier`` and ``verity.cli`` imported by
name (patching only the defining module would leave their copies
unwrapped) and methods, which are patched on the class.

Calls made once or a few times per statement become spans (name, start,
end, parent, statement id) kept in memory and written out at the end.
Calls made once per tuple or per signature (fingerprinting, ledger
lookups, Ed25519 sign and verify, storage row writes) are only counted and
timed, which keeps the wrappers' own cost and memory small.
Both kinds add their time to the enclosing call, so every layer's self
time (its time minus the time of the wrapped calls it made) is exact.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from verity import cli, ledger, parser, rewriter, storage, verifier

LAYERS = ("bench", "cli", "parser", "rewriter", "storage", "fingerprint", "verifier", "ledger")

# VerificationReport.elapsed bucket -> wrapped calls the verifier times in it
BUCKETS = {
    "parse": ("parser.parse",),
    "rewrite": ("rewriter.change_projection",),
    "db_exec": ("storage.exec_select", "rewriter.project_results", "storage.apply"),
    "ledger_commit": ("ledger.submit",),
}
# calls inside the ledger_lookup bucket; mutations also fingerprint outside it
LOOKUP_CALLS = ("fingerprint.fingerprint_tuple", "ledger.get_current")
EPSILON_S = 1e-6

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("storage.exec_select_ms", "ms/op"),
    ("storage.wide_rows", "rows/op"),
    ("storage.dump_csv_ms", "ms/op"),
    ("storage.dump_csv_bytes", "B/op"),
    ("storage.apply_ms", "ms/op"),
    ("storage.load_csv_ms", "ms/op"),
    ("fingerprint.calls", "calls/op"),
    ("fingerprint.tuple_us", "us/call"),
    ("verifier.tuples_checked", "tuples/op"),
    ("verifier.tuples_seen", "tuples/op"),
    ("verifier.useful_ratio", "ratio"),
    ("verifier.bootstrap_s", "s"),
    ("ledger.get_current_calls", "calls/op"),
    ("ledger.get_current_us", "us/call"),
    ("ledger.history_len_mean", "versions"),
    ("ledger.submit_ms", "ms/op"),
    ("ledger.txs_per_block", "tx/block"),
    ("ledger.sign_calls_per_tx", "calls/tx"),
    ("ledger.verify_calls_per_tx", "calls/tx"),
    ("ledger.append_bytes", "B/tx"),
    ("ledger.load_ms", "ms/op"),
    ("ledger.decode_block_ms", "ms/op"),
    ("cli.open_session_ms", "ms/op"),
    ("parser.parse_ms", "ms/op"),
    ("rewriter.change_projection_ms", "ms/op"),
    ("rewriter.project_results_ms", "ms/op"),
    ("rewriter.wide_columns", "cols/stmt"),
] + [(f"{layer}.self_ms", "ms/op") for layer in LAYERS] + [
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
]


class Tracer:
    """Collects spans and per-call totals while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.stmt = None            # id of the operation being traced
        self.spans = []             # (id, name, start, end, parent id, stmt)
        self._stack = []            # open calls: [child seconds, span id]
        self._next_id = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.bucket_s = 0.0         # reconciliation against the report buckets
        self.wrapped_s = 0.0
        self.mismatches = 0

    def call(self, name: str, span: bool, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1][1] if stack else None
        sid = parent
        if span:
            sid = self._next_id
            self._next_id += 1
        frame = [0.0, sid]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][0] += dur
            self.calls[name] += 1
            self.total[name] += dur
            self.self_s[name] += dur - frame[0]
            if span:
                self.spans.append((sid, name, t0, t1, parent, self.stmt))

    def count(self, name: str, value: float):
        if self.on:
            self.counts[name] += value

    def reconcile(self, report, before: dict):
        """Check one statement's wrapped times against its own report.

        Every wrapped call sits inside the verifier's bucket timer, so it can
        never exceed its bucket; the gap between the two is time the wrappers
        do not see."""
        def wrapped(names):
            return sum(self.total[n] - before.get(n, 0.0) for n in names)

        for bucket, names in BUCKETS.items():
            spent, timed = wrapped(names), report.elapsed[bucket]
            self.bucket_s += timed
            self.wrapped_s += spent
            if spent > timed + EPSILON_S:
                self.mismatches += 1
        if report.query_kind is not None and report.query_kind.name == "SELECT":
            if wrapped(LOOKUP_CALLS) > report.elapsed["ledger_lookup"] + EPSILON_S:
                self.mismatches += 1

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer figures over ``ops`` traced operations. Times and counts
        are per operation, per call or per transaction, as their unit says,
        so runs of different length compare."""
        ops = max(ops, 1)
        calls, total, counts = self.calls, self.total, self.counts

        def ms_per_op(*names):
            return sum(total[n] for n in names) * 1000 / ops

        def ratio(num, den):
            return num / den if den else 0.0

        fp_calls = calls["fingerprint.fingerprint_tuple"] + calls["fingerprint.fingerprint"]
        fp_time = total["fingerprint.fingerprint_tuple"] + total["fingerprint.fingerprint"]
        txs = counts["ledger.txs"]
        out = {
            "storage.exec_select_ms": ms_per_op("storage.exec_select"),
            "storage.wide_rows": counts["storage.wide_rows"] / ops,
            "storage.dump_csv_ms": ms_per_op("storage.dump_csv"),
            "storage.dump_csv_bytes": counts["storage.dump_csv_bytes"] / ops,
            "storage.apply_ms": ms_per_op("storage.apply"),
            "storage.load_csv_ms": ms_per_op("storage.load_csv"),
            "fingerprint.calls": fp_calls / ops,
            "fingerprint.tuple_us": ratio(fp_time * 1e6, fp_calls),
            "verifier.tuples_checked": counts["verifier.tuples_checked"] / ops,
            "verifier.tuples_seen": counts["verifier.tuples_seen"] / ops,
            "verifier.useful_ratio": ratio(counts["verifier.tuples_checked"],
                                           counts["verifier.tuples_seen"]),
            "ledger.get_current_calls": calls["ledger.get_current"] / ops,
            "ledger.get_current_us": ratio(total["ledger.get_current"] * 1e6,
                                           calls["ledger.get_current"]),
            "ledger.history_len_mean": ratio(counts["ledger.history_len"],
                                             counts["ledger.records"]),
            "ledger.submit_ms": ms_per_op("ledger.submit"),
            "ledger.txs_per_block": ratio(txs, calls["ledger.submit"]),
            "ledger.sign_calls_per_tx": ratio(calls["ledger.sign"], txs),
            "ledger.verify_calls_per_tx": ratio(calls["ledger.verify"], txs),
            "ledger.append_bytes": ratio(counts["ledger.append_bytes"], txs),
            "ledger.load_ms": ms_per_op("ledger.load"),
            "ledger.decode_block_ms": ms_per_op("ledger.decode_block"),
            "cli.open_session_ms": ms_per_op("cli.open_session"),
            "parser.parse_ms": ms_per_op("parser.parse"),
            "rewriter.change_projection_ms": ms_per_op("rewriter.change_projection"),
            "rewriter.project_results_ms": ms_per_op("rewriter.project_results"),
            "rewriter.wide_columns": ratio(counts["rewriter.wide_columns"],
                                           calls["rewriter.change_projection"]),
            "trace.unattributed_pct": ratio((self.bucket_s - self.wrapped_s) * 100,
                                            self.bucket_s),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(
                s for n, s in self.self_s.items() if n.split(".", 1)[0] == layer
            ) * 1000 / ops
        return out

    def write(self, path: str, origin: float):
        """Write the spans, then one totals line per wrapped call, as JSON lines
        (times in ms from ``origin``)."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, t0, t1, parent, stmt in self.spans:
                f.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "stmt": stmt,
                    "start_ms": (t0 - origin) * 1000, "end_ms": (t1 - origin) * 1000,
                }) + "\n")
            for name in sorted(self.calls):
                f.write(json.dumps({
                    "total": name, "calls": self.calls[name],
                    "ms": self.total[name] * 1000, "self_ms": self.self_s[name] * 1000,
                }) + "\n")


@contextmanager
def instrument(tracer: Tracer):
    """Install wrappers that report to ``tracer``; restore verity on exit."""
    saved = []

    def patch(owner, attr, make):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def plain(name, span):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, span, fn, *args, **kwargs)
            return wrapper
        return make

    def change_projection(fn):
        @functools.wraps(fn)
        def wrapper(q, catalog):
            rw = tracer.call("rewriter.change_projection", True, fn, q, catalog)
            tracer.count("rewriter.wide_columns", len(rw.wide_query.projections))
            return rw
        return wrapper

    def exec_select(fn):
        @functools.wraps(fn)
        def wrapper(self, q):
            rows = tracer.call("storage.exec_select", True, fn, self, q)
            tracer.count("storage.wide_rows", len(rows))
            return rows
        return wrapper

    def dump_csv(fn):
        @functools.wraps(fn)
        def wrapper(self, table, stream, *args, **kwargs):
            start = stream.tell()
            tracer.call("storage.dump_csv", True, fn, self, table, stream, *args, **kwargs)
            tracer.count("storage.dump_csv_bytes", stream.tell() - start)
        return wrapper

    def get_current(fn):
        @functools.wraps(fn)
        def wrapper(self, row_id):
            rec = tracer.call("ledger.get_current", False, fn, self, row_id)
            if rec is not None:
                tracer.count("ledger.records", 1)
                tracer.count("ledger.history_len", len(rec.history))
            return rec
        return wrapper

    def submit(fn):
        @functools.wraps(fn)
        def wrapper(self, drafts, submitter):
            size = os.path.getsize(self.path) if self.path else 0
            block = tracer.call("ledger.submit", True, fn, self, drafts, submitter)
            tracer.count("ledger.txs", len(drafts))
            if self.path:
                tracer.count("ledger.append_bytes", os.path.getsize(self.path) - size)
            return block
        return wrapper

    def load(cm):
        fn = cm.__func__

        @functools.wraps(fn)
        def wrapper(cls, *args, **kwargs):
            return tracer.call("ledger.load", True, fn, cls, *args, **kwargs)
        return classmethod(wrapper)

    def process(fn):
        @functools.wraps(fn)
        def wrapper(self, sql_text, principal=None):
            if not tracer.on:
                return fn(self, sql_text, principal)
            before = dict(tracer.total)
            payload, report = tracer.call("verifier.process", True, fn, self, sql_text, principal)
            tracer.count("verifier.tuples_checked", report.tuples_checked)
            tracer.count("verifier.tuples_seen", report.tuples_seen)
            tracer.reconcile(report, before)
            return payload, report
        return wrapper

    # functions, patched in every module that calls them through its own binding
    patch(verifier, "parse", plain("parser.parse", True))
    patch(parser, "parse", plain("parser.parse", True))
    patch(verifier, "change_projection", change_projection)
    patch(rewriter, "change_projection", change_projection)
    patch(verifier, "project_results", plain("rewriter.project_results", True))
    patch(verifier, "fingerprint_tuple", plain("fingerprint.fingerprint_tuple", False))
    patch(verifier, "fingerprint", plain("fingerprint.fingerprint", False))
    patch(cli, "main", plain("cli.main", True))
    patch(cli, "open_session", plain("cli.open_session", True))
    patch(cli, "load_peers", plain("ledger.load_peers", True))
    patch(ledger, "decode_block", plain("ledger.decode_block", False))
    # methods, patched on the class
    patch(storage.Database, "exec_select", exec_select)
    patch(storage.Database, "load_csv", plain("storage.load_csv", True))
    patch(storage.Database, "dump_csv", dump_csv)
    for name in ("apply_row_insert", "apply_row_update", "apply_row_delete"):
        patch(storage.Database, name, plain("storage.apply", False))
    patch(ledger.SimulatedLedger, "get_current", get_current)
    patch(ledger.SimulatedLedger, "submit", submit)
    patch(ledger.SimulatedLedger, "load", load)
    patch(ledger.Peer, "sign", plain("ledger.sign", False))
    patch(ledger.Peer, "verify", plain("ledger.verify", False))
    patch(verifier.Verifier, "process", process)
    patch(verifier.Verifier, "bootstrap", plain("verifier.bootstrap", True))
    patch(cli.Session, "writeback", plain("cli.writeback", True))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
