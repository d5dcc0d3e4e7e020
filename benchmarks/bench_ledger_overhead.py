"""Observatory ledger append cost — logging a run must stay negligible.

Appends a realistic stream of bench records (the full suite's result
rows, provenance, a verdict attachment) to a fresh ledger and measures
the per-append CPU cost, fsync included.  The ledger hangs off every
``profile``/``sweep``/``congest`` invocation, so an append has to be
orders of magnitude cheaper than the run it describes; the hard gate
asserts the whole stream costs less than a second of CPU and the chain
it leaves behind verifies clean.

Wall-clock throughput is host-dependent and therefore *published* (the
human-readable table) but not *recorded*: the recorded metrics are the
deterministic facts of the stream — records written, bytes per record
— which CI can baseline without flakiness.
"""

import os
import tempfile
import time

from conftest import once

from repro.analysis import render_table
from repro.bench.results import BenchResult
from repro.observatory.ledger import Ledger

_APPENDS = 200
_ROWS_PER_RECORD = 12


def _rows(i: int) -> list[dict]:
    return [
        BenchResult(
            "latency", f"metric_{m}", 162.0 + i + m, "ns", "lower",
            {"hops": m},
        ).to_dict()
        for m in range(_ROWS_PER_RECORD)
    ]


def _measure():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        ledger = Ledger(path)
        start = time.process_time()
        for i in range(_APPENDS):
            ledger.append(
                "bench", f"bench 4x4x4 #{i}", metrics=_rows(i),
                provenance={"hostname": "bench", "source_fingerprint": "x"},
                attachments={"verdict": {"ok": True, "compared": 0}},
            )
        cpu_s = time.process_time() - start
        records = ledger.read()
        problems = ledger.verify()
        size = os.path.getsize(path)
    return cpu_s, len(records), problems, size


def bench_ledger_overhead(benchmark, publish, record):
    cpu_s, n_records, problems, size = once(benchmark, _measure)

    assert n_records == _APPENDS, "every append must land"
    assert problems == [], f"chain must verify clean: {problems}"

    per_append_us = cpu_s / _APPENDS * 1e6
    bytes_per_record = size / _APPENDS
    publish("ledger_overhead", render_table(
        "Observatory ledger append cost "
        f"({_APPENDS} bench records, {_ROWS_PER_RECORD} metric rows each)",
        ["appends", "cpu ms total", "cpu us/append", "bytes/record"],
        [[_APPENDS, f"{cpu_s * 1e3:.1f}", f"{per_append_us:.0f}",
          f"{bytes_per_record:.0f}"]],
    ))
    record("ledger_overhead", "records_written", float(n_records),
           "records", better="higher", rows_per_record=_ROWS_PER_RECORD)
    record("ledger_overhead", "bytes_per_record", bytes_per_record,
           "bytes", rows_per_record=_ROWS_PER_RECORD)
    # The CPU cost is host-dependent (published above); the hard gate
    # is generous and exists to catch the append path blowing up —
    # e.g. a full chain re-verification sneaking into every append.
    assert cpu_s < 1.0, (
        f"{_APPENDS} ledger appends cost {cpu_s:.2f}s CPU; appends must "
        "stay negligible next to the runs they describe"
    )
