"""Each oracle accepts a correct output and catches a corrupted one.

Run with ``python3 -m pytest perfbench/test_oracles.py``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

# -- ingest -------------------------------------------------------------------

EXPECTED = [
    ("/a", "created", "/a/f1", None),
    ("/b", "created", "/b/f2", None),
    ("/a", "created", "/a/.f3.tmp", None),
    ("/a", "moved", "/a/f3", "/a/.f3.tmp"),
    ("/b", "attrib", "/b/f2", None),
    ("/a", "deleted", "/a/f1", None),
]


def delivered_for(expected):
    """What a correct pipeline delivers: /a on MDT 0, /b on MDT 1."""
    return [
        (seq, 0 if d == "/a" else 1, kind, path, old)
        for seq, (d, kind, path, old) in enumerate(expected, start=1)
    ]


def test_ingest_accepts_correct_delivery():
    assert oracles.check_ingest(EXPECTED, delivered_for(EXPECTED)) == []


def test_ingest_catches_dropped_event():
    delivered = delivered_for(EXPECTED)
    del delivered[2]
    assert oracles.check_ingest(EXPECTED, delivered)


def test_ingest_catches_duplicated_event():
    delivered = delivered_for(EXPECTED)
    delivered.append((99,) + delivered[0][1:])
    assert oracles.check_ingest(EXPECTED, delivered)


def test_ingest_catches_mispathed_event():
    delivered = delivered_for(EXPECTED)
    seq, mdt, kind, _path, old = delivered[3]
    delivered[3] = (seq, mdt, kind, "/a/f4", old)
    assert oracles.check_ingest(EXPECTED, delivered)


def test_ingest_catches_mdt_reordering():
    delivered = delivered_for(EXPECTED)
    delivered[0], delivered[2] = (
        (1,) + delivered[2][1:],
        (3,) + delivered[0][1:],
    )
    assert oracles.check_ingest(EXPECTED, delivered)


# -- rules --------------------------------------------------------------------

TAP = [
    (1, "created", "/lab/t0/p0/x.h5", False),
    (2, "modified", "/lab/t0/p0/x.h5", False),
    (3, "created", "/lab/t1/y.dat", False),
]
FILTERS = [
    ("/lab/t0", frozenset({"created", "modified"}), "*.h5", True),
    ("/lab", frozenset({"created"}), "*", True),
]


def frame(seq: int, path: str) -> bytes:
    payload = json.dumps({"shard": None, "seq": seq, "event": {"path": path}})
    data = payload.encode()
    assert len(data) < 126
    return bytes([0x81, len(data)]) + data


def correct_frames():
    return [
        [frame(1, "/lab/t0/p0/x.h5"), frame(2, "/lab/t0/p0/x.h5")],
        [frame(1, "/lab/t0/p0/x.h5"), frame(3, "/lab/t1/y.dat")],
    ]


def test_frames_accept_correct_fanout():
    errors, nbytes = oracles.check_frames(FILTERS, TAP, correct_frames())
    assert errors == [] and nbytes > 0


def test_frames_catch_dropped_frame():
    frames = correct_frames()
    frames[1].pop()
    assert oracles.check_frames(FILTERS, TAP, frames)[0]


def test_frames_catch_mispathed_frame():
    frames = correct_frames()
    frames[0][1] = frame(2, "/lab/t0/p0/other.h5")
    assert oracles.check_frames(FILTERS, TAP, frames)[0]


def test_stream_catches_duplicate():
    expected = Counter((kind, path) for _s, kind, path, _d in TAP)
    assert oracles.check_stream(expected, TAP) == []
    assert oracles.check_stream(expected, TAP + [(4,) + TAP[0][1:]])


def test_emails_catch_missing_email():
    rules = [(("/lab/t0", frozenset({"created"}), "*", False), "t0@lab")]
    want = oracles.predict_emails(rules, TAP)
    assert want == Counter({("t0@lab", "/lab/t0/p0/x.h5"): 1})
    assert oracles.check_emails(want, [("t0@lab", "/lab/t0/p0/x.h5")]) == []
    assert oracles.check_emails(want, [])


def test_checksums_catch_wrong_digest():
    sizes = {"/lab/t0/p0/x.h5": 4096}
    want = Counter({(7, "/lab/t0/p0/x.h5"): 1})
    good = [(7, "/lab/t0/p0/x.h5", oracles.zero_digest(4096))]
    assert oracles.check_checksums(want, good, sizes) == []
    bad = [(7, "/lab/t0/p0/x.h5", oracles.zero_digest(4095))]
    assert oracles.check_checksums(want, bad, sizes)


# -- durable ------------------------------------------------------------------

WRITTEN = ["/d/f1", "/d/f2", "/d/f3"]
PAGED = [("shard0", 10, "/d/f1"), ("shard0", 11, "/d/f2"), ("shard0", 12, "/d/f3")]


def test_pages_accept_contiguous_history():
    assert oracles.check_pages(WRITTEN, PAGED) == []


def test_pages_catch_skip_and_duplicate():
    assert oracles.check_pages(WRITTEN, [PAGED[0], PAGED[2]])
    assert oracles.check_pages(WRITTEN, PAGED + [PAGED[2]])


def test_query_and_recovery_catch_differences():
    assert oracles.check_query(WRITTEN, list(reversed(WRITTEN))) == []
    assert oracles.check_query(WRITTEN, WRITTEN[:2])
    delivered = [(10, "/d/f1"), (11, "/d/f2")]
    assert oracles.check_recovery(delivered, delivered, 100) == []
    assert oracles.check_recovery(delivered, delivered[:1], 100)
    assert oracles.check_recovery(delivered, [(10, "/d/f1"), (11, "/d/fX")], 100)


def test_recovery_allows_compaction_outside_the_retention_window():
    delivered = [(seq, f"/d/f{seq}") for seq in range(1, 11)]
    assert oracles.check_recovery(delivered, delivered[-4:], 4) == []
    assert oracles.check_recovery(delivered, delivered[-3:], 4)
    assert oracles.check_recovery(delivered, delivered[-5:-1], 4)


# -- model --------------------------------------------------------------------


def test_model_accepts_paper_figures():
    assert oracles.check_model("AWS", 1, 1052.6, 22.95) == []
    assert oracles.check_model("Iota", 1, 8163.2, 14.90) == []
    assert oracles.check_model("Iota", 2, 9590.0, 0.1) == []


def test_model_catches_out_of_tolerance_rate():
    assert oracles.check_model("Iota", 1, 8162.0 * 1.06, 14.91)
    assert oracles.check_model("AWS", 1, 1053.0, 24.5)
    assert oracles.check_model("Iota", 2, 9000.0, 6.0)


# -- failure counts -------------------------------------------------------------


def failed_by_kind(failures):
    counts = Counter()
    for failure in failures:
        assert failure.count >= 1
        counts[failure.kind] += failure.count
    return counts


def test_failures_count_the_operations_that_failed():
    delivered = delivered_for(EXPECTED)
    del delivered[2]
    assert failed_by_kind(oracles.check_ingest(EXPECTED, delivered)) == {
        "records": 1
    }
    frames = correct_frames()
    frames[1].pop()
    errors, _nbytes = oracles.check_frames(FILTERS, TAP, frames)
    assert failed_by_kind(errors) == {"frames": 1}
    assert failed_by_kind(oracles.check_emails(Counter({("a", "/p"): 2}), [])) == {
        "actions": 2
    }
    assert failed_by_kind(oracles.check_pages(WRITTEN, [PAGED[0], PAGED[2]])) == {
        "records": 1, "pages": 1
    }
    assert failed_by_kind(oracles.check_query(WRITTEN, [])) == {"queries": 1}


def test_model_round_fails_once_whatever_it_misses():
    failures = oracles.check_model("AWS", 1, 1053.0 * 1.2, 30.0)
    assert failed_by_kind(failures) == {"model_rounds": 1}
