"""Correctness oracles, one per workload, built apart from the program.

Each check takes plain tuples the benchmark recorded (its own operation
log on one side, what the program delivered on the other) and returns a
list of :class:`Failure`; an empty list means the output is correct.
A failure names the kind of operation that failed (the same kinds the
run counts as attempted: records, actions, frames, pages, queries,
model rounds) and how many of them, so every error the oracles find
also shows in the run's ``failed`` count.  Nothing here imports
repository code: the expected side is always computed from the
benchmark's own inputs or from a property the method must have, never
from a stored copy of earlier output.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from collections import Counter, defaultdict
from typing import Iterable, NamedTuple, Optional, Sequence

#: The paper's §5.2 figures (monitor rate in events/s, shortfall in %).
PAPER_MODEL = {"AWS": (1053.0, 22.9), "Iota": (8162.0, 14.91)}
MODEL_RATE_TOLERANCE = 0.05
MODEL_SHORTFALL_POINTS = 1.0
#: A configuration "keeps up" when it delivers within 2% of generation.
KEEPS_UP_PERCENT = 2.0

_MAX_REPORTED = 5


class Failure(NamedTuple):
    """*count* operations of *kind* came out wrong, as *detail* says."""

    kind: str
    count: int
    detail: str

    def __str__(self) -> str:
        return f"{self.count} {self.kind}: {self.detail}"


def _summarise(kind: str, label: str, items: Counter) -> list[Failure]:
    if not items:
        return []
    total = sum(items.values())
    shown = list(items.items())[:_MAX_REPORTED]
    return [Failure(kind, total, f"{label} e.g. {shown}")]


# ---------------------------------------------------------------------------
# ingest: every record delivered exactly once, with its path, in MDT order
# ---------------------------------------------------------------------------


def check_ingest(
    expected: Sequence[tuple[str, str, str, Optional[str]]],
    delivered: Sequence[tuple[int, int, str, str, Optional[str]]],
) -> list[Failure]:
    """Compare the operation log with what the consumer received.

    *expected* holds ``(directory, kind, path, old_path)`` per ChangeLog
    record in operation order; *delivered* holds ``(seq, mdt_index,
    kind, path, old_path)`` in delivery order.  Directories are never
    renamed, so a directory's records all live on one MDT and the
    per-MDT order of the operation log is the order the consumer must
    see.
    """
    errors: list[Failure] = []
    want = Counter((kind, path, old) for _d, kind, path, old in expected)
    got = Counter((kind, path, old) for _s, _m, kind, path, old in delivered)
    errors += _summarise("records", "missing", want - got)
    errors += _summarise("records", "unexpected or duplicated", got - want)
    seqs = [seq for seq, *_rest in delivered]
    backwards = sum(1 for a, b in zip(seqs, seqs[1:]) if b <= a)
    if backwards:
        errors.append(Failure(
            "records", backwards, "delivery seqs are not strictly increasing"
        ))
    dir_mdt: dict[str, int] = {}
    for _seq, mdt, _kind, path, _old in delivered:
        directory = path.rsplit("/", 1)[0]
        if dir_mdt.setdefault(directory, mdt) != mdt:
            errors.append(
                Failure("records", 1, f"directory {directory} seen on two MDTs")
            )
    want_by_mdt: dict[Optional[int], list] = defaultdict(list)
    for directory, kind, path, old in expected:
        want_by_mdt[dir_mdt.get(directory)].append((kind, path, old))
    got_by_mdt: dict[Optional[int], list] = defaultdict(list)
    for _seq, mdt, kind, path, old in delivered:
        got_by_mdt[mdt].append((kind, path, old))
    if not errors:
        for mdt, records in want_by_mdt.items():
            got_records = got_by_mdt.get(mdt, [])
            moved = sum(1 for a, b in zip(records, got_records) if a != b)
            if moved:
                errors.append(Failure(
                    "records", moved, f"MDT {mdt}: delivery order differs from log"
                ))
    return errors


# ---------------------------------------------------------------------------
# rules: a plain linear matcher predicts emails, frames and checksums
# ---------------------------------------------------------------------------


def under_prefix(path: str, prefix: str) -> bool:
    """The rule engine's documented prefix semantics, written out."""
    if prefix == "/":
        return True
    return path == prefix or path.startswith(prefix.rstrip("/") + "/")


def linear_match(
    spec: tuple[str, frozenset, str, bool], kind: str, path: str, is_dir: bool
) -> bool:
    """``spec`` = (prefix, kinds, name glob, include_directories)."""
    prefix, kinds, pattern, include_dirs = spec
    if kind not in kinds or (is_dir and not include_dirs):
        return False
    if not under_prefix(path, prefix):
        return False
    return fnmatch.fnmatchcase(path.rsplit("/", 1)[-1], pattern)


def check_stream(
    expected: Counter, tapped: Sequence[tuple[int, str, str, bool]]
) -> list[Failure]:
    """The monitor stream holds each predicted ``(kind, path)`` once."""
    got = Counter((kind, path) for _seq, kind, path, _d in tapped)
    errors = _summarise("records", "stream missing", expected - got)
    errors += _summarise(
        "records", "stream unexpected or duplicated", got - expected
    )
    seqs = [seq for seq, *_rest in tapped]
    repeats = len(seqs) - len(set(seqs))
    if repeats:
        errors.append(Failure("records", repeats, "stream repeats a seq"))
    return errors


def decode_frames(data: bytes) -> list[bytes]:
    """Split unmasked server-to-client WebSocket text frames (RFC 6455)."""
    payloads = []
    pos = 0
    while pos < len(data):
        first, second = data[pos], data[pos + 1]
        if first != 0x81 or second & 0x80:
            raise ValueError(f"not an unmasked final text frame: {first:#x}")
        length = second & 0x7F
        pos += 2
        if length == 126:
            length = int.from_bytes(data[pos : pos + 2], "big")
            pos += 2
        elif length == 127:
            length = int.from_bytes(data[pos : pos + 8], "big")
            pos += 8
        payloads.append(data[pos : pos + length])
        pos += length
    return payloads


def check_frames(
    filters: Sequence[tuple[str, frozenset, str, bool]],
    tapped: Sequence[tuple[int, str, str, bool]],
    frames: Sequence[Iterable[bytes]],
) -> tuple[list[Failure], int]:
    """Each subscriber got exactly the stream entries its filter selects.

    *frames* holds, per subscriber (same order as *filters*), the raw
    frames drained from its queue.  Returns the errors and the number
    of frame bytes seen.
    """
    errors: list[Failure] = []
    by_seq = {seq: path for seq, _kind, path, _d in tapped}
    nbytes = 0
    for index, (spec, queued) in enumerate(zip(filters, frames)):
        want = [
            seq
            for seq, kind, path, is_dir in tapped
            if linear_match(spec, kind, path, is_dir)
        ]
        got = []
        mispathed = 0
        for frame in queued:
            nbytes += len(frame)
            for payload in decode_frames(frame):
                message = json.loads(payload)
                seq = message["seq"]
                if message["event"]["path"] != by_seq.get(seq):
                    mispathed += 1
                got.append(seq)
        if mispathed:
            errors.append(Failure(
                "frames", mispathed, f"subscriber {index}: path differs from seq"
            ))
        if got != want:
            got_c, want_c = Counter(got), Counter(want)
            wrong = sum((got_c - want_c).values()) + sum((want_c - got_c).values())
            errors.append(Failure(
                "frames", max(wrong, 1),
                f"subscriber {index}: {len(got)} frames, {len(want)} predicted,"
                " or not in stream order",
            ))
    return errors, nbytes


def predict_emails(
    email_rules: Sequence[tuple[tuple[str, frozenset, str, bool], str]],
    tapped: Sequence[tuple[int, str, str, bool]],
) -> Counter:
    """(recipient, subject) per matching (rule, event); subject = path."""
    want: Counter = Counter()
    for _seq, kind, path, is_dir in tapped:
        for spec, recipient in email_rules:
            if linear_match(spec, kind, path, is_dir):
                want[(recipient, path)] += 1
    return want


def check_emails(
    want: Counter, outbox: Sequence[tuple[str, str]]
) -> list[Failure]:
    got = Counter(outbox)
    return _summarise("actions", "email missing", want - got) + _summarise(
        "actions", "email unexpected", got - want
    )


def zero_digest(size: int) -> str:
    """sha256 of a Lustre file's size-faithful zero bytes."""
    return hashlib.sha256(b"\x00" * size).hexdigest()


def check_checksums(
    want: Counter,
    results: Sequence[tuple[int, str, str]],
    sizes: dict[str, int],
) -> list[Failure]:
    """*results* = (rule id, source path, digest); *want* counts
    predicted (rule id, source path) pairs."""
    got = Counter((rule, path) for rule, path, _digest in results)
    errors = _summarise("actions", "checksum missing", want - got)
    errors += _summarise("actions", "checksum unexpected", got - want)
    wrong = [
        (rule, path)
        for rule, path, digest in results
        if path not in sizes or digest != zero_digest(sizes[path])
    ]
    if wrong:
        errors.append(Failure(
            "actions", len(wrong), f"wrong digest e.g. {wrong[:_MAX_REPORTED]}"
        ))
    return errors


# ---------------------------------------------------------------------------
# durable: pages, filtered queries and recovery
# ---------------------------------------------------------------------------


def check_pages(
    written: Sequence[str], paged: Sequence[tuple[str, int, str]]
) -> list[Failure]:
    """Pages concatenate to everything written, without skips or dups.

    *written* is the benchmark's create order; *paged* the ``(shard,
    seq, path)`` entries of every page in order.  Within a shard, seqs
    must be gap-free and increasing; across shards, the multiset of
    paths must equal what was written.
    """
    got = Counter(p for _s, _q, p in paged)
    errors = _summarise("records", "paged missing", Counter(written) - got)
    errors += _summarise(
        "records", "paged unexpected or duplicated", got - Counter(written)
    )
    last: dict[str, int] = {}
    gaps = []
    for shard, seq, _path in paged:
        previous = last.get(shard)
        if previous is not None and seq != previous + 1:
            gaps.append(f"{shard}: seq {seq} follows {previous}")
        last[shard] = seq
    if gaps:
        errors.append(Failure(
            "pages", len(gaps), f"seq gaps e.g. {gaps[:_MAX_REPORTED]}"
        ))
    return errors


def check_query(want: Sequence[str], got: Sequence[str]) -> list[Failure]:
    """One query: it fails as a whole if its result differs."""
    want_c, got_c = Counter(want), Counter(got)
    details = [
        f"{label} {sum(diff.values())} e.g. {list(diff)[:_MAX_REPORTED]}"
        for label, diff in (
            ("missing", want_c - got_c), ("unexpected", got_c - want_c)
        )
        if diff
    ]
    return [Failure("queries", 1, "; ".join(details))] if details else []


def check_recovery(
    delivered: Sequence[tuple[int, str]],
    recovered: Sequence[tuple[int, str]],
    window: int,
) -> list[Failure]:
    """A store reopened on the log recovers what was delivered: one
    unbroken tail of it, holding at least the newest *window* entries.
    *window* is the store's retention; segments wholly older than it
    may have been compacted away."""
    delivered, recovered = list(delivered), list(recovered)
    kept = delivered[max(0, len(delivered) - len(recovered)):]
    errors: list[Failure] = []
    if recovered != kept:
        errors += _summarise(
            "records", "recovery lost", Counter(kept) - Counter(recovered)
        )
        errors += _summarise(
            "records", "recovery invented", Counter(recovered) - Counter(kept)
        )
        if not errors:
            moved = sum(1 for a, b in zip(kept, recovered) if a != b)
            errors.append(
                Failure("records", moved, "recovered entries are out of order")
            )
    short = min(len(delivered), window) - len(recovered)
    if short > 0:
        errors.append(Failure(
            "records", short,
            f"recovered {len(recovered)} entries, retention keeps {window}",
        ))
    return errors


# ---------------------------------------------------------------------------
# model: the calibrated pipeline reproduces the paper
# ---------------------------------------------------------------------------


def check_model(
    testbed: str, num_mds: int, delivered_rate: float, shortfall: float
) -> list[Failure]:
    """Single-MDS runs match §5.2; multi-MDS runs keep up.  A round
    that misses fails once, whatever it misses."""
    details = []
    if num_mds == 1:
        paper_rate, paper_shortfall = PAPER_MODEL[testbed]
        if abs(delivered_rate - paper_rate) > MODEL_RATE_TOLERANCE * paper_rate:
            details.append(
                f"{testbed}: {delivered_rate:.1f} ev/s vs paper {paper_rate}"
            )
        if abs(shortfall - paper_shortfall) > MODEL_SHORTFALL_POINTS:
            details.append(
                f"{testbed}: shortfall {shortfall:.2f}% vs paper "
                f"{paper_shortfall}%"
            )
    elif shortfall > KEEPS_UP_PERCENT:
        details.append(f"{testbed} x{num_mds} MDS: shortfall {shortfall:.2f}%")
    return [Failure("model_rounds", 1, "; ".join(details))] if details else []
