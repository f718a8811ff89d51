"""Output checks and the digest of simulated counters.

A check returns the list of reasons a result is wrong (empty when it is
right); every reason counts the unit as failed.  No golden percentiles
are checked: a fix to the latency sketch may legitimately move them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Mapping, Sequence

#: A served run whose simulated throughput falls below this share of the
#: offered rate has a growing backlog.
MIN_SIM_RATE_SHARE = 0.95

#: The exact simulated counters a digest covers.
DIGEST_KEYS = ("total_msgs", "total_bytes", "congestion_bytes",
               "congestion_msgs", "sim_time", "hits", "misses")


def digest(rows: Sequence[Mapping[str, Any]]) -> str:
    """SHA-256 over the exact simulated counters of ``rows``, in order.

    Floats are written with ``repr`` (every bit), so two commits agree
    on a digest only when their simulated results are bit-identical."""
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps([row[k] for k in DIGEST_KEYS]).encode())
    return h.hexdigest()[:16]


def _ordered(row: Mapping[str, Any], prefix: str) -> List[str]:
    p50, p95, p99 = (row[f"{prefix}_p{q}"] for q in (50, 95, 99))
    if not p50 <= p95 <= p99:
        return [f"{prefix} percentiles out of order: {p50} {p95} {p99}"]
    return []


def check_cell(row: Mapping[str, Any]) -> List[str]:
    """One simulated run: a batch cell or a served session."""
    bad = []
    if row["engine"] != "ckern":
        bad.append(f"ran on the {row['engine']} engine, not the C kernel")
    if not row["total_msgs"] > 0:
        bad.append("no messages were simulated")
    bad += _ordered(row, "latency")
    return bad


def check_serve(row: Mapping[str, Any], offered: int, rate: float) -> List[str]:
    """One served run of ``offered`` requests at ``rate`` sim-req/s."""
    bad = check_cell(row)
    if row["accepted"] + row["rejected"] != offered:
        bad.append(f"accepted {row['accepted']} + rejected {row['rejected']} "
                   f"!= offered {offered}")
    if row["requests"] != row["accepted"]:
        bad.append(f"completed {row['requests']} != accepted {row['accepted']}")
    if row["rejected"]:
        bad.append(f"{row['rejected']} requests rejected")
    if row["sim_requests_per_sec"] < MIN_SIM_RATE_SHARE * rate:
        bad.append(f"simulated throughput {row['sim_requests_per_sec']:.1f} "
                   f"below {MIN_SIM_RATE_SHARE} x offered {rate}: backlog grows")
    bad += _ordered(row, "wall")
    return bad

