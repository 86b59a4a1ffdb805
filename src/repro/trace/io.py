"""Trace serialisation.

Traces regenerate deterministically, but callers running many experiments
over the same workloads can cache them on disk.  The format is a compact
NumPy ``.npz`` bundle: five parallel arrays plus a ragged source-register
encoding (offsets + flattened values), the same trick ChampSim-style tools
use for variable-length fields.  NumPy is imported on first use, so
importing the simulator (which never touches trace files) does not load
it.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

from repro.trace.record import Op, TraceRecord


def save_trace(path: Union[str, Path],
               records: Sequence[TraceRecord]) -> None:
    """Write ``records`` to ``path`` as a ``.npz`` bundle."""
    import numpy as np
    if not records:
        raise ValueError("refusing to save an empty trace")
    ips = np.fromiter((r.ip for r in records), dtype=np.uint64,
                      count=len(records))
    ops = np.fromiter((int(r.op) for r in records), dtype=np.uint8,
                      count=len(records))
    addresses = np.fromiter((r.address for r in records), dtype=np.uint64,
                            count=len(records))
    taken = np.fromiter((r.taken for r in records), dtype=np.bool_,
                        count=len(records))
    dsts = np.fromiter((r.dst for r in records), dtype=np.int16,
                       count=len(records))
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    flat_srcs: List[int] = []
    for i, record in enumerate(records):
        flat_srcs.extend(record.srcs)
        offsets[i + 1] = len(flat_srcs)
    np.savez_compressed(
        path, ips=ips, ops=ops, addresses=addresses, taken=taken,
        dsts=dsts, src_offsets=offsets,
        src_values=np.asarray(flat_srcs, dtype=np.int16))


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Read a trace previously written by :func:`save_trace`."""
    import numpy as np
    with np.load(path) as data:
        ips = data["ips"]
        ops = data["ops"]
        addresses = data["addresses"]
        taken = data["taken"]
        dsts = data["dsts"]
        offsets = data["src_offsets"]
        values = data["src_values"]
        records = []
        for i in range(len(ips)):
            srcs = tuple(int(v) for v in values[offsets[i]:offsets[i + 1]])
            records.append(TraceRecord(
                ip=int(ips[i]), op=Op(int(ops[i])),
                address=int(addresses[i]), taken=bool(taken[i]),
                dst=int(dsts[i]), srcs=srcs))
    return records
