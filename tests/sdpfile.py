"""The writer of the xorq-sdp-v1 file format that `xorq sdp solve` reads
(sdp.instance_from_dict): tests use it to put SdpInstance objects on disk."""

from xorq import sdp


def _entries_to_json(entries) -> list[dict]:
    out = []
    for b, r, c, v in entries:
        v = complex(v)
        out.append({"b": b, "r": r, "c": c, "re": v.real, "im": v.imag})
    return sorted(out, key=lambda e: (e["b"], e["r"], e["c"]))


def instance_to_dict(inst: sdp.SdpInstance) -> dict:
    obj_entries = []
    for label, c in sorted(inst.objective.items()):
        for r in range(c.shape[0]):
            for s in range(r, c.shape[1]):
                v = c[r, s]
                if v != 0:
                    obj_entries.append((label, r, s, complex(v)))
    return {
        "format": sdp.SDP_FORMAT,
        "blocks": [{"label": label, "dim": dim} for label, dim in inst.blocks],
        "objective": _entries_to_json(obj_entries),
        "constraints": [
            {"entries": _entries_to_json(con.entries), "rhs": con.rhs}
            for con in inst.constraints
        ],
    }
