"""Output checks, run outside the timed region.

Each op's output is reduced to a canonical JSON document: the verdict's
status, witness, column counts, probes (``CohomReport.to_dict()`` and
``FactorizationOutcome.to_dict()``) and bounds; the factorization outcome's
``to_dict()`` plus both units; or the scan row.  An op that raised is
reduced to the exception's type and message.  The document's digest is
compared with the reference file, keyed by the op's input, and on every seed
the document must satisfy the invariants below.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
STATUSES = ("FG_EXACT", "FG_WITNESS", "NOT_FG_EXACT", "NO_WITNESS_UP_TO_BOUNDS")


def _verdict_doc(verdict) -> dict:
    return {"status": verdict.status, "witness": verdict.witness, "emu": verdict.emu,
            "probes": verdict.probes, "bounds": verdict.bounds}


def canonical(op, output, error) -> dict:
    """Canonical document of one op's result; error is (type, message) or None."""
    if error is not None:
        return {"raised": error[0], "message": error[1]}
    if op.kind == "decide":
        return _verdict_doc(output)
    if op.kind == "factor":
        from reeslab import dump_element

        doc = output.to_dict()
        if output.success:
            doc["unit_a"] = dump_element(output.unit_a)
            doc["unit_b"] = dump_element(output.unit_b)
        return doc
    (row,) = output
    doc = {"g": str(row.g), "status": row.status, "error": row.error}
    if row.verdict is not None:
        doc["verdict"] = _verdict_doc(row.verdict)
    return doc


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _window_problems(probe: dict) -> list[str]:
    out = []
    rank, overlaps, gaps = probe["rank"], probe["overlaps"], probe["gaps"]
    where = f"window [{probe['m']}, {probe['l']})"
    if rank > min(len(overlaps), len(gaps)):
        out.append(f"{where}: rank {rank} exceeds min(#overlaps, #gaps)")
    gap_set = {tuple(g) for g in gaps}
    if not all(tuple(g) in gap_set for g in probe["pivot_gaps"]):
        out.append(f"{where}: pivot gaps not among the gaps")
    if len(probe["pivot_gaps"]) != rank:
        out.append(f"{where}: {len(probe['pivot_gaps'])} pivots but rank {rank}")
    if (probe["h0"], probe["h1"]) != (len(overlaps) - rank, len(gaps) - rank):
        out.append(f"{where}: h0/h1 disagree with rank")
    if probe["h0"] - probe["h1"] != probe["chi_independent"]:
        out.append(f"{where}: h0 - h1 != per-level Euler characteristic")
    return out


def _verdict_problems(doc: dict, p: int) -> list[str]:
    out = []
    status = doc["status"]
    if status not in STATUSES:
        return [f"unknown status {status!r}"]
    if p and status == "NOT_FG_EXACT":
        out.append(f"characteristic {p} verdict is NOT_FG_EXACT")
    if not p and status not in ("FG_EXACT", "NOT_FG_EXACT"):
        out.append(f"characteristic 0 verdict is {status}")
    emu = doc["emu"]
    if emu is not None:
        holds = all(c >= i for i, c in enumerate(emu["sorted_counts"], start=1))
        if emu["holds"] != holds or (status == "FG_EXACT") != holds:
            out.append("column-count criterion disagrees with the verdict")
    for probe in doc["probes"]:
        if "rank" in probe:
            out.extend(_window_problems(probe))
    witness = doc["witness"] or {}
    last = doc["probes"][-1] if doc["probes"] else {}
    if witness.get("kind") == "A4" and not last.get("success"):
        out.append("A4 witness without a successful factorization probe")
    if witness.get("kind") in ("C3", "C4") and last.get("h0", 0) <= 0:
        out.append("window witness without degree-zero sections")
    if status == "NO_WITNESS_UP_TO_BOUNDS" and any(
            pr.get("success") or pr.get("h0", 0) > 0 for pr in doc["probes"]):
        out.append("a probe found a witness but the verdict is inconclusive")
    return out


def problems(op, doc: dict) -> list[str]:
    """Invariant violations of one canonical document (empty when it holds)."""
    if "raised" in doc:
        return []
    if op.kind == "decide":
        return _verdict_problems(doc, op.p)
    if op.kind == "factor":
        out = []
        if doc["m"] != op.m:
            out.append(f"outcome for m={doc['m']}, asked m={op.m}")
        if doc["success"] == ("obstruction" in doc):
            out.append("success and obstruction disagree")
        return out
    if doc.get("verdict") is not None:
        return _verdict_problems(doc["verdict"], 0)
    return []


def reported_error(op, output):
    """The error a completed call reports instead of raising: the scanner
    turns an internal invariant violation of a member into an error row."""
    if op.kind == "scan":
        return output[0].error
    return None


def load_reference(path: str = REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Checks op results against the reference and the invariants."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.referenced = 0
        self.mismatches: dict[str, list[str]] = {}

    def check(self, op, output, error) -> list[str]:
        """Returns the reasons this result is wrong (empty when it is right)."""
        doc = canonical(op, output, error)
        reasons = problems(op, doc)
        want = self.reference.get(op.key)
        if want is not None:
            self.referenced += 1
            if want != digest(doc):
                reasons.append("output differs from the reference")
        if reasons:
            self.mismatches.setdefault(op.key, reasons)
        return reasons
