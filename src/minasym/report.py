"""Verification reports and their line-oriented text form."""

from __future__ import annotations

from dataclasses import dataclass

VERSION = "0.1.0"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a property check.

    `samples` counts checked subgraphs (drawn ones in sampled mode,
    scanned ones in exhaustive mode).  `witness_text` holds the
    serialized counterexample block, empty when the property holds.
    """

    property_name: str
    holds: bool
    mode: str
    samples: int
    seed: int
    elapsed_ms: int
    witness_text: str = ""


def serialize_report(report: VerificationReport) -> str:
    lines = [
        f"# minasym {VERSION}",
        f"# mode={report.mode} seed={report.seed}",
        " ".join(
            [
                report.property_name,
                "true" if report.holds else "false",
                report.mode,
                str(report.samples),
                str(report.seed),
                str(report.elapsed_ms),
            ]
        ),
    ]
    text = "\n".join(lines) + "\n"
    if report.witness_text:
        text += report.witness_text
        if not text.endswith("\n"):
            text += "\n"
    return text


def perm_line(perm) -> str:
    return "perm " + " ".join(str(i) for i in perm) + "\n"
