"""Certificate records produced by the check_* operations."""

from __future__ import annotations

from dataclasses import dataclass, field

#: A claim held and every instance checked out.
PASS = "pass"
#: A claim that should hold was violated.
FAIL = "fail"
#: A documented discrepancy: the stated closed form does not match the
#: computed value, and the precise deviations are reported instead of
#: aborting. Anomalies do not fail a verification run.
ANOMALY = "anomaly"


@dataclass
class CheckReport:
    """Outcome of one machine-checked claim.

    `statement` is the claim text itself (the formula or property being
    verified), so a failing certificate names exactly what was violated.
    """

    claim: str
    statement: str
    params: dict
    status: str
    checked: int
    failures: list[str] = field(default_factory=list)
    details: dict | None = None

    @classmethod
    def of(cls, graph, claim: str, statement: str, checked: int, failures: list[str],
           details: dict | None = None, **params) -> "CheckReport":
        """The certificate of `claim` on `graph`: params n, q and then `params`
        in call order; it passes iff there are no failures."""
        return cls(claim, statement, {"n": graph.params.n, "q": graph.params.q, **params},
                   PASS if not failures else FAIL, checked, failures, details)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "statement": self.statement,
            "params": self.params,
            "status": self.status,
            "checked": self.checked,
            "failures": list(self.failures),
        }
        if self.details is not None:
            out["details"] = _jsonable(self.details)
        return out

    def format_line(self) -> str:
        tag = {PASS: "PASS", FAIL: "FAIL", ANOMALY: "ANOM"}[self.status]
        ctx = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"[{tag}] {ctx} {self.claim}: {self.statement} (checked={self.checked})"
        if self.failures:
            line += "".join(f"\n       - {f}" for f in self.failures[:8])
            if len(self.failures) > 8:
                line += f"\n       ... {len(self.failures) - 8} more"
        return line


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return value
