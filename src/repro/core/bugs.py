"""Bug-report bookkeeping for the campaign (paper §7 methodology).

Gauntlet filed every finding with the compiler developers; this module is
the reproduction's stand-in for that workflow: findings become
:class:`BugReport` records, get deduplicated (crashes by signature, semantic
bugs by defective pass + block), and are tallied into the per-platform /
per-location statistics behind Tables 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.records import Record

#: Serialisation schema of :meth:`BugReport.to_dict`.  Version 2 added the
#: triage fields (``reduced_source``, ``reduction_ratio``,
#: ``reduction_rounds``, ``localized_pass``, ``pass_pair``).  Version 3
#: added ``sequence_length`` — the packet count of the replay vector that
#: reproduces the bug (``1`` for single-packet oracles, which is also the
#: default a v1/v2 record loads with: every pre-stateful finding was a
#: one-packet finding).  Version 4 added the knob-vector provenance fields
#: (``knob_arm``, ``knob_overrides``) stamped by scheduled campaigns: which
#: generator arm produced the triggering program (empty for static
#: campaigns).  :meth:`BugReport.from_dict` accepts any version
#: ``<= BUG_REPORT_SCHEMA`` by defaulting the missing keys, so a report
#: exported by older code still loads.
BUG_REPORT_SCHEMA = 4


class BugKind(Enum):
    """Crash vs. semantic (paper §2.1)."""

    CRASH = "crash"
    SEMANTIC = "semantic"
    INVALID_TRANSFORMATION = "invalid_transformation"


class BugLocation(Enum):
    """Where the defect lives (Table 3)."""

    FRONT_END = "front_end"
    MID_END = "mid_end"
    BACK_END = "back_end"
    UNKNOWN = "unknown"


class BugStatus(Enum):
    """Life cycle of a filed bug (Table 2 rows)."""

    FILED = "filed"
    CONFIRMED = "confirmed"
    FIXED = "fixed"


@dataclass
class BugReport(Record):
    """One distinct bug found by the campaign."""

    identifier: str
    kind: BugKind
    platform: str
    location: BugLocation
    pass_name: str
    description: str
    status: BugStatus = BugStatus.FILED
    #: The program (source text) that triggered the bug.
    trigger_source: str = ""
    #: Witness input assignment for semantic bugs.
    witness: Dict[str, object] = field(default_factory=dict)
    #: Which seeded defect this corresponds to, when known.
    seeded_bug_id: Optional[str] = None
    #: Triage results (schema v2) — filled in by the engine's triage stage
    #: when the campaign runs with ``reduce=True``.  ``reduced_source`` is
    #: the minimized trigger (still failing the original oracle),
    #: ``reduction_ratio`` the fraction of statements removed, and
    #: ``pass_pair`` the ``(before, after)`` snapshot pair the defect was
    #: localized between.
    reduced_source: str = ""
    reduction_ratio: float = 0.0
    reduction_rounds: int = 0
    localized_pass: str = ""
    pass_pair: Optional[Tuple[str, str]] = None
    #: Packets needed to reproduce (schema v3): ``1`` for single-packet
    #: oracles, the minimized sequence length for stateful backend bugs.
    sequence_length: int = 1
    #: Knob-vector provenance (schema v4) — which scheduler arm generated
    #: the triggering program, and the generator overrides it applied.
    #: Empty for campaigns that ran without the feedback scheduler.
    knob_arm: str = ""
    knob_overrides: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"schema_version": BUG_REPORT_SCHEMA, **super().to_dict()}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BugReport":
        version = payload.get("schema_version", 1)
        if version > BUG_REPORT_SCHEMA:
            raise ValueError(
                f"bug report schema {version} is newer than supported "
                f"({BUG_REPORT_SCHEMA}); upgrade the reader"
            )
        return super().from_dict(payload)


class BugTracker:
    """Deduplicating collection of bug reports."""

    def __init__(self) -> None:
        self._reports: Dict[str, BugReport] = {}

    # -- filing -----------------------------------------------------------------

    def file(self, report: BugReport) -> bool:
        """File a report; returns False when it duplicates an existing one."""

        if report.identifier in self._reports:
            return False
        self._reports[report.identifier] = report
        return True

    def confirm(self, identifier: str) -> None:
        report = self._reports.get(identifier)
        if report is not None and report.status == BugStatus.FILED:
            report.status = BugStatus.CONFIRMED

    # -- queries -------------------------------------------------------------------

    def get(self, identifier: str) -> Optional[BugReport]:
        return self._reports.get(identifier)

    @property
    def reports(self) -> List[BugReport]:
        return list(self._reports.values())

    def __len__(self) -> int:
        return len(self._reports)

    def by_platform(self, platform: str) -> List[BugReport]:
        return [report for report in self.reports if report.platform == platform]

    # -- tables ----------------------------------------------------------------------

    def summary_table(self, platforms: Optional[Iterable[str]] = None) -> Dict:
        """The shape of Table 2: kind x status x platform counts.

        ``platforms`` defaults to the canonical platform order plus any
        other platform the filed reports mention, so the table grows with
        the back-end registry instead of silently dropping columns.
        """

        platforms = self._platforms_or_default(platforms)
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for kind in (BugKind.CRASH, BugKind.SEMANTIC):
            table[kind.value] = {}
            for status in (BugStatus.FILED, BugStatus.CONFIRMED, BugStatus.FIXED):
                row = {}
                for platform in platforms:
                    row[platform] = sum(
                        1
                        for report in self.reports
                        if report.kind == kind
                        and report.platform == platform
                        and self._status_at_least(report.status, status)
                    )
                table[kind.value][status.value] = row
        table["total"] = {
            platform: len(self.by_platform(platform)) for platform in platforms
        }
        table["total"]["all"] = len(self.reports)
        return table

    def location_table(self, platforms: Optional[Iterable[str]] = None) -> Dict:
        """The shape of Table 3: location x platform counts."""

        platforms = self._platforms_or_default(platforms)
        table: Dict[str, Dict[str, int]] = {}
        for location in (BugLocation.FRONT_END, BugLocation.MID_END, BugLocation.BACK_END):
            row = {}
            for platform in platforms:
                row[platform] = sum(
                    1
                    for report in self.reports
                    if report.location == location and report.platform == platform
                )
            row["total"] = sum(row.values())
            table[location.value] = row
        table["total"] = {
            platform: len(self.by_platform(platform)) for platform in platforms
        }
        table["total"]["total"] = len(self.reports)
        return table

    #: Canonical column order of the platform tables; mirrors the engine's
    #: merge rank (``repro.core.engine.units.PLATFORM_ORDER``) without
    #: importing it, to keep this module dependency-free.
    _CANONICAL_PLATFORMS = ("p4c", "bmv2", "tofino", "ebpf")

    def _platforms_or_default(self, platforms: Optional[Iterable[str]]) -> Tuple[str, ...]:
        if platforms is not None:
            return tuple(platforms)
        extra = sorted(
            {report.platform for report in self.reports}
            - set(self._CANONICAL_PLATFORMS)
        )
        return self._CANONICAL_PLATFORMS + tuple(extra)

    @staticmethod
    def _status_at_least(actual: BugStatus, queried: BugStatus) -> bool:
        order = [BugStatus.FILED, BugStatus.CONFIRMED, BugStatus.FIXED]
        return order.index(actual) >= order.index(queried)
