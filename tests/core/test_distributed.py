"""Tests for the distributed campaign service (coordinator/worker fleet).

The service's contract extends the engine's executor-equivalence leg:

* **transport equivalence** — a campaign run on a coordinator/worker
  fleet files byte-identical reports to ``jobs=1``, including when a
  worker is killed mid-lease (the range is reclaimed and re-issued);
* **coordinator resume** — a killed coordinator restarts from the JSONL
  store's outcome lines (its lease journal records the handoff) and
  finishes to the identical result without re-running completed units;
* **stream hygiene** — torn streamed lines are discarded without
  poisoning the connection, and duplicate outcome lines (at-least-once
  delivery) are accepted exactly once, by the same first-write-wins
  dedup the store's resume loader applies;
* **placement** — a lease never ends inside a program (``lease_units``
  is a minimum), so no program's units are split across workers.
"""

import json
import threading
import time

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.engine import (
    TRIAGE_UNREPRODUCED,
    ArtifactStore,
    CampaignEngine,
    CampaignSpec,
    CoordinatorService,
    DistributedExecutor,
    FindingRecord,
    MatrixOutcome,
    MatrixUnit,
    OutcomeDedup,
    SerialExecutor,
    TriageOutcome,
    TriageUnit,
    UnitOutcome,
    build_units,
    campaign_key,
    run_worker,
)
from repro.core.engine import coordinator, protocol, stages
from repro.core.engine.units import (
    KIND_MATRIX,
    KIND_TRIAGE,
    KIND_WORK,
    KINDS,
    STATUS_CLEAN,
)
from repro.core.generator import GeneratorConfig

ENABLED = (
    "constant_folding_no_mask",
    "strength_reduction_negative_slice",
    "exit_ignores_copy_out",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
)


def small_spec(**overrides):
    defaults = dict(
        programs=6,
        generator=GeneratorConfig(seed=3),
        enabled_bugs=ENABLED,
        platforms=("p4c", "bmv2"),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def reports(stats):
    return [report.to_dict() for report in stats.tracker.reports]


def headline(stats):
    return (
        stats.programs_generated,
        stats.programs_rejected,
        stats.oracle_errors,
        stats.crash_findings,
        stats.semantic_findings,
    )


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "outcome", "outcome": {"program_index": 3, "x": "y"}}
        assert protocol.decode(protocol.encode(message).rstrip(b"\n")) == message

    def test_torn_and_garbage_lines_decode_to_none(self):
        assert protocol.decode(b'{"op": "lease"') is None  # torn mid-object
        assert protocol.decode(b"not json at all") is None
        assert protocol.decode(b"") is None
        assert protocol.decode(b"[1, 2, 3]") is None  # not an object

    def test_parse_address_forms(self):
        assert protocol.parse_address("10.0.0.7:9444") == ("10.0.0.7", 9444)
        assert protocol.parse_address(":9444") == ("127.0.0.1", 9444)
        assert protocol.parse_address("9444") == ("127.0.0.1", 9444)


# ----------------------------------------------------------------------
# Coordinator service over a raw protocol client (no subprocesses)
# ----------------------------------------------------------------------

def _clean_outcome(unit):
    return UnitOutcome(
        program_index=unit.program_index,
        platform=unit.platform,
        status=STATUS_CLEAN,
        source="",
    )


class TestCoordinatorService:
    def _units(self, programs=4, platforms=("p4c", "bmv2")):
        return build_units(
            programs=range(programs),
            platforms=platforms,
            generator=GeneratorConfig(seed=3),
            enabled_bugs=ENABLED,
            max_tests=4,
        )

    def _start(self, units, **overrides):
        kwargs = dict(lease_units=2, lease_ttl_s=30.0)
        kwargs.update(overrides)
        service = CoordinatorService(units, **kwargs)
        host, port = service.start()
        return service, protocol.connect(host, port)

    def test_duplicate_streamed_outcome_is_discarded_exactly_once(self):
        units = self._units(programs=2, platforms=("p4c",))
        service, stream = self._start(units)
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "w"})
            lease = stream.recv()["lease"]
            assert lease["count"] == 2

            line = {
                "op": "outcome",
                "worker": "w",
                "lease": lease["id"],
                "outcome": _clean_outcome(units[0]).to_dict(),
            }
            stream.send(line)
            first = stream.recv()
            assert first["ok"] and not first["duplicate"]
            stream.send(line)  # at-least-once delivery: the retry
            second = stream.recv()
            assert second["ok"] and second["duplicate"]

            status = service.status()
            assert status["done"] == 1
            assert status["counters"]["dist_duplicates_discarded"] == 1
            assert status["counters"]["dist_outcomes_streamed"] == 1
        finally:
            stream.close()
            service.stop()

    def test_torn_streamed_line_is_dropped_and_connection_survives(self):
        units = self._units(programs=2, platforms=("p4c",))
        service, stream = self._start(units)
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            # A line torn mid-JSON (worker died mid-write and the tail of
            # its buffer flushed later): fails to decode, is counted, and
            # the stream re-synchronises at the newline.
            stream._sock.sendall(b'{"op": "outcome", "outcome": {"trunc\n')
            stream.send({"op": "status"})
            status = stream.recv()
            assert status["ok"]
            assert status["counters"]["dist_torn_lines"] == 1
        finally:
            stream.close()
            service.stop()

    def test_expired_lease_is_reclaimed_and_reissued(self):
        clock = {"now": 0.0}
        units = self._units(programs=2, platforms=("p4c",))
        service, stream = self._start(
            units, lease_ttl_s=5.0, clock=lambda: clock["now"]
        )
        try:
            stream.send({"op": "hello", "worker": "dead"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "dead"})
            first = stream.recv()["lease"]
            assert first["count"] == 2

            clock["now"] = 6.0  # the dead worker never heartbeats
            stream.send({"op": "lease", "worker": "live"})
            second = stream.recv()["lease"]
            assert second["start"] == first["start"]
            assert second["count"] == first["count"]
            counters = service.status()["counters"]
            assert counters["dist_leases_reclaimed"] == 1
        finally:
            stream.close()
            service.stop()

    def test_heartbeat_keeps_a_lease_alive(self):
        clock = {"now": 0.0}
        units = self._units(programs=2, platforms=("p4c",))
        service, stream = self._start(
            units, lease_ttl_s=5.0, clock=lambda: clock["now"]
        )
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "w"})
            lease = stream.recv()["lease"]
            for _ in range(3):
                clock["now"] += 4.0
                stream.send({"op": "heartbeat", "worker": "w", "lease": lease["id"]})
                assert stream.recv()["ok"]
            # 12s of wall time against a 5s TTL, still not reclaimed.
            assert service.status()["counters"]["dist_leases_reclaimed"] == 0
        finally:
            stream.close()
            service.stop()

    def test_backpressure_on_inflight_leases(self):
        units = self._units(programs=4, platforms=("p4c",))
        service, stream = self._start(units, lease_units=1, max_inflight_leases=1)
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "w"})
            assert "lease" in stream.recv()
            stream.send({"op": "lease", "worker": "w"})
            throttled = stream.recv()
            assert throttled["ok"] and "retry_in" in throttled
            counters = service.status()["counters"]
            assert counters["dist_backpressure_retries"] == 1
        finally:
            stream.close()
            service.stop()

    def _drain_leases(self, stream):
        """Lease until nothing is pending; returns the granted leases."""

        stream.send({"op": "hello", "worker": "w"})
        assert stream.recv()["ok"]
        leases = []
        while True:
            stream.send({"op": "lease", "worker": "w"})
            response = stream.recv()
            if "lease" not in response:
                return leases
            leases.append(response["lease"])

    def test_leases_hold_whole_programs(self):
        units = self._units(programs=5, platforms=("p4c", "bmv2", "tofino"))
        service, stream = self._start(
            units, lease_units=4, max_inflight_leases=len(units)
        )
        try:
            leases = self._drain_leases(stream)
            # lease_units is a minimum: 4 units end mid-program, so each
            # lease runs on to the end of its second program.
            assert [lease["count"] for lease in leases] == [6, 6, 3]
            programs = [
                {unit["program_index"] for unit in lease["units"]} for lease in leases
            ]
            assert sorted(index for held in programs for index in held) == list(
                range(5)
            )
        finally:
            stream.close()
            service.stop()

    def test_reclaimed_lease_reissues_its_unfinished_units(self):
        clock = {"now": 0.0}
        units = self._units(programs=5, platforms=("p4c", "bmv2", "tofino"))
        service, stream = self._start(
            units, lease_units=4, lease_ttl_s=5.0, clock=lambda: clock["now"]
        )
        try:
            stream.send({"op": "hello", "worker": "dead"})
            assert stream.recv()["ok"]
            stream.send({"op": "lease", "worker": "dead"})
            first = stream.recv()["lease"]
            stream.send(
                {
                    "op": "outcome",
                    "worker": "dead",
                    "lease": first["id"],
                    "outcome": _clean_outcome(units[0]).to_dict(),
                }
            )
            assert stream.recv()["ok"]

            clock["now"] = 6.0  # the worker dies after its first outcome
            stream.send({"op": "lease", "worker": "live"})
            second = stream.recv()["lease"]
            assert [
                (unit["program_index"], unit["platform"]) for unit in second["units"]
            ] == [unit.key for unit in units[1 : first["count"]]]
        finally:
            stream.close()
            service.stop()

    def test_triage_units_lease_exactly_lease_units(self):
        finding = FindingRecord(
            kind="crash", platform="p4c", pass_name="P", description="boom"
        )
        units = [
            TriageUnit(identifier=f"p4c:{n}", platform="p4c", source="", finding=finding)
            for n in range(10)
        ]
        service = CoordinatorService(
            units, KIND_TRIAGE, lease_units=4, max_inflight_leases=len(units)
        )
        host, port = service.start()
        stream = protocol.connect(host, port)
        try:
            leases = self._drain_leases(stream)
            assert [lease["count"] for lease in leases] == [4, 4, 2]
        finally:
            stream.close()
            service.stop()

    def test_a_token_service_refuses_requests_without_it(self):
        units = self._units(programs=1, platforms=("p4c",))
        service, stream = self._start(units, token="phase-secret")
        outcome = {
            "op": "outcome",
            "worker": "w",
            "outcome": _clean_outcome(units[0]).to_dict(),
        }
        try:
            stream.send(outcome)
            assert stream.recv()["ok"] is False
            for token in (None, "guess"):
                stream.send({"op": "hello", "worker": "w", "token": token})
                assert stream.recv()["ok"] is False
                stream.send(outcome)
                assert stream.recv()["ok"] is False
            assert service.status()["done"] == 0

            stream.send({"op": "hello", "worker": "w", "token": "phase-secret"})
            assert stream.recv()["ok"]
            stream.send(outcome)
            accepted = stream.recv()
            assert accepted["ok"] and accepted["duplicate"] is False
            assert service.done
        finally:
            stream.close()
            service.stop()

    def test_undecodable_outcomes_are_refused_and_the_connection_survives(self):
        units = self._units(programs=1, platforms=("p4c",))
        service, stream = self._start(units)
        good = _clean_outcome(units[0]).to_dict()
        missing_status = {key: value for key, value in good.items() if key != "status"}
        bad = [
            missing_status,
            {**good, "findings": 5},
            {**good, "findings": [5]},
            {**good, "counters": "x"},
            {**good, "program_index": 99},
            {**good, "program_index": [0]},
            [good],
            "outcome",
        ]
        try:
            stream.send({"op": "hello", "worker": "w"})
            assert stream.recv()["ok"]
            for payload in bad:
                stream.send({"op": "outcome", "worker": "w", "outcome": payload})
                assert stream.recv()["ok"] is False, payload
            assert service.status()["done"] == 0

            stream.send({"op": "outcome", "worker": "w", "outcome": good})
            accepted = stream.recv()
            assert accepted["ok"] and accepted["duplicate"] is False
            assert service.done
        finally:
            stream.close()
            service.stop()

    def test_in_process_worker_drains_service(self):
        """The real worker loop against the real service, no subprocesses."""

        units = self._units(programs=2, platforms=("p4c",))
        service = CoordinatorService(units, lease_units=1, lease_ttl_s=30.0)
        host, port = service.start()
        collected = []

        def consume():
            collected.extend(service.outcomes())

        consumer = threading.Thread(target=consume)
        consumer.start()
        try:
            stats = run_worker(host, port, "inproc")
            consumer.join(timeout=30.0)
            assert stats["units"] == len(units)
            assert stats["leases"] == len(units)  # lease_units=1
            assert len(collected) == len(units)
            assert sorted(outcome.key for outcome in collected) == sorted(
                unit.key for unit in units
            )
        finally:
            service.stop()


# ----------------------------------------------------------------------
# Fault tolerance, end to end
# ----------------------------------------------------------------------

class TestWorkerDeath:
    def test_killed_worker_lease_is_reclaimed_and_result_identical(self):
        spec = small_spec()
        serial = CampaignEngine(spec).run()

        # The only worker hard-exits (os._exit, no goodbye) after 2 units —
        # mid lease, since leases carry at least 3.  Its clean replacement
        # must reclaim the range after one TTL and finish the campaign, with
        # the identical merged report.  One worker, not two: forked workers
        # inherit the serial run's warm caches, so a second worker could
        # drain every lease before the faulty one takes its first.
        executor = DistributedExecutor(
            1,
            lease_units=3,
            lease_ttl_s=1.0,
            heartbeat_s=0.2,
            fail_after={0: 2},
        )
        distributed = CampaignEngine(spec, executor=executor).run()

        assert reports(distributed) == reports(serial)
        assert headline(distributed) == headline(serial)
        assert distributed.counters["dist_leases_reclaimed"] >= 1
        assert distributed.counters["dist_workers_seen"] >= 2


class TestCoordinatorResume:
    def test_killed_coordinator_resumes_from_journal_and_store(self, tmp_path):
        path = str(tmp_path / "dist.jsonl")
        spec = small_spec(artifact_path=path)
        key = campaign_key(
            spec.generator,
            spec.enabled_bugs,
            spec.platforms,
            spec.max_tests,
            sequence_length=spec.sequence_length,
        )

        # Reference run (serial, no store) for the byte-identity check.
        reference = CampaignEngine(small_spec()).run()

        # First distributed run, killed after a prefix: simulate by
        # truncating the store to the first 5 lines, duplicating one
        # outcome line (an ack the killed coordinator never recorded) and
        # tearing the final line mid-write.
        first = CampaignEngine(
            spec, executor=DistributedExecutor(1, lease_units=2)
        ).run()
        assert reports(first) == reports(reference)

        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        outcome_lines = [
            line for line in lines if "\"outcome\"" in line
        ]
        kept = lines[: lines.index(outcome_lines[2]) + 1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(kept)
            handle.write(outcome_lines[1])  # duplicate: at-least-once
            handle.write(outcome_lines[3][: len(outcome_lines[3]) // 2])  # torn

        store = ArtifactStore(path)
        survivors = store.load(key)
        issued_before = [
            event for event in store.load_lease_events(key)
            if event["event"] == "issued"
        ]
        assert issued_before  # the journal survived the kill too

        # The restarted coordinator reloads the store, re-leases only the
        # missing units, and finishes to the identical result.
        resumed = CampaignEngine(
            spec, executor=DistributedExecutor(1, lease_units=2)
        ).run()
        assert reports(resumed) == reports(reference)
        assert headline(resumed) == headline(reference)
        assert resumed.units_reused == len(survivors)
        # Finished units are never re-run: every lease issued after the
        # kill covers only the units missing from the store.
        issued_after = [
            event for event in store.load_lease_events(key)
            if event["event"] == "issued"
        ][len(issued_before):]
        released = sum(event["count"] for event in issued_after)
        assert released == resumed.units_total - resumed.units_reused

        # And a further re-run reuses everything without a single lease.
        final = CampaignEngine(
            spec, executor=DistributedExecutor(1, lease_units=2)
        ).run()
        assert final.units_reused == final.units_total
        assert reports(final) == reports(reference)


class TestSharedDedup:
    def test_store_loader_applies_first_write_wins(self, tmp_path):
        path = str(tmp_path / "dup.jsonl")
        store = ArtifactStore(path)
        unit = build_units(
            programs=range(1),
            platforms=("p4c",),
            generator=GeneratorConfig(seed=3),
            enabled_bugs=ENABLED,
            max_tests=4,
        )[0]
        first = _clean_outcome(unit)
        second = UnitOutcome(
            program_index=unit.program_index,
            platform=unit.platform,
            status="rejected",
            source="late duplicate",
        )
        store.append("k", first)
        store.append("k", second)
        loaded = store.load("k")
        assert loaded[unit.key].status == STATUS_CLEAN  # first write won

    def test_dedup_helper_counts_duplicates(self):
        dedup = OutcomeDedup()
        assert dedup.accept("a", 1)
        assert not dedup.accept("a", 2)
        assert dedup.accept("b", 3)
        assert dedup.duplicates == 1
        assert dedup.accepted == {"a": 1, "b": 3}

    def test_lease_journal_lines_are_invisible_to_outcome_loaders(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        store = ArtifactStore(path)
        store.append_lease_event("k", {"event": "issued", "lease": "L1"})
        unit = build_units(
            programs=range(1),
            platforms=("p4c",),
            generator=GeneratorConfig(seed=3),
            enabled_bugs=ENABLED,
            max_tests=4,
        )[0]
        store.append("k", _clean_outcome(unit))
        store.append_lease_event("k", {"event": "completed", "lease": "L1"})
        assert len(store.load("k")) == 1
        assert store.load_triage("k") == {}
        assert [event["event"] for event in store.load_lease_events("k")] == [
            "issued",
            "completed",
        ]


class TestDefectAttribution:
    def test_same_backend_semantic_findings_attributed_per_defect(self):
        # Two independent semantic defects in the same (tofino) back end:
        # the legacy platform-fallback attribution collapsed every packet
        # mismatch onto the alphabetically first enabled defect; the
        # bisection must file one report per actual culprit.
        stats = Campaign(
            CampaignConfig(
                programs=10,
                seed=3,
                enabled_bugs=(
                    "tofino_slice_assignment_drop",
                    "tofino_ternary_condition_flip",
                ),
                platforms=("tofino",),
            )
        ).run()
        identifiers = {report.identifier for report in stats.tracker.reports}
        assert "tofino:tofino_slice_assignment_drop" in identifiers
        assert "tofino:tofino_ternary_condition_flip" in identifiers
        for report in stats.tracker.reports:
            assert report.identifier == f"tofino:{report.seeded_bug_id}"


class TestSpecWiring:
    def test_spec_jobs_selects_the_executor(self):
        assert isinstance(CampaignEngine(small_spec())._make_executor(), SerialExecutor)
        engine = CampaignEngine(small_spec(jobs=2))
        executor = engine._make_executor()
        assert isinstance(executor, DistributedExecutor)
        assert executor.workers == 2

    def test_spec_serve_requires_an_explicit_port(self):
        engine = CampaignEngine(small_spec(serve=":9444"))
        executor = engine._make_executor()
        assert isinstance(executor, DistributedExecutor)
        assert executor.workers == 0

    @pytest.mark.parametrize("case", ["work-unit", "matrix-unit", "matrix-outcome"])
    def test_outcome_wire_round_trip_preserves_attribution(self, case):
        unit = build_units(
            programs=range(1),
            platforms=("bmv2",),
            generator=GeneratorConfig(seed=3),
            enabled_bugs=ENABLED,
            max_tests=4,
        )[0]
        matrix_unit = MatrixUnit(
            bug_id="bmv2_wide_field_truncation",
            platform="bmv2",
            generator=GeneratorConfig(seed=3, p_narrowing_cast=0.4),
            programs_per_bug=12,
            sequence_length=1,
            start=2,
        )
        original, cls = {
            "work-unit": (unit, KINDS[KIND_WORK].unit),
            "matrix-unit": (matrix_unit, KINDS[KIND_MATRIX].unit),
            "matrix-outcome": (
                MatrixOutcome(
                    bug_id="bmv2_wide_field_truncation",
                    detected=True,
                    technique="symbolic_execution",
                    attempts=3,
                    fresh=[stages.run_unit(matrix_unit.work_unit(2))],
                ),
                KINDS[KIND_MATRIX].outcome,
            ),
        }[case]
        payload = json.loads(json.dumps(original.to_dict()))
        back = cls.from_dict(payload)
        assert back == original
        assert back.key == original.key
        if case == "work-unit":
            assert back.generator == unit.generator
            assert back.enabled_bugs == unit.enabled_bugs


class TestPhaseEnd:
    def test_phase_ends_without_waiting_out_a_retry_sleep(self, monkeypatch):
        # Two one-platform programs fill one lease, so the second worker
        # is told to retry in 30 s; the phase must end when the first
        # worker's outcomes arrive, not when the sleeper wakes.
        monkeypatch.setattr(coordinator, "DEFAULT_RETRY_S", 30.0)
        units = build_units(range(2), ("p4c",), GeneratorConfig(seed=3), ENABLED, 4)
        start = time.monotonic()
        outcomes = list(DistributedExecutor(2).run_units(units))
        assert sorted(outcome.key for outcome in outcomes) == [unit.key for unit in units]
        assert time.monotonic() - start < 5.0

    def test_a_unit_that_raises_fails_the_phase_without_a_crash_loop(
        self, monkeypatch
    ):
        original = stages.run_unit

        def run_unit(unit):
            if unit.program_index == 3:
                raise KeyError("injected")
            return original(unit)

        # Fleet workers are forked after the patch, so they run it.  At the
        # default lease TTL, re-leasing the unit to replacement workers
        # would take minutes to give up.
        monkeypatch.setattr(stages, "run_unit", run_unit)
        with pytest.raises(KeyError):
            CampaignEngine(small_spec(programs=8)).run()
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with status 1"):
            CampaignEngine(
                small_spec(programs=8), executor=DistributedExecutor(2)
            ).run()
        assert time.monotonic() - start < 30.0

    @pytest.mark.parametrize("kind", [KIND_TRIAGE, KIND_MATRIX])
    def test_triage_and_matrix_units_lease_one_at_a_time(self, kind, monkeypatch):
        # One lease per unit, so two workers can run two reductions side by
        # side: the program-sized lease minimum is for generation units.
        finding = FindingRecord(
            kind="crash", platform="p4c", pass_name="P", description="boom"
        )
        units = {
            KIND_TRIAGE: [
                TriageUnit(identifier=f"p4c:{n}", platform="p4c", source="", finding=finding)
                for n in range(2)
            ],
            KIND_MATRIX: [
                MatrixUnit(bug, "p4c", GeneratorConfig(seed=3), programs_per_bug=1)
                for bug in ENABLED[:2]
            ],
        }[kind]
        monkeypatch.setattr(
            stages,
            "run_triage_unit",
            lambda unit: TriageOutcome(unit.identifier, TRIAGE_UNREPRODUCED),
        )
        monkeypatch.setattr(
            stages,
            "run_matrix_unit",
            lambda unit: MatrixOutcome(unit.bug_id, False, "", 1, []),
        )
        executor = DistributedExecutor(2)
        outcomes = list(executor.run_units(units, kind))
        assert sorted(outcome.key for outcome in outcomes) == sorted(
            unit.key for unit in units
        )
        assert executor.service_counters["dist_leases_issued"] == 2
