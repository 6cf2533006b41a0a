"""DistributedExecutor: a coordinator plus a fleet of worker processes.

The third executor behind the engine's transport seam (next to
``SerialExecutor`` and ``ProcessPoolExecutor``): ``run_units`` starts a
:class:`~repro.core.engine.coordinator.CoordinatorService` for the phase,
spawns ``workers`` local worker processes that dial it over localhost TCP
(the same protocol remote workers would use over a LAN), and yields
accepted outcomes as they stream in.  With ``workers=0`` the executor is
*serve-only*: it binds the given address and waits for externally started
workers (``examples/bug_campaign.py --worker HOST:PORT``) to drain the
phase — that is the coordinator-daemon deployment.

Fleet supervision is deliberately thin: the coordinator already converts
a dead worker into a reclaimed lease, so the executor only needs to keep
*some* worker alive.  When a spawned worker exits before the phase is
done it is replaced (up to ``max_respawns``); a worker fleet that cannot
stay up long enough to finish raises instead of hanging.

``fail_after`` maps worker ordinals to a unit count after which that
worker hard-exits mid-lease (``os._exit``, no goodbye) — the fault
injection used by ``tests/core/test_distributed.py`` and
``benchmarks/perf/bench_campaign.py --distributed`` to prove the
reclaim/merge path under real process death.  Injected workers are never
respawned (their death is the point).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence

from repro.core.engine.coordinator import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_LEASE_UNITS,
    DEFAULT_MAX_INFLIGHT_LEASES,
    DEFAULT_MAX_OUTSTANDING,
    CoordinatorService,
)
from repro.core.engine.executor import fork_context
from repro.core.engine.units import KIND_WORK
from repro.core.engine.worker import worker_process_main


class DistributedExecutor:
    """Run unit batches on a leased coordinator/worker fleet.

    ``lease_units`` is a minimum, not a size: a lease takes at least that
    many contiguous pending units, then runs on to the end of the last
    unit's program, so all of a program's units (and the per-process
    caches they share) land on one worker.  The default of 4 leases two
    programs at a time on three platforms and one program on four.
    Triage units have no program to share and lease exactly
    ``lease_units`` at a time.
    """

    def __init__(
        self,
        workers: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_units: int = DEFAULT_LEASE_UNITS,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        max_inflight_leases: int = DEFAULT_MAX_INFLIGHT_LEASES,
        max_outstanding: int = DEFAULT_MAX_OUTSTANDING,
        fail_after: Optional[Dict[int, int]] = None,
        max_respawns: Optional[int] = None,
        announce: Optional[Callable[[str], None]] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("DistributedExecutor needs workers >= 0")
        if workers == 0 and port == 0:
            raise ValueError(
                "serve-only mode (workers=0) needs an explicit port for "
                "external workers to dial"
            )
        self.workers = workers
        self.jobs = max(1, workers)
        self._host = host
        self._port = port
        self._lease_units = lease_units
        self._ttl = lease_ttl_s
        self._heartbeat_s = heartbeat_s
        self._max_inflight = max_inflight_leases
        self._max_outstanding = max_outstanding
        self._fail_after = dict(fail_after or {})
        self._max_respawns = workers if max_respawns is None else max_respawns
        self._announce = announce or (lambda message: None)
        #: Service counters of the most recent ``run_units`` phase
        #: (``dist_*`` keys), merged into ``CampaignStatistics.counters``.
        self.service_counters: Dict[str, int] = {}

    def run_units(
        self,
        units: Sequence,
        kind: str = KIND_WORK,
        sink: Optional[Callable[[object], None]] = None,
        journal: Optional[Callable[[Dict], None]] = None,
    ) -> Iterator[object]:
        units = list(units)
        self.service_counters = {}
        if not units:
            return
        coordinator = CoordinatorService(
            units,
            kind,
            host=self._host,
            port=self._port,
            sink=sink,
            journal=journal,
            lease_units=self._lease_units,
            lease_ttl_s=self._ttl,
            heartbeat_s=self._heartbeat_s,
            max_inflight_leases=self._max_inflight,
            max_outstanding=self._max_outstanding,
        )
        host, port = coordinator.start()
        self._announce(f"coordinator serving {len(units)} {kind} units on {host}:{port}")

        context = fork_context()
        procs: list = []
        spawn_seq = 0
        respawns_left = self._max_respawns

        def spawn(ordinal: int, fault: Optional[int]) -> None:
            nonlocal spawn_seq
            spawn_seq += 1
            name = f"dw{ordinal}-{spawn_seq}"
            proc = context.Process(
                target=worker_process_main,
                args=(host, port, name, fault),
                name=name,
                daemon=True,
            )
            proc.start()
            procs.append((ordinal, proc, fault))

        for ordinal in range(self.workers):
            spawn(ordinal, self._fail_after.get(ordinal))

        def supervise() -> None:
            """Replace one dead spawned worker per idle tick while work remains.

            A fault-injected worker's death is replaced by a *clean* worker:
            the injection exists to force a lease reclaim, not to shrink
            the fleet for the rest of the phase.
            """

            if self.workers == 0 or coordinator.done:
                return
            nonlocal respawns_left
            for slot in range(len(procs)):
                ordinal, proc, _ = procs[slot]
                if proc.exitcode is None or respawns_left <= 0:
                    continue
                respawns_left -= 1
                proc.join()
                procs.pop(slot)
                spawn(ordinal, None)
                break
            if procs and not any(proc.exitcode is None for _, proc, _ in procs):
                raise RuntimeError(
                    "all distributed workers exited before the phase drained "
                    "and the respawn budget is exhausted"
                )

        try:
            yield from coordinator.outcomes(on_idle=supervise)
            self.service_counters = coordinator.counters.snapshot()
        finally:
            coordinator.stop()
            for _, proc, _ in procs:
                proc.join(timeout=10.0)
                if proc.exitcode is None:
                    proc.terminate()
                    proc.join(timeout=5.0)
