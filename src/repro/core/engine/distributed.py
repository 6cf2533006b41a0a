"""DistributedExecutor: a coordinator plus a fleet of worker processes.

The parallel executor behind the engine's transport seam (``jobs=N > 1``
runs on N local workers): ``run_units`` starts a
:class:`~repro.core.engine.coordinator.CoordinatorService` for the phase,
forks up to ``workers`` local worker processes (no more than the phase
has programs) that dial it over localhost TCP with the phase's secret
token (the same protocol remote workers would use over a LAN), and
yields accepted outcomes as they stream in.  With ``workers=0`` the
executor is *serve-only*: it binds the given address and waits for
externally started workers (``examples/bug_campaign.py --worker
HOST:PORT``) to drain the phase — that is the coordinator-daemon
deployment.

Fleet supervision is deliberately thin: the coordinator already converts
a dead worker into a reclaimed lease, so the executor only needs to keep
*some* worker alive.  A spawned worker that dies before the phase is done
is replaced (at most ``workers`` times); a worker fleet that cannot stay
up long enough to finish raises instead of hanging.  A worker that exits
with status 1 let a unit's exception escape, and re-leasing that unit
would crash its replacement too, so the phase fails at once.

``fail_after`` maps worker ordinals to a unit count after which that
worker hard-exits mid-lease (``os._exit``, no goodbye) — the fault
injection used by ``tests/core/test_distributed.py`` and
``benchmarks/perf/bench_campaign.py --distributed`` to prove the
reclaim/merge path under real process death.
"""

from __future__ import annotations

import multiprocessing
import secrets
from typing import Callable, Dict, Iterator, Optional, Sequence

from repro.core.engine.coordinator import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_LEASE_TTL_S,
    DEFAULT_LEASE_UNITS,
    CoordinatorService,
)
from repro.core.engine.units import KIND_WORK, program_groups
from repro.core.engine.worker import run_worker


class DistributedExecutor:
    """Run unit batches on a leased coordinator/worker fleet.

    ``lease_units`` is a minimum, not a size: a lease takes at least that
    many contiguous pending units, then runs on to the end of the last
    unit's program, so all of a program's units (and the per-process
    caches they share) land on one worker.  The default of 4 leases two
    programs at a time on three platforms and one program on four.
    Triage and matrix units have no program to share and lease one at a
    time: each runs for seconds, so a lease round trip costs nothing, and
    a phase of a few such units spreads over every worker.
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
        fail_after: Optional[Dict[int, int]] = None,
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
        self._fail_after = dict(fail_after or {})
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
        # The port is open to every local process, so a per-phase secret
        # admits only the workers forked below.  Serve mode admits any
        # worker that dials it.
        token = secrets.token_hex(16) if self.workers else None
        coordinator = CoordinatorService(
            units,
            kind,
            host=self._host,
            port=self._port,
            sink=sink,
            journal=journal,
            lease_units=self._lease_units if kind == KIND_WORK else 1,
            lease_ttl_s=self._ttl,
            heartbeat_s=self._heartbeat_s,
            token=token,
        )
        host, port = coordinator.start()

        # ``fork`` where the platform offers it: workers inherit the
        # imported compiler and solver modules for free.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        procs: list = []
        spawn_seq = 0
        respawns_left = self.workers

        def spawn(ordinal: int, fault: Optional[int]) -> None:
            nonlocal spawn_seq
            spawn_seq += 1
            name = f"dw{ordinal}-{spawn_seq}"
            proc = context.Process(
                target=run_worker,
                args=(host, port, name),
                kwargs={"fail_after": fault, "token": token},
                name=name,
                daemon=True,
            )
            proc.start()
            procs.append((ordinal, proc))

        # A lease never splits a program, so a worker beyond the phase's
        # program count would only sit idle.
        for ordinal in range(min(self.workers, len(program_groups(units)))):
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
            for _, proc in procs:
                if proc.exitcode == 1:
                    raise RuntimeError(
                        f"distributed worker {proc.name} exited with status 1: "
                        "a unit raised (see the worker's traceback on stderr)"
                    )
            for slot in range(len(procs)):
                ordinal, proc = procs[slot]
                if proc.exitcode is None or respawns_left <= 0:
                    continue
                respawns_left -= 1
                proc.join()
                procs.pop(slot)
                spawn(ordinal, None)
                break
            if procs and not any(proc.exitcode is None for _, proc in procs):
                raise RuntimeError(
                    "all distributed workers exited before the phase drained "
                    "and the respawn budget is exhausted"
                )

        try:
            yield from coordinator.outcomes(on_idle=supervise)
            self.service_counters = coordinator.counters.snapshot()
        finally:
            # A drained phase has accepted and persisted every outcome; do
            # not wait out a worker asleep in a ``retry_in`` backoff.
            for _, proc in procs:
                proc.terminate()
            coordinator.stop()
            for _, proc in procs:
                proc.join(timeout=5.0)
