"""The serial executor, and the transport seam every executor implements.

``run_units(units, kind, sink, journal)`` yields one outcome per unit in
*completion* order, calling ``sink`` (persistence) on each before it is
yielded, so the engine is indifferent to where units run: in the calling
process (:class:`SerialExecutor`, ``jobs=1``) or on a coordinator/worker
fleet (:class:`~repro.core.engine.distributed.DistributedExecutor`, local
for ``jobs > 1``).  The merge orders outcomes by unit key, which makes the
campaign result independent of the executor.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence

from repro.core.engine.stages import runner_for
from repro.core.engine.units import KIND_WORK


class SerialExecutor:
    """Run every unit in the calling process, in submission order."""

    jobs = 1

    def run_units(
        self,
        units: Sequence,
        kind: str = KIND_WORK,
        sink: Optional[Callable[[object], None]] = None,
        journal: Optional[Callable[[Dict], None]] = None,
    ) -> Iterator[object]:
        # No leases, so the journal goes unused.
        run = runner_for(kind)
        for unit in units:
            outcome = run(unit)
            if sink is not None:
                sink(outcome)
            yield outcome
