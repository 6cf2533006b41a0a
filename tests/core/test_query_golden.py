"""Every SAT query of validation and test generation, pinned.

A golden digest of what each :class:`~repro.smt.Solver` hands its SAT
solver — the variable count and every clause list, in order, plus the
assumptions of each solve — together with each check's verdict and
model.  The corpus is 40 default and 20 register-heavy programs run
through :func:`~repro.core.reduce.oracles.platform_verdict` on p4c, bmv2
and tofino (translation validation, then the back ends' symbolic packet
tests), first with no defect and then with the triage benchmark's eight
defects, each time from cold caches.

A change to the equivalence layer's memo, its case split or the
bit-blaster's encoding moves this digest; one that only deletes code no
query runs does not.
"""

import hashlib
import itertools

from repro.core.engine import reset_worker_state
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.reduce.oracles import platform_bugs, platform_verdict
from repro.p4 import emit_program
from repro.smt.sat import SatSolver
from repro.smt.solver import CheckResult, Solver

CORPORA = ((GeneratorConfig(seed=41), 40), (GeneratorConfig(seed=41, p_register=0.9), 20))

PLATFORMS = ("p4c", "bmv2", "tofino")

#: The eight defects of the seeded-triage benchmark workload.
REDUCE_BUGS = (
    "strength_reduction_negative_slice",
    "typecheck_shift_width_crash",
    "exit_ignores_copy_out",
    "constant_folding_no_mask",
    "simplify_control_flow_empty_if",
    "bmv2_wide_field_truncation",
    "tofino_slice_assignment_drop",
    "tofino_exit_in_action_crash",
)

#: Recorded before the batched-equivalence path, the cone solve and the CNF
#: builder's clause provenance were deleted.
GOLDEN_DIGEST = "22ba4c150fc81a8627c639c0deca5f65f50b97e1f24091cfb63e511f1480c602"


class _Recorder:
    """Wraps the SAT solver's input methods and ``Solver.check`` at class
    level.  A SAT solver call made inside another one (``__init__`` adds its
    clauses, ``add_clauses`` grows the variable space) is not recorded."""

    def __init__(self, monkeypatch):
        self.digest = hashlib.sha256()
        self.events = 0
        self._depth = 0
        self._serials = itertools.count()
        self._wrap(monkeypatch, SatSolver, "__init__", self._new)
        self._wrap(monkeypatch, SatSolver, "ensure_num_vars", self._num_vars)
        self._wrap(monkeypatch, SatSolver, "add_clauses", self._clauses)
        self._wrap(monkeypatch, SatSolver, "solve", self._solve)
        self._wrap(monkeypatch, Solver, "check", self._check)

    def _wrap(self, monkeypatch, cls, name, describe):
        real = getattr(cls, name)

        nests = cls is SatSolver

        def recorded(obj, *args, **kwargs):
            outer = self._depth == 0 or not nests
            event = describe(obj, *args, **kwargs) if outer else None
            self._depth += nests
            try:
                result = real(obj, *args, **kwargs)
            finally:
                self._depth -= nests
            if outer:
                self._record(event, obj, result)
            return result

        monkeypatch.setattr(cls, name, recorded)

    def _record(self, event, obj, result):
        if isinstance(obj, Solver):
            model = sorted(obj.model().items()) if result == CheckResult.SAT else None
            event = (event, result.value, model)
        elif event[0] == "solve":
            event = (event, result.satisfiable, result.complete, result.conflicts)
        self.digest.update(repr((getattr(obj, "_pin_serial", None), event)).encode())
        self.events += 1

    def _new(self, solver, num_vars=0, clauses=()):
        solver._pin_serial = next(self._serials)
        return ("new", num_vars, [list(clause) for clause in clauses])

    @staticmethod
    def _num_vars(solver, num_vars):
        return ("num_vars", num_vars)

    @staticmethod
    def _clauses(solver, clauses):
        return ("clauses", [list(clause) for clause in clauses])

    @staticmethod
    def _solve(solver, assumptions=(), max_conflicts=None):
        return ("solve", list(assumptions), max_conflicts)

    @staticmethod
    def _check(solver, *extra, max_conflicts=None):
        return ("check", [str(term) for term in extra], max_conflicts)


def test_every_solver_query_of_the_corpus_is_pinned(monkeypatch):
    programs = []
    for config, count in CORPORA:
        generator = RandomProgramGenerator(config)
        programs.extend(generator.generate_indexed(i) for i in range(count))
    recorder = _Recorder(monkeypatch)
    for bugs in ((), REDUCE_BUGS):
        reset_worker_state()
        for program in programs:
            source = emit_program(program)
            for platform in PLATFORMS:
                platform_verdict(program, source, platform, platform_bugs(bugs, platform))
    assert recorder.events > 2000
    assert recorder.digest.hexdigest() == GOLDEN_DIGEST
