# Gauntlet reproduction -- developer entry points.
#
#   make test           run the tier-1 suite (unit tests + figure/table benchmarks)
#   make fast           unit tests only (the slow paper benchmarks are deselected)
#   make bench          run the perf harness; writes BENCH_campaign.json
#   make bench-scaling  also record the worker-scaling curve (jobs = 1, 2, 4, 8;
#                       serial at 1, a local worker fleet above)
#   make bench-reduce   also record per-report reduction ratio + wall time and
#                       the triage stage's SAT invocations and conflicts;
#                       fails below the mean-reduction target or above 104
#                       SAT invocations
#   make bench-hotpath  record the validation hot-path section (programs/sec,
#                       SAT invocations and conflicts, case-split equivalences,
#                       budget-exhausted queries, snapshot emits, type checks,
#                       cache hit rates incl. the lexer, statement and
#                       typecheck memos, garbage collections) and fail on a
#                       deterministic regression (more than 897 SAT calls,
#                       more than 10 conflicts, any budget-exhausted query,
#                       more than 988 snapshot emits, more than 1588 type
#                       checks, a cache without hits (the lexer and statement
#                       memos among them), full collections, jobs=1 vs
#                       jobs=4 reports)
#   make bench-distributed run the coordinator/worker smoke (clean localhost
#                       fleets of 1 and 2 workers, then 2 with one killed
#                       mid-lease) and fail if the merged reports are not
#                       byte-identical to jobs=1 or a clean fleet misses the
#                       per-program caches more often than the serial run
#   make bench-stateful run the multi-packet stateful campaign (3-packet
#                       sequences over a register-heavy corpus) plus the
#                       detection matrix; fails if a stateful seeded defect
#                       goes undetected or a baseline defect is lost
#   make bench-coverage run the swarm-generation section: the knob-arm
#                       rotation must light at least as many rule cells as
#                       the static config (every seed) and the replaced
#                       bandit (in total), and scheduled campaigns must be
#                       byte-identical across executors
#   make check-detection run the per-defect detection matrix and fail if a
#                       baseline-detected seeded defect is no longer found
#   make check-docs     fail on dead relative links / stale module paths in docs
#   make check-perfbench run the campaign benchmark's correctness check (one
#                       traced 5 s run per workload) and fail unless every
#                       run's reports and verdicts match perfbench/expected.json
#   make clean          remove caches and benchmark artefacts

PYTHON ?= python
PYTHONPATH := src

.PHONY: test fast bench bench-scaling bench-reduce bench-hotpath bench-distributed bench-stateful bench-coverage check-detection check-docs check-perfbench clean

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

fast:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q -m "not slow"

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_campaign.py

bench-scaling:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_campaign.py --scaling

bench-reduce:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_campaign.py --reduce

bench-hotpath:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_campaign.py --hotpath

bench-distributed:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_campaign.py --distributed

bench-stateful:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_campaign.py --stateful --matrix

bench-coverage:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_campaign.py --coverage

check-detection:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/perf/bench_campaign.py --matrix

check-docs:
	$(PYTHON) tools/check_docs.py

check-perfbench:
	$(PYTHON) tools/check_perfbench.py

clean:
	rm -rf .pytest_cache .hypothesis BENCH_campaign.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
