"""Probe tests for the docs checker's README-versus-code checks."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_spec = importlib.util.spec_from_file_location(
    "check_docs", os.path.join(ROOT, "tools", "check_docs.py")
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

MAKEFILE = ".PHONY: test bench-hotpath\n\ntest:\n\tpytest\n"
README = """\
| seeded-defect catalog | `src/repro/compiler/bugs.py` | 34 defects |

| Target | What it does |
|---|---|
| `make test` | tier-1 suite |
| `make bench-hotpath` | hot-path gate |
"""


def problems(readme=README, makefile=MAKEFILE, defect_count=34):
    return list(check_docs.readme_problems(readme, makefile, defect_count))


def test_consistent_readme_passes():
    assert problems() == []


def test_defect_count_must_match_the_catalog():
    assert problems(defect_count=35) == ["says 34 defects, but the catalog has 35"]


def test_a_readme_without_a_defect_count_fails():
    assert problems(readme=README.replace("34 defects", "many defects")) == [
        "states no seeded-defect count"
    ]


def test_phony_target_missing_from_the_table_fails():
    readme = README.replace("| `make bench-hotpath` | hot-path gate |\n", "")
    assert problems(readme=readme) == [
        "make target 'bench-hotpath' is missing from the make-target table"
    ]


def test_a_mention_outside_the_table_does_not_count():
    readme = README.replace(
        "| `make bench-hotpath` | hot-path gate |\n", "Run `make bench-hotpath` too.\n"
    )
    assert problems(readme=readme) == [
        "make target 'bench-hotpath' is missing from the make-target table"
    ]


def test_the_repository_readme_is_consistent():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    with open(os.path.join(ROOT, "Makefile"), encoding="utf-8") as handle:
        makefile = handle.read()
    assert problems(readme, makefile, check_docs.catalog_size()) == []


WORDS = {"CampaignEngine", "run", "KnobArm", "apply", "ARM_CATALOG", "coverage", "SAT"}


def symbols(text, words=WORDS):
    return list(check_docs.symbol_problems(text, words))


def test_live_symbols_pass():
    text = "`CampaignEngine.run` steers with `KnobArm.apply()` over `ARM_CATALOG`.\n"
    assert symbols(text) == []


def test_deleted_member_is_flagged():
    text = "See `KnobArm`.\nThe loop is `CampaignEngine._run_scheduled`.\n"
    assert symbols(text) == [(2, "stale symbol: `CampaignEngine._run_scheduled`")]


def test_deleted_class_and_constant_are_flagged():
    text = "`BanditScheduler` draws from `ARM_PROFILES`.\n"
    assert symbols(text) == [
        (1, "stale symbol: `BanditScheduler`"),
        (1, "stale symbol: `ARM_PROFILES`"),
    ]


def test_non_symbol_spans_literals_and_fences_are_ignored():
    text = (
        "`schedule_rounds=4`, `coverage()`, `None`, `True`, `False`, `SAT`\n"
        "```\nsee `BanditScheduler`\n```\n"
    )
    assert symbols(text) == []


def test_single_word_caps_their_members_and_repro_paths_are_checked():
    text = (
        "`KINDS` and `KINDS.items()` live; `TALLY` and `TALLY.snapshot()` do not.\n"
        "`repro.metrics.COUNTERS` replaced `repro.smt.TALLY`.\n"
    )
    words = WORDS | {"KINDS", "items", "repro", "metrics", "COUNTERS", "smt", "snapshot"}
    assert symbols(text, words) == [
        (1, "stale symbol: `TALLY`"),
        (1, "stale symbol: `TALLY.snapshot()`"),
        (2, "stale symbol: `repro.smt.TALLY`"),
    ]


def test_the_repository_package_readmes_name_live_symbols():
    words = check_docs.code_words()
    for path in check_docs.markdown_files(ROOT):
        stale = [
            entry for entry in check_docs.check_file(path, words)
            if entry[1].startswith("stale symbol")
        ]
        assert stale == [], path


def test_fenced_module_map_rows_are_checked():
    text = (
        "```\n"
        " engine/engine.py   CampaignEngine        (round loop)\n"
        " engine/executor.py SerialExecutor | BanditScheduler\n"
        " reduce/            KnobArm(ARM_PROFILES) steering\n"
        "```\n"
    )
    assert symbols(text, WORDS | {"SerialExecutor"}) == [
        (3, "stale symbol: `BanditScheduler`"),
        (4, "stale symbol: `ARM_PROFILES`"),
    ]


def test_fenced_lines_that_are_not_map_rows_are_ignored():
    text = (
        "```\n"
        "PYTHONPATH=src python -c 'BanditScheduler()'\n"
        "    |        BanditScheduler\n"
        "```\n"
        " engine.py   BanditScheduler (outside a fence: prose)\n"
    )
    assert symbols(text) == []
