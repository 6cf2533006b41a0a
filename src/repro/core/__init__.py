"""Gauntlet: the paper's primary contribution.

The package combines three techniques (paper §1):

* :mod:`repro.core.generator` -- random generation of well-typed P4 programs
  to provoke crash bugs,
* :mod:`repro.core.interpreter` + :mod:`repro.core.validation` -- a symbolic
  interpreter that converts P4 blocks into SMT formulas, and translation
  validation that compares the formulas before and after every compiler
  pass to find semantic bugs and pinpoint the defective pass,
* :mod:`repro.core.testgen` -- symbolic-execution-based test-case generation
  for closed back ends (Tofino) where intermediate programs are unavailable.

:mod:`repro.core.campaign` orchestrates all three into a bug-finding
campaign and produces the statistics reported in the paper's evaluation
(Tables 2 and 3).
"""

from repro.core.bugs import BugKind, BugLocation, BugReport, BugTracker
from repro.core.generator import GeneratorConfig, RandomProgramGenerator
from repro.core.interpreter import BlockSemantics, SymbolicInterpreter, TableInfo
from repro.core.validation import (
    TranslationValidator,
    ValidationOutcome,
    ValidationReport,
)
from repro.core.testgen import SymbolicTestGenerator, GeneratedTest
from repro.core.campaign import Campaign, CampaignConfig, CampaignStatistics
from repro.core.engine import CampaignEngine, CampaignSpec, DetectionRecord
from repro.core.levels import ConformanceLevel, classify_input_level
from repro.core.reduce import ReductionResult, program_size, reduce_program
from repro.core.schedule import ARM_CATALOG, KnobArm

__all__ = [
    "BugKind",
    "BugLocation",
    "BugReport",
    "BugTracker",
    "GeneratorConfig",
    "RandomProgramGenerator",
    "BlockSemantics",
    "SymbolicInterpreter",
    "TableInfo",
    "TranslationValidator",
    "ValidationOutcome",
    "ValidationReport",
    "SymbolicTestGenerator",
    "GeneratedTest",
    "Campaign",
    "CampaignConfig",
    "CampaignEngine",
    "CampaignSpec",
    "CampaignStatistics",
    "DetectionRecord",
    "ConformanceLevel",
    "classify_input_level",
    "ReductionResult",
    "program_size",
    "reduce_program",
    "ARM_CATALOG",
    "KnobArm",
]
