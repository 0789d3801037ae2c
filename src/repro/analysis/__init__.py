"""``repro.analysis`` — AST-based determinism & concurrency contract checker.

The reproduction's guarantees (bitwise-identical values across executor
backends, content-addressed store hits, lossless interrupt->resume) rest on
repository-wide conventions that no general-purpose linter knows about.  This
package makes them machine-checked: a rule engine
(:mod:`~repro.analysis.engine`) runs a catalog of ``RPR0xx`` rules over the
source tree, with an explicit suppression pragma
(``# repro: allow[RPR0xx] reason=...``, :mod:`~repro.analysis.pragmas`) and
an optional shrinking baseline (:mod:`~repro.analysis.baseline`).

Rule catalog (details in ``docs/static-analysis.md``):

========  ===========================  =========================================
RPR001    unseeded-randomness          every generator derives from an explicit
                                       seed; no legacy/global RNG, no magic
                                       inline literal seeds in library code
RPR002    ambient-state-read           no wall-clock/environment reads: content
                                       fingerprints are pure functions of
                                       declared inputs
RPR003    unstable-iteration-order     no numeric folds over hash-ordered set
                                       iteration; ``sorted(...)`` first
RPR004    unpicklable-callable         callables crossing the pickling
                                       boundary must pickle (no lambdas or
                                       closures)
RPR005    checkpoint-incomplete        incremental estimators keep all state in
                                       the checkpointable payload and the
                                       framework-serialized rng
RPR006    unlocked-shared-mutation     lock-owning classes mutate shared state
                                       only under their lock
RPR007    swallowed-broad-exception    recovery paths never silently swallow
                                       broad exceptions
========  ===========================  =========================================

``RPR000`` is the checker's own meta-code: unparseable files, malformed
pragmas, and stale baseline entries.

Exposed on the CLI as ``repro check [paths] [--json] [--baseline FILE]
[--select/--ignore CODES]``; wired into CI through ``scripts/lint.sh``.
"""

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.context import FINGERPRINT_MODULES, ImportMap, ModuleContext
from repro.analysis.engine import (
    CheckReport,
    check_file,
    check_paths,
    iter_python_files,
)
from repro.analysis.findings import META_CODE, Finding
from repro.analysis.pragmas import Pragma, apply_suppressions, scan_pragmas
from repro.analysis.rules import (
    RULES,
    Rule,
    all_codes,
    register_rule,
    resolve_selection,
)

__all__ = [
    "CheckReport",
    "FINGERPRINT_MODULES",
    "Finding",
    "ImportMap",
    "META_CODE",
    "ModuleContext",
    "Pragma",
    "RULES",
    "Rule",
    "all_codes",
    "apply_baseline",
    "apply_suppressions",
    "check_file",
    "check_paths",
    "iter_python_files",
    "load_baseline",
    "register_rule",
    "resolve_selection",
    "scan_pragmas",
    "write_baseline",
]
