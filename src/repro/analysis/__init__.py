"""House-rules static analysis for the repro tree (``repro-lint``).

The package enforces the project's load-bearing invariants at lint
time instead of by convention:

=======  ==============================================================
RPR100   suppression comments must carry a justification
RPR101   no dense n×k materialisation in engine//core/ hot paths
RPR102   raise repro.errors types, not bare stdlib errors
RPR103   pickle-free artifacts (no ``import pickle``; ``np.load``
         pins ``allow_pickle=False``)
RPR104   ParamSpec <-> ``__init__`` conformance (defaults, clone
         round-trips)
RPR105   fit-bearing estimators registered; factory layers construct
         via ``make_estimator`` only
RPR106   ``_guarded_by`` lock discipline (mutations under the lock, no
         await/blocking calls while holding one)
RPR107   span/metric names dotted-lowercase, one kind per name
RPR108   bench probes deterministic (no wall clock, no unseeded RNG)
RPR999   file does not parse
=======  ==============================================================

Two layers: :mod:`repro.analysis.core` is the dependency-free engine
(findings, suppressions, the grandfather baseline, output formats);
rules are either syntactic (:mod:`repro.analysis.rules`, pure AST) or
introspective (:mod:`repro.analysis.contracts`,
:mod:`repro.analysis.locks` — import the package and interrogate live
classes).  :mod:`repro.analysis.lockdep` is the dynamic companion to
RPR106: a lock-order cycle detector the serve/obs test suites run
under.  The ``repro-lint`` console script (``repro.analysis.cli``)
drives everything; CI runs ``repro-lint check`` as a blocking job.

Suppressing a finding in place requires a reason::

    x = np.zeros((n, k))  # repro-lint: disable=RPR101 -- reference impl

and pre-existing findings live in ``.repro-lint-baseline.json``, whose
entry count may only shrink (CI compares against the committed copy).
"""

from .core import (
    Baseline,
    Finding,
    Rule,
    SourceModule,
    apply_baseline,
    format_findings,
    load_modules,
    run_rules,
)

__all__ = [
    "Baseline",
    "Finding",
    "Rule",
    "SourceModule",
    "apply_baseline",
    "format_findings",
    "load_modules",
    "run_rules",
    "all_rules",
    "rule_by_id",
]


def all_rules(root):
    """Every house rule, syntactic and introspective, for ``root``."""
    from .contracts import ParamSpecConformanceRule, RegistryConformanceRule
    from .locks import LockDisciplineRule
    from .rules import syntactic_rules

    return syntactic_rules() + [
        ParamSpecConformanceRule(root),
        RegistryConformanceRule(root),
        LockDisciplineRule(),
    ]


def rule_by_id(root, rule_id: str):
    """The rule instance for ``rule_id`` (None when unknown)."""
    for rule in all_rules(root):
        if rule.rule_id == rule_id.upper():
            return rule
    return None
