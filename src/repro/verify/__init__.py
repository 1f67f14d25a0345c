"""Correctness-and-robustness subsystem: oracles, replay, fault injection.

Three pillars (see ``docs/verification.md``):

* :mod:`repro.verify.oracles` — slow-but-obviously-correct reference
  implementations of the paper's metrics (Eq. 1/2/3), the consistency
  condition, and an independent expand+fold volume; ``check_all()`` and
  ``verify_decompose()`` return structured reports.  Wired into
  ``decompose(..., verify=True)`` / ``REPRO_VERIFY=1`` and the
  ``repro verify`` CLI.
* :mod:`repro.verify.replay` — differential replay of one seed across
  serial/process × tree-parallel × K-way, diffing partitions, cuts
  and telemetry and reporting the first divergent stage.
* :mod:`repro.verify.faults` — deterministic fault plans
  (``REPRO_FAULTS``) that crash workers, stop heartbeats and delay tasks
  at named sites so the graceful-degradation paths can be asserted.

Exports resolve lazily (PEP 562): the hot production modules import
``repro.verify.faults`` directly, and nothing here may drag the full
``decompose()`` stack (which :mod:`repro.verify.replay` imports) into
those import chains.
"""

from __future__ import annotations

from importlib import import_module

_EXPORTS = {
    # oracles
    "CheckResult": "repro.verify.oracles",
    "VerificationReport": "repro.verify.oracles",
    "VerificationError": "repro.verify.oracles",
    "check_partition": "repro.verify.oracles",
    "check_decomposition": "repro.verify.oracles",
    "check_all": "repro.verify.oracles",
    "verify_decompose": "repro.verify.oracles",
    "oracle_volume": "repro.verify.oracles",
    "oracle_consistency": "repro.verify.oracles",
    "oracle_cutsize_connectivity": "repro.verify.oracles",
    "exact_optimality_gap": "repro.verify.oracles",
    # replay
    "ReplayVariant": "repro.verify.replay",
    "ReplayReport": "repro.verify.replay",
    "replay_decompose": "repro.verify.replay",
    "write_replay_report": "repro.verify.replay",
    "default_variants": "repro.verify.replay",
    # faults
    "FaultPlan": "repro.verify.faults",
    "FaultSpec": "repro.verify.faults",
    "FaultInjected": "repro.verify.faults",
    "inject": "repro.verify.faults",
    "trip": "repro.verify.faults",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.verify' has no attribute {name!r}")
    return getattr(import_module(module), name)


def __dir__():
    return __all__
