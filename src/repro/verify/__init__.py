"""Independent verification of scheduler and solver outputs.

The paper's central artifact is the STRL->MILP formulation (Algorithm 1);
everything the scheduler emits is only as trustworthy as that compilation
and the interchangeable solve configurations built on top of it
(dense / sparse / decomposed, per LP engine and backend).  This package
is the oracle side of that bargain — three layers that recheck results without
reusing the code paths that produced them:

* :mod:`repro.verify.certificate` — replays a
  :class:`~repro.solver.result.MILPResult` against the model's canonical
  CSR export and confirms bounds, integrality, constraint satisfaction,
  and the claimed objective;
* :mod:`repro.verify.audit` — rechecks a cycle's schedule against the
  space-time invariants (no oversubscription in any quantum, no double
  placement, ``nCk``/``LnCk``/barrier shape conformance, objective
  reconciliation against the STRL values);
* :mod:`repro.verify.fuzz` — a seeded differential fuzz harness
  (``python -m repro fuzz``) asserting all solver configurations and
  backends agree on objective and auditor verdict.  Requires hypothesis,
  so it is *not* imported here; use ``from repro.verify import fuzz``.

The auditor runs per-cycle inside the scheduling pipeline when
``TetriSchedConfig(audit_mode=True)`` is set.
"""

from repro.verify.audit import (AuditReport, AuditViolation, Violation,
                                audit_cycle, check_ledger_orphans)
from repro.verify.certificate import CertificateReport, check_certificate

__all__ = ["AuditReport", "AuditViolation", "CertificateReport",
           "Violation", "audit_cycle", "check_certificate",
           "check_ledger_orphans"]
