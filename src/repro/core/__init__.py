"""The paper's analysis pipeline — the primary contribution.

Everything in this package consumes only what the authors had: flow-level
logs (:mod:`repro.trace`), active RTT measurements, whois lookups and CBG
results.  Nothing reads the simulator's ground truth, so every regenerated
table and figure is a genuine inference test of the methodology.

Module map (paper section → module):

* §VI-A flow types and sessions → :mod:`repro.core.flows`,
  :mod:`repro.core.sessions`
* the traffic folds that Tables I-II, §VI-B and Figure 9 read, in batch
  and streamed alike → :mod:`repro.core.folds`
* §III-B Table I → :mod:`repro.core.summary`
* §IV Table II → :mod:`repro.core.asmap`
* §V Table III, Figures 2-3 → :mod:`repro.core.geography`
* §VI-B Figures 7-9 → :mod:`repro.core.preferred`,
  :mod:`repro.core.nonpreferred`
* §VI-C Figure 10 → :mod:`repro.core.nonpreferred`
* §VII-A Figure 11 → :mod:`repro.core.loadbalance`
* §VII-B Figure 12 → :mod:`repro.core.subnets`
* §VII-C Figures 13-16 → :mod:`repro.core.hotspots`
* end-to-end orchestration → :mod:`repro.core.pipeline`
"""
