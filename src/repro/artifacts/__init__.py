"""Content-addressed artifact store and stage-level memoization.

The study's stages are deterministic functions of (config, master seed,
code version) — byte-identity in a pool and in-process is a tested
contract — so their outputs are cacheable by content address.  This
package supplies the three layers:

* :mod:`repro.artifacts.keys` — canonical serialisation and sha256 stage
  keys over (stage name, canonical config, code-version tag).
* :mod:`repro.artifacts.store` — the process-safe on-disk store
  (``REPRO_CACHE_DIR``, default ``~/.cache/repro``), with atomic writes,
  durable hit/miss/bytes counters, ``clear()`` and LRU ``gc()``.
* :mod:`repro.artifacts.memo` — the ``@memoized_stage`` decorator wiring
  the two into any deterministic stage function.

Warm re-runs and sweeps then pay only for changed stages: an N-variant
sweep simulates the shared base world once, and a re-run of an unchanged
study is pure artifact loads.
"""
