"""The repository benchmark: Symbolic QED time-to-verdict, end to end and
layer by layer.

``python3 qedbench/run.py --workload detect|prove|serve --seed N
--seconds S --trace 0|1`` runs one workload and prints, as its last
stdout line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
listed in ``BENCHMARK.json``; with ``--trace 1`` the run makes an untraced
pass and a traced pass and reports the per-layer table.  Everything
before the last line is a human-readable report with units and sample
counts.

The benchmark drives the system only through public entry points
(:func:`repro.eval.campaign.detect_bug`, ``SymbolicQED(...).check`` and the
HTTP API through :class:`repro.serve.ServeClient` against
``scripts/serve_qed.py serve``), so refactors behind them need no
benchmark edits.
"""
