"""Test oracles: the seed library's scalar implementations.

The runtime under ``src/`` has one compute path per stage — the
vectorised front end, the encode-once similarity kernels and the batched
lexicon search.  The seed implementations they replaced live here,
unchanged, as the ground truth those paths are pinned to with ``==``
(never ``allclose``) by the parity tests and timed against by the speed
gates in ``benchmarks/``.  Nothing under ``src/`` imports this package.

* :mod:`oracles.dsp` — per-filter mel filterbank, per-frame overlap-add,
  per-clip front-end loop.
* :mod:`oracles.decoder` — per-column smoothing and the per-word lexicon
  search.
* :mod:`oracles.scoring` — one ``scorer.score`` call per pair.
"""
