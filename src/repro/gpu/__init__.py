"""GPU execution-time model (paper Appendix I).

The paper approximates GPU time of a CNN workload as ``T = alpha * W + b``
and derives a greedy box-merging heuristic from it.  The calibrated
constants and all computation live in the unified cost layer
(:mod:`repro.cost`, ``CostModel.for_device("titanx")``); this package
regenerates Table 7 from it (``python -m repro table7``).
"""
