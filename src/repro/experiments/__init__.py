"""Experiment drivers -- one per table/figure of the paper's evaluation.

Each module exposes a ``run(...)`` function returning plain data
structures (dicts/lists) that print the same rows/series the paper
reports, plus a ``main()`` for command-line use.  The experiment tests
(``tests/test_experiments.py``) run these drivers and assert the
paper's qualitative shape (orderings, crossovers, rough factors).

==================  ==========================================
Module              Paper artifact
==================  ==========================================
table1_operators    Table 1 (Spark-operator characterization)
table2_phases       Table 2 (operator phase decomposition)
table5_partition    Table 5 (partitioning speedup vs CPU)
fig6_probe          Figure 6 (probe speedup vs CPU)
fig7_overall        Figure 7 (overall speedup vs CPU)
fig8_energy         Figure 8 (energy breakdown)
fig9_efficiency     Figure 9 (performance/watt improvement)
sec31_activation    Section 3.1 (activation-energy fraction)
sec32_mlp           Section 3.2 (MLP-limited bandwidth)
ablations           Design-choice sweeps (SIMD width, row size,
                    scheduler window, merge fan-in)
==================  ==========================================
"""

from repro.experiments import common

__all__ = ["common"]
