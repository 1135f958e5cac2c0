"""Assembled machines: the six evaluated system configurations.

``build_system(name)`` constructs a :class:`Machine` from a preset
(``cpu``, ``nmp``, ``nmp-rand``, ``nmp-seq``, ``nmp-perm``,
``mondrian-noperm``, ``mondrian``); ``Machine.run_operator`` functionally
executes an operator in the machine's algorithmic variant and returns a
:class:`repro.perf.result.SystemResult` with runtime, phase breakdown and
the Table 4 energy accounting.
"""

from repro.systems.machine import Machine, build_system

__all__ = ["Machine", "build_system"]
