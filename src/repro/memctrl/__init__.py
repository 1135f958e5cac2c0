"""Vault-controller extensions of the Mondrian Data Engine.

- :mod:`repro.memctrl.permutable`: the shuffle_begin/shuffle_end
  handshake with its message-signaled-interrupt completion vector
  (paper section 5.4).  The permutable writes themselves (section 5.3)
  are priced by :class:`~repro.shuffle.engine.ShuffleEngine`; the
  per-object write engine that spells them out is a test oracle in
  :mod:`repro.operators.reference`.
"""

from repro.memctrl.permutable import ShuffleBarrier

__all__ = ["ShuffleBarrier"]
