"""Stored-target encryption with the ϕ token half.

Every 32-bit target slice written to the BTB or RSB is XORed with the current
process's ϕ before storage and XORed again on the way out (paper
Section IV-B, function 5 in Figure 1).  If a cross-entity collision does
occur, the victim decrypts the attacker's planted target with a *different*
ϕ, so speculative execution is steered to an effectively random address
instead of the attacker's gadget.

The paper deliberately chooses plain XOR over lightweight block ciphers
(PRINCE-64, Feistel networks): the attacker never observes ciphertext, only
collisions, and automatic ST re-randomization caps how many observations can
be accumulated, so a stronger cipher would add front-end latency without
adding security (Section V).
"""

from __future__ import annotations

from repro.bpu.mapping import TargetCodec
from repro.core.secret_token import SecretToken
from repro.trace.branch import STORED_TARGET_MASK


class XorTargetCodec(TargetCodec):
    """XOR-encrypts stored targets with the active token's ϕ half.

    Like :class:`~repro.core.remapping.STMappingProvider`, the codec holds a
    mutable token reference swapped by the STBPU layer; entries written under
    an old ϕ decrypt to garbage afterwards, which is exactly the intended
    effect of re-randomization.
    """

    token_dependent = True

    def __init__(self, token: SecretToken):
        self._token = token

    @property
    def token(self) -> SecretToken:
        return self._token

    def set_token(self, token: SecretToken) -> None:
        self._token = token

    def encode(self, target: int) -> int:
        return (target ^ self._token.phi) & STORED_TARGET_MASK

    def decode(self, stored: int) -> int:
        return (stored ^ self._token.phi) & STORED_TARGET_MASK

    def vector_encode(self, targets, phis=None):
        """Array form of :meth:`encode`.

        ``phis``, when given, is a uint64 ndarray holding each target's own ϕ
        (the STBPU kernel's per-branch ϕ column); otherwise the live token's
        ϕ keys every element.
        """
        import numpy as np

        if type(self) is not XorTargetCodec:
            return None
        phi = np.uint64(self._token.phi) if phis is None else phis
        # phi is 32 bits, so XOR-then-mask equals mask-then-XOR exactly.
        return (targets ^ phi) & np.uint64(STORED_TARGET_MASK)


def cross_token_decode(stored_by: SecretToken, decoded_with: SecretToken, target: int) -> int:
    """Model a cross-entity reuse: a target stored under one ϕ decoded with another.

    This helper is used by the security analysis and the attack simulations to
    show that the victim observes ``target ⊕ ϕ_a ⊕ ϕ_v`` — a value the
    attacker cannot steer toward a chosen gadget address without knowing both
    tokens.
    """
    stored = (target ^ stored_by.phi) & STORED_TARGET_MASK
    return (stored ^ decoded_with.phi) & STORED_TARGET_MASK
