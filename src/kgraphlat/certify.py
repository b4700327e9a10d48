"""Three-valued certified answers for cap-bounded decision procedures.

Every bounded search in this package answers with a CertifiedBool:
a certified yes, a certified no carrying a replayable witness, or an
honest "unknown at this cap".  Downstream code must never silently
upgrade an unknown to a definite answer.
"""

from __future__ import annotations

import enum
from typing import Any, Optional, Tuple

from .record import Record


class Certainty(enum.Enum):
    TRUE_CERTIFIED = "true_certified"
    FALSE_CERTIFIED = "false_certified"
    UNKNOWN_AT_CAP = "unknown_at_cap"


class CertifiedBool(Record, frozen=True):
    __slots__ = ("value", "witness", "cap")

    def __init__(self, value: Certainty, witness: Any = None, cap: Optional[Tuple[int, ...]] = None):
        if value is Certainty.FALSE_CERTIFIED and witness is None:
            raise ValueError("FalseCertified requires a witness")
        if value is Certainty.UNKNOWN_AT_CAP and cap is None:
            raise ValueError("UnknownAtCap requires the cap used")
        self.value = value
        self.witness = witness
        self.cap = cap

    @property
    def is_true(self) -> bool:
        return self.value is Certainty.TRUE_CERTIFIED

    @property
    def is_false(self) -> bool:
        return self.value is Certainty.FALSE_CERTIFIED

    @property
    def is_unknown(self) -> bool:
        return self.value is Certainty.UNKNOWN_AT_CAP

    @property
    def decided(self) -> bool:
        return not self.is_unknown

    def __bool__(self):
        raise TypeError(
            "CertifiedBool is three-valued; test .is_true / .is_false / .is_unknown"
        )

    def __repr__(self):
        bits = [self.value.value]
        if self.witness is not None:
            bits.append(f"witness={self.witness!r}")
        if self.cap is not None:
            bits.append(f"cap={self.cap}")
        return f"CertifiedBool({', '.join(bits)})"


def true_certified(witness: Any = None) -> CertifiedBool:
    return CertifiedBool(Certainty.TRUE_CERTIFIED, witness=witness)


def false_certified(witness: Any) -> CertifiedBool:
    return CertifiedBool(Certainty.FALSE_CERTIFIED, witness=witness)


def unknown_at_cap(cap: Tuple[int, ...], witness: Any = None) -> CertifiedBool:
    return CertifiedBool(Certainty.UNKNOWN_AT_CAP, witness=witness, cap=cap)
