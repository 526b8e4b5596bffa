"""Offspring laws and model parameters.

A reproduction law is a finite-support probability mass function on
offspring counts.  The model couples a law with a memory parameter
q in (0,1): each individual either repeats the offspring count of a
uniformly chosen ancestor on its lineage (probability q) or draws a
fresh sample from the law (probability 1-q).  Law files and "k:v" text
are read by one reader of (count, value) pairs.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import DegenerateLaw, DomainError, NegativeMass, NotNormalized, ParseError

# entries below this mass are dropped before validation; support drives
# loop bounds everywhere downstream
PRUNE_TOL = 1e-15
# accepts float-entry rounding, rejects genuinely unnormalized input
NORM_WINDOW = 1e-9
# guards DP table sizing
MAX_COUNT = 10**6


@dataclass(frozen=True)
class ReproductionLaw:
    """Validated finite-support offspring distribution.

    Immutable after construction; safe to share between threads.
    """

    masses: Mapping[int, float]
    kstar: int

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.masses))

    @property
    def positive_support(self) -> tuple[int, ...]:
        return tuple(k for k in sorted(self.masses) if k > 0)

    def mass(self, k: int) -> float:
        return self.masses.get(k, 0.0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {p:.12g}" for k, p in sorted(self.masses.items()))
        return f"ReproductionLaw({{{inner}}})"


def new_law(masses: Mapping[int, float]) -> ReproductionLaw:
    """Validate and normalize a map from offspring count to probability.

    Raises NegativeMass, NotNormalized (a mass that is not finite, or a sum
    off by more than 1e-9), or DegenerateLaw (single support point after
    pruning).
    """
    pruned: dict[int, float] = {}
    for k, p in masses.items():
        k = int(k)
        p = float(p)
        if k < 0:
            raise NegativeMass(f"offspring count {k} is negative")
        if not math.isfinite(p):
            raise NotNormalized(f"mass {p!r} at count {k} is not finite")
        if p < 0:
            raise NegativeMass(f"mass {p!r} at count {k} is negative")
        if p < PRUNE_TOL:
            continue
        pruned[k] = pruned.get(k, 0.0) + p
    total = math.fsum(pruned.values())
    if abs(total - 1.0) > NORM_WINDOW:
        raise NotNormalized(f"masses sum to {total!r}, outside 1 +/- {NORM_WINDOW}")
    if len(pruned) < 2:
        raise DegenerateLaw(f"law needs at least two support points, got {sorted(pruned)}")
    normalized = {k: p / total for k, p in sorted(pruned.items())}
    return ReproductionLaw(MappingProxyType(normalized), max(normalized))


def _read_pairs(pairs, source) -> dict[int, float]:
    """{count: value} from (count, value) pairs.  Raises ParseError on a count
    or value that does not parse, a count above MAX_COUNT, a duplicate
    count, or no pairs; source names the input in the message."""
    out: dict[int, float] = {}
    for k, v in pairs:
        try:
            ki, vf = int(k), float(v)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"cannot parse {k!r}: {v!r} ({exc})") from None
        if ki > MAX_COUNT:
            raise ParseError(f"offspring count {ki} exceeds cap {MAX_COUNT}")
        if ki in out:
            raise ParseError(f"duplicate count {ki}")
        out[ki] = vf
    if not out:
        raise ParseError(f"no entries in {source!r}")
    return out


def parse_pairs(text: str) -> dict[int, float]:
    """Parse "k:v,k:v,..." into {k: v}; errors as in _read_pairs, plus an
    item that is not one "count:value"."""
    pairs = [item.split(":") for item in text.split(",") if item.strip()]
    for parts in pairs:
        if len(parts) != 2:
            raise ParseError(f"expected 'count:value', got {':'.join(parts).strip()!r}")
    return _read_pairs(pairs, text)


def parse_law(text: str) -> ReproductionLaw:
    """Parse the inline format "k:p,k:p,...". Raises ParseError on bad input."""
    return new_law(parse_pairs(text))


def check_initial(law: ReproductionLaw, initial) -> str | int:
    """The first generation of a run: "law" (drawn from the law) or a
    support point given as an integer, which is returned as an int.  Raises
    DomainError for anything else, a bool or a float included."""
    if isinstance(initial, str) and initial == "law":
        return initial
    if (isinstance(initial, numbers.Integral) and not isinstance(initial, bool)
            and int(initial) in law.masses):
        return int(initial)
    raise DomainError(f'initial must be "law" or a support point, got {initial!r}')


def check_integer(value, message: str, low: int = 1, high: int | None = None) -> int:
    """value by operator.index, when low <= value (and value < high, if
    given); a bool, a float or anything else, or a value out of range,
    raises DomainError(message.format(value)), so message shows it as {!r}."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if low <= index and (high is None or index < high):
                return index
    raise DomainError(message.format(value))


def mean(law: ReproductionLaw) -> float:
    """Mean offspring number."""
    return math.fsum(k * p for k, p in law.masses.items())


@dataclass(frozen=True)
class ModelParams:
    """A reproduction law paired with the memory parameter q in (0,1)."""

    law: ReproductionLaw
    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"memory parameter must satisfy 0 < q < 1, got {self.q!r}")


def params_from_dict(obj: Mapping) -> ModelParams:
    """Build ModelParams from {"law": {"0": 0.5, "2": 0.5}, "q": 0.5}."""
    try:
        raw = obj["law"]
        q = float(obj["q"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"law file needs 'law' map and 'q': {exc}") from None
    if not isinstance(raw, Mapping):
        raise ParseError(f"law file 'law' must be a map of counts to masses, got {raw!r}")
    return ModelParams(new_law(_read_pairs(raw.items(), raw)), q)


def load_params(path: str) -> ModelParams:
    """Read a law JSON file (counts as string keys)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    return params_from_dict(obj)


def params_to_dict(params: ModelParams) -> dict:
    """Inverse of params_from_dict (string keys for counts)."""
    return {"law": {str(k): p for k, p in sorted(params.law.masses.items())}, "q": params.q}
