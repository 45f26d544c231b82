"""Core domain types: exact rationals, bundles, valuations, economies, instances.

All monetary quantities are `fractions.Fraction`, so arithmetic is exact and
tie detection in demand sets never needs a tolerance.  The engines compute on
integer multiples of one unit per run and turn them back into Fractions only
for their results and records.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterator, NamedTuple, Union

from .records import record

MAIN_ECONOMY = 0


class InstanceValidationError(ValueError):
    """Raised when an instance violates a structural requirement."""


class NotUniversal(RuntimeError):
    """Raised when a price state fails CE certification for some economy."""


class BundleOutsideConsumptionSet(ValueError):
    """Raised when a bundle is evaluated against a valuation that excludes it."""


def parse_rational(text) -> Fraction:
    """Parse "p/q", a decimal string, or an int into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise InstanceValidationError("not an exact rational: %r" % (text,))
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise InstanceValidationError(
            "floats are not accepted; use a string like '0.01' or '1/100'"
        )
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceValidationError("not an exact rational: %r" % (text,)) from exc


def _integer(value, label: str) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceValidationError("%s must be an integer, got %r" % (label, value))
    return value


def format_rational(value: Fraction) -> str:
    if type(value) is Fraction:  # already canonical; skip the rebuild
        return str(value)
    return str(Fraction(value))


def lattice_formatter(unit: Fraction):
    """format_rational(k * unit) for integers k, memoized: the engines keep
    their numbers as whole multiples of one unit and make one of these per
    run to write them."""
    num, den = unit.numerator, unit.denominator

    @lru_cache(maxsize=None)
    def fmt(k):
        n = k * num
        g = gcd(n, den)
        return "%d" % (n // g) if g == den else "%d/%d" % (n // g, den // g)

    return fmt


class Bundle(NamedTuple):
    """A pair of unit counts (weak, strong)."""

    kw: int
    ks: int

    @property
    def size(self) -> int:
        return self.kw + self.ks


ZERO_BUNDLE = Bundle(0, 0)


@record(frozen=True)
class MultiUnitValuation:
    """Single item type with non-increasing marginal values.

    Bundles are pure-strong: (0, s). The consumption set stops at the last
    strictly positive marginal, so units with zero value are never allocated.
    """

    marginals: tuple

    def __post_init__(self):
        marginals = tuple(Fraction(m) for m in self.marginals)
        object.__setattr__(self, "marginals", marginals)
        for a, b in zip(marginals, marginals[1:]):
            if b > a:
                raise InstanceValidationError(
                    "marginal values must be non-increasing: %s" % (marginals,)
                )
        if any(m < 0 for m in marginals):
            raise InstanceValidationError("marginal values must be non-negative")

    @cached_property
    def capacity(self) -> int:
        """Largest unit count with strictly positive marginal value.  Cached
        on first use; not a record field, so == and hash ignore it."""
        cap = 0
        for t, m in enumerate(self.marginals):
            if m > 0:
                cap = t + 1
        return cap

    def contains(self, k: Bundle) -> bool:
        return k.kw == 0 and 0 <= k.ks <= self.capacity

    def value(self, k: Bundle, delta: Fraction = Fraction(0)) -> Fraction:
        """Bias-adjusted value: prefix sum of marginals minus delta per strong unit."""
        if not self.contains(k):
            raise BundleOutsideConsumptionSet("bundle %s not in consumption set" % (k,))
        total = sum(self.marginals[: k.ks], Fraction(0))
        return total - delta * k.ks

    def bundles(self) -> Iterator[Bundle]:
        for s in range(self.capacity + 1):
            yield Bundle(0, s)

    def bundle_count(self) -> int:
        return self.capacity + 1


@record(frozen=True)
class ProductMixValuation:
    """Constant per-unit values (v_w, v_s) with a total quantity cap gamma.

    v_s must exceed v_w; when v_w is zero the agent cannot take weak units.
    """

    v_w: Fraction
    v_s: Fraction
    gamma: int

    def __post_init__(self):
        object.__setattr__(self, "v_w", Fraction(self.v_w))
        object.__setattr__(self, "v_s", Fraction(self.v_s))
        if self.v_w < 0:
            raise InstanceValidationError("v_w must be non-negative")
        if self.v_s <= self.v_w:
            raise InstanceValidationError("v_s must strictly exceed v_w")
        if self.gamma < 0:
            raise InstanceValidationError("gamma must be non-negative")

    @property
    def capacity(self) -> int:
        return self.gamma

    def contains(self, k: Bundle) -> bool:
        if k.kw < 0 or k.ks < 0 or k.size > self.gamma:
            return False
        if self.v_w == 0 and k.kw > 0:
            return False
        return True

    def value(self, k: Bundle, delta: Fraction = Fraction(0)) -> Fraction:
        if not self.contains(k):
            raise BundleOutsideConsumptionSet("bundle %s not in consumption set" % (k,))
        return self.v_w * k.kw + self.v_s * k.ks - delta * k.ks

    def bundles(self) -> Iterator[Bundle]:
        if self.v_w == 0:
            for s in range(self.gamma + 1):
                yield Bundle(0, s)
            return
        for total in range(self.gamma + 1):
            for ks in range(total + 1):
                yield Bundle(total - ks, ks)

    def bundle_count(self) -> int:
        if self.v_w == 0:
            return self.gamma + 1
        return (self.gamma + 1) * (self.gamma + 2) // 2


Valuation = Union[MultiUnitValuation, ProductMixValuation]


def economy_members(j: int, n: int) -> tuple:
    """Agents participating in economy j (0 = main, i >= 1 excludes agent i)."""
    if j == MAIN_ECONOMY:
        return tuple(range(1, n + 1))
    return tuple(i for i in range(1, n + 1) if i != j)


def visible_economies(i: int, n: int) -> tuple:
    """Economies agent i participates in (all except its own marginal economy)."""
    return tuple(j for j in range(0, n + 1) if j != i)


@record(frozen=True)
class Instance:
    """A complete auction instance: agents, supply, and price-path parameters."""

    agents: tuple  # valuations indexed 1..n (tuple index 0 is agent 1)
    K: int
    delta: Fraction = Fraction(0)
    epsilon: Fraction = Fraction(1)
    p_init: Fraction = Fraction(0)
    direction: str = "ascending"
    update_mode: str = "batch"

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "p_init", Fraction(self.p_init))
        self.validate()

    @property
    def n(self) -> int:
        return len(self.agents)

    def valuation(self, i: int) -> Valuation:
        return self.agents[i - 1]

    def validate(self) -> None:
        if self.K <= 0:
            raise InstanceValidationError("K must be positive")
        if self.epsilon <= 0:
            raise InstanceValidationError("epsilon must be positive")
        if self.delta < 0:
            raise InstanceValidationError("delta must be non-negative")
        if self.p_init < 0:
            raise InstanceValidationError("p_init must be non-negative")
        if self.direction not in ("ascending", "descending"):
            raise InstanceValidationError("direction must be ascending or descending")
        if self.update_mode not in ("batch", "single"):
            raise InstanceValidationError("update_mode must be batch or single")
        if not self.agents:
            raise InstanceValidationError("at least one agent is required")
        # Integrality premise: all values, delta, and p_init are multiples of
        # epsilon.  Rejecting (not rounding) keeps the descent guarantee intact.
        for label, q in self.lattice_numbers():
            self._require_multiple(q, label)

    def lattice_numbers(self) -> Iterator[tuple]:
        """(label, value) of every number the integrality premise covers:
        p_init, delta and each agent's values."""
        yield "p_init", self.p_init
        yield "delta", self.delta
        for idx, v in enumerate(self.agents, start=1):
            if isinstance(v, MultiUnitValuation):
                for t, m in enumerate(v.marginals):
                    yield "agent %d marginal %d" % (idx, t + 1), m
            elif isinstance(v, ProductMixValuation):
                yield "agent %d v_w" % idx, v.v_w
                yield "agent %d v_s" % idx, v.v_s
            else:
                raise InstanceValidationError("unknown valuation type: %r" % (v,))

    def _require_multiple(self, q: Fraction, label: str) -> None:
        ratio = Fraction(q) / self.epsilon
        if ratio.denominator != 1:
            raise InstanceValidationError(
                "%s = %s is not an integer multiple of epsilon = %s"
                % (label, q, self.epsilon)
            )

    def adjusted_value(self, i: int, k: Bundle) -> Fraction:
        """Agent value with the seller's strong-item bias delta applied."""
        return self.valuation(i).value(k, self.delta)


def valuation_to_dict(v: Valuation) -> dict:
    if isinstance(v, MultiUnitValuation):
        return {"type": "multi_unit", "marginals": [format_rational(m) for m in v.marginals]}
    return {
        "type": "product_mix",
        "v_w": format_rational(v.v_w),
        "v_s": format_rational(v.v_s),
        "gamma": v.gamma,
    }


def valuation_from_dict(d: dict) -> Valuation:
    if not isinstance(d, dict):
        raise InstanceValidationError("an agent must be a JSON object, got %r" % (d,))
    kind = d.get("type")
    if kind == "multi_unit":
        if not isinstance(d["marginals"], list):
            raise InstanceValidationError("marginals must be a list")
        return MultiUnitValuation(tuple(parse_rational(m) for m in d["marginals"]))
    if kind == "product_mix":
        return ProductMixValuation(
            v_w=parse_rational(d["v_w"]),
            v_s=parse_rational(d["v_s"]),
            gamma=_integer(d["gamma"], "gamma"),
        )
    raise InstanceValidationError("unknown agent type: %r" % (kind,))


def instance_to_dict(inst: Instance) -> dict:
    return {
        "K": inst.K,
        "delta": format_rational(inst.delta),
        "epsilon": format_rational(inst.epsilon),
        "p_init": format_rational(inst.p_init),
        "direction": inst.direction,
        "update_mode": inst.update_mode,
        "agents": [valuation_to_dict(v) for v in inst.agents],
    }


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise InstanceValidationError("an instance must be a JSON object")
    try:
        if not isinstance(d["agents"], list):
            raise InstanceValidationError("agents must be a list")
        return Instance(
            agents=tuple(valuation_from_dict(a) for a in d["agents"]),
            K=_integer(d["K"], "K"),
            delta=parse_rational(d.get("delta", 0)),
            epsilon=parse_rational(d.get("epsilon", 1)),
            p_init=parse_rational(d.get("p_init", 0)),
            direction=d.get("direction", "ascending"),
            update_mode=d.get("update_mode", "batch"),
        )
    except KeyError as exc:
        raise InstanceValidationError("missing instance field: %s" % exc) from exc


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or undecodable bytes
            raise InstanceValidationError("%s is not valid JSON: %s" % (path, exc)) from exc
    return instance_from_dict(doc)


def dump_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
