"""Ready-made model spaces: full shifts, residue-ring rotations, and friends.

Each builder returns ``(space, mapping, torus)`` with the torus assembled at
diameter bound 1; the snowflaked interval has no dynamics and returns just
the space.  The full shift and the residue ring give their spaces in closed
form (:class:`~solenoidlab.metric_core.PowerLevels`), so a build allocates
O(N) data and its N x N tables are built only when a scan or an export
reads them.  :func:`build_model` drives the same builders from a declarative
:class:`ModelSpec`, which is what the command line feeds in, through one
row per model kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

import jsonschema
import numpy as np

from .dynamics import SelfMap
from .dynamics import self_map_from_function  # unused here; bench/spans.py wraps models' binding
from .errors import InvalidInputError
from .mapping_torus import TorusPoint, TorusSpace, make_torus_space
from .metric_core import FiniteMetricSpace, PowerLevels
from .shift_space import (
    Alphabet,
    PeriodicSequence,
    depth_levels,
    enumerate_periodic_points,
    pairwise_depth_matrix,  # unused here; bench/spans.py wraps models' binding
    shift_image,
)

_ALPHABET_TOKENS = "0123456789abcdefghijklmnopqrstuvwxyz"

#: The most points a built model may have.  A power model builds one N x N
#: float64 table, its distance matrix, once a scan or an export reads it:
#: 2 GiB at this size.
MAX_DENSE_POINTS = 16384


def _require_dense(count: str, base: int, power: int = 1) -> None:
    """Refuse a model of ``base ** power`` points (``count`` in words) over
    :data:`MAX_DENSE_POINTS`, before anything is allocated.  ``base`` must be
    at least 2, so any power from the limit's bit length on is over it: the
    power is capped there, and a huge ``power`` costs nothing."""
    if base ** min(power, MAX_DENSE_POINTS.bit_length()) > MAX_DENSE_POINTS:
        raise InvalidInputError(
            f"a model of {count} points exceeds the limit of {MAX_DENSE_POINTS}"
        )


def _make_alphabet(size: int) -> Alphabet:
    if not 2 <= size <= len(_ALPHABET_TOKENS):
        raise InvalidInputError(
            f"alphabet size must be between 2 and {len(_ALPHABET_TOKENS)}, got {size}"
        )
    return Alphabet(tuple(_ALPHABET_TOKENS[:size]))


def build_full_shift(
    alphabet_size: int, ratio: float, max_period: int
) -> tuple[FiniteMetricSpace, SelfMap, TorusSpace]:
    """All periodic points of period dividing ``max_period`` under the shift.

    The space has ``alphabet_size ** max_period`` points, at most
    :data:`MAX_DENSE_POINTS`, diameter 1, and exact exponents, gathered from
    the packed cell words of :func:`~solenoidlab.shift_space.depth_levels`; the
    torus is assembled with bilipschitz constant ``1/ratio`` and diameter
    bound 1.  From ``max_period`` 3 on, ``1/ratio`` is the distortion of one
    shift step, which the float estimate reads to within an ulp or so; below
    3 every distinct pair is at distance 1 and the step distorts nothing.
    """
    alphabet = _make_alphabet(alphabet_size)
    if not 0.0 < ratio < 1.0 or math.isinf(1.0 / ratio):
        raise InvalidInputError(
            f"ratio must lie in (0, 1) with 1/ratio finite, got {ratio}"
        )
    _require_dense(f"{alphabet_size}^{max_period}", alphabet_size, max_period)
    # Distinct points differ within any max_period cells: the deepest agreement.
    deepest = max(max_period - 1, 0) // 2
    if ratio ** deepest == 0.0:
        raise InvalidInputError(
            f"ratio {ratio} is too small for max_period {max_period}: the smallest "
            f"distance, ratio ** {deepest}, underflows to 0"
        )
    points = tuple(enumerate_periodic_points(alphabet, max_period))
    space = FiniteMetricSpace(points=points, power_base=ratio, levels=depth_levels(points))
    mapping = SelfMap(points, shift_image(alphabet, max_period))
    torus = make_torus_space(
        space, mapping, lipschitz_constant=1.0 / ratio, diameter_bound=1.0
    )
    return space, mapping, torus


def _index_gap(rows, cols):
    """The level of a residue-ring pair: the gap between its indices."""
    return np.abs(rows - cols)


def build_padic_cycle(
    prime: int, digits: int
) -> tuple[FiniteMetricSpace, SelfMap, TorusSpace]:
    """The ring Z / prime^digits with the valuation metric and the +1 map.

    d(x, y) = prime^-v where v is the multiplicity of ``prime`` in x - y;
    translation preserves differences, so the map is an exact isometry and
    the torus gets bilipschitz constant 1.  The exponent of a pair is read
    from one table of valuations indexed by the gap ``|i - j|``.
    """
    # Both before the trial division, which a huge prime would keep going
    # (and overflow at ``prime ** 0.5``): with no digits, any prime is dense.
    if digits < 1:
        raise InvalidInputError(f"need at least one digit, got {digits}")
    if prime >= 2:
        _require_dense(f"{prime}^{digits}", prime, digits)
    if prime < 2 or any(prime % q == 0 for q in range(2, int(prime ** 0.5) + 1)):
        raise InvalidInputError(f"{prime} is not prime")
    modulus = prime ** digits
    points = tuple(range(modulus))
    # valuation[k] is the multiplicity of ``prime`` in k, inf at k = 0.
    diffs = np.arange(modulus)
    valuation = np.zeros(modulus)
    for e in range(1, digits):
        valuation[diffs % prime ** e == 0] += 1.0
    valuation[0] = np.inf
    space = FiniteMetricSpace(
        points=points, power_base=1.0 / prime, levels=PowerLevels(_index_gap, valuation)
    )
    mapping = SelfMap(points, (diffs + 1) % modulus)
    torus = make_torus_space(space, mapping, lipschitz_constant=1.0, diameter_bound=1.0)
    return space, mapping, torus


def build_two_fixed_points() -> tuple[FiniteMetricSpace, SelfMap, TorusSpace]:
    """The two constant binary sequences at distance 1, fixed by the shift.

    The glued space is two disjoint circles; the component scan finds the
    invariant split at any resolution below 1.
    """
    alphabet = _make_alphabet(2)
    points = tuple(enumerate_periodic_points(alphabet, 1))
    space = FiniteMetricSpace(
        points=points, power_base=0.5, levels=PowerLevels(_index_gap, np.array([np.inf, 0.0]))
    )
    mapping = SelfMap(points, shift_image(alphabet, 1))
    torus = make_torus_space(space, mapping, lipschitz_constant=1.0, diameter_bound=1.0)
    return space, mapping, torus


def build_snowflake_interval(grid_size: int, alpha: float) -> FiniteMetricSpace:
    """The grid {i / grid_size : 0 <= i <= grid_size} with metric |x-y|^alpha,
    in gap form: points i and j are at distance ``(|i - j| / grid_size) **
    alpha``, gathered from one Python power per gap."""
    if grid_size < 2:
        raise InvalidInputError(f"grid size must be at least 2, got {grid_size}")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    n = grid_size + 1
    _require_dense(str(n), n)
    by_gap = np.array([(g / grid_size) ** alpha for g in range(n)])
    # Entry k of the run is the power of gap |k - grid_size|; row i starts at n - 1 - i.
    run = np.concatenate([by_gap[:0:-1], by_gap])
    return FiniteMetricSpace(
        points=tuple(i / grid_size for i in range(n)),
        matrix=np.lib.stride_tricks.sliding_window_view(run, n)[::-1].copy(),
    )


# ============================================================
# Declarative specs
# ============================================================

#: Draft 7 with ``integer`` meaning a JSON integer literal.  Draft 7 itself
#: counts any number with a zero fractional part, so ``5.0`` would pass.
ConfigValidator = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)


def validate(schema: dict, instance, root: str = "$") -> None:
    """Raise :class:`InvalidInputError` with ``"<json path>: <message>"`` of
    the first error in path order, if any, the path's ``$`` spelled ``root``."""
    errors = ConfigValidator(schema).iter_errors(instance)
    first = min(errors, key=lambda e: list(e.absolute_path), default=None)
    if first is not None:
        raise InvalidInputError(f"{root}{first.json_path[1:]}: {first.message}")


class _Kind(NamedTuple):
    """A model kind's row: the JSON Schema type of each parameter, and its
    builder, which takes the parameters by name, checks their ranges and
    returns ``(space, mapping, torus)``."""
    types: dict
    build: Callable


_KINDS = {
    "full-shift": _Kind({"alphabet_size": "integer", "ratio": "number",
                         "max_period": "integer"}, build_full_shift),
    "padic-cycle": _Kind({"prime": "integer", "digits": "integer"}, build_padic_cycle),
    "two-fixed-points": _Kind({}, build_two_fixed_points),
    "snowflake-interval": _Kind({"grid_size": "integer", "alpha": "number"}, lambda **params: (
        build_snowflake_interval(**params), None, None)),
}

MODEL_KINDS = tuple(_KINDS)

SPACE_SCHEMA = {
    "type": "object",
    "required": ["kind", "parameters"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(MODEL_KINDS)},
        "parameters": {"type": "object"},
    },
    "allOf": [
        {
            "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
            "then": {"properties": {"parameters": {
                "required": list(types),
                "additionalProperties": False,
                "properties": {name: {"type": t} for name, t in types.items()},
            }}},
        }
        for kind, (types, _) in _KINDS.items()
    ],
}


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A (kind, parameters) pair naming one buildable model.  The constructor
    expects a pair that :data:`SPACE_SCHEMA` accepts (:meth:`from_dict`
    validates one first) and keeps a copy of the parameters, with number
    parameters given as integers as floats."""

    kind: str
    parameters: dict

    def __post_init__(self):
        types = _KINDS[self.kind].types
        object.__setattr__(self, "parameters", {
            k: float(v) if types[k] == "number" else v for k, v in self.parameters.items()
        })

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ModelSpec":
        """Validate ``raw`` against :data:`SPACE_SCHEMA`, then construct."""
        validate(SPACE_SCHEMA, raw)
        return cls(kind=raw["kind"], parameters=raw["parameters"])


@dataclass(frozen=True, eq=False)
class BuiltModel:
    """A built model with whatever structure its kind provides."""

    space: FiniteMetricSpace
    mapping: SelfMap | None
    torus: TorusSpace | None


def build_model(spec: ModelSpec) -> BuiltModel:
    return BuiltModel(*_KINDS[spec.kind].build(**spec.parameters))


def point_label(p: Any) -> str:
    """Stable text form of any model point, safe for CSV headers."""
    if isinstance(p, PeriodicSequence):
        return p.to_text()
    if isinstance(p, TorusPoint):
        return f"{point_label(p.base)}@{p.time!r}"
    if isinstance(p, float):
        return repr(p)
    return str(p)
