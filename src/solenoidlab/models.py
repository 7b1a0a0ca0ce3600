"""Ready-made model spaces: full shifts, residue-ring rotations, and friends.

Each builder returns ``(space, mapping, torus)`` with the torus assembled at
diameter bound 1; the snowflaked interval has no dynamics and returns just
the space.  The full shift and the residue ring give their spaces in closed
form (:class:`~solenoidlab.metric_core.PowerLevels`), so a build allocates
O(N) data and its N x N tables are built only when a scan or an export
reads them.  :func:`build_model` drives the same builders from a declarative
:class:`ModelSpec`, which is what the command line feeds in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import jsonschema
import numpy as np

from .dynamics import SelfMap, self_map_from_function
from .errors import InvalidInputError
from .mapping_torus import TorusPoint, TorusSpace, make_torus_space
from .metric_core import FiniteMetricSpace, PowerLevels, snowflake
from .shift_space import (
    Alphabet,
    PeriodicSequence,
    ShiftConfig,
    depth_levels,
    enumerate_periodic_points,
    pairwise_depth_matrix,  # unused here; bench/spans.py wraps models' binding
    shift,
)

_ALPHABET_TOKENS = "0123456789abcdefghijklmnopqrstuvwxyz"

#: The most points a built model may have.  A power model builds two N x N
#: float64 tables, its distances and their exponents, once a scan or an
#: export reads them: 4 GiB at this size.
MAX_DENSE_POINTS = 16384


def _require_dense(count: str, base: int, power: int = 1) -> None:
    """Refuse a model of ``base ** power`` points (``count`` in words) over
    :data:`MAX_DENSE_POINTS`, before anything is allocated.  The power is
    multiplied out only up to the limit, so a huge ``power`` costs nothing;
    ``base`` must be at least 2."""
    points = 1
    for _ in range(power):
        points *= base
        if points > MAX_DENSE_POINTS:
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
    torus is assembled with bilipschitz constant ``1/ratio`` (the exact
    distortion of one shift step) and diameter bound 1.
    """
    alphabet = _make_alphabet(alphabet_size)
    cfg = ShiftConfig(alphabet=alphabet, ratio=ratio)
    _require_dense(f"{alphabet_size}^{max_period}", alphabet_size, max_period)
    points = tuple(enumerate_periodic_points(alphabet, max_period))
    space = FiniteMetricSpace(
        points=points,
        label=f"full-shift({alphabet_size},{max_period})",
        power_base=cfg.ratio,
        levels=depth_levels(points),
    )
    mapping = self_map_from_function(points, shift, kind="shift-map")
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
    if prime >= 2:  # first: a huge prime would keep the trial division going
        _require_dense(f"{prime}^{digits}", prime, digits)
    if prime < 2 or any(prime % q == 0 for q in range(2, int(prime ** 0.5) + 1)):
        raise InvalidInputError(f"{prime} is not prime")
    if digits < 1:
        raise InvalidInputError(f"need at least one digit, got {digits}")
    modulus = prime ** digits
    points = tuple(range(modulus))
    # valuation[k] is the multiplicity of ``prime`` in k, inf at k = 0.
    diffs = np.arange(modulus)
    valuation = np.zeros(modulus)
    for e in range(1, digits):
        valuation[diffs % prime ** e == 0] += 1.0
    valuation[0] = np.inf
    space = FiniteMetricSpace(
        points=points,
        label=f"residue-ring({prime}^{digits})",
        power_base=1.0 / prime,
        levels=PowerLevels(_index_gap, valuation),
    )
    mapping = self_map_from_function(
        points, lambda x: (x + 1) % modulus, kind="group-translation"
    )
    torus = make_torus_space(space, mapping, lipschitz_constant=1.0, diameter_bound=1.0)
    return space, mapping, torus


def build_two_fixed_points() -> tuple[FiniteMetricSpace, SelfMap, TorusSpace]:
    """The two constant binary sequences at distance 1, fixed by the shift.

    The glued space is two disjoint circles; the component scan finds the
    invariant split at any resolution below 1.
    """
    alphabet = _make_alphabet(2)
    points = tuple(
        PeriodicSequence.from_cells(alphabet, (s,)) for s in alphabet.symbols
    )
    exponents = np.array([[np.inf, 0.0], [0.0, np.inf]])
    space = FiniteMetricSpace(
        points=points,
        label="two-fixed-points",
        power_base=0.5,
        exponents=exponents,
    )
    mapping = self_map_from_function(points, shift, kind="shift-map")
    torus = make_torus_space(space, mapping, lipschitz_constant=1.0, diameter_bound=1.0)
    return space, mapping, torus


def build_snowflake_interval(grid_size: int, alpha: float) -> FiniteMetricSpace:
    """The grid {i / grid_size : 0 <= i <= grid_size} with metric |x-y|^alpha."""
    if grid_size < 2:
        raise InvalidInputError(f"grid size must be at least 2, got {grid_size}")
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    _require_dense(str(grid_size + 1), grid_size + 1)
    points = tuple(i / grid_size for i in range(grid_size + 1))
    coords = np.array(points)
    space = FiniteMetricSpace(
        points=points,
        matrix=np.abs(coords[:, None] - coords[None, :]),
        label=f"interval({grid_size})",
    )
    return snowflake(space, alpha)


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


#: The JSON Schema type of each parameter of each model kind.  The builders
#: check the ranges.
_PARAMETER_TYPES = {
    "full-shift": {"alphabet_size": "integer", "ratio": "number", "max_period": "integer"},
    "padic-cycle": {"prime": "integer", "digits": "integer"},
    "two-fixed-points": {},
    "snowflake-interval": {"grid_size": "integer", "alpha": "number"},
}

MODEL_KINDS = tuple(_PARAMETER_TYPES)

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
        for kind, types in _PARAMETER_TYPES.items()
    ],
}


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A validated (kind, parameters) pair naming one buildable model."""

    kind: str
    parameters: dict

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ModelSpec":
        """Validate ``raw`` against :data:`SPACE_SCHEMA`; number parameters
        given as integers become floats."""
        validate(SPACE_SCHEMA, raw)
        params = dict(raw["parameters"])
        for name, t in _PARAMETER_TYPES[raw["kind"]].items():
            if t == "number":
                params[name] = float(params[name])
        return cls(kind=raw["kind"], parameters=params)


@dataclass(frozen=True, eq=False)
class BuiltModel:
    """A built model with whatever structure its kind provides."""

    spec: ModelSpec
    space: FiniteMetricSpace
    mapping: SelfMap | None
    torus: TorusSpace | None


def build_model(spec: ModelSpec) -> BuiltModel:
    params = spec.parameters
    if spec.kind == "full-shift":
        return BuiltModel(spec, *build_full_shift(
            params["alphabet_size"], params["ratio"], params["max_period"]
        ))
    if spec.kind == "padic-cycle":
        return BuiltModel(spec, *build_padic_cycle(params["prime"], params["digits"]))
    if spec.kind == "two-fixed-points":
        return BuiltModel(spec, *build_two_fixed_points())
    space = build_snowflake_interval(params["grid_size"], params["alpha"])
    return BuiltModel(spec, space, None, None)


def point_label(p: Any) -> str:
    """Stable text form of any model point, safe for CSV headers."""
    if isinstance(p, PeriodicSequence):
        return p.to_text()
    if isinstance(p, TorusPoint):
        return f"{point_label(p.base)}@{p.time!r}"
    if isinstance(p, float):
        return repr(p)
    return str(p)
