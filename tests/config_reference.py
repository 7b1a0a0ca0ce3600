"""The jsonschema validator that ``models.validate`` replaced, kept as the
slow reference for its property test.

``ConfigValidator`` is jsonschema's Draft 7 validator with ``integer``
meaning a JSON integer literal: Draft 7 itself counts any number with a zero
fractional part, so ``5.0`` would pass.  :func:`first_error` picks the error
``models.validate`` reports, the first in path order, a tie going to the
first yielded, and spells it as ``validate`` does.
"""

from __future__ import annotations

import jsonschema

ConfigValidator = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)


def first_error(schema: dict, instance) -> str | None:
    """``"<json path>: <message>"`` of the first error in path order, or None."""
    errors = ConfigValidator(schema).iter_errors(instance)
    first = min(errors, key=lambda e: list(e.absolute_path), default=None)
    return None if first is None else f"{first.json_path}: {first.message}"
