"""Exact angle arithmetic.

Angles are stored as rational multiples of pi (``fractions.Fraction``)
wherever possible, with plain float radians as an escape hatch. A
``Fraction(1, 2)`` therefore means pi/2 radians. All frame arithmetic in
this package stays on the rational side; floats only appear when a state
vector is actually built.

Every JSON file the package reads (graph, recipe, ``--input`` state) goes
through ``read_json``, which turns each fault into the caller's error
class. The field checks (``is_json_int``, ``is_json_number``,
``known_keys``, ``from_json``) raise plain ``ValueError``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

Angle = Fraction | float

TWO_PI = 2.0 * math.pi


def radians(angle: Angle) -> float:
    """Angle in radians; rational angles are multiples of pi."""
    if isinstance(angle, Fraction):
        return float(angle) * math.pi
    return float(angle)


def normalized(angle: Angle) -> Angle:
    """Reduce modulo 2*pi, keeping rational angles rational."""
    if isinstance(angle, Fraction):
        return angle % 2
    return float(angle) % TWO_PI


def is_zero(angle: Angle, tol: float = 1e-15) -> bool:
    """Whether ``angle`` is 0 modulo 2*pi; a rational one is read exactly, not reduced."""
    if isinstance(angle, Fraction):
        return angle.denominator == 1 and angle.numerator % 2 == 0
    norm = normalized(angle)
    return norm < tol or TWO_PI - norm < tol


def eighths(angle: Angle) -> int | None:
    """The angle as an integer multiple of pi/4 in 0..7, or None."""
    norm = normalized(angle)
    if isinstance(norm, Fraction):
        scaled = norm * 4
        if scaled.denominator == 1:
            return int(scaled) % 8
    return None


def _finite(angle: Angle, where: str) -> Angle:
    """``angle``, if its radians are a finite float; a plain number comes back as a float."""
    try:
        if math.isfinite(radians(angle)):
            return angle if isinstance(angle, Fraction) else float(angle)
    except OverflowError:  # float() of a huge integer or Fraction
        pass
    raise ValueError(f"{where}: expected a finite number")


def parse_fraction(text: str, where: str = "angle") -> Fraction:
    """Parse a command-line angle such as ``1/2`` (meaning pi/2)."""
    try:
        angle = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational multiple of pi: {text!r}") from exc
    return _finite(angle, where)


def to_json(angle: Angle):
    if isinstance(angle, Fraction):
        return {"pi_num": angle.numerator, "pi_den": angle.denominator}
    return float(angle)


def is_json_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_number(value) -> bool:
    """A JSON integer or float; ``true`` and ``false`` do not count."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``read_json``'s object hook: the object, or ``ValueError`` naming a repeated key.

    The parser alone keeps the last of two equal keys, so a repeated key
    would silently drop the first value.
    """
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} appears more than once in one object")
            seen.add(key)
    return doc


def known_keys(obj: dict, keys: frozenset, where: str):
    """Raise ``ValueError`` naming the first key of ``obj`` outside ``keys`` and its path.

    A misspelt key would otherwise be ignored and its value silently lost.
    """
    if not keys.issuperset(obj):
        key = next(key for key in obj if key not in keys)
        raise ValueError(f"{where}: unknown key {key!r}")


def read_json(data, error: type[ValueError], build):
    """``build(doc)`` of the JSON document in ``data`` (text or UTF-8 bytes).

    Every fault leaves as ``error``: bad UTF-8, a syntax error (its line and
    column), nesting too deep, a repeated key (``unique_keys``) and any
    ``ValueError`` of ``build``. An ``error`` itself passes unchanged.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode()
        return build(json.loads(data, object_pairs_hook=unique_keys))
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise error(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error("JSON nested too deeply") from None
    except error:
        raise
    except ValueError as exc:
        raise error(str(exc)) from None


ANGLE_KEYS = frozenset(("pi_num", "pi_den"))


def from_json(obj, where: str = "angle") -> Angle:
    if isinstance(obj, dict):
        try:
            num, den = obj["pi_num"], obj["pi_den"]
        except KeyError as exc:
            raise ValueError(f"{where}: missing {exc.args[0]}") from None
        if len(obj) > 2:
            known_keys(obj, ANGLE_KEYS, where)
        if not (is_json_int(num) and is_json_int(den)):
            raise ValueError(f"{where}: pi_num/pi_den must be integers")
        if den == 0:
            raise ValueError(f"{where}: zero denominator")
        return _finite(Fraction(num, den), where)
    if is_json_number(obj):
        return _finite(obj, where)
    raise ValueError(f"{where}: expected {{pi_num, pi_den}} or a number")


def describe(angle: Angle) -> str:
    """Short human-readable form, e.g. ``pi/2`` or ``-3pi/4``."""
    if isinstance(angle, Fraction):
        if angle == 0:
            return "0"
        num, den = angle.numerator, angle.denominator
        head = {1: "pi", -1: "-pi"}.get(num, f"{num}pi")
        return head if den == 1 else f"{head}/{den}"
    return f"{float(angle):.6g}rad"
