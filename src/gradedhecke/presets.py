"""
Named algebra presets and the JSON description of an algebra.

Preset JSON schema (also accepted via --algebra-file):

    {
      "types": [["A", 2]],            # Cartan (type, rank) pairs
      "central": 0,                   # extra central dimensions
      "gamma": [[1, 0]],              # base permutations generating Gamma
      "cocycle": [["1","1"],["1","-1"]],   # Gamma x Gamma table, optional
      "k": ["1"],                     # one value per simple root
      "mode": "generic",              # generic | r1 | k0
      "cyclotomic_order": null
    }

Scalar strings are rationals "p/q" or cyclotomic combinations using z for
the fixed primitive root of unity, e.g. "1/2*z^3 - 2".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .hecke import HeckeAlgebra
from .rootdata import RootSystem
from .scalars import Cyc
from .weylgroups import Cocycle, ExtendedWeylGroup, ParameterFunction

__all__ = ["PRESETS", "build_preset", "algebra_from_config", "parse_scalar",
           "parse_table", "load_algebra_file"]

PRESETS = {
    "A1": {"types": [["A", 1]], "k": ["1"]},
    "A2": {"types": [["A", 2]], "k": ["1"]},
    "B2": {"types": [["B", 2]], "k": ["2", "1"]},
    "G2": {"types": [["G", 2]], "k": ["1", "2"]},
    "A1xA1": {"types": [["A", 1], ["A", 1]], "k": ["1", "2"]},
    "A2flip": {"types": [["A", 2]], "gamma": [[1, 0]], "k": ["1"]},
    "A2flip-tw": {"types": [["A", 2]], "gamma": [[1, 0]], "k": ["1"],
                  "cocycle": [["1", "1"], ["1", "-1"]]},
    "A1xA1swap": {"types": [["A", 1], ["A", 1]], "gamma": [[1, 0]], "k": ["1", "1"]},
}


def parse_scalar(text, order=None):
    """Parse '3', '-1/2', or cyclotomic combinations like '2*z^3 - 1/2'."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text) if order in (None, 1) else Cyc(order, [Fraction(text)])
    s = str(text).replace(" ", "")
    if "z" not in s:
        val = _fraction(s)
        return val if order in (None, 1) else Cyc(order, [val])
    if order in (None, 1):
        raise ValueError(f"cyclotomic scalar {text!r} needs a cyclotomic order")
    coeffs = [Fraction(0)] * order
    for term in re.findall(r"[+-]?[^+-]+", s):
        m = re.fullmatch(r"([+-]?)(?:(\d+(?:/\d+)?)\*?)?(?:z(?:\^(\d+))?)?", term)
        if not m or (m.group(2) is None and "z" not in term):
            raise ValueError(f"cannot parse scalar term {term!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = _fraction(m.group(2)) if m.group(2) else Fraction(1)
        power = int(m.group(3)) if m.group(3) else (1 if "z" in term else 0)
        coeffs[power % order] += sign * coeff
    return Cyc(order, coeffs)


def parse_table(rows, order=None) -> list[list]:
    """Parse a JSON list of rows of scalars, as `parse_scalar` does each one."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("expected a table: a JSON list of rows")
    return [[parse_scalar(v, order) for v in row] for row in rows]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def algebra_from_config(config: dict) -> HeckeAlgebra:
    """Build an algebra instance from the JSON-style configuration."""
    if not isinstance(config, dict):
        raise ValueError("algebra description must be a JSON object")
    missing = [key for key in ("types", "k") if key not in config]
    if missing:
        raise ValueError(f"algebra description lacks {', '.join(map(repr, missing))}")
    for key in ("types", "k", "gamma"):
        if not isinstance(config.get(key, []), list):
            raise ValueError(f"{key!r} in the algebra description must be a list")
    types = [(str(t), int(r)) for t, r in config["types"]]
    central = int(config.get("central", 0))
    rs = RootSystem.from_specs(types, central_dim=central)
    gamma = [tuple(g) for g in config.get("gamma", [])]
    group = ExtendedWeylGroup(rs, gamma_generators=gamma)
    order = config.get("cyclotomic_order")
    k_values = [parse_scalar(v, order) for v in config["k"]]
    k = ParameterFunction.from_simple_values(group, k_values)
    cocycle_table = config.get("cocycle")
    if cocycle_table is not None:
        cocycle = Cocycle(group, parse_table(cocycle_table, order))
    else:
        cocycle = Cocycle(group)
    mode = config.get("mode", "generic")
    return HeckeAlgebra(group, k, cocycle, mode=mode, cyclotomic_order=order)


def build_preset(name: str, k=None, mode="generic", gamma=None) -> HeckeAlgebra:
    """A named preset, optionally overriding k values, mode, or Gamma."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    config = json.loads(json.dumps(PRESETS[name]))  # deep copy
    if k is not None:
        config["k"] = [str(v) for v in k]
    if gamma == "none":
        config.pop("gamma", None)
        config.pop("cocycle", None)
    elif gamma:
        config["gamma"] = gamma
    config["mode"] = mode
    return algebra_from_config(config)


def load_algebra_file(path: str) -> HeckeAlgebra:
    with open(path) as fh:
        return algebra_from_config(json.load(fh))
