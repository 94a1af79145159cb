"""Design-document loading.

A design is one JSON file bundling everything needed to model a filter:
geometry, material (inline samples or a path to a material CSV), the
reference impedance, the frequency grid and the compliance targets.
Validation errors name the offending field by its dotted path.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import DesignError, RowError
from .synthesis import ComplianceTargets
from .touchstone import material_from_csv
from .txline import CoaxGeometry, FrequencyGrid, MaterialModel, MaterialSample

DEFAULT_GRID = {"f_start_hz": 1e7, "f_stop_hz": 2e10, "n_points": 2001, "spacing": "linear"}


@dataclass
class Design:
    geometry: CoaxGeometry
    material: MaterialModel
    z0_ohm: float
    grid: FrequencyGrid
    targets: ComplianceTargets


def _section(doc: dict, key: str, required: bool) -> dict | None:
    if key not in doc:
        if required:
            raise DesignError(f"{key}: missing required section")
        return None
    if not isinstance(doc[key], dict):
        raise DesignError(f"{key}: must be an object")
    return doc[key]


def _number(section: dict, prefix: str, key: str, default=MISSING) -> float:
    if key not in section:
        if default is MISSING:
            raise DesignError(f"{prefix}{key}: missing required field")
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DesignError(f"{prefix}{key}: must be a number, got {v!r}")
    return float(v)


def _build(cls, doc: dict, key: str, required: bool):
    """cls from section doc[key]: one number per dataclass field, defaulting as cls does."""
    section = _section(doc, key, required)
    if section is None:
        return cls()
    try:
        return cls(**{f.name: _number(section, f"{key}.", f.name, f.default) for f in fields(cls)})
    except ValueError as err:
        raise DesignError(f"{key}: {err}")


def _load_material(doc: dict, base_dir: Path) -> MaterialModel:
    m = _section(doc, "material", required=True)
    if "path" in m:
        csv_path = base_dir / str(m["path"])
        if not csv_path.is_file():
            raise DesignError(f"material.path: file not found: {csv_path}")
        return material_from_csv(csv_path.read_text())
    if "samples" not in m:
        raise DesignError("material.samples: missing (give inline samples or material.path)")
    raw = m["samples"]
    if not isinstance(raw, list) or not raw:
        raise DesignError("material.samples: must be a non-empty list")
    rows = []
    for i, row in enumerate(raw):
        path = f"material.samples[{i}]"
        if not isinstance(row, dict):
            raise DesignError(f"{path}: must be an object")
        rows.append([_number(row, f"{path}.", key) for key in MaterialSample._fields])
    try:
        return MaterialModel(*zip(*rows))
    except RowError as err:
        raise DesignError(f"material.samples[{err.row}]: {err.reason}")


def _load_grid(doc: dict) -> FrequencyGrid:
    g = _section(doc, "grid", required=False) or dict(DEFAULT_GRID)
    spacing = g.get("spacing", "linear")
    if spacing != "linear":
        raise DesignError(f"grid.spacing: only 'linear' is supported, got {spacing!r}")
    n = g.get("n_points", DEFAULT_GRID["n_points"])
    if isinstance(n, bool) or not isinstance(n, int):
        raise DesignError(f"grid.n_points: must be an integer, got {n!r}")
    try:
        return FrequencyGrid.linear(
            _number(g, "grid.", "f_start_hz", DEFAULT_GRID["f_start_hz"]),
            _number(g, "grid.", "f_stop_hz", DEFAULT_GRID["f_stop_hz"]),
            n,
        )
    except ValueError as err:
        raise DesignError(f"grid: {err}")


def load_design(path: str | Path) -> Design:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as err:
        raise DesignError(f"cannot read design file: {err}")
    except json.JSONDecodeError as err:
        raise DesignError(f"design file is not valid JSON: {err}")
    if not isinstance(doc, dict):
        raise DesignError("design file must hold a JSON object")

    z0 = _number(doc, "", "z0_ohm", 50.0)
    if not math.isfinite(z0):
        raise DesignError(f"z0_ohm: must be finite, got {z0}")
    if z0 <= 0.0:
        raise DesignError(f"z0_ohm: must be > 0, got {z0}")

    material = _load_material(doc, path.parent)
    grid = _load_grid(doc)
    if not material.covers(grid.points_hz):
        raise DesignError(
            f"grid: outside the material sample range "
            f"[{material.f_min_hz:g}, {material.f_max_hz:g}] Hz"
        )
    return Design(
        geometry=_build(CoaxGeometry, doc, "geometry", required=True),
        material=material,
        z0_ohm=z0,
        grid=grid,
        targets=_build(ComplianceTargets, doc, "targets", required=False),
    )
