"""Design-document loading.

A design is one JSON file bundling everything needed to model a filter:
geometry, material (inline samples or a path to a material CSV), the
reference impedance, the frequency grid and the compliance targets.
Validation errors name the offending field by its dotted path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DesignError, RowError
from .synthesis import ComplianceTargets
from .touchstone import material_from_csv
from .txline import CoaxGeometry, FrequencyGrid, MaterialModel

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


def _number(section: dict, path: str, key: str, default=None) -> float:
    if key not in section:
        if default is None:
            raise DesignError(f"{path}.{key}: missing required field")
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DesignError(f"{path}.{key}: must be a number, got {v!r}")
    return float(v)


def _load_geometry(doc: dict) -> CoaxGeometry:
    g = _section(doc, "geometry", required=True)
    try:
        return CoaxGeometry(
            length_m=_number(g, "geometry", "length_m"),
            inner_d_m=_number(g, "geometry", "inner_d_m"),
            outer_d_m=_number(g, "geometry", "outer_d_m"),
        )
    except ValueError as err:
        raise DesignError(f"geometry: {err}")


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
    columns: list[list[float]] = [[], [], [], []]
    for i, row in enumerate(raw):
        path = f"material.samples[{i}]"
        if not isinstance(row, dict):
            raise DesignError(f"{path}: must be an object")
        for column, key in zip(columns, ("f_hz", "eps_rel", "mu_rel", "alpha_np_per_m")):
            column.append(_number(row, path, key))
    try:
        return MaterialModel.from_arrays(*columns)
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
            _number(g, "grid", "f_start_hz", DEFAULT_GRID["f_start_hz"]),
            _number(g, "grid", "f_stop_hz", DEFAULT_GRID["f_stop_hz"]),
            n,
        )
    except ValueError as err:
        raise DesignError(f"grid: {err}")


def _load_targets(doc: dict) -> ComplianceTargets:
    t = _section(doc, "targets", required=False)
    if t is None:
        return ComplianceTargets()
    defaults = ComplianceTargets()
    try:
        return ComplianceTargets(
            reflection_ceiling_db=_number(
                t, "targets", "reflection_ceiling_db", defaults.reflection_ceiling_db
            ),
            band_max_hz=_number(t, "targets", "band_max_hz", defaults.band_max_hz),
            slope_target_db_per_ghz=_number(
                t, "targets", "slope_target_db_per_ghz", defaults.slope_target_db_per_ghz
            ),
            slope_tolerance_rel=_number(
                t, "targets", "slope_tolerance_rel", defaults.slope_tolerance_rel
            ),
        )
    except ValueError as err:
        raise DesignError(f"targets: {err}")


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

    z0 = 50.0
    if "z0_ohm" in doc:
        v = doc["z0_ohm"]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DesignError(f"z0_ohm: must be a number, got {v!r}")
        z0 = float(v)
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
        geometry=_load_geometry(doc),
        material=material,
        z0_ohm=z0,
        grid=grid,
        targets=_load_targets(doc),
    )
