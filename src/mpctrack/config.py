"""Experiment configuration: JSON schema, validation with field-path errors,
and a defaulting report for omitted values."""

import dataclasses
import json
from dataclasses import dataclass, field
from types import SimpleNamespace

from .metrics import OspaConfig
from .model import ArrayGeometry, HyperParams, number_problems
from .radio import default_geometry
from .scenario import get_scenario


CONFIG_SCHEMA_VERSION = 1
MODES = ("fully_synthetic", "radio_pipeline")


@dataclass
class ExperimentConfig:
    mode: str = "fully_synthetic"
    scenario: str = "desk"            # builtin name or path to a scenario file
    hyper: HyperParams = field(default_factory=HyperParams)
    geom: ArrayGeometry = field(default_factory=default_geometry)
    runs: int = 1
    base_seed: int = 0
    out_dir: str = "out"
    ospa: OspaConfig = field(default_factory=OspaConfig)
    workers: int = 1
    snapshot_u_de: float = None  # radio mode only; defaults to hyper.u_de

    def validate(self) -> list:
        """'(field, message)' problems, empty when valid. runs, workers and
        base_seed must be integers, snapshot_u_de None or a finite real
        number (bool is neither); a field of the wrong type gets that one
        problem and no range check."""
        problems = []
        if self.mode not in MODES:
            problems.append(("mode", f"must be one of {MODES}"))
        ints = ("runs", "workers", "base_seed")
        reals = ("snapshot_u_de",) if self.snapshot_u_de is not None else ()
        problems.extend(number_problems(
            self, ints + reals, integers=ints, rules=(
                (("runs", "workers"), lambda v: v >= 1, "must be >= 1"),
                (("base_seed",), lambda v: v >= 0, "must be >= 0"),
                (("snapshot_u_de",), lambda v: v > 0, "must be positive"))))
        for section in ("hyper", "ospa", "geom"):
            problems.extend((f"{section}.{f}", msg)
                            for f, msg in getattr(self, section).validate())
        return problems


@dataclass
class ValidationReport:
    ok: bool
    errors: list          # [(field_path, message)]
    defaults_filled: list  # [(field_path, value)] filled from defaults
    config: ExperimentConfig = None

    def to_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "errors": [{"field": f, "message": m} for f, m in self.errors],
            "defaults_filled": [{"field": f, "value": v}
                                for f, v in self.defaults_filled],
        }, indent=1)


# Each ArrayGeometry field and its default, None for a required one.
_GEOM_FIELDS = {f.name: None if f.default is dataclasses.MISSING else f.default
                for f in dataclasses.fields(ArrayGeometry)}


def _fill_dataclass(cls, doc: dict, path: str, errors: list, filled: list):
    """Build a dataclass from a dict, recording defaulted fields and unknown
    keys. Field values are checked later, by validate()."""
    if not isinstance(doc, dict):
        errors.append((path, "must be an object"))
        return cls()
    names = {f.name for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in names:
            errors.append((f"{path}.{key}", "unknown field"))
    kwargs = {}
    obj_defaults = cls()
    for f in dataclasses.fields(cls):
        if f.name in doc:
            kwargs[f.name] = doc[f.name]
        else:
            filled.append((f"{path}.{f.name}", getattr(obj_defaults, f.name)))
    return cls(**kwargs)


def config_from_dict(doc: dict) -> ValidationReport:
    errors: list = []
    filled: list = []
    version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        errors.append(("schema_version",
                       f"unsupported version {version}"))
    body = {k: v for k, v in doc.items() if k != "schema_version"}

    hyper = _fill_dataclass(HyperParams, body.pop("hyper", {}), "hyper",
                            errors, filled)
    ospa = _fill_dataclass(OspaConfig, body.pop("ospa", {}), "ospa",
                           errors, filled)

    geom_doc = body.pop("geom", None)
    geom = default_geometry()
    if geom_doc is None:
        filled.append(("geom", "default 3x3 array"))
    elif not isinstance(geom_doc, dict):
        errors.append(("geom", "must be an object"))
    else:
        for key in sorted(set(geom_doc) - set(_GEOM_FIELDS)):
            errors.append((f"geom.{key}", "unknown field"))
        given = {k: v for k, v in geom_doc.items() if k in _GEOM_FIELDS}
        # Construction assumes the field rules, so they run first.
        problems = ArrayGeometry.validate(
            SimpleNamespace(**{**_GEOM_FIELDS, **given}))
        errors.extend((f"geom.{f}", msg) for f, msg in problems)
        if not problems:
            try:
                geom = ArrayGeometry(**given)
            except ValueError as exc:
                errors.append(("geom", str(exc)))

    cfg_defaults = ExperimentConfig()
    kwargs = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in ("hyper", "geom", "ospa"):
            continue
        if f.name in body:
            kwargs[f.name] = body.pop(f.name)
        else:
            filled.append((f.name, getattr(cfg_defaults, f.name)))
    for key in sorted(body):
        errors.append((key, "unknown field"))

    cfg = ExperimentConfig(hyper=hyper, geom=geom, ospa=ospa, **kwargs)
    if not isinstance(cfg.scenario, str):
        errors.append(("scenario", "must be a builtin name or a path"))
    else:
        try:
            get_scenario(cfg.scenario)
        except (OSError, ValueError) as exc:
            errors.append(("scenario", str(exc)))
    errors.extend(cfg.validate())
    return ValidationReport(not errors, errors, filled, cfg)


def validate_config(path: str, overrides: dict = None) -> ValidationReport:
    """Parse and validate a config file, with the top-level fields in
    overrides replacing the file's; never raises on content problems."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        return ValidationReport(False, [("", f"cannot read config: {exc}")], [])
    except json.JSONDecodeError as exc:
        return ValidationReport(False, [("", f"config is not valid JSON: {exc}")], [])
    if not isinstance(doc, dict):
        return ValidationReport(False, [("", "config root must be an object")], [])
    return config_from_dict({**doc, **(overrides or {})})


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Round-trippable dict form (the config echo)."""
    doc = {"schema_version": CONFIG_SCHEMA_VERSION, **dataclasses.asdict(cfg)}
    doc["geom"]["element_offsets"] = [list(map(float, e))
                                      for e in cfg.geom.element_offsets]
    return doc
