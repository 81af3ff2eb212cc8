"""Experiment configuration: JSON schema, validation with field-path errors,
and a defaulting report for omitted values."""

import dataclasses
import json
from dataclasses import dataclass, field
from types import SimpleNamespace

from .model import ArrayGeometry, HyperParams, number_problems
from .radio import default_geometry
from .scenario import get_scenario


CONFIG_SCHEMA_VERSION = 1
MODES = ("fully_synthetic", "radio_pipeline")
# The sections of a config, each an object of its own type.
_SECTIONS = ("hyper", "geom")


@dataclass
class ExperimentConfig:
    mode: str = "fully_synthetic"
    scenario: str = "desk"            # builtin name or path to a scenario file
    hyper: HyperParams = field(default_factory=HyperParams)
    geom: ArrayGeometry = field(default_factory=default_geometry)
    runs: int = 1
    base_seed: int = 0
    out_dir: str = "out"
    workers: int = 1
    snapshot_u_de: float = None  # radio mode only; defaults to hyper.u_de

    def validate(self) -> list:
        """'(field, message)' problems, empty when valid. scenario must be a
        builtin name or a path that loads, out_dir a non-empty string; runs,
        workers and base_seed must be integers, snapshot_u_de None or a
        finite real number (bool is neither); a field of the wrong type gets
        that one problem and no range check."""
        problems = []
        if self.mode not in MODES:
            problems.append(("mode", f"must be one of {MODES}"))
        if not isinstance(self.scenario, str):
            problems.append(("scenario", "must be a builtin name or a path"))
        else:
            try:
                get_scenario(self.scenario)
            except (OSError, ValueError, RecursionError) as exc:
                problems.append(("scenario", str(exc)))
        if not (isinstance(self.out_dir, str) and self.out_dir):
            problems.append(("out_dir", "must be a non-empty string"))
        ints = ("runs", "workers", "base_seed")
        reals = ("snapshot_u_de",) if self.snapshot_u_de is not None else ()
        problems.extend(number_problems(
            self, ints + reals, integers=ints, rules=(
                (("runs", "workers"), lambda v: v >= 1, "must be >= 1"),
                (("base_seed",), lambda v: v >= 0, "must be >= 0"),
                (("snapshot_u_de",), lambda v: v > 0, "must be positive"))))
        for section in _SECTIONS:
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


def _read(doc, path: str, cls, errors: list, filled: list) -> dict:
    """The fields of the dataclass cls, other than sections, from doc, the
    object at path ('' for the top level): each takes doc's value, or else
    its default, which is noted in filled; a required field that doc omits
    is None, for validate() to report. A key that names no field is an
    error at its path; a doc that is not an object is one error at path,
    and gives {}."""
    if not isinstance(doc, dict):
        errors.append((path, "must be an object"))
        return {}
    at = f"{path}." if path else ""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.name not in _SECTIONS}
    errors.extend((at + key, "unknown field")
                  for key in sorted(set(doc) - set(defaults)))
    filled.extend((at + name, value) for name, value in defaults.items()
                  if name not in doc and value is not dataclasses.MISSING)
    return {name: doc.get(name, None if value is dataclasses.MISSING
                          else value) for name, value in defaults.items()}


def config_from_dict(doc: dict) -> ValidationReport:
    errors: list = []
    filled: list = []
    version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        errors.append(("schema_version",
                       f"unsupported version {version}"))
    body = {k: v for k, v in doc.items() if k != "schema_version"}

    hyper = _read(body.pop("hyper", {}), "hyper", HyperParams, errors, filled)
    geom = default_geometry()
    if "geom" not in body:
        filled.append(("geom", "default 3x3 array"))
    # An object always gives every field; {} means geom was not an object.
    elif fields := _read(body.pop("geom"), "geom", ArrayGeometry, errors,
                         filled):
        # Construction assumes the field rules, so they run first.
        problems = ArrayGeometry.validate(SimpleNamespace(**fields))
        errors.extend((f"geom.{f}", msg) for f, msg in problems)
        if not problems:
            geom = ArrayGeometry(**fields)

    cfg = ExperimentConfig(hyper=HyperParams(**hyper), geom=geom,
                           **_read(body, "", ExperimentConfig, errors, filled))
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
    except (ValueError, RecursionError) as exc:  # not UTF-8, or too deep
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
