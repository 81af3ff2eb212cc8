"""Command-line batch runner: run experiments, validate configs, emit
bundled scenarios."""

import json
import sys

import click

from .config import validate_config
from .experiment import run_experiment
from .scenario import BUILTIN_SCENARIOS


@click.group()
def main():
    """Sequential multipath-component tracking experiments."""


@main.command()
@click.argument("config", type=click.Path())
@click.option("--runs", type=int, default=None, help="Override run count.")
@click.option("--seed", type=int, default=None, help="Override base seed.")
@click.option("--out", type=click.Path(), default=None,
              help="Override output directory.")
@click.option("--workers", type=int, default=None,
              help="Override worker count (capped at runs and cores).")
def run(config, runs, seed, out, workers):
    """Run the Monte-Carlo experiment described by CONFIG."""
    overrides = {"runs": runs, "base_seed": seed, "out_dir": out,
                 "workers": workers}
    report = validate_config(config, {k: v for k, v in overrides.items()
                                      if v is not None})
    if not report.ok:
        click.echo(report.to_json(), err=True)
        sys.exit(2)
    cfg = report.config
    try:
        agg = run_experiment(cfg)
    except (ValueError, OSError) as exc:
        click.echo(json.dumps({"ok": False, "error": str(exc)}), err=True)
        sys.exit(1)
    click.echo(json.dumps({"ok": True, "out_dir": cfg.out_dir,
                           "runs": cfg.runs,
                           "overall": agg["overall"]}, indent=1))


@main.command()
@click.argument("config", type=click.Path())
def validate(config):
    """Validate CONFIG and report errors and filled-in defaults."""
    report = validate_config(config)
    click.echo(report.to_json())
    sys.exit(0 if report.ok else 2)


@main.group()
def scenario():
    """Scenario utilities."""


@scenario.command()
@click.argument("name", type=click.Choice(sorted(BUILTIN_SCENARIOS)))
@click.argument("path", type=click.Path())
def emit(name, path):
    """Write the builtin scenario NAME to PATH as JSON."""
    try:
        BUILTIN_SCENARIOS[name]().save(path)
    except OSError as exc:
        click.echo(json.dumps({"ok": False, "error": str(exc)}), err=True)
        sys.exit(1)
    click.echo(json.dumps({"ok": True, "scenario": name, "path": path}))


if __name__ == "__main__":
    main()
