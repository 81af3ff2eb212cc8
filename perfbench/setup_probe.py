"""Time mpctrack's set-up in a fresh interpreter and print the seconds.

Set-up is what a run needs before its first snapshot: importing the package,
reading and validating the config, building or loading the scenario,
`tracker.init`, and in radio mode the `MatchedFilterBank`.

It prints the set-up seconds and then the mean time of the reference loop
run right before and right after it, so that the caller can scale the first
by the second (see reference.py).

Usage: python3 perfbench/setup_probe.py <source dir> <config.json>
"""

import time

import reference

REF_BEFORE = reference.reference_s()
T0 = time.perf_counter()

import sys  # noqa: E402


def main(argv: list) -> None:
    src, config_path = argv
    sys.path.insert(0, src)
    from mpctrack import config, radio, scenario, tracker
    import mpctrack.experiment  # noqa: F401  the runner is part of set-up

    report = config.validate_config(config_path)
    if not report.ok:
        sys.exit(f"setup_probe: invalid config: {report.errors}")
    cfg = report.config
    scenario.get_scenario(cfg.scenario)
    tracker.init(cfg.hyper, cfg.geom, cfg.base_seed)
    if cfg.mode == "radio_pipeline":
        radio.MatchedFilterBank(cfg.geom)
    setup_s = time.perf_counter() - T0
    ref_s = 0.5 * (REF_BEFORE + reference.reference_s())
    print(repr(setup_s), repr(ref_s))


if __name__ == "__main__":
    main(sys.argv[1:])
