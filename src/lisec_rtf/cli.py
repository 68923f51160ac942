"""Command-line entry point for running comparative experiments."""

from __future__ import annotations

import argparse
import sys

from .engine import SetupError
from .experiment import run_experiment
from .scenario import ScenarioError, load_scenario, parse_scenario

# scenario keys with a flag of the same dest; set flags parse like file lines
_FLAG_KEYS = ("arms", "seeds", "n_attackers", "mobility", "encrypted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lisec-rtf",
        description="Simulate RPL storing-mode routing under routing-table "
                    "falsification, with and without the PUF-license defense.")
    parser.add_argument("--scenario", metavar="PATH",
                        help="key=value scenario file (flags override it)")
    parser.add_argument("--arms", metavar="LIST",
                        help="comma list: baseline,attack,defense,defense_encrypted")
    parser.add_argument("--seeds", metavar="N|LIST",
                        help="seed count or explicit comma list")
    parser.add_argument("--attackers", dest="n_attackers", metavar="N",
                        help="number of malicious nodes")
    parser.add_argument("--mobility", choices=("on", "off"),
                        help="random-waypoint mobility")
    parser.add_argument("--out", metavar="DIR", default="results",
                        help="output directory (default: results)")
    parser.add_argument("--trace", choices=("on", "off"), default="off",
                        help="write trace-<arm>-<seed>.log files")
    parser.add_argument("--encrypted", choices=("on", "off"),
                        help="carry licenses encrypted in the DAO options field")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = {key: value for key in _FLAG_KEYS
                 if (value := getattr(args, key)) is not None}
        scenario = (load_scenario(args.scenario, flags) if args.scenario
                    else parse_scenario("", flags))
        report = run_experiment(scenario, out_dir=args.out,
                                trace=args.trace == "on")
    except (ScenarioError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write to {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    for entry in report.summary:
        print(f"{entry['arm']:18s} pdr={entry['pdr_mean']:.3f}"
              f"±{entry['pdr_ci95']:.3f} "
              f"ae2ed={entry['ae2ed_s_mean']:.4f}s "
              f"apc={entry['apc_mw_mean']:.3f}mW")
    print(f"wrote {args.out}/runs.csv and {args.out}/summary.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
