"""Experiment command line: sweep offered loads and write plot-ready tables.

Example::

    eonsim --network nsfnet_network.json --routes nsfnet_routes_k3.json \\
           --algorithm FF --goal 100000 --lambda 18,36,54 --mu 10 \\
           --out ff.dat
"""

from __future__ import annotations

import argparse
import sys

from .algorithms import ALGORITHMS
from .engine import SimulatorConfig, sweep_reports
from .errors import EonSimError
from .inputs import load_bit_rates, load_network, load_routes
from .report import write_dat
from .traffic import Seeds, TrafficProfile


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eonsim",
        description="Sweep offered loads over an elastic optical network and "
                    "report the blocking probability per load.")
    parser.add_argument("--network", required=True, metavar="FILE",
                        help="network topology JSON")
    parser.add_argument("--routes", required=True, metavar="FILE",
                        help="candidate routes JSON")
    parser.add_argument("--bitrates", metavar="FILE",
                        help="bitrate catalog JSON (default: bundled catalog)")
    parser.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS),
                        help="allocation algorithm")
    parser.add_argument("--goal", type=int, default=100_000, metavar="N",
                        help="connection requests per run (default %(default)s)")
    parser.add_argument("--lambda", dest="lambdas", default="3", metavar="CSV",
                        help="comma-separated arrival rates (default %(default)s)")
    parser.add_argument("--mu", type=float, default=10.0, metavar="X",
                        help="departure rate (default %(default)s)")
    parser.add_argument("--seed-arrival", type=int, default=Seeds().arrival)
    parser.add_argument("--seed-departure", type=int, default=Seeds().departure)
    parser.add_argument("--seed-source", type=int, default=Seeds().source)
    parser.add_argument("--seed-destination", type=int, default=Seeds().destination)
    parser.add_argument("--seed-bitrate", type=int, default=Seeds().bitrate)
    parser.add_argument("--max-routes", type=int, metavar="K",
                        help="keep only the first K routes of every pair")
    parser.add_argument("--progress", type=int, metavar="N",
                        help="progress line every N requests "
                             "(default goal/10, 0 disables, below 0 is an error)")
    parser.add_argument("--per-bitrate", action="store_true",
                        help="also print per-bitrate blocking counters")
    parser.add_argument("--workers", type=int, default=1, metavar="W",
                        help="parallel runs across loads (default %(default)s)")
    parser.add_argument("--out", required=True, metavar="FILE",
                        help="output .dat table: one '<erlang> <blocking>' row per load")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lambdas = [float(item) for item in args.lambdas.split(",") if item.strip()]
    except ValueError:
        print(f"eonsim: cannot parse --lambda {args.lambdas!r} as CSV of numbers",
              file=sys.stderr)
        return 2
    if not lambdas:
        print("eonsim: --lambda needs at least one rate", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"eonsim: --workers must be at least 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.progress is not None and args.progress < 0:
        print(f"eonsim: --progress must be at least 0, got {args.progress}",
              file=sys.stderr)
        return 2
    progress = max(1, args.goal // 10) if args.progress is None else args.progress
    try:
        network = load_network(args.network)
        routes = load_routes(args.routes, network)
        if args.max_routes is not None:
            routes = routes.truncated(args.max_routes)
        if args.bitrates is not None:
            catalog = load_bit_rates(args.bitrates)
        else:
            from . import data
            catalog = data.load_bit_rates()
        config = SimulatorConfig(
            network=network,
            routes=routes,
            catalog=catalog,
            profile=TrafficProfile(arrival_rate=lambdas[0],
                                   departure_rate=args.mu,
                                   goal_connections=args.goal),
            seeds=Seeds(args.seed_arrival, args.seed_departure,
                        args.seed_source, args.seed_destination,
                        args.seed_bitrate),
        )
        reports = sweep_reports(config, lambdas, ALGORITHMS[args.algorithm],
                                algorithm_name=args.algorithm,
                                workers=args.workers, progress_every=progress)
        table = write_dat([(report.erlang, report.blocking_probability)
                           for report in reports], args.out)
    except (EonSimError, OSError, ValueError) as err:
        print(f"eonsim: {err}", file=sys.stderr)
        return 1
    if args.per_bitrate:
        for report in reports:
            for line in report.per_bitrate_lines():
                print(line)
    print(table, end="")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
