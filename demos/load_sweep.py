"""Blocking-probability curves for the three bundled algorithms.

Sweeps the offered load over the bundled NSFNet scenario three times --
single route, three routes, three routes with modulation formats -- and
writes one plot-ready .dat table per (scenario, algorithm).  Each row is
"<erlang> <blocking>", directly loadable by gnuplot/pgfplots/numpy.

Desk-scale by default (1e4 requests per point); raise GOAL for smoother
curves.
"""

import pathlib

import eonsim
from eonsim import data

GOAL = 10_000
LAMBDAS = [18, 54, 90, 126, 180]
OUT_DIR = pathlib.Path("sweep_out")

network = data.load_nsfnet()
routes3 = data.load_nsfnet_routes(network)
scenarios = {
    "alg1": (routes3.truncated(1), data.load_bpsk_bit_rates()),  # 1 route, fixed format
    "alg2": (routes3, data.load_bpsk_bit_rates()),               # 3 routes, fixed format
    "alg3": (routes3, data.load_bit_rates()),                    # 3 routes + modulations
}

OUT_DIR.mkdir(exist_ok=True)
for scenario, (routes, catalog) in scenarios.items():
    for algorithm, allocator in (("FF", eonsim.first_fit), ("EF", eonsim.exact_fit),
                                 ("FLF", eonsim.first_last_fit)):
        config = eonsim.SimulatorConfig(
            network=network, routes=routes, catalog=catalog,
            profile=eonsim.TrafficProfile(arrival_rate=LAMBDAS[0],
                                          departure_rate=10.0,
                                          goal_connections=GOAL),
        )
        reports = eonsim.sweep_reports(config, LAMBDAS, allocator,
                                       algorithm_name=algorithm)
        results = [(report.erlang, report.blocking_probability)
                   for report in reports]
        out = OUT_DIR / f"{scenario}_{algorithm}.dat"
        eonsim.write_dat(results, out)
        peak = results[-1][1]
        print(f"{out}  (blocking at {results[-1][0]:g} Erlang: {peak:.3e})")
