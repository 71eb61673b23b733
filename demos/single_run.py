"""One simulation, start to finish.

Loads the bundled NSFNet scenario, offers it Poisson traffic at 9 Erlang,
lets First Fit place every request, and prints the resulting report.
"""

import eonsim
from eonsim import data

GOAL = 20_000        # requests per run; raise for tighter estimates
ARRIVAL_RATE = 90.0  # requests per time unit
DEPARTURE_RATE = 10.0

# The three ingredients of a scenario: a topology, candidate routes for
# every node pair, and the bitrate catalog with modulation options.
network = data.load_nsfnet()
routes = data.load_nsfnet_routes(network)
catalog = data.load_bit_rates()

config = eonsim.SimulatorConfig(
    network=network,
    routes=routes,
    catalog=catalog,
    profile=eonsim.TrafficProfile(arrival_rate=ARRIVAL_RATE,
                                  departure_rate=DEPARTURE_RATE,
                                  goal_connections=GOAL),
)

# progress_every controls the console cadence; the lines go to stdout
# (wrap run() in contextlib.redirect_stdout to send them to a file).
sim = eonsim.Simulator(config, eonsim.first_fit, algorithm_name="FF",
                       progress_every=GOAL // 5)
sim.init()
report = sim.run()

print()
print(f"offered load        : {report.erlang:g} Erlang")
print(f"requests processed  : {report.processed}")
print(f"blocking probability: {report.blocking_probability:.3e}")
print()
print("per-bitrate breakdown:")
for line in report.per_bitrate_lines():
    print(" ", line)

# Every accepted connection departed before run() returned, so the run's
# own copy of the network must be completely free again.
assert sim.config.network.all_grids_free()
