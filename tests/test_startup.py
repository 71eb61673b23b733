"""Start-up cost: ``import eonsim`` and a serial run load only what they use.

numpy is needed only by the ndarray adapters and ``occupancy``, and the
process pool only by ``sweep_reports(workers > 1)``; both are imported on
first use.  Each check runs in a fresh interpreter, because this test
process has long since imported both.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a simulation never touches; importing any of them costs start-up.
HEAVY = ("numpy", "concurrent.futures", "multiprocessing")

PRELUDE = f"""
import json, sys
HEAVY = {HEAVY!r}
def loaded():
    return [name for name in HEAVY if name in sys.modules]
"""


def run_fresh(body: str, *argv: str) -> dict:
    """Run ``body`` in a new interpreter; it must set ``result`` to a dict."""
    code = PRELUDE + textwrap.dedent(body) + "\nprint(json.dumps(result))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def import_then_adapters():
    return run_fresh("""
        import eonsim
        after_import = loaded()

        from eonsim.algorithms import intersection_grid
        network = eonsim.Network.build("pair", 2, [(0, 1, 1.0, 8), (1, 0, 1.0, 8)])
        routes = eonsim.RouteSet()
        routes.add_node_path(network, [0, 1])
        network.links[0].occupy_slots(2, 5)
        option = eonsim.ModulationOption("BPSK", 1, 1e9)
        entry = eonsim.BitRateEntry(10.0, "10", (option,))
        ctx = eonsim.AllocationContext(network, 0, 1, routes.routes_for(0, 1), entry)
        grids = {"intersection_grid": intersection_grid(ctx, 0),
                 "occupancy": network.links[0].occupancy}
        result = {
            "after_import": after_import,
            "after_adapters": loaded(),
            "grids": {name: {"ndarray": type(grid) is sys.modules["numpy"].ndarray,
                             "dtype": str(grid.dtype),
                             "values": grid.tolist()}
                      for name, grid in grids.items()},
        }
    """)


def test_import_loads_no_heavy_module(import_then_adapters):
    assert import_then_adapters["after_import"] == []


def test_parse_and_run_load_no_heavy_module():
    result = run_fresh("""
        import eonsim
        from eonsim import data

        network = data.load_nsfnet()
        config = eonsim.SimulatorConfig(
            network=network,
            routes=data.load_nsfnet_routes(network),
            catalog=data.load_bit_rates(),
            profile=eonsim.TrafficProfile(arrival_rate=180.0, departure_rate=10.0,
                                          goal_connections=2000),
        )
        sim = eonsim.Simulator(config, eonsim.first_fit, algorithm_name="FF")
        sim.init()
        report = sim.run()
        result = {"processed": report.processed, "loaded": loaded()}
    """)
    assert result["processed"] == 2000
    assert result["loaded"] == []


def test_serial_cli_run_loads_no_heavy_module(tmp_path):
    out = tmp_path / "run.dat"
    result = run_fresh("""
        import contextlib, io
        from eonsim import data
        from eonsim.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--network", str(data.data_path("nsfnet_network.json")),
                         "--routes", str(data.data_path("nsfnet_routes_k3.json")),
                         "--algorithm", "FF", "--goal", "200", "--lambda", "18",
                         "--workers", "1", "--out", sys.argv[1]])
        result = {"code": code, "loaded": loaded()}
    """, str(out))
    assert result["code"] == 0
    assert out.read_text().startswith("1.8 ")
    assert result["loaded"] == []


def test_adapters_import_numpy_on_first_call(import_then_adapters):
    assert "numpy" in import_then_adapters["after_adapters"]
    expected = [2 <= slot < 5 for slot in range(8)]
    for name, grid in import_then_adapters["grids"].items():
        assert grid == {"ndarray": True, "dtype": "bool", "values": expected}, name
