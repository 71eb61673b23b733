"""Start-up cost and the optional numpy: each check runs in a fresh interpreter.

numpy is optional: eonsim does not install it, and importing, parsing,
every simulation and the CLI need only the standard library.  Five calls
need numpy, and import it on their first call: ``Link.occupancy``,
``LinkView.occupancy``, ``intersection_grid``, ``first_free_block`` and
``exact_free_block``.  Without numpy they raise an ``ImportError`` that
names it.  The process pool is needed only by ``sweep_reports(workers > 1)``
and is likewise imported on first use.

Each check runs in a new interpreter, because this test process has long
since imported both.  The hidden-numpy guard sets ``sys.modules["numpy"]``
to None before anything else, which makes every ``import numpy`` fail as
if numpy were not installed, and compares its runs with the same runs in
an interpreter where numpy is available.
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

HIDE_NUMPY = 'import sys\nsys.modules["numpy"] = None\n'


def run_fresh(body: str, *argv: str, prelude: str = "") -> dict:
    """Run ``body`` in a new interpreter; it must set ``result`` to a dict."""
    code = (prelude + PRELUDE + textwrap.dedent(body)
            + "\nprint(json.dumps(result))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_heavy_module():
    result = run_fresh("""
        import eonsim
        result = {"loaded": loaded()}
    """)
    assert result["loaded"] == []


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


def test_adapters_import_numpy_on_first_call(np):
    result = run_fresh("""
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
    assert result["after_import"] == []
    assert "numpy" in result["after_adapters"]
    expected = [2 <= slot < 5 for slot in range(8)]
    for name, grid in result["grids"].items():
        assert grid == {"ndarray": True, "dtype": "bool", "values": expected}, name


#: Parses the three bundled NSFNet documents, runs FF, EF and FLF and two CLI
#: sweeps, and reports their counts and ``.dat`` bytes.
CORE_RUNS = """
    import contextlib, io, os
    import eonsim
    from eonsim import algorithms, data
    from eonsim.cli import main

    network = data.load_nsfnet()
    routes = data.load_nsfnet_routes(network)
    catalog = data.load_bit_rates()
    counts = {}
    for name, allocator in eonsim.ALGORITHMS.items():
        config = eonsim.SimulatorConfig(
            network=network.fresh_copy(), routes=routes, catalog=catalog,
            profile=eonsim.TrafficProfile(arrival_rate=1500.0, departure_rate=10.0,
                                          goal_connections=2000),
        )
        sim = eonsim.Simulator(config, allocator, algorithm_name=name)
        sim.init()
        report = sim.run()
        counts[name] = [report.processed, report.accepted, report.blocked]

    dat = {}
    for workers in ("1", "2"):
        out = os.path.join(sys.argv[1], f"workers{workers}.dat")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--network", str(data.data_path("nsfnet_network.json")),
                         "--routes", str(data.data_path("nsfnet_routes_k3.json")),
                         "--algorithm", "EF", "--goal", "2000",
                         "--lambda", "180,1500", "--workers", workers,
                         "--progress", "0", "--out", out])
        with open(out, "rb") as handle:
            dat[workers] = [code, handle.read().hex()]
    result = {"counts": counts, "dat": dat}
"""

#: Appended to ``CORE_RUNS``: what each of the five ndarray calls raises.
NDARRAY_CALLS = """
    ctx = eonsim.AllocationContext(network, 0, 1, routes.routes_for(0, 1),
                                   catalog[0])
    ndarray_calls = {
        "Link.occupancy": lambda: network.links[0].occupancy,
        "LinkView.occupancy": lambda: ctx.link_in_route(0, 0).occupancy,
        "intersection_grid": lambda: algorithms.intersection_grid(ctx, 0),
        "first_free_block": lambda: algorithms.first_free_block([False] * 8, 1),
        "exact_free_block": lambda: algorithms.exact_free_block([False] * 8, 1),
    }
    raised = {}
    for name, call in ndarray_calls.items():
        try:
            call()
        except ImportError as err:
            raised[name] = str(err)
        else:
            raised[name] = None
    result["raised"] = raised
"""


def test_core_runs_with_numpy_hidden(tmp_path):
    hidden_dir = tmp_path / "hidden"
    normal_dir = tmp_path / "normal"
    hidden_dir.mkdir()
    normal_dir.mkdir()
    hidden = run_fresh(CORE_RUNS + NDARRAY_CALLS, str(hidden_dir),
                       prelude=HIDE_NUMPY)
    normal = run_fresh(CORE_RUNS, str(normal_dir))

    assert set(hidden["counts"]) == {"FF", "EF", "FLF"}
    for name, (processed, accepted, blocked) in hidden["counts"].items():
        assert processed == accepted + blocked == 2000, name
    assert hidden["counts"] == normal["counts"]

    assert hidden["dat"]["1"][0] == hidden["dat"]["2"][0] == 0
    assert len(bytes.fromhex(hidden["dat"]["1"][1]).splitlines()) == 2
    assert hidden["dat"]["1"] == hidden["dat"]["2"]
    assert hidden["dat"] == normal["dat"]

    assert len(hidden["raised"]) == 5
    for name, message in hidden["raised"].items():
        assert message is not None and "numpy" in message, name
