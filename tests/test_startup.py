"""Start-up cost and the standard library only: each check runs in a fresh
interpreter.

eonsim never loads numpy: importing, parsing, every simulation, the CLI and
the five grid calls (``Link.occupancy``, ``LinkView.occupancy``,
``intersection_grid``, ``first_free_block`` and ``exact_free_block``, all on
``int`` bitmasks) need only the standard library.  The process pool is
needed only by ``sweep_reports`` with more than one worker and more than one
load, and is imported on first use.  ``logging`` is imported only to warn
about an unknown field of a document, so importing eonsim, parsing the
bundled documents, a simulation and a serial CLI run never load it.

Each check runs in a new interpreter, because this test process has long
since imported eonsim and whatever pytest loads.  The hidden-numpy guard sets
``sys.modules["numpy"]`` to None before anything else, which makes every
``import numpy`` fail as if numpy were not installed, and compares its runs
with the same runs in an interpreter where numpy is not hidden.
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
HEAVY = ("numpy", "concurrent.futures", "multiprocessing", "logging")

PRELUDE = f"""
import json, sys
HEAVY = {HEAVY!r}
def loaded():
    return [name for name in HEAVY if sys.modules.get(name) is not None]
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
    # One load runs in this process whatever --workers asks for.
    for workers in ("1", "4"):
        out = tmp_path / f"run{workers}.dat"
        result = run_fresh("""
            import contextlib, io
            from eonsim import data
            from eonsim.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["--network", str(data.data_path("nsfnet_network.json")),
                             "--routes", str(data.data_path("nsfnet_routes_k3.json")),
                             "--algorithm", "FF", "--goal", "200", "--lambda", "18",
                             "--workers", sys.argv[2], "--out", sys.argv[1]])
            result = {"code": code, "loaded": loaded()}
        """, str(out), workers)
        assert result["code"] == 0, workers
        assert out.read_text().startswith("1.8 "), workers
        assert result["loaded"] == [], workers


#: The five grid calls on an 8-slot pair network whose link 0 holds slots
#: 2..4; sets ``grids`` to what each returns, a block as ``[start, stop]``.
GRID_CALLS = """
    from eonsim import algorithms
    pair = eonsim.Network.build("pair", 2, [(0, 1, 1.0, 8), (1, 0, 1.0, 8)])
    pair_routes = eonsim.RouteSet()
    pair_routes.add_node_path(pair, [0, 1])
    pair.links[0].occupy_slots(2, 5)
    option = eonsim.ModulationOption("BPSK", 1, 1e9)
    pair_ctx = eonsim.AllocationContext(
        pair, 0, 1, pair_routes.routes_for(0, 1),
        eonsim.BitRateEntry(10.0, "10", (option,)))
    joint = algorithms.intersection_grid(pair_ctx, 0)
    calls = {
        "Link.occupancy": pair.links[0].occupancy,
        "LinkView.occupancy": pair_ctx.link_in_route(0, 0).occupancy,
        "intersection_grid": joint,
        "first_free_block": algorithms.first_free_block(joint, 8, 3),
        "exact_free_block": algorithms.exact_free_block(joint, 8, 2),
    }
    grids = {name: value if type(value) is int else [value.start, value.stop]
             for name, value in calls.items()}
"""

GRID_VALUES = {
    "Link.occupancy": 0b11100,
    "LinkView.occupancy": 0b11100,
    "intersection_grid": 0b11100,
    "first_free_block": [5, 8],
    "exact_free_block": [0, 2],
}


@pytest.mark.parametrize("prelude", [HIDE_NUMPY, ""], ids=["hidden", "visible"])
def test_grid_calls_load_no_numpy(prelude):
    result = run_fresh("""
    import eonsim
    after_import = loaded()
""" + GRID_CALLS + """
    result = {"after_import": after_import, "after_calls": loaded(),
              "grids": grids}
""", prelude=prelude)
    assert result["after_import"] == result["after_calls"] == []
    assert result["grids"] == GRID_VALUES


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
            network=network, routes=routes, catalog=catalog,
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

#: Appended to ``CORE_RUNS``: what each of the five grid calls returns.
GRID_RESULT = GRID_CALLS + """
    result["grids"] = grids
"""


def test_core_runs_with_numpy_hidden(tmp_path):
    hidden_dir = tmp_path / "hidden"
    normal_dir = tmp_path / "normal"
    hidden_dir.mkdir()
    normal_dir.mkdir()
    hidden = run_fresh(CORE_RUNS + GRID_RESULT, str(hidden_dir),
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

    assert hidden["grids"] == GRID_VALUES
