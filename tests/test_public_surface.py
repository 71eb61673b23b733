"""The public names, spelled out, so adding or removing one is a visible diff.

The allocator contract and these names are what users build on; a change
to either list is a deliberate API decision that goes with a README note.
"""

import eonsim
from eonsim import errors

PUBLIC_NAMES = [
    "ALGORITHMS", "ALLOCATED", "AllocationContext", "BitRateCatalog",
    "BitRateEntry", "ConnectionRecord", "Event", "EventKind", "FreeBlock",
    "Link", "LinkView", "ModulationOption", "NOT_ALLOCATED", "Network",
    "RngStreams", "Route", "RouteSet", "SearchDirection", "Seeds",
    "SimulationReport", "Simulator", "SimulatorConfig", "TrafficProfile",
    "Verdict", "errors", "exact_fit", "exact_free_block", "first_fit",
    "first_free_block", "first_last_fit", "intersection_grid",
    "load_bit_rates", "load_network", "load_routes", "modulation_options",
    "next_exponential", "parse_bit_rates", "parse_network", "parse_routes",
    "sample_bitrate", "sample_src_dst", "sweep_reports", "uniform_index",
    "write_dat",
]

ERROR_CLASSES = [
    "AllocatorFaultError", "AlreadyInitializedError", "AlreadyOccupiedError",
    "AuditViolationError", "CommitConflictError", "EonSimError", "InputError",
    "InvalidConfigError", "MalformedDocumentError", "NoSuchLinkError",
    "NotInitializedError", "NotOccupiedError", "OutOfBoundsError",
    "RunAbortedError", "SchemaError", "StagedOverlapError", "ValidationError",
]


def test_package_exports_exactly_these_names():
    assert sorted(eonsim.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(eonsim, name) is not None, name


def test_errors_defines_exactly_these_classes():
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type)}
    assert sorted(classes) == ERROR_CLASSES
    assert all(issubclass(cls, errors.EonSimError) for cls in classes.values())
