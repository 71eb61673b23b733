import json
import logging

import pytest

from eonsim import (
    parse_bit_rates,
    parse_network,
    parse_routes,
)
from eonsim.errors import (
    InputError,
    MalformedDocumentError,
    SchemaError,
    ValidationError,
)

SMALL_NETWORK = {
    "name": "small",
    "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
    "links": [
        {"id": 0, "src": 0, "dst": 1, "length": 100, "slots": 8},
        {"id": 1, "src": 1, "dst": 0, "length": 100, "slots": 8},
        {"id": 2, "src": 1, "dst": 2, "length": 50, "slots": 8},
        {"id": 3, "src": 2, "dst": 1, "length": 50, "slots": 8},
    ],
}


def doc(**overrides):
    merged = {**SMALL_NETWORK, **overrides}
    return json.dumps(merged)


class TestParseNetwork:
    def test_small_document(self):
        net = parse_network(doc())
        assert net.node_count == 3
        assert len(net.links) == 4
        assert net.link_by_endpoints(1, 2) == 2

    def test_nsfnet_fixture_counts(self, nsfnet):
        assert nsfnet.node_count == 14
        assert len(nsfnet.links) == 42
        assert all(link.slot_count == 320 for link in nsfnet.links)

    def test_malformed_json(self):
        with pytest.raises(MalformedDocumentError):
            parse_network("{not json")

    def test_missing_field_names_path(self):
        bad = {**SMALL_NETWORK,
               "links": [{"id": 0, "src": 0, "dst": 1, "length": 100}]}
        with pytest.raises(SchemaError, match=r"links\[0\].slots"):
            parse_network(json.dumps(bad))

    def test_mistyped_field(self):
        bad = {**SMALL_NETWORK, "name": 12}
        with pytest.raises(SchemaError, match="name"):
            parse_network(json.dumps(bad))

    def test_dangling_node_named_in_error(self):
        bad_links = SMALL_NETWORK["links"][:1] + [
            {"id": 1, "src": 0, "dst": 99, "length": 1, "slots": 8}]
        with pytest.raises(ValidationError, match="99"):
            parse_network(doc(links=bad_links))

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValidationError):
            parse_network(doc(nodes=[]))

    def test_duplicate_link_rejected(self):
        bad_links = SMALL_NETWORK["links"] + [
            {"id": 4, "src": 0, "dst": 1, "length": 2, "slots": 8}]
        with pytest.raises(ValidationError, match="duplicate"):
            parse_network(doc(links=bad_links))

    def test_non_positive_slots_rejected(self):
        bad_links = [{"id": 0, "src": 0, "dst": 1, "length": 1, "slots": 0}]
        with pytest.raises(ValidationError, match="slots"):
            parse_network(doc(links=bad_links))

    def test_unknown_field_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            parse_network(doc(comment="draft"))
        assert any("comment" in record.message for record in caplog.records)


class TestParseRoutes:
    def small_net(self):
        return parse_network(doc())

    def test_node_paths_resolve_to_link_chains(self):
        # assign link ids so that (0->2) is id 3 and (2->5) is id 9
        links = []
        pairs = [(0, 1), (1, 0), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0),
                 (4, 0), (0, 4), (2, 5), (5, 2), (5, 0)]
        for i, (a, b) in enumerate(pairs):
            links.append({"id": i, "src": a, "dst": b, "length": 10, "slots": 4})
        net = parse_network(json.dumps({
            "name": "ids", "nodes": [{"id": n} for n in range(6)],
            "links": links}))
        assert net.link_by_endpoints(0, 2) == 3
        assert net.link_by_endpoints(2, 5) == 9
        routes = parse_routes(json.dumps({
            "name": "ids", "routes": [{"src": 0, "dst": 5, "paths": [[0, 2, 5]]}]
        }), net)
        assert routes.routes_for(0, 5)[0].link_ids == (3, 9)

    def test_missing_directed_link_names_pair(self):
        with pytest.raises(ValidationError, match=r"\(0 -> 2\)"):
            parse_routes(json.dumps({
                "name": "x", "routes": [{"src": 0, "dst": 2, "paths": [[0, 2]]}]
            }), self.small_net())

    def test_path_must_match_declared_endpoints(self):
        with pytest.raises(ValidationError):
            parse_routes(json.dumps({
                "name": "x", "routes": [{"src": 0, "dst": 2, "paths": [[0, 1]]}]
            }), self.small_net())

    def test_path_repeating_a_link_is_located(self):
        with pytest.raises(ValidationError, match=(
                r"^routes\[0\]\.paths\[1\]: route for \(0, 1\) "
                r"uses link 0 more than once$")):
            parse_routes(json.dumps({
                "name": "x",
                "routes": [{"src": 0, "dst": 1, "paths": [[0, 1], [0, 1, 0, 1]]}]
            }), self.small_net())

    def test_three_paths_keep_file_order(self, nsfnet, nsfnet_routes):
        routes = nsfnet_routes.routes_for(0, 5)
        assert len(routes) == 3
        lengths = [route.length_km for route in routes]
        assert lengths == sorted(lengths)

    def test_short_path_rejected(self):
        with pytest.raises(SchemaError):
            parse_routes(json.dumps({
                "name": "x", "routes": [{"src": 0, "dst": 1, "paths": [[0]]}]
            }), self.small_net())


class TestParseBitRates:
    def test_bundled_table(self, table_catalog):
        assert len(table_catalog) == 5
        entry_1000 = next(e for e in table_catalog if e.label == "1000")
        assert len(entry_1000.options) == 6
        bpsk = entry_1000.options[-1]
        assert (bpsk.modulation, bpsk.slot_count, bpsk.reach_km) == ("BPSK", 80, 5520)

    def test_option_order_is_fewest_slots_first(self, table_catalog):
        for entry in table_catalog:
            needs = [option.slot_count for option in entry.options]
            assert needs == sorted(needs)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValidationError):
            parse_bit_rates(json.dumps(
                {"10": [{"modulation": "BPSK", "slots": 0, "reach": 100}]}))

    def test_non_numeric_label_rejected(self):
        with pytest.raises(SchemaError):
            parse_bit_rates(json.dumps(
                {"fast": [{"modulation": "BPSK", "slots": 1, "reach": 100}]}))

    def test_empty_option_list_rejected(self):
        with pytest.raises(ValidationError):
            parse_bit_rates(json.dumps({"10": []}))

    def test_negative_reach_rejected(self):
        with pytest.raises(ValidationError):
            parse_bit_rates(json.dumps(
                {"10": [{"modulation": "BPSK", "slots": 1, "reach": -5}]}))


class TestParseTotality:
    @pytest.mark.parametrize("text", [
        "",
        "[1, 2",
        json.dumps({"nodes": [], "links": []}),
        json.dumps({"name": "x", "nodes": [{"id": 0}], "links": "nope"}),
        json.dumps({"name": "x", "nodes": [{}], "links": []}),
    ])
    def test_bad_network_documents_raise_input_errors(self, text):
        with pytest.raises(InputError):
            parse_network(text)

    @pytest.mark.parametrize("text", [
        "{", json.dumps([1, 2, 3]),
        json.dumps({"10": [{"modulation": "BPSK", "slots": 1}]}),
    ])
    def test_bad_bit_rate_documents_raise_input_errors(self, text):
        with pytest.raises(InputError):
            parse_bit_rates(text)


def _with_link(index, **fields):
    links = [dict(link) for link in SMALL_NETWORK["links"]]
    links[index].update(fields)
    return doc(links=links)


OPTION = {"modulation": "BPSK", "slots": 1, "reach": 100}


class TestLocatedModelRules:
    """Rules owned by the model constructors, reported at their JSON path."""

    @pytest.mark.parametrize("kind, text, prefix, fragments", [
        ("network", _with_link(1, dst=1), "links[1]", ["self-loop"]),
        ("network", _with_link(0, length=-5), "links[0]", ["length", "-5"]),
        ("network", _with_link(0, length=float("nan")), "links[0]",
         ["length", "nan"]),
        ("network", _with_link(2, length=float("inf")), "links[2]",
         ["length", "inf"]),
        ("network", doc(nodes=[{"id": 0}, {"id": 1}, {"id": 3}]), "network",
         ["node ids"]),
        ("network", _with_link(3, id=7), "network", ["link ids"]),
        ("network", _with_link(2, dst=99), "network", ["99"]),
        ("network", doc(links=SMALL_NETWORK["links"] + [
            {"id": 4, "src": 0, "dst": 1, "length": 2, "slots": 8}]),
         "network", ["duplicate", "(0 -> 1)", "link 4", "link 0"]),
        ("network", _with_link(2, slots=16), "network",
         ["link 2 has 16 slots", "link 0 has 8"]),
        ("network", doc(nodes=[{"id": 0}], links=[]), "network",
         ["at least 2 nodes", "got 1"]),
        ("routes", json.dumps({"name": "x", "routes": [
            {"src": 0, "dst": 2, "paths": [[0, 1, 2], [0, 1]]}]}),
         "routes[0].paths[1]", ["ends at node 1"]),
        ("bit_rates", json.dumps({"10": [OPTION], "0": [OPTION]}),
         "bit_rates['0']", ["bitrate", "0.0"]),
        ("bit_rates", json.dumps({"nan": [OPTION]}), "bit_rates['nan']",
         ["bitrate", "nan"]),
        ("bit_rates", json.dumps({"inf": [OPTION]}), "bit_rates['inf']",
         ["bitrate", "inf"]),
        ("bit_rates", json.dumps({"10": [OPTION, {**OPTION, "reach": 0}]}),
         "bit_rates['10'][1]", ["reach", "0.0"]),
        ("bit_rates", json.dumps({"10": [{**OPTION, "reach": float("nan")}]}),
         "bit_rates['10'][0]", ["reach", "nan"]),
        ("bit_rates", json.dumps({"10": [OPTION], "40": [OPTION], "10.0": [OPTION]}),
         "bit_rates", ["'10'", "'10.0'", "10 Gbps"]),
        ("bit_rates", "{}", "bit_rates", ["at least one entry"]),
    ], ids=["self-loop", "negative-length", "nan-length", "infinite-length",
            "sparse-node-ids", "sparse-link-ids", "unknown-endpoint",
            "duplicate-pair", "mixed-slot-counts", "one-node", "path-ends-elsewhere",
            "zero-bitrate", "nan-bitrate", "infinite-bitrate", "zero-reach",
            "nan-reach", "colliding-bitrate-labels", "empty-catalog"])
    def test_error_starts_with_its_json_path(self, kind, text, prefix, fragments):
        with pytest.raises(ValidationError) as excinfo:
            if kind == "network":
                parse_network(text)
            elif kind == "routes":
                parse_routes(text, parse_network(doc()))
            else:
                parse_bit_rates(text)
        message = str(excinfo.value)
        assert message.startswith(f"{prefix}: ")
        assert "network: network" not in message
        for fragment in fragments:
            assert fragment in message


class TestDuplicateKeys:
    """A key repeated in one JSON object is an error, not last-one-wins."""

    @pytest.mark.parametrize("kind, text, key, path", [
        ("network", doc().replace('"length": 100,', '"length": 100, "length": 7,', 1),
         "length", "links[0]"),
        ("routes", '{"name": "x", "routes": [{"src": 0, "dst": 1, '
                   '"paths": [[0, 1]], "paths": [[0, 1]]}]}', "paths", "routes[0]"),
        ("bit_rates", f'{{"10": [{json.dumps(OPTION)}], '
                      f'"10": [{json.dumps(OPTION)}]}}', "10", "bit_rates"),
        ("bit_rates", '{"10": [{"modulation": "BPSK", "slots": 1, '
                      '"reach": 100, "reach": 50}]}', "reach", "bit_rates['10'][0]"),
        ("network", '{"name": "x", "name": "y", "nodes": [], "links": []}',
         "name", "network"),
        ("network", doc().replace('"slots": 8}', '"slots": 8, '
                                  '"note": {"by": "a", "by": "b"}}', 1),
         "by", "links[0].note"),
        ("routes", '{"name": "x", "routes": [{"src": 0, "dst": 1, "paths": [[0, 1]]}, '
                   '{"src": 1, "dst": 0, "dst": 0, "paths": [[1, 0]]}]}',
         "dst", "routes[1]"),
    ], ids=["link-length", "route-paths", "catalog-label", "option-reach",
            "network-name", "unknown-field", "second-route"])
    def test_duplicate_key_is_a_schema_error_naming_it(self, kind, text, key, path):
        with pytest.raises(SchemaError, match=f"duplicate key '{key}'") as excinfo:
            if kind == "network":
                parse_network(text)
            elif kind == "routes":
                parse_routes(text, parse_network(doc()))
            else:
                parse_bit_rates(text)
        assert str(excinfo.value) == f"{path}: duplicate key '{key}'"


class TestDocumentShape:
    """Shape errors name the JSON path and what was found there."""

    @pytest.mark.parametrize("kind, text, message", [
        ("network", doc(links=[5]), "links[0]: expected an object, got int"),
        ("network", _with_link(0, length=True),
         "links[0].length: expected a number, got bool"),
        ("network", _with_link(1, length="100"),
         "links[1].length: expected a number, got str"),
        ("network", _with_link(2, slots=8.0),
         "links[2].slots: expected an integer, got float"),
        ("bit_rates", json.dumps({"10": OPTION}),
         "bit_rates['10']: expected a list of options, got dict"),
    ], ids=["non-object", "bool-number", "string-number", "float-integer",
            "options-not-a-list"])
    def test_message_names_path_and_found_type(self, kind, text, message):
        parse = parse_network if kind == "network" else parse_bit_rates
        with pytest.raises(SchemaError) as excinfo:
            parse(text)
        assert str(excinfo.value) == message
