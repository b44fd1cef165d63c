"""Unit tests for the declarative scenario model (repro.scenarios.spec)."""

import dataclasses

import pytest

from repro.scenarios import ScenarioError, ScenarioSpec, canned_spec
from repro.scenarios.spec import ArrivalSpec, ClientSpec, TimelineEventSpec

CANNED = ("walk-in-office", "flash-crowd", "degraded-commute",
          "server-churn-day", "metro")


def small_spec(**overrides) -> ScenarioSpec:
    """A minimal valid spec to mutate in error tests."""
    base = dict(
        name="tiny",
        description="one client, one server",
        duration_s=10.0,
        hosts=[
            dict(name="c", profile="ibm-560x", role="client"),
            dict(name="s", profile="server-b"),
        ],
        links=[
            dict(a="c", b="s", bandwidth_bps=250_000.0, latency_s=0.002),
            dict(a="c", b="fs", bandwidth_bps=250_000.0, latency_s=0.002),
            dict(a="s", b="fs", bandwidth_bps=500_000.0, latency_s=0.001),
        ],
        apps=[dict(kind="null")],
        clients=[dict(host="c", app="null", servers=["s"])],
    )
    base.update(overrides)
    return ScenarioSpec.from_dict(base)


def problems_of(spec: ScenarioSpec):
    with pytest.raises(ScenarioError) as excinfo:
        spec.validate()
    return excinfo.value.problems


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = small_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_canned(self):
        for name in CANNED:
            spec = canned_spec(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_key_rejected_with_path(self):
        data = small_spec().to_dict()
        data["clients"][0]["thonk"] = 1
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(data)
        assert "clients[0]" in str(excinfo.value)
        assert "thonk" in str(excinfo.value)

    def test_bad_json_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")


class TestValidation:
    def test_valid_spec_returns_self(self):
        spec = small_spec()
        assert spec.validate() is spec

    def test_unknown_host_profile(self):
        spec = small_spec(hosts=[
            dict(name="c", profile="cray-1", role="client"),
            dict(name="s", profile="server-b"),
        ])
        assert any("hosts[0].profile" in p and "cray-1" in p
                   for p in problems_of(spec))

    def test_duplicate_host(self):
        spec = small_spec(hosts=[
            dict(name="c", profile="ibm-560x", role="client"),
            dict(name="c", profile="server-b"),
            dict(name="s", profile="server-b"),
        ])
        assert any("duplicate host" in p for p in problems_of(spec))

    def test_link_to_unknown_host(self):
        spec = small_spec(links=[
            dict(a="c", b="ghost", bandwidth_bps=1000.0, latency_s=0.0),
        ])
        assert any("links[0].b" in p and "ghost" in p
                   for p in problems_of(spec))

    def test_medium_link_exclusivity(self):
        spec = small_spec(
            media=[dict(name="air", bandwidth_bps=1000.0)],
            links=[dict(a="c", b="s", medium="air", bandwidth_bps=9.0)],
        )
        assert any("links[0].bandwidth_bps" in p for p in problems_of(spec))

    def test_dangling_server_ref(self):
        spec = small_spec(clients=[
            dict(host="c", app="null", servers=["nowhere"]),
        ])
        assert any("clients[0].servers[0]" in p and "nowhere" in p
                   for p in problems_of(spec))

    def test_server_must_run_the_app(self):
        spec = small_spec(apps=[dict(kind="null", hosts=["c"])])
        assert any("does not run app" in p for p in problems_of(spec))

    def test_negative_arrival_rate(self):
        spec = small_spec(clients=[
            dict(host="c", app="null", servers=["s"],
                 arrivals=dict(kind="poisson", rate_ops_per_s=-1.0)),
        ])
        assert any("rate_ops_per_s" in p and "positive" in p
                   for p in problems_of(spec))

    def test_timeline_value_and_declared_link(self):
        spec = small_spec(timeline=[
            dict(at_s=1.0, kind="bandwidth", target=["s", "fs"], value=2.0),
            dict(at_s=1.0, kind="bandwidth", target=["c", "ghost"],
                 value=0.5),
        ])
        problems = problems_of(spec)
        assert any("timeline[0].value" in p for p in problems)
        assert any("timeline[1]" in p and "ghost" in p for p in problems)

    def test_all_problems_collected_at_once(self):
        spec = small_spec(
            duration_s=-1.0,
            clients=[dict(host="ghost", app="nope")],
        )
        assert len(problems_of(spec)) >= 3

    def test_client_host_must_have_client_role(self):
        spec = small_spec(clients=[dict(host="s", app="null")])
        assert any("role" in p for p in problems_of(spec))

    @pytest.mark.parametrize("overrides, path", [
        (dict(hosts=[dict(name="c", profile="ibm-560x", role="client",
                          battery_powered=True, battery_driver="nimh"),
                     dict(name="s", profile="server-b")]),
         "hosts[0].battery_driver"),
        (dict(hosts=[dict(name="c", profile="ibm-560x", role="client"),
                     dict(name="s", profile="server-b",
                          battery_powered=True)]),
         "hosts[1].battery_powered"),
        (dict(apps=[dict(kind="latex", options={"documents": ["nope"]})],
              clients=[dict(host="c", app="latex", servers=["s"])]),
         "apps[0].options"),
    ], ids=["battery-driver", "no-battery", "app-options"])
    def test_checks_that_used_to_fail_in_the_compiler(self, overrides, path):
        assert any(p.startswith(path) for p in problems_of(small_spec(**overrides)))

    def test_reversed_pair_target_matches_declared_link(self):
        spec = small_spec(timeline=[
            dict(at_s=1.0, kind="partition", target=["s", "c"],
                 until_s=2.0),
        ])
        assert spec.validate() is spec


class TestCannedLibrary:
    def test_every_canned_spec_validates(self):
        for name in CANNED:
            assert canned_spec(name).name == name

    def test_unknown_canned_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            canned_spec("no-such-world")

    def test_specs_are_fresh_equal_objects(self):
        a, b = canned_spec("flash-crowd"), canned_spec("flash-crowd")
        assert a == b
        assert dataclasses.replace(a, seed=999) != b


class TestTimelineEventSpec:
    def test_host_target_has_no_pair(self):
        event = TimelineEventSpec(at_s=0.0, kind="server_down", target="s")
        assert event.pair_target is None

    def test_list_target_becomes_pair(self):
        event = TimelineEventSpec(at_s=0.0, kind="bandwidth",
                                  target=("a", "b"), value=0.5)
        assert event.pair_target == ("a", "b")


class TestClientSpecDefaults:
    def test_default_arrivals_is_single_shot_trace(self):
        client = ClientSpec(host="c", app="null")
        assert client.arrivals == ArrivalSpec(kind="trace", times=(0.0,))
