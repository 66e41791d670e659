"""Negative-path tests for deployment construction and provisioning."""

import pytest

from repro.control.portal import ValidationError
from repro.netsim.builder import InternetParams
from repro.platform import AkamaiDNSDeployment, DeploymentParams

SMALL_NET = InternetParams(n_tier1=4, n_tier2=8, n_stub=20)


def small(**overrides):
    defaults = dict(seed=3, n_pops=8, deployed_clouds=8,
                    machines_per_pop=1, pops_per_cloud=2,
                    n_edge_servers=4, internet=SMALL_NET,
                    filters_enabled=False, input_delayed_enabled=False)
    defaults.update(overrides)
    return DeploymentParams(**defaults)


class TestConstructionErrors:
    @pytest.mark.parametrize("field, value", [
        ("machines_per_pop", 0), ("pops_per_cloud", 0),
        ("n_edge_servers", 0), ("n_pops", 0), ("n_pops", -3),
        ("deployed_clouds", 0), ("deployed_clouds", 25)])
    def test_out_of_range_scale_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .* {value}$"):
            small(**{field: value})

    def test_insufficient_pop_capacity(self):
        # 8 clouds x 3 PoPs each = 24 slots > 8 PoPs x 2 slots.
        with pytest.raises(ValueError, match="not enough PoP capacity"):
            AkamaiDNSDeployment(small(pops_per_cloud=3))

    def test_capacity_boundary_is_exact(self):
        # 8 clouds x 2 PoPs = 16 slots == 8 PoPs x 2: exactly fits.
        deployment = AkamaiDNSDeployment(small())
        for pop_id in deployment.pop_ids:
            assert len(deployment.pop_clouds(pop_id)) == 2

    def test_delegation_capacity_exhaustion(self):
        # With 4 clouds the only 4-of-4 combination supports exactly
        # one enterprise; the second must fail loudly.
        deployment = AkamaiDNSDeployment(small(
            n_pops=4, deployed_clouds=4))
        deployment.provision_enterprise("solo", "solo.net",
                                        "www IN A 203.0.113.9\n")
        with pytest.raises(RuntimeError, match="exhausted"):
            deployment.provision_enterprise("overflow", "overflow.net")


class TestProvisioningErrors:
    @pytest.fixture(scope="class")
    def deployment(self):
        dep = AkamaiDNSDeployment(small())
        dep.provision_enterprise("one", "one.net",
                                 "www IN A 203.0.113.1\n")
        dep.settle(20)
        return dep

    def test_duplicate_enterprise_rejected(self, deployment):
        with pytest.raises(ValidationError):
            deployment.provision_enterprise("one", "two.net")

    def test_invalid_zone_body_rejected(self, deployment):
        with pytest.raises(ValidationError):
            deployment.provision_enterprise("bad", "bad.net",
                                            "www IN A not-an-ip\n")

    def test_foreign_tld_rejected(self, deployment):
        with pytest.raises(ValueError, match="must end in"):
            deployment.provision_enterprise("org", "org.example")

    def test_gtm_for_unprovisioned_zone_rejected(self, deployment):
        from repro.netsim.geo import GeoPoint
        with pytest.raises(ValueError):
            deployment.provision_gtm_property(
                "one", "app.other.net",
                datacenters=[("192.0.2.1", GeoPoint(0, 0))],
                weights=[1.0])

    def test_traffic_report_for_unknown_enterprise(self, deployment):
        with pytest.raises(KeyError):
            deployment.enterprise_traffic_report("ghost")
