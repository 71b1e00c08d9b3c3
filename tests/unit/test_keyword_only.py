"""Unit tests for the keyword-only tuning arguments of the core constructors.

Each constructor takes its tuning values (config, default mode, probe knobs,
TCP window seeds) by keyword only: the keyword form must not warn and must
land the values, and passing them positionally must raise ``TypeError``.
"""

import warnings

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.autoswitch import ConnectivityManager
from repro.core.mobile_host import MobileHost
from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.core.tunnel import VirtualInterface
from repro.net.addressing import ip, subnet
from repro.sim import ms


def assert_no_deprecation(caught):
    assert [w for w in caught
            if issubclass(w.category, DeprecationWarning)] == []


class TestMobilePolicyTable:
    def test_positional_default_mode_is_rejected(self):
        with pytest.raises(TypeError):
            MobilePolicyTable(RoutingMode.LOCAL)

    def test_keyword_form_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = MobilePolicyTable(default_mode=RoutingMode.LOCAL)
        assert_no_deprecation(caught)
        assert table.default_mode is RoutingMode.LOCAL


class TestVirtualInterface:
    def test_positional_config_is_rejected(self, sim):
        config = DEFAULT_CONFIG.with_overrides(tcp_recv_buffer=8192)
        with pytest.raises(TypeError):
            VirtualInterface(sim, "vif0", config)

    def test_keyword_form_does_not_warn(self, sim):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vif = VirtualInterface(sim, "vif0", config=DEFAULT_CONFIG)
        assert_no_deprecation(caught)
        assert vif.config is DEFAULT_CONFIG


class TestMobileHost:
    ARGS = (ip("36.135.0.10"), subnet("36.135.0.0/24"), ip("36.135.0.1"))

    def test_positional_config_and_mode_are_rejected(self, sim):
        config = DEFAULT_CONFIG.with_overrides(policy_cache_size=5)
        with pytest.raises(TypeError):
            MobileHost(sim, "mh", *self.ARGS, config, RoutingMode.LOCAL)

    def test_keyword_form_does_not_warn(self, sim):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mobile = MobileHost(sim, "mh", *self.ARGS,
                                default_mode=RoutingMode.TRIANGLE)
        assert_no_deprecation(caught)
        assert mobile.policy.default_mode is RoutingMode.TRIANGLE


class TestTCPConnection:
    def make_conn(self, lan, *extra, **kwargs):
        from repro.net.tcp import TCPConnection

        return TCPConnection(lan.a.tcp, ip("10.0.0.1"), 40000,
                             ip("10.0.0.2"), 23, *extra, **kwargs)

    def test_positional_tuning_is_rejected(self, lan):
        with pytest.raises(TypeError):
            self.make_conn(lan, 2048)

    def test_keyword_form_does_not_warn(self, lan):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conn = self.make_conn(lan, initial_cwnd=2048,
                                  initial_ssthresh=3072,
                                  congestion_control="reno")
        assert_no_deprecation(caught)
        assert conn.cwnd == 2048
        assert conn.ssthresh == 3072
        assert conn.cc.name == "reno"

    def test_too_many_positionals_rejected(self, lan):
        with pytest.raises(TypeError):
            self.make_conn(lan, 2048, 3072, 99)


class TestConnectivityManager:
    @pytest.fixture
    def mobile(self, testbed):
        return testbed.mobile

    def test_positional_probe_knobs_are_rejected(self, mobile):
        with pytest.raises(TypeError):
            ConnectivityManager(mobile, ms(250), ms(100), 3, 4)

    def test_keyword_form_does_not_warn(self, mobile):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            manager = ConnectivityManager(mobile, probe_interval=ms(500))
        assert_no_deprecation(caught)
        assert manager.probe_interval == ms(500)
