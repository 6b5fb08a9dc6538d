"""Parameter validation and flat-config parsing."""

import math

import pytest

from qillum import (
    CountModel,
    DomainError,
    ParseError,
    ReceiverConfig,
    ScenarioParams,
    ThresholdPolicy,
    parse_config,
    parse_value,
    render_config,
)
from qillum import scenario
from qillum.scenario import GAIN_AUTO, GAIN_BHATT


class TestScenarioParams:
    def test_reference_point_is_in_regime(self):
        p = ScenarioParams(0.01, 0.01, 20.0)
        assert p.regime_ok

    @pytest.mark.parametrize(
        "n_s, kappa, n_b",
        [(0.5, 0.01, 20.0), (0.01, 0.5, 20.0), (0.01, 0.01, 5.0)],
    )
    def test_out_of_regime_flag(self, n_s, kappa, n_b):
        assert not ScenarioParams(n_s, kappa, n_b).regime_ok

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_s=0.0, kappa=0.01, n_b=20.0),
            dict(n_s=-1.0, kappa=0.01, n_b=20.0),
            dict(n_s=0.01, kappa=-0.1, n_b=20.0),
            dict(n_s=0.01, kappa=1.5, n_b=20.0),
            dict(n_s=0.01, kappa=0.01, n_b=-2.0),
            dict(n_s=math.nan, kappa=0.01, n_b=20.0),
            dict(n_s=0.01, kappa=math.inf, n_b=20.0),
            dict(n_s=True, kappa=0.01, n_b=20.0),
        ],
    )
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(DomainError):
            ScenarioParams(**kwargs)

    def test_boundary_kappa_values_allowed(self):
        ScenarioParams(0.01, 0.0, 20.0)
        ScenarioParams(0.01, 1.0, 20.0)


class TestReceiverConfig:
    def test_defaults(self):
        r = ReceiverConfig()
        assert r.gain == GAIN_AUTO
        assert r.threshold_policy is ThresholdPolicy.PAPER_FORMULA
        assert r.count_model is CountModel.FULL_COUNTING

    @pytest.mark.parametrize("gain", [GAIN_AUTO, GAIN_BHATT, 1.005, 2])
    def test_accepts_valid_gain(self, gain):
        ReceiverConfig(gain=gain)

    @pytest.mark.parametrize("gain", ["turbo", 1.0, 0.5, math.nan, True])
    def test_rejects_bad_gain(self, gain):
        with pytest.raises(DomainError):
            ReceiverConfig(gain=gain)

    @pytest.mark.parametrize("k", [0, -3, 1.5, True, 3])
    def test_rejects_bad_k(self, k):
        """There is no copy-count knob: a k= line is an unknown key at its
        line whatever its value, and render_config writes none."""
        with pytest.raises(ParseError, match="line 4: unknown key 'k'"):
            parse_config(f"n_s=0.01\nkappa=0.01\nn_b=20\nk={k}\ngain=auto\n")
        rendered = render_config(ScenarioParams(0.01, 0.01, 20.0), ReceiverConfig())
        assert not any(line.startswith("k=") for line in rendered.splitlines())

    def test_rejects_raw_enum_strings(self):
        with pytest.raises(DomainError):
            ReceiverConfig(threshold_policy="optimal_scan")
        with pytest.raises(DomainError):
            ReceiverConfig(count_model="on_off")


CONFIG_OK = """\
# reference scenario
n_s = 0.01
kappa = 0.01   # round trip
n_b = 20.0

gain = auto
threshold_policy = optimal_scan
count_model = on_off
"""


class TestParseConfig:
    def test_full_document(self):
        params, receiver = parse_config(CONFIG_OK)
        assert params == ScenarioParams(0.01, 0.01, 20.0)
        assert receiver.gain == GAIN_AUTO
        assert receiver.threshold_policy is ThresholdPolicy.OPTIMAL_SCAN
        assert receiver.count_model is CountModel.ON_OFF

    def test_receiver_defaults_when_omitted(self):
        _, receiver = parse_config("n_s=0.01\nkappa=0.01\nn_b=20\n")
        assert receiver == ReceiverConfig()

    def test_numeric_gain(self):
        _, receiver = parse_config("n_s=0.01\nkappa=0.01\nn_b=20\ngain=1.005\n")
        assert receiver.gain == 1.005

    def test_missing_required_keys(self):
        with pytest.raises(ParseError, match="n_b"):
            parse_config("n_s=0.01\nkappa=0.01\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("n_s=0.01\nbogus=1\n", 2),
            ("n_s=0.01\nkappa=0.01\nn_b=20\nn_s=0.02\n", 4),
            ("n_s=\n", 1),
            ("n_s 0.01\n", 1),
            ("n_s=0.01\nkappa=fast\nn_b=20\n", 2),
            ("n_s=0.01\nkappa=0.01\nn_b=20\nk=2.5\n", 4),
            ("n_s=0.01\nkappa=0.01\nn_b=20\nthreshold_policy=guess\n", 4),
            ("n_s=0.01\nkappa=0.01\nn_b=20\ncount_model=analog\n", 4),
        ],
    )
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(ParseError, match=f"line {lineno}"):
            parse_config(text)


class TestParseValue:
    @pytest.mark.parametrize(
        "key, text, value",
        [
            ("n_s", "0.01", 0.01),
            ("kappa", "1e-9", 1e-9),
            ("n_b", "20", 20.0),
            ("gain", "auto", GAIN_AUTO),
            ("gain", "bhatt", GAIN_BHATT),
            ("gain", "1.005", 1.005),
            ("threshold_policy", "optimal_scan", ThresholdPolicy.OPTIMAL_SCAN),
            ("count_model", "on_off", CountModel.ON_OFF),
        ],
    )
    def test_accepts(self, key, text, value):
        assert parse_value(key, text) == value

    @pytest.mark.parametrize(
        "key, text, accepts",
        [
            ("kappa", "fast", "a number"),
            ("gain", "fastest", "a number, 'auto' or 'bhatt'"),
            ("gain", "Auto", "a number, 'auto' or 'bhatt'"),
            ("threshold_policy", "guess", "'paper_formula' or 'optimal_scan'"),
            ("count_model", "analog", "'full_counting' or 'on_off'"),
        ],
    )
    def test_refusal_names_key_text_and_accepted_values(self, key, text, accepts):
        with pytest.raises(ParseError) as info:
            parse_value(key, text)
        assert str(info.value) == f"key {key!r} needs {accepts}, got {text!r}"

    def test_config_line_adds_only_its_number(self):
        with pytest.raises(ParseError) as bare:
            parse_value("gain", "fastest")
        with pytest.raises(ParseError) as line:
            parse_config("n_s=0.01\nkappa=0.01\nn_b=20\ngain = fastest\n")
        assert str(line.value) == f"line 4: {bare.value}"

    def test_unknown_key_and_empty_text(self):
        with pytest.raises(ParseError, match="^unknown key 'k'$"):
            parse_value("k", "2")
        with pytest.raises(ParseError, match="^key 'gain' has no value$"):
            parse_value("gain", "")

    def test_range_checks_stay_in_the_dataclasses(self):
        """1 and nan are numbers to the parser; ReceiverConfig refuses them."""
        assert parse_value("gain", "1") == 1.0
        assert math.isnan(parse_value("gain", "nan"))
        assert parse_value("kappa", "2") == 2.0


class TestRenderConfig:
    def test_writes_exactly_the_parsed_keys_in_table_order(self):
        """A setting the parser reads but render_config skips would change
        outputs without changing the params digest."""
        rendered = render_config(ScenarioParams(0.01, 0.01, 20.0), ReceiverConfig())
        keys = [line.split("=", 1)[0] for line in rendered.splitlines()]
        assert keys == list(scenario._PARSERS)
        for line in rendered.splitlines():
            parse_value(*line.split("=", 1))

    @pytest.mark.parametrize("gain", [GAIN_AUTO, GAIN_BHATT, 1.0050090653144212])
    def test_round_trip(self, gain):
        # 0.1 + 0.2 is deliberately not representable as a short decimal
        params = ScenarioParams(n_s=0.1 + 0.2, kappa=1e-9, n_b=20.0)
        receiver = ReceiverConfig(
            gain=gain,
            threshold_policy=ThresholdPolicy.OPTIMAL_SCAN,
            count_model=CountModel.ON_OFF,
        )
        back_p, back_r = parse_config(render_config(params, receiver))
        assert back_p == params
        assert back_r == receiver
