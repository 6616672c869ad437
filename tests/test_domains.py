"""Parameter domains: every default lies inside its own domain, values drawn
inside a domain pass, and NaN, infinities, values past a bound and
non-integral floats for int parameters are ConfigErrors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seizurekit import ConfigError, PipelineConfig, SmoteConfig, SynthConfig
from seizurekit.domains import Domain, check_params, domains_of
from seizurekit.models import MODELS, LogRegConfig, LstmTrainConfig, RFConfig, svm_fit_smo
from seizurekit.models.knn import nearest
from seizurekit.models.lstm import init_params


def _config_table(cls):
    """(build, domains, defaults) of a config dataclass declared with param()."""
    domains = domains_of(cls)
    return lambda values: cls(**values), domains, {k: getattr(cls(), k) for k in domains}


# Every table an entry point checks: (build from a {param: value} dict, domains, defaults).
TABLES = {
    **{
        f"model:{name}": (
            lambda values, name=name: PipelineConfig(model=name, model_params=values),
            spec.domains,
            spec.defaults,
        )
        for name, spec in MODELS.items()
    },
    "PipelineConfig": _config_table(PipelineConfig),
    "SmoteConfig": _config_table(SmoteConfig),
    "SynthConfig": _config_table(SynthConfig),
    "LogRegConfig": _config_table(LogRegConfig),
    "RFConfig": _config_table(RFConfig),
    "LstmTrainConfig": _config_table(LstmTrainConfig),
}
PARAMS = [(table, key) for table, (_, domains, _) in TABLES.items() for key in domains]


def _number_inside(d: Domain):
    if d.kind is int:
        lo = None if d.lo == -math.inf else int(d.lo) + d.lo_open
        hi = None if d.hi == math.inf else int(d.hi) - d.hi_open
        return st.integers(min_value=lo, max_value=hi)
    return st.floats(
        min_value=None if d.lo == -math.inf else d.lo,
        max_value=None if d.hi == math.inf else d.hi,
        exclude_min=d.lo_open and d.lo > -math.inf,
        exclude_max=d.hi_open and d.hi < math.inf,
        allow_nan=False,
        allow_infinity=False,
    )


def inside(d: Domain):
    """A strategy for values inside d."""
    if d.kind is dict:
        weight = _number_inside(Domain(float, d.lo, d.hi, d.lo_open, d.hi_open))
        weights = st.dictionaries(st.sampled_from([0, 1, "0", "1"]), weight, max_size=2)
        return st.none() | st.just("balanced") | weights
    values = _number_inside(d)
    return st.none() | values if d.auto else values


def outside(d: Domain) -> list:
    """NaN, both infinities, a value just past each finite bound and, for an
    int parameter, a non-integral float: none of them lies inside d."""
    def beyond(bound, is_open, direction):
        if is_open:
            return bound
        return bound + direction if d.kind is int else math.nextafter(bound, direction * math.inf)

    past = []
    if d.lo > -math.inf:
        past.append(beyond(d.lo, d.lo_open, -1))
    if d.hi < math.inf:
        past.append(beyond(d.hi, d.hi_open, 1))
    numbers = [math.nan, math.inf, -math.inf, *past]
    if d.kind is int:
        numbers.append(max(d.lo, 0) + 1.5)
    if d.kind is dict:
        return [{1: x} for x in numbers] + ["bananas"]
    return numbers + ([] if d.auto else [None])


@pytest.mark.parametrize("table", list(TABLES))
def test_every_default_lies_inside_its_own_domain(table):
    build, domains, defaults = TABLES[table]
    assert set(defaults) == set(domains)
    for key, default in defaults.items():
        assert default in domains[key], key
    build(defaults)


@pytest.mark.parametrize("table, key", PARAMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_value_inside_its_domain_is_accepted(table, key, data):
    build, domains, _ = TABLES[table]
    build({key: data.draw(inside(domains[key]))})


@pytest.mark.parametrize("table, key", PARAMS)
def test_a_value_outside_its_domain_is_a_config_error(table, key):
    build, domains, _ = TABLES[table]
    for value in outside(domains[key]):
        with pytest.raises(ConfigError, match=key):
            build({key: value})


def test_a_float_domain_of_0_to_inf_reads_as_such():
    message = r"^svm parameter C must be a finite number > 0, got inf$"
    with pytest.raises(ConfigError, match=message):
        svm_fit_smo(np.eye(2), np.array([0, 1]), C=math.inf)
    assert str(Domain(int, 1, auto=True)) == "an int >= 1 or null"
    assert str(Domain(float, 0, 1, lo_open=True)) == "a finite number in (0, 1]"
    assert str(Domain(float)) == "a finite number"


def test_an_int_too_large_for_a_float_is_refused_only_for_a_float():
    with pytest.raises(ConfigError, match="t parameter x must be a finite number >= 0, got 1000"):
        check_params("t", {"x": 10**400}, {"x": Domain(float, 0)})
    check_params("t", {"x": 10**400}, {"x": Domain(int, 1)})


def test_numpy_scalars_pass_for_their_kind_but_a_bool_or_a_float_not_for_an_int():
    domains = {"k": Domain(int, 1), "x": Domain(float, 0, 1)}
    check_params("t", {"k": np.int64(3), "x": np.float32(0.5)}, domains)
    for value in (True, np.float64(2.0)):
        with pytest.raises(ConfigError):
            check_params("t", {"k": value}, {"k": Domain(int, 1)})


def test_an_unknown_key_is_named_with_the_allowed_ones():
    with pytest.raises(ConfigError, match=r"unknown t parameter\(s\) \['y'\]; allowed: \['x'\]"):
        check_params("t", {"y": 1}, {"x": Domain(int)})


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: svm_fit_smo(np.eye(2), np.array([0, 1]), max_passes=2.5), "max_passes"),
        (lambda: svm_fit_smo(np.eye(2), np.array([0, 1]), tol=10**400), "tol"),
        (lambda: nearest(np.eye(2), np.eye(2), 1.5), "k"),
        (lambda: init_params(3, hidden_dim=2.0), "hidden_dim"),
    ],
)
def test_function_entry_points_check_their_parameters(call, named):
    with pytest.raises(ConfigError, match=named):
        call()
