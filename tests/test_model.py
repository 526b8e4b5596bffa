import json

import pytest

from rgw.errors import DegenerateLaw, DomainError, NegativeMass, NotNormalized, ParseError
from rgw.model import (
    ModelParams,
    load_params,
    mean,
    new_law,
    params_from_dict,
    params_to_dict,
    parse_law,
)


def test_new_law_basic():
    law = new_law({0: 0.5, 2: 0.5})
    assert law.kstar == 2
    assert law.support == (0, 2)
    assert law.positive_support == (2,)
    assert law.mass(2) == 0.5
    assert law.mass(1) == 0.0


def test_new_law_degenerate():
    with pytest.raises(DegenerateLaw):
        new_law({2: 1.0})


def test_new_law_not_normalized():
    with pytest.raises(NotNormalized):
        new_law({1: 0.3, 2: 0.3})


def test_new_law_negative_mass():
    with pytest.raises(NegativeMass):
        new_law({1: -0.1, 2: 1.1})
    with pytest.raises(NegativeMass):
        new_law({-1: 0.5, 2: 0.5})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_new_law_rejects_non_finite_mass(bad):
    with pytest.raises((NotNormalized, NegativeMass)):
        new_law({0: bad, 1: 0.5, 2: 0.5})


@pytest.mark.parametrize("text", ["0:nan,1:.5,2:.5", "0:inf,1:.5,2:.5", "1:.5,2:-inf"])
def test_parse_law_rejects_non_finite_mass(text):
    with pytest.raises((NotNormalized, NegativeMass)):
        parse_law(text)


def test_new_law_prunes_and_renormalizes():
    law = new_law({0: 0.25, 1: 0.75, 5: 1e-18})
    assert law.support == (0, 1)
    law2 = new_law({0: 0.5 + 2e-10, 2: 0.5})
    assert abs(sum(law2.masses.values()) - 1.0) < 1e-15


def test_pruning_can_expose_degeneracy():
    with pytest.raises(DegenerateLaw):
        new_law({2: 1.0 - 1e-16, 5: 1e-16})


def test_mean_examples():
    assert mean(new_law({0: 0.5, 2: 0.5})) == 1.0
    assert mean(new_law({1: 0.5, 2: 0.5})) == 1.5
    assert mean(new_law({0: 0.25, 1: 0.25, 4: 0.5})) == 2.25


def test_parse_law():
    law = parse_law("0:0.5,2:0.5")
    assert law.masses == {0: 0.5, 2: 0.5}
    assert parse_law("1:0.5, 2:0.5").kstar == 2


@pytest.mark.parametrize("text", ["1:abc", "1", "1:0.5,1:0.5", "", ":", "2000000:1.0"])
def test_parse_law_errors(text):
    with pytest.raises(ParseError):
        parse_law(text)


def test_params_validation():
    law = new_law({1: 0.5, 2: 0.5})
    for q in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            ModelParams(law, q)


def test_params_json_round_trip(tmp_path):
    obj = {"law": {"0": 0.5, "2": 0.5}, "q": 0.5}
    params = params_from_dict(obj)
    assert params.q == 0.5
    assert params.law.kstar == 2
    path = tmp_path / "law.json"
    path.write_text(json.dumps(params_to_dict(params)))
    again = load_params(str(path))
    assert again.law.masses == params.law.masses
    assert again.q == params.q


def test_load_params_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_params(str(path))
    path.write_text(json.dumps({"law": {"1": 0.5, "2": 0.5}}))
    with pytest.raises(ParseError):
        load_params(str(path))
