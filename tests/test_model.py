"""Domain types: roles, instrument rows, partitions, regime lookup, I/O."""

import numpy as np
import pytest

import breakboot as bb
from breakboot.exceptions import ConfigError
from breakboot.model import Dataset, ModelSpec, Partition, Role, build_instrument_rows, regime_of


def small_spec():
    return ModelSpec(
        p1=1,
        p2=4,
        se_regressors=(Role("const"), Role("r", 1), Role("y", lag=1)),
        rf_instruments=(
            Role("const"), Role("r", 1), Role("r", 2), Role("r", 3), Role("r", 4),
            Role("x", 1, lag=1), Role("y", lag=1),
        ),
    )


def test_role_parse_round_trip():
    for text in ("const", "r3", "x1_lag2", "y_lag1", "r2_lag4"):
        assert str(Role.parse(text)) == text
    with pytest.raises(ConfigError):
        Role.parse("z_lag1")


def test_spec_invariants():
    spec = small_spec()
    assert spec.q == 7 and spec.q1 == 3 and spec.d_beta == 4 and spec.max_lag == 1
    # z1 must be a strict subset of z
    with pytest.raises(ConfigError):
        ModelSpec(1, 1, (Role("const"),), (Role("const"),))
    # order condition
    with pytest.raises(ConfigError):
        ModelSpec(
            2, 0,
            (Role("const"),),
            (Role("const"), Role("y", lag=1)),
        )


def test_instrument_rows_shape_and_intercept():
    spec = small_spec()
    rng = np.random.default_rng(0)
    data = Dataset(y=rng.normal(size=5), x=rng.normal(size=(5, 1)), r=rng.normal(size=(5, 4)))
    Z, Z1, offsets = build_instrument_rows(spec, data)
    assert Z.shape == (4, 7)
    assert Z1.shape == (4, 3)
    np.testing.assert_array_equal(Z[:, 0], np.ones(4))
    np.testing.assert_array_equal(offsets, [2, 3, 4, 5])


def test_instrument_rows_duplicate_column_tolerated():
    # x identical to r1: the builder does not check rank, the solver will
    spec = small_spec()
    rng = np.random.default_rng(1)
    r = rng.normal(size=(6, 4))
    data = Dataset(y=rng.normal(size=6), x=r[:, :1].copy(), r=r)
    Z, _, _ = build_instrument_rows(spec, data)
    np.testing.assert_array_equal(Z[:, 1], r[1:, 0])


def test_instrument_rows_match_generated_series():
    # row for original t=2 must be (1, r_2, x_1, y_1)
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=50, seed=7))
    spec = bb.scenario_model_spec()
    Z, Z1, offsets = build_instrument_rows(spec, data)
    assert offsets[0] == 2
    expect = np.concatenate([[1.0], data.r[1], [data.x[0, 0]], [data.y[0]]])
    np.testing.assert_allclose(Z[0], expect)
    np.testing.assert_allclose(Z1[0], [1.0, data.r[1, 0], data.y[0]])


def test_regime_of_boundaries():
    p = Partition((30, 70), n=100, trim=0.15, min_len=16)
    assert regime_of(1, p) == 1
    assert regime_of(30, p) == 1
    assert regime_of(31, p) == 2
    assert regime_of(70, p) == 2
    assert regime_of(100, p) == 3
    with pytest.raises(ValueError):
        regime_of(0, p)


def test_regime_of_weakly_increasing_and_surjective():
    p = Partition((20, 55, 80), n=100, trim=0.15, min_len=16)
    seq = [regime_of(t, p) for t in range(1, 101)]
    assert all(a <= b for a, b in zip(seq, seq[1:]))
    assert set(seq) == {1, 2, 3, 4}


def test_partition_validation():
    with pytest.raises(ConfigError):
        Partition((10, 10), n=100, trim=0.15, min_len=5)   # not increasing
    with pytest.raises(ConfigError):
        Partition((3,), n=100, trim=0.15, min_len=16)      # short first regime
    with pytest.raises(ConfigError):
        Partition((50,), n=100, trim=0.7, min_len=2)       # trim out of range
    p = Partition((50,), n=100, trim=0.15, min_len=16)
    assert p.fractions == (0.5,)
    assert p.regimes() == [(1, 50), (51, 100)]


def test_dataset_csv_round_trip(tmp_path):
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "B", T=60, seed=3))
    path = tmp_path / "d.csv"
    data.to_csv(str(path))
    back = Dataset.from_csv(str(path))
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.r, data.r)


def test_dataset_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        Dataset.from_csv(str(path))


def test_dataset_csv_without_data_rows_is_a_config_error(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("y,x1,r1\n")
    with pytest.raises(ConfigError, match="no data rows"):
        Dataset.from_csv(str(path))


def test_dataset_csv_names_the_line_of_a_short_or_long_row(tmp_path):
    path = tmp_path / "ragged.csv"
    for body in ("1,2,3\n4,5\n", "1,2,3\n4,5,6,7\n"):
        path.write_text("y,x1,r1\n" + body)
        with pytest.raises(ConfigError, match=r"ragged\.csv:3: "):
            Dataset.from_csv(str(path))
    path.write_text("y,x1,r1\n1,2\n4,5\n")  # every row the same wrong width
    with pytest.raises(ConfigError, match=r"ragged\.csv:2: 2 fields"):
        Dataset.from_csv(str(path))


def test_modelspec_json_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    spec.to_json(str(path))
    assert ModelSpec.from_json(str(path)) == spec


def test_dataset_rejects_nonfinite():
    with pytest.raises(ConfigError):
        Dataset(y=np.array([1.0, np.nan]), x=np.zeros((2, 1)), r=np.zeros((2, 1)))
