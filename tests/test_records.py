"""The package's records are immutable named tuples that validate on
construction.

Each record keeps its keyword signature, defaults and checks, and its
repr is ``Name(field=value, ...)``, which the error messages embed.  As
tuples they unpack and compare equal to a tuple of equal fields.
``_make`` and ``_replace`` build a record without ``__new__``, so without
its checks; no package code calls them.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import ric_bounds
from ric_bounds import (
    BoundResult,
    EmpiricalEstimate,
    GaussianMatrix,
    LiftedParams,
    OptimizerConfig,
    OptimReport,
    ProblemShape,
    ReferenceEntry,
    reference_tables,
)
from ric_bounds.optimizer import _C3_FLOOR, DEFAULT_CONFIG

PARAMS = LiftedParams(1.0, 0.75, 2.0, 0.25)
ENTRIES = np.zeros((2, 3))

# (record type, all fields positionally, expected repr)
CASES = [
    (ProblemShape, (0.5, 0.05), "ProblemShape(alpha=0.5, beta=0.05)"),
    (BoundResult, ("upper-lifted", 1.5, PARAMS, False, 12),
     "BoundResult(kind='upper-lifted', value=1.5, params=LiftedParams(c3=1.0, gamma=0.75, "
     "nu=2.0, delta=0.25), converged=False, evaluations=12)"),
    (LiftedParams, (1.0, 0.75, 2.0, 0.25), "LiftedParams(c3=1.0, gamma=0.75, nu=2.0, delta=0.25)"),
    (OptimizerConfig, (1e-9, 1e-5, (1e-3, 32.0), 500),
     "OptimizerConfig(inner_tol=1e-09, outer_tol=1e-05, c3_bracket=(0.001, 32.0), "
     "max_evals=500)"),
    (OptimReport, (PARAMS, -0.5, 7, True, 0.125),
     "OptimReport(best_params=LiftedParams(c3=1.0, gamma=0.75, nu=2.0, delta=0.25), "
     "best_value=-0.5, evaluations=7, converged=True, slope=0.125)"),
    (ReferenceEntry, (1, 0.1, 0.1, "xi_uric_BT", 1.9786),
     "ReferenceEntry(table_id=1, alpha=0.1, rho=0.1, quantity='xi_uric_BT', value=1.9786)"),
    (GaussianMatrix, (2, 3, 7, 1, ENTRIES),
     "GaussianMatrix(m=2, n=3, seed=7, trial=1, entries=array([[0., 0., 0.],\n"
     "       [0., 0., 0.]]))"),
    (EmpiricalEstimate, ("uric", 1.5, 0.1, 2, "exhaustive", 6, (1.4, 1.6)),
     "EmpiricalEstimate(quantity='uric', mean=1.5, stddev=0.1, trials=2, mode='exhaustive', "
     "supports_per_trial=6, per_trial=(1.4, 1.6))"),
]
IDS = [case[0].__name__ for case in CASES]


def _same_fields(record, values):
    # `is` first: an ndarray field does not compare to a bool.
    return len(record) == len(values) and all(a is b or a == b for a, b in zip(record, values))


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
class TestEveryRecord:
    def test_keyword_and_positional_construction_agree(self, cls, values, text):
        by_keyword = cls(**dict(zip(cls._fields, values)))
        assert type(by_keyword) is cls
        assert _same_fields(by_keyword, values)
        assert _same_fields(cls(*values), values)

    def test_fields_are_read_only(self, cls, values, text):
        record = cls(*values)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict

    def test_repr_names_every_field(self, cls, values, text):
        assert repr(cls(*values)) == text
        assert str(cls(*values)) == text

    def test_unpacks_as_a_tuple(self, cls, values, text):
        unpacked = tuple(cls(*values))
        assert _same_fields(unpacked, values)
        assert isinstance(cls(*values), tuple)


def test_hashable_records_compare_equal_to_a_tuple_of_equal_fields():
    assert ProblemShape(0.5, 0.05) == (0.5, 0.05)
    assert hash(ProblemShape(0.5, 0.05)) == hash((0.5, 0.05))
    alpha, beta = ProblemShape(0.5, 0.05)
    assert (alpha, beta) == (0.5, 0.05)
    assert {ProblemShape(0.5, 0.05), ProblemShape(alpha=0.5, beta=0.05)} == {(0.5, 0.05)}


def test_package_code_never_builds_records_around_their_checks():
    package = Path(ric_bounds.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "_make(" not in text and "_replace(" not in text, path.name


class TestProblemShape:
    def test_from_rho(self):
        shape = ProblemShape.from_rho(0.5, 0.1)
        assert type(shape) is ProblemShape and shape == (0.5, 0.05)
        assert shape.rho == pytest.approx(0.1)

    @pytest.mark.parametrize("alpha,beta,match", [
        (math.nan, 0.1, r"shape must be finite, got ProblemShape\(alpha=nan, beta=0.1\)"),
        (0.5, math.inf, r"shape must be finite, got ProblemShape\(alpha=0.5, beta=inf\)"),
        (0.5, 0.5, r"shape requires 0 < beta < alpha <= 1, got alpha=0.5, beta=0.5"),
        (1.5, 0.2, r"shape requires 0 < beta < alpha <= 1, got alpha=1.5, beta=0.2"),
        (0.5, 0.0, r"shape requires 0 < beta < alpha <= 1, got alpha=0.5, beta=0.0"),
    ])
    def test_rejects(self, alpha, beta, match):
        with pytest.raises(ValueError, match=match):
            ProblemShape(alpha, beta)
        with pytest.raises(ValueError, match=match):
            ProblemShape(alpha=alpha, beta=beta)


class TestBoundResult:
    def test_defaults(self):
        result = BoundResult("upper-simple", 1.5)
        assert result == BoundResult(kind="upper-simple", value=1.5, params=None,
                                     converged=True, evaluations=0)
        assert (result.params, result.converged, result.evaluations) == (None, True, 0)

    @pytest.mark.parametrize("kwargs,match", [
        ({"kind": "sideways", "value": 1.5}, r"unknown bound kind 'sideways'"),
        ({"kind": "upper-simple", "value": 1.5, "params": PARAMS},
         r"params must be present iff the kind is lifted, got BoundResult\(kind='upper-simple'"),
        ({"kind": "lower-lifted", "value": 0.5},
         r"params must be present iff the kind is lifted, got BoundResult\(kind='lower-lifted', "
         r"value=0.5, params=None, converged=True, evaluations=0\)"),
        ({"kind": "upper-simple", "value": 0.5}, r"upper bounds are >= 1 by construction, got 0.5"),
        ({"kind": "upper-lifted", "value": 0.5, "params": PARAMS},
         r"upper bounds are >= 1 by construction, got 0.5"),
        ({"kind": "lower-simple", "value": 1.5},
         r"the simple lower bound is <= 1 by construction, got 1.5"),
    ])
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BoundResult(**kwargs)


class TestLiftedParams:
    @pytest.mark.parametrize("c3,gamma,nu", [(1.0, 0.75, 2.0), (0.3, 0.2, 0.0), (0.0, 0.4, 1.5),
                                             (1e8, 5e7 + 0.5, 1e-3)])
    def test_delta_defaults_to_gamma_less_half_c3(self, c3, gamma, nu):
        params = LiftedParams(c3, gamma, nu)
        assert params.delta == gamma - c3 / 2
        assert params == LiftedParams(c3=c3, gamma=gamma, nu=nu, delta=None)
        assert params == (c3, gamma, nu, gamma - c3 / 2)

    def test_explicit_delta_is_kept(self):
        """Past c3 ~ 1e7 gamma no longer carries delta, so a given delta
        stays exact."""
        params = LiftedParams(c3=4e7, gamma=2e7, nu=0.01, delta=1e-9)
        assert params.delta == 1e-9 and params.gamma - params.c3 / 2 == 0.0

    @pytest.mark.parametrize("args,match", [
        ((-1.0, 0.5, 1.0), r"c3 and nu must be nonnegative, got LiftedParams\(c3=-1.0, gamma=0.5, "
                           r"nu=1.0, delta=1.0\)"),
        ((1.0, 0.75, -0.5), r"c3 and nu must be nonnegative, got LiftedParams\(c3=1.0"),
        ((1.0, 0.5, 1.0), r"gamma must exceed c3/2 \(moment finiteness\), got "
                          r"LiftedParams\(c3=1.0, gamma=0.5, nu=1.0, delta=0.0\)"),
        ((1.0, 0.75, 1.0, -0.25), r"gamma must exceed c3/2 \(moment finiteness\)"),
        ((1.0, 0.75, 1.0, math.nan), r"gamma must exceed c3/2 \(moment finiteness\)"),
    ])
    def test_rejects(self, args, match):
        with pytest.raises(ValueError, match=match):
            LiftedParams(*args)


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg == (1e-10, 1e-6, (_C3_FLOOR, 64.0), 20000)
        assert cfg == DEFAULT_CONFIG
        assert OptimizerConfig(max_evals=50) == (1e-10, 1e-6, (_C3_FLOOR, 64.0), 50)

    @pytest.mark.parametrize("kwargs,match", [
        ({"inner_tol": 0.0}, r"tolerances must be positive, got OptimizerConfig\(inner_tol=0.0, "
                             r"outer_tol=1e-06, c3_bracket=\(1.4210854715202004e-14, 64.0\), "
                             r"max_evals=20000\)"),
        ({"outer_tol": -1.0}, r"tolerances must be positive"),
        ({"c3_bracket": (1.0, 1.0)}, r"c3 bracket must satisfy .* <= lo < hi <= .*, got \(1.0, 1.0\)"),
        ({"c3_bracket": (1e-4, 1e160)}, r"c3 bracket must satisfy"),
        ({"max_evals": 0}, r"budget must be positive, got OptimizerConfig\("),
    ])
    def test_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            OptimizerConfig(**kwargs)


class TestOptimReport:
    def test_from_an_inner_solve(self):
        report = ric_bounds.minimize_inner(0.3, 0.05)
        assert type(report) is OptimReport and type(report.best_params) is LiftedParams
        params, value, evaluations, converged, slope = report
        assert (params.c3, converged) == (0.3, True)
        assert evaluations > 0 and math.isfinite(value) and math.isfinite(slope)

    def test_has_no_defaults(self):
        with pytest.raises(TypeError):
            OptimReport(PARAMS, -0.5)


class TestReferenceEntry:
    def test_loaded_entries_are_records(self):
        first = reference_tables.entries()[0]
        assert type(first) is ReferenceEntry
        assert first == ReferenceEntry(table_id=1, alpha=0.1, rho=0.1, quantity="xi_uric_BT",
                                       value=1.9786)

    @pytest.fixture
    def asset(self, tmp_path, monkeypatch):
        """Points the loader at a copy of the asset under tmp_path; yields
        the asset's lines and a function that rewrites the copy."""
        data = tmp_path / "data"
        data.mkdir()
        source = Path(reference_tables.__file__).parent / "data" / "tables.csv"
        lines = source.read_text(encoding="ascii").splitlines()

        def write(new_lines):
            (data / "tables.csv").write_text("\n".join(new_lines) + "\n", encoding="ascii")

        write(lines)
        monkeypatch.setattr(reference_tables, "__file__", str(tmp_path / "reference_tables.py"))
        reference_tables._load.cache_clear()
        yield lines, write
        reference_tables._load.cache_clear()

    def test_copy_of_the_asset_loads(self, asset):
        lines, write = asset
        write(lines[:5] + [""] + lines[5:])  # blank lines are skipped
        assert reference_tables.entries() == tuple(
            ReferenceEntry(int(t), float(a), float(r), q, float(v))
            for t, a, r, q, v in (line.split(",") for line in lines))

    @pytest.mark.parametrize("edit,match", [
        (lambda lines: lines + ["1,0.1,0.1,xi_uric_BT"], r"not enough values to unpack"),
        (lambda lines: lines + ["1,0.1,0.1,xi_uric_BT,1.0,2.0"], r"too many values to unpack"),
        (lambda lines: lines + ['1,0.1,0.1,"xi_uric_BT",1.0'],
         r"unknown quantity in reference asset: '\"xi_uric_BT\"'"),
        (lambda lines: lines + [lines[0]], r"duplicate reference cell \(1, 0.1, 0.1, 'xi_uric_BT'\)"),
        (lambda lines: lines[1:], r"reference asset cell counts are wrong .*\(1, 'xi_uric_BT'\): "
                                  r"\(14, 15\)"),
    ], ids=["four-fields", "six-fields", "quoted", "duplicate", "missing-cell"])
    def test_rejects_a_corrupted_asset(self, asset, edit, match):
        lines, write = asset
        write(edit(lines))
        with pytest.raises(ValueError, match=match):
            reference_tables.entries()


class TestGaussianMatrix:
    def test_from_sample_matrix(self):
        matrix = ric_bounds.sample_matrix(4, 6, seed=3, trial=2)
        m, n, seed, trial, entries = matrix
        assert type(matrix) is GaussianMatrix
        assert (m, n, seed, trial, entries.shape) == (4, 6, 3, 2, (4, 6))

    @pytest.mark.parametrize("args,match", [
        ((3, 3, 0, 0, np.zeros((3, 3))), r"requires 0 < m < n, got m=3, n=3"),
        ((0, 3, 0, 0, np.zeros((0, 3))), r"requires 0 < m < n, got m=0, n=3"),
        ((2, 3, 0, 0, np.zeros((3, 2))), r"entries shape \(3, 2\) != \(2, 3\)"),
    ])
    def test_rejects(self, args, match):
        with pytest.raises(ValueError, match=match):
            GaussianMatrix(*args)


class TestEmpiricalEstimate:
    def test_from_empirical_ric(self):
        uric, lric = ric_bounds.empirical_ric(5, 8, 2, trials=2, support_budget=100, seed=1)
        for estimate, quantity in ((uric, "uric"), (lric, "lric")):
            assert type(estimate) is EmpiricalEstimate
            assert estimate.quantity == quantity and estimate.trials == 2
            assert type(estimate.per_trial) is tuple and len(estimate.per_trial) == 2

    def test_has_no_defaults(self):
        with pytest.raises(TypeError):
            EmpiricalEstimate("uric", 1.5, 0.1, 2, "exhaustive", 6)
